"""Table B job: indexed (one GiST/pg3D-Rtree index join) voting vs
the unindexed nested-loop comparator, sweeping MOD size (preparatory
phase's "orders of magnitude speedup" claim).

Usage:  spark-submit jobs/table_b_indexed_voting.py [n1,n2,...] [seed]
"""
import sys

from pyspark.sql import SparkSession

from repro.eval.harness import run_table_b


def main() -> None:
    ns = (
        tuple(int(v) for v in sys.argv[1].split(","))
        if len(sys.argv) > 1
        else (40, 80, 160, 320)
    )
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    spark = (
        SparkSession.builder.appName("table-b-voting")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.shuffle.partitions", "16")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    run_table_b(spark, n_objects=ns, seed=seed)
    spark.stop()


if __name__ == "__main__":
    main()

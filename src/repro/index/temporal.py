"""Temporal bucketing — the Spark-side partitioning for the voting phase.

Hermes evaluates voting inside the DBMS with index support; the PySpark
equivalent distributes the work by slicing time into fixed-width buckets
so that any two temporally-overlapping segments share at least one
bucket.  Each bucket group is then processed by one `applyInPandas`
task that builds a pg3D-Rtree over its segments (see
``repro.core.voting``).  A segment spanning a bucket boundary is
replicated into every bucket it overlaps (``explode``), and the
per-(segment, voter) vote is later de-duplicated with a global ``max``
aggregation — the relational step the DuckDB oracle checks.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def with_time_buckets(segments: DataFrame, bucket_width: float) -> DataFrame:
    """Replicate each segment row into every temporal bucket it overlaps.

    Adds an integer ``bucket`` column; a segment with ``[t1, t2]``
    crossing a boundary appears once per overlapped bucket.  Correct for
    any segment duration (``sequence`` covers multi-bucket spans).
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    b1 = F.floor(F.col("t1") / F.lit(float(bucket_width)))
    b2 = F.floor(F.col("t2") / F.lit(float(bucket_width)))
    return segments.withColumn("bucket", F.explode(F.sequence(b1, b2)))

"""Table C benchmark: S2T-Clustering per-phase wall time as the MOD
grows (efficiency/scalability claim of §II.A)."""
import pytest

from repro.eval.harness import run_table_c


@pytest.mark.benchmark(group="table-c")
def test_bench_table_c_s2t_scalability(spark, benchmark):
    df = benchmark.pedantic(
        lambda: run_table_c(spark, sfs=(0.01, 0.02, 0.05, 0.1), seed=0),
        rounds=1,
        iterations=1,
    )
    assert (df["n_points"].diff().dropna() > 0).all()
    big = df.iloc[-1]
    # SaCO (sampling, then clustering) operates on the small
    # sub-trajectory summary level, so each of its phases must cost less
    # than each NaTS phase over the raw segments (the paper's SaCO design
    # rationale)
    assert max(big["sampling_s"], big["clustering_s"]) < min(
        big["voting_s"], big["segmentation_s"]
    )
    # graceful scaling: 5x more points must cost far less than 5x
    # (the pg3D-Rtree prunes candidate pairs to actual neighbours)
    warm = df[df.sf >= 0.02]
    ratio = warm.iloc[-1]["total_s"] / warm.iloc[0]["total_s"]
    points_ratio = warm.iloc[-1]["n_points"] / warm.iloc[0]["n_points"]
    assert ratio < points_ratio

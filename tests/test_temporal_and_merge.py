"""Temporal bucketing (oracle-checked replication semantics) and the
QuT cross-region merge machinery (DSU + representative continuity)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.index.temporal import with_time_buckets
from repro.oracle import assert_equivalent
from repro.retratree.tree import _DSU, _merge_regions


# ------------------------------------------------------------- bucketing
def _seg_frame(spark, t1s, dur):
    pdf = pd.DataFrame(
        {
            "traj_id": np.arange(len(t1s), dtype=np.int64),
            "seg_id": np.zeros(len(t1s), dtype=np.int64),
            "t1": np.asarray(t1s, dtype=float),
            "x1": 0.0, "y1": 0.0,
            "t2": np.asarray(t1s, dtype=float) + dur,
            "x2": 1.0, "y2": 1.0,
        }
    )
    return spark.createDataFrame(pdf), pdf


@pytest.mark.parametrize("width", [10.0, 25.0, 100.0])
def test_bucket_replication_matches_sql(spark, width):
    df, pdf = _seg_frame(spark, [0.0, 5.0, 9.9, 10.0, 99.0, 250.0], dur=15.0)
    got = with_time_buckets(df, width).select("traj_id", "bucket")
    assert_equivalent(
        got,
        f"""
        SELECT traj_id, r.bucket
        FROM seg, LATERAL (
          SELECT unnest(range(CAST(floor(t1/{width}) AS BIGINT),
                              CAST(floor(t2/{width}) AS BIGINT) + 1)) AS bucket
        ) r
        """,
        seg=pdf,
    )


@pytest.mark.parametrize("width,expected", [(10.0, 2), (20.0, 1), (5.0, 4)])
def test_bucket_count_for_single_segment(spark, width, expected):
    df, _ = _seg_frame(spark, [0.0], dur=15.0)
    assert with_time_buckets(df, width).count() == expected


def test_segment_on_boundary_in_both_buckets(spark):
    df, _ = _seg_frame(spark, [10.0], dur=10.0)  # [10, 20] with width 10
    buckets = sorted(
        r["bucket"] for r in with_time_buckets(df, 10.0).select("bucket").collect()
    )
    assert buckets == [1, 2]


# ------------------------------------------------------------------- DSU
def test_dsu_basic_union_find():
    d = _DSU()
    d.union("a", "b")
    d.union("b", "c")
    assert d.find("a") == d.find("c") == "a"  # lexicographic canonical
    assert d.find("z") == "z"


def test_dsu_deterministic_canonical():
    d = _DSU()
    d.union("x", "m")
    d.union("m", "a")
    assert d.find("x") == "a"


# ----------------------------------------------------------- region merge
def _region(t_lo, t_hi, reps):
    return {"t_lo": t_lo, "t_hi": t_hi, "reps": reps, "rows": pd.DataFrame()}


def _poly(t0, t1, x0, x1, y=0.0):
    ts = np.linspace(t0, t1, 10)
    return ts, np.linspace(x0, x1, 10), np.full(10, y)


def test_merge_continuous_representatives():
    a = _region(0, 100, {"c0:rep-0": _poly(0, 99, 0, 10)})
    b = _region(100, 200, {"c1:rep-0": _poly(101, 199, 10, 20)})
    dsu = _merge_regions([a, b], d_merge=2.0, t_gap=30.0)
    assert dsu.find("c0:rep-0") == dsu.find("c1:rep-0")


def test_no_merge_when_spatially_far():
    a = _region(0, 100, {"c0:rep-0": _poly(0, 99, 0, 10)})
    b = _region(100, 200, {"c1:rep-0": _poly(101, 199, 80, 90)})
    dsu = _merge_regions([a, b], d_merge=2.0, t_gap=30.0)
    assert dsu.find("c0:rep-0") != dsu.find("c1:rep-0")


def test_no_merge_when_temporal_gap_large():
    a = _region(0, 100, {"c0:rep-0": _poly(0, 50, 0, 10)})  # ends at t=50
    b = _region(100, 200, {"c1:rep-0": _poly(150, 199, 10, 20)})
    dsu = _merge_regions([a, b], d_merge=2.0, t_gap=30.0)
    assert dsu.find("c0:rep-0") != dsu.find("c1:rep-0")


def test_no_merge_across_region_hole():
    a = _region(0, 100, {"c0:rep-0": _poly(0, 99, 0, 10)})
    c = _region(300, 400, {"c3:rep-0": _poly(301, 399, 10, 20)})
    dsu = _merge_regions([a, c], d_merge=1000.0, t_gap=1e9)
    assert dsu.find("c0:rep-0") != dsu.find("c3:rep-0")


def test_merge_chain_across_three_regions():
    a = _region(0, 100, {"A": _poly(0, 99, 0, 10)})
    b = _region(100, 200, {"B": _poly(101, 199, 10, 20)})
    c = _region(200, 300, {"C": _poly(201, 299, 20, 30)})
    dsu = _merge_regions([a, b, c], d_merge=2.0, t_gap=30.0)
    assert dsu.find("A") == dsu.find("B") == dsu.find("C")


# ------------------------------------------------------- qut_clustering API
def test_qut_clustering_api(retratree):
    from repro.core.qut import qut_clustering

    tau = retratree.tau
    res = qut_clustering(retratree, 900.0, 6300.0, d=3.0, gamma=2, tau=tau + 2)
    assert retratree.tau == tau  # queries are read-only; tau is insert-time
    assert len(res.rows) > 0
    assert res.n_full + res.n_partial >= 2


def test_qut_clustering_api_defaults(retratree):
    from repro.core.qut import qut_clustering

    res = qut_clustering(retratree, 0.0, retratree.chunk_width)
    assert set(res.timings) == {"reuse", "recluster", "merge", "total"}

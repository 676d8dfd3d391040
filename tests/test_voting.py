"""Voting phase: the indexed (GiST/pg3D-Rtree) path must produce exactly
the votes of the naive nested loop, under any bucketing; the relational
aggregation is oracle-checked against DuckDB."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.voting import (
    CUTOFF_SIGMAS, _bucket_votes, _pairs_to_votes, _seg_matrix,
    vote_segments, vote_segments_naive,
)
from repro.mod.model import make_points_df, points_to_segments
from repro.oracle import assert_equivalent


def _sorted_votes(df) -> np.ndarray:
    return (
        df.toPandas()
        .sort_values(["traj_id", "seg_id"])
        .reset_index(drop=True)["vote"]
        .to_numpy()
    )


@pytest.mark.parametrize("bucket_width", [120.0, 300.0, 1000.0, 10_000.0])
def test_indexed_equals_naive_any_bucketing(segments, bucket_width):
    vi = _sorted_votes(vote_segments(segments, sigma=1.0, bucket_width=bucket_width))
    vn = _sorted_votes(vote_segments_naive(segments, sigma=1.0))
    np.testing.assert_allclose(vi, vn, atol=1e-9)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_indexed_equals_naive_sigma(segments, sigma):
    vi = _sorted_votes(vote_segments(segments, sigma=sigma))
    vn = _sorted_votes(vote_segments_naive(segments, sigma=sigma))
    np.testing.assert_allclose(vi, vn, atol=1e-9)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_bucket_votes_equal_all_pairs_reference(mod_pdf, sigma):
    """The batched self join on the pg3D-Rtree scores exactly the pairs a
    scan of every cross-trajectory pair keeps: the pair frames are equal,
    value for value, so the index changes cost only."""
    seg = points_to_segments(mod_pdf[["traj_id", "t", "x", "y"]])
    m = _seg_matrix(seg)
    traj = seg["traj_id"].to_numpy(dtype=np.int64)
    ei, fj = np.divmod(np.arange(len(m) ** 2, dtype=np.int64), len(m))
    cross = traj[ei] != traj[fj]
    cutoff = CUTOFF_SIGMAS * sigma
    ref = _pairs_to_votes(m, traj, seg["seg_id"].to_numpy(dtype=np.int64),
                          ei[cross], fj[cross], sigma, cutoff)
    got = _bucket_votes(seg, sigma, cutoff)
    assert len(ref) > 0
    assert got.equals(ref)


def test_votes_bounded_by_cardinality(segments, voted):
    n_trajs = segments.select("traj_id").distinct().count()
    vmax = voted.agg(F.max("vote")).first()[0]
    assert 0.0 <= vmax < n_trajs  # a vote per other trajectory, each in (0, 1]


def test_votes_cover_all_segments(segments, voted):
    assert voted.count() == segments.count()
    assert voted.where("vote IS NULL").count() == 0


def test_comovers_vote_high(voted, mod_pdf):
    """Segments of planted group members must collect substantial votes."""
    grp_trajs = set(
        mod_pdf[mod_pdf.gt_label >= 0]
        .groupby("traj_id")
        .size()
        .loc[lambda s: s > 10]
        .index
    )
    pdf = voted.toPandas()
    grp_votes = pdf[pdf.traj_id.isin(grp_trajs)]["vote"]
    assert grp_votes.max() > 2.0  # several co-movers
    assert grp_votes.mean() > pdf[~pdf.traj_id.isin(grp_trajs)]["vote"].mean()


def test_isolated_trajectory_gets_zero(spark):
    """Two far-apart objects: all votes are exactly zero."""
    pdf = pd.DataFrame(
        {
            "traj_id": [0] * 5 + [1] * 5,
            "t": list(range(5)) * 2,
            "x": [0.0] * 5 + [500.0] * 5,
            "y": [0.0] * 5 + [500.0] * 5,
        }
    )
    pdf["t"] = pdf["t"].astype(float) * 10
    seg = points_to_segments(make_points_df(spark, pdf.assign(obj_id=pdf.traj_id)))
    v = vote_segments(seg, sigma=1.0).toPandas()
    assert (v["vote"] == 0.0).all()


def test_two_comovers_vote_one(spark):
    """Two identical trajectories 0.0 apart: each segment's vote == 1."""
    base = pd.DataFrame(
        {"t": np.arange(10.0) * 10, "x": np.arange(10.0), "y": np.zeros(10)}
    )
    pdf = pd.concat(
        [base.assign(traj_id=0, obj_id=0), base.assign(traj_id=1, obj_id=1)],
        ignore_index=True,
    )
    seg = points_to_segments(make_points_df(spark, pdf))
    v = vote_segments(seg, sigma=1.0).toPandas()
    np.testing.assert_allclose(v["vote"].to_numpy(), 1.0, atol=1e-12)


def test_time_shift_kills_votes(spark):
    """Same path traversed 1 hour apart: time-aware voting gives zero."""
    base = pd.DataFrame(
        {"t": np.arange(10.0) * 10, "x": np.arange(10.0), "y": np.zeros(10)}
    )
    pdf = pd.concat(
        [
            base.assign(traj_id=0, obj_id=0),
            base.assign(traj_id=1, obj_id=1, t=base.t + 3600.0),
        ],
        ignore_index=True,
    )
    seg = points_to_segments(make_points_df(spark, pdf))
    v = vote_segments(seg, sigma=1.0).toPandas()
    assert (v["vote"] == 0.0).all()


def test_vote_aggregation_matches_sql(spark):
    """The max-per-(segment, voter) then sum-over-voters relational step,
    oracle-checked: hand-built pair votes aggregated identically."""
    pair = pd.DataFrame(
        {
            "traj_id": [1, 1, 1, 1, 2, 2],
            "seg_id": [0, 0, 0, 1, 0, 0],
            "voter": [7, 7, 8, 7, 7, 9],
            "vote": [0.5, 0.9, 0.4, 1.0, 0.3, 0.2],
        }
    )
    df = spark.createDataFrame(pair)
    got = (
        df.groupBy("traj_id", "seg_id", "voter")
        .agg(F.max("vote").alias("vote"))
        .groupBy("traj_id", "seg_id")
        .agg(F.sum("vote").alias("vote"))
    )
    assert_equivalent(
        got,
        "SELECT traj_id, seg_id, sum(vote) AS vote FROM ("
        "  SELECT traj_id, seg_id, voter, max(vote) AS vote"
        "  FROM pair GROUP BY traj_id, seg_id, voter"
        ") GROUP BY traj_id, seg_id",
        pair=pair,
    )


def test_cutoff_monotone(segments):
    """A larger cutoff can only add votes."""
    v1 = _sorted_votes(vote_segments(segments, sigma=1.0, cutoff=1.0))
    v3 = _sorted_votes(vote_segments(segments, sigma=1.0, cutoff=3.0))
    assert (v3 >= v1 - 1e-12).all()
    assert v3.sum() > v1.sum()


def test_bucket_width_validation(segments):
    from repro.index.temporal import with_time_buckets

    with pytest.raises(ValueError):
        with_time_buckets(segments, 0.0)


def test_bucket_replication_covers_span(segments):
    from repro.index.temporal import with_time_buckets

    nb = with_time_buckets(segments, 300.0).select("bucket").distinct().count()
    t_lo, t_hi = segments.selectExpr("min(t1)", "max(t2)").first()
    assert nb == int(np.floor(t_hi / 300.0)) - int(np.floor(t_lo / 300.0)) + 1

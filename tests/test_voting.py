"""Voting phase: the indexed (GiST/pg3D-Rtree) path must produce exactly
the votes of the naive nested loop, however the segments are partitioned;
the max-per-voter and sum steps are oracle-checked against DuckDB."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import voting
from repro.core.voting import (
    CUTOFF_SIGMAS, _bucket_votes, _join_votes, _max_per_voter, _pairs_to_votes,
    _seg_matrix, vote_segments, vote_segments_naive,
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


def test_indexed_equals_naive_any_partitioning(segments):
    """Each Spark partition votes its own rows against the whole table, so
    the votes do not depend on how the segments are spread: 1, 3 and 8
    partitions by the parity of ``seg_id`` (each trajectory split in two,
    some partitions empty) give bit-equal votes, those of the in-process
    engine, and equal to the naive scan's."""
    sizes, runs = [], []
    for n in (1, 3, 8):
        part = segments.repartition(n, F.col("seg_id") % 2)
        sizes += part.rdd.glom().map(len).collect()
        runs.append(_sorted_votes(vote_segments(part, sigma=1.0)))
    assert min(sizes) == 0
    local = vote_segments(segments.toPandas(), sigma=1.0)
    want = local.sort_values(["traj_id", "seg_id"])["vote"].to_numpy()
    for got in runs:
        np.testing.assert_array_equal(got, want)
    vn = _sorted_votes(vote_segments_naive(segments, sigma=1.0))
    np.testing.assert_allclose(want, vn, rtol=0, atol=1e-9)


@pytest.mark.parametrize("bucket_width", [120.0, 300.0, 1000.0, 10_000.0])
def test_indexed_equals_naive_any_bucketing(segments, bucket_width):
    """Segments partitioned by temporal bucket of their start time, so
    each task holds one slice of time and votes it against the whole
    table: any width gives the in-process votes bit for bit, equal to
    the naive scan's."""
    part = segments.repartition(F.floor(F.col("t1") / bucket_width))
    vi = _sorted_votes(vote_segments(part, sigma=1.0))
    local = vote_segments(segments.toPandas(), sigma=1.0)
    np.testing.assert_array_equal(
        vi, local.sort_values(["traj_id", "seg_id"])["vote"].to_numpy())
    vn = _sorted_votes(vote_segments_naive(segments, sigma=1.0))
    np.testing.assert_allclose(vi, vn, atol=1e-9)


def test_query_blocks_leave_the_pairs_unchanged(mod_pdf, monkeypatch):
    """The kernel queries and scores its segments in blocks; blocks of 7
    give the pair frame of one block holding every segment."""
    seg = points_to_segments(mod_pdf[["traj_id", "t", "x", "y"]])
    cutoff = CUTOFF_SIGMAS * 1.0
    monkeypatch.setattr(voting, "_QUERY_BLOCK", len(seg))
    whole = _bucket_votes(seg, 1.0, cutoff)
    monkeypatch.setattr(voting, "_QUERY_BLOCK", 7)
    blocked = _bucket_votes(seg, 1.0, cutoff)
    assert len(whole) > 0
    assert blocked.equals(whole)


def _exchanges(df) -> int:
    """``Exchange`` nodes in the physical plan of ``df``, read from a new
    projection: once a frame has run, its adaptive plan prints both its
    initial and its final form."""
    plan = df.select("*")._jdf.queryExecution().executedPlan().toString()
    return plan.count("Exchange")


def test_spark_voting_adds_no_shuffle(segments):
    """Spark voting is one narrow ``mapInPandas`` over the segments' own
    partitions: its plan has no ``Exchange`` beyond those of ``segments``."""
    assert _exchanges(vote_segments(segments, sigma=1.0)) == _exchanges(segments)


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
    """The voting kernel's relational steps, max per (segment, voter)
    (``_max_per_voter``) then the sum over voters left-joined onto the
    segments (``_join_votes``), oracle-checked: hand-built pair votes
    through them equal the SQL, and an unvoted segment reads 0."""
    pair = pd.DataFrame(
        {
            "traj_id": [1, 1, 1, 1, 2, 2],
            "seg_id": [0, 0, 0, 1, 0, 0],
            "voter": [7, 7, 8, 7, 7, 9],
            "vote": [0.5, 0.9, 0.4, 1.0, 0.3, 0.2],
        }
    )
    seg = pd.DataFrame({"traj_id": [1, 1, 2, 3], "seg_id": [0, 1, 0, 0]}).assign(
        t1=0.0, x1=0.0, y1=0.0, t2=1.0, x2=0.0, y2=0.0)
    got = _join_votes(seg, _max_per_voter(pair))[["traj_id", "seg_id", "vote"]]
    assert_equivalent(
        spark.createDataFrame(got),
        "SELECT s.traj_id, s.seg_id, coalesce(v.vote, 0.0) AS vote FROM seg s"
        " LEFT JOIN ("
        "  SELECT traj_id, seg_id, sum(vote) AS vote FROM ("
        "    SELECT traj_id, seg_id, voter, max(vote) AS vote"
        "    FROM pair GROUP BY traj_id, seg_id, voter"
        "  ) GROUP BY traj_id, seg_id"
        " ) v ON s.traj_id = v.traj_id AND s.seg_id = v.seg_id",
        pair=pair, seg=seg,
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

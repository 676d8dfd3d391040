"""Voting phase of S2T-Clustering (NaTS part 1).

Each 3D trajectory segment is voted by every *other* trajectory that
co-exists with it in time; the vote is a Gaussian kernel of the minimum
co-temporal distance (``repro.core.distance``).  A segment's
representativeness is the sum of votes over voter trajectories — a value
in [0, N) whose "physical meaning is how many trajectories co-move with
that trajectory for a certain period of time" (paper §II.A).

Two implementations, matching Table B of the reproduction:

- :func:`vote_segments` — the *indexed* path (what Hermes runs via
  GiST/pg3D-Rtree): temporal buckets distribute the work across Spark
  tasks.  Each task runs :func:`_bucket_votes`: it STR-bulk-loads a
  pg3D-Rtree over its bucket's segments (padded by the spatial cutoff)
  and finds every candidate pair with one batched self spatial join
  (``Rtree3D.query_boxes``: a single tree descent for all of the
  bucket's segments, after Brinkhoff, Kriegel & Seeger, SIGMOD 1993),
  then scores only the hits on other trajectories.  Cross-bucket
  duplicates are resolved by a global max-per-(segment, voter)
  aggregation followed by a sum over voters — plain relational steps
  the DuckDB oracle verifies in the tests.  A pandas segments frame runs
  the same kernel in-process, as one bucket.
- :func:`vote_segments_naive` — the unindexed comparator ("corresponding
  PostgreSQL function"): a nested-loop scan over all segment pairs with
  only the time-overlap predicate, no index, single task.

Both produce identical votes (asserted in tests); only cost differs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance import min_moving_distance, vote_kernel
from repro.index.rtree3d import Rtree3D, segment_boxes
from repro.index.temporal import with_time_buckets
from repro.mod.model import SEGMENT_COLS

_PAIR_SCHEMA = "traj_id long, seg_id long, voter long, vote double"

#: Default spatial cutoff multiplier: votes below kernel(3*sigma) ~ 0.011
#: are treated as zero, bounding each segment's candidate set.
CUTOFF_SIGMAS = 3.0

#: Rows of the naive scan's pair matrix scored at a time (bounds memory).
_NAIVE_CHUNK = 512


def _seg_matrix(pdf: pd.DataFrame) -> np.ndarray:
    return pdf[SEGMENT_COLS[2:]].to_numpy(dtype=np.float64)


def _empty_votes() -> pd.DataFrame:
    # typed empty frame so Arrow serialization of empty groups succeeds
    return pd.DataFrame(
        {
            "traj_id": pd.Series(dtype="int64"),
            "seg_id": pd.Series(dtype="int64"),
            "voter": pd.Series(dtype="int64"),
            "vote": pd.Series(dtype="float64"),
        }
    )


def _pairs_to_votes(
    seg: np.ndarray, traj: np.ndarray, seg_id: np.ndarray,
    ei: np.ndarray, fj: np.ndarray, sigma: float, cutoff: float,
) -> pd.DataFrame:
    """Score candidate segment pairs (ei[k] voted by fj[k])."""
    d, _ = min_moving_distance(seg[ei], seg[fj])
    ok = d <= cutoff
    if not ok.any():
        return _empty_votes()
    votes = vote_kernel(d[ok], sigma)
    out = pd.DataFrame(
        {
            "traj_id": traj[ei[ok]],
            "seg_id": seg_id[ei[ok]],
            "voter": traj[fj[ok]],
            "vote": votes,
        }
    )
    # one vote per (segment, voter): the voter's best co-temporal approach
    return out.groupby(["traj_id", "seg_id", "voter"], as_index=False)["vote"].max()


def _bucket_votes(pdf: pd.DataFrame, sigma: float, cutoff: float) -> pd.DataFrame:
    """Per-bucket kernel: one batched self join of the bucket's segment
    boxes against a pg3D-Rtree of the same boxes padded by ``cutoff``,
    then closed-form scoring of the hits on other trajectories."""
    if len(pdf) < 2:
        return _empty_votes()
    seg = _seg_matrix(pdf)
    traj = pdf["traj_id"].to_numpy(dtype=np.int64)
    seg_id = pdf["seg_id"].to_numpy(dtype=np.int64)
    tree = Rtree3D.from_segments(seg, pad=cutoff)
    ei, fj = tree.query_boxes(segment_boxes(seg, pad=0.0))
    other = traj[ei] != traj[fj]
    return _pairs_to_votes(seg, traj, seg_id, ei[other], fj[other], sigma, cutoff)


def _join_votes(segments: pd.DataFrame, pair_votes: pd.DataFrame) -> pd.DataFrame:
    """Sum one-per-voter pair votes per segment and left-join them onto
    ``segments`` (0 for unvoted segments)."""
    votes = pair_votes.groupby(["traj_id", "seg_id"], as_index=False)["vote"].sum()
    out = segments[SEGMENT_COLS].merge(votes, on=["traj_id", "seg_id"], how="left")
    out["vote"] = out["vote"].fillna(0.0)
    return out


def vote_segments(
    segments: DataFrame | pd.DataFrame,
    *,
    sigma: float,
    cutoff: float | None = None,
    bucket_width: float = 300.0,
) -> DataFrame | pd.DataFrame:
    """Indexed voting: segments -> segments + ``vote`` column, same frame kind.

    ``sigma`` is the kernel bandwidth (same units as x/y); ``cutoff``
    defaults to ``3 * sigma``; ``bucket_width`` (seconds) controls the
    Spark-side temporal partitioning (any width is correct — segments
    spanning boundaries are replicated and de-duplicated by the global
    max aggregation; width only tunes parallelism vs. duplication).  A
    pandas frame is voted in-process as one bucket: no replication, so
    :func:`_bucket_votes` already yields one vote per voter.
    """
    if cutoff is None:
        cutoff = CUTOFF_SIGMAS * sigma
    if isinstance(segments, pd.DataFrame):
        return _join_votes(segments, _bucket_votes(segments, sigma, cutoff))
    bucketed = with_time_buckets(segments, bucket_width)
    pair_votes = bucketed.groupBy("bucket").applyInPandas(
        lambda pdf: _bucket_votes(pdf, sigma, cutoff), schema=_PAIR_SCHEMA
    )
    per_segment = (
        pair_votes.groupBy("traj_id", "seg_id", "voter")
        .agg(F.max("vote").alias("vote"))
        .groupBy("traj_id", "seg_id")
        .agg(F.sum("vote").alias("vote"))
    )
    return (
        segments.join(per_segment, ["traj_id", "seg_id"], "left")
        .withColumn("vote", F.coalesce(F.col("vote"), F.lit(0.0)))
        .select(*SEGMENT_COLS, "vote")
    )


def vote_segments_naive(
    segments: DataFrame,
    *,
    sigma: float,
    cutoff: float | None = None,
) -> DataFrame:
    """Unindexed voting: the nested-loop "PostgreSQL function" comparator.

    Scans *all* segment pairs (time-overlap predicate only, evaluated on
    the fly, no index, no pruning) in a single task — the cost model of
    an unindexed in-DBMS function.  Produces votes identical to
    :func:`vote_segments`; Table B measures the runtime gap.
    """
    if cutoff is None:
        cutoff = CUTOFF_SIGMAS * sigma
    spark = segments.sparkSession
    pdf = segments.select(*SEGMENT_COLS).toPandas()
    seg = _seg_matrix(pdf)
    traj = pdf["traj_id"].to_numpy(dtype=np.int64)
    seg_id = pdf["seg_id"].to_numpy(dtype=np.int64)
    n = len(seg)
    parts = []
    for lo in range(0, n, _NAIVE_CHUNK):
        hi = min(lo + _NAIVE_CHUNK, n)
        rows = np.arange(lo, hi, dtype=np.int64)
        ei = np.repeat(rows, n)
        fj = np.tile(np.arange(n, dtype=np.int64), hi - lo)
        keep = traj[ei] != traj[fj]
        part = _pairs_to_votes(seg, traj, seg_id, ei[keep], fj[keep], sigma, cutoff)
        if len(part):
            parts.append(part)
    pair_votes = pd.concat(parts, ignore_index=True) if parts else _empty_votes()
    return spark.createDataFrame(_join_votes(pdf, pair_votes))

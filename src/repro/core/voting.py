"""Voting phase of S2T-Clustering (NaTS part 1).

Each 3D trajectory segment is voted by every *other* trajectory that
co-exists with it in time; the vote is a Gaussian kernel of the minimum
co-temporal distance (``repro.core.distance``).  A segment's
representativeness is the sum of votes over voter trajectories — a value
in [0, N) whose "physical meaning is how many trajectories co-move with
that trajectory for a certain period of time" (paper §II.A).

Two implementations, matching Table B of the reproduction:

- :func:`vote_segments` — the *indexed* path (what Hermes runs via
  GiST/pg3D-Rtree): one index join of the segments against the whole
  MOD, the plan of [9] (Pelekis et al., EDBT 2017).  Both engines run
  one kernel, :func:`_vote_pairs`, which votes a set of ``own``
  segments against a ``table`` of all of them: it STR-bulk-loads a
  pg3D-Rtree over the table's segments (padded by the spatial cutoff),
  finds the candidate pairs with one batched spatial join per block of
  ``_QUERY_BLOCK`` own segments (``Rtree3D.query_boxes``: a single tree
  descent per block, after Brinkhoff, Kriegel & Seeger, SIGMOD 1993),
  scores only the hits on other trajectories, keeps the best vote per
  (segment, voter) and sums over voters (:func:`_join_votes`).  A Spark
  frame is collected once to the driver as numpy arrays, the table, and
  each of its partitions votes its own rows against it in one narrow
  ``mapInPandas`` (no shuffle); a pandas frame is the case
  ``own = table`` (:func:`_bucket_votes`).  The max-per-voter and sum
  steps are oracle-checked against DuckDB in the tests.
- :func:`vote_segments_naive` — the unindexed comparator ("corresponding
  PostgreSQL function"): a nested-loop scan over all segment pairs with
  only the time-overlap predicate, no index, single task.

Both produce identical votes (asserted in tests); only cost differs.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.distance import min_moving_distance, vote_kernel
from repro.index.rtree3d import Rtree3D, segment_boxes
from repro.mod.model import SEGMENT_COLS, SEGMENT_SCHEMA

#: Default spatial cutoff multiplier: votes below kernel(3*sigma) ~ 0.011
#: are treated as zero, bounding each segment's candidate set.
CUTOFF_SIGMAS = 3.0

#: Rows of the naive scan's pair matrix scored at a time (bounds memory).
_NAIVE_CHUNK = 512

#: Own segments queried and scored at a time by :func:`_vote_pairs`
#: (bounds the memory of the hit and pair arrays).
_QUERY_BLOCK = 1024


def _seg_matrix(pdf: pd.DataFrame) -> np.ndarray:
    return pdf[SEGMENT_COLS[2:]].to_numpy(dtype=np.float64)


def _table(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The voters of a segments frame: its segment matrix and traj ids."""
    return _seg_matrix(pdf), pdf["traj_id"].to_numpy(dtype=np.int64)


def _empty_votes() -> pd.DataFrame:
    # typed, so an empty pair frame joins and sums like a full one
    return pd.DataFrame(
        {
            "traj_id": pd.Series(dtype="int64"),
            "seg_id": pd.Series(dtype="int64"),
            "voter": pd.Series(dtype="int64"),
            "vote": pd.Series(dtype="float64"),
        }
    )


def _max_per_voter(pair_votes: pd.DataFrame) -> pd.DataFrame:
    """One vote per (segment, voter): the voter's best co-temporal approach."""
    return pair_votes.groupby(["traj_id", "seg_id", "voter"], as_index=False)["vote"].max()


def _pairs_to_votes(
    seg: np.ndarray, traj: np.ndarray, seg_id: np.ndarray,
    ei: np.ndarray, fj: np.ndarray, sigma: float, cutoff: float,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> pd.DataFrame:
    """Score candidate segment pairs, row ``ei[k]`` of ``seg`` voted by
    row ``fj[k]`` of ``table`` (segment matrix, traj ids; by default the
    same rows), and keep each voter's best vote per segment."""
    f_seg, f_traj = (seg, traj) if table is None else table
    d, _ = min_moving_distance(seg[ei], f_seg[fj])
    ok = d <= cutoff
    if not ok.any():
        return _empty_votes()
    return _max_per_voter(pd.DataFrame(
        {
            "traj_id": traj[ei[ok]],
            "seg_id": seg_id[ei[ok]],
            "voter": f_traj[fj[ok]],
            "vote": vote_kernel(d[ok], sigma),
        }
    ))


def _vote_pairs(
    own: pd.DataFrame, table: tuple[np.ndarray, np.ndarray], sigma: float, cutoff: float
) -> pd.DataFrame:
    """The voting kernel: the segments of ``own`` voted by every segment
    of ``table`` (segment matrix, traj ids), one row per (segment, voter).

    The table's boxes, padded by ``cutoff``, are STR-loaded into one
    pg3D-Rtree; ``own``'s boxes query it in blocks of ``_QUERY_BLOCK``,
    and the hits on other trajectories are scored by the closed-form
    kernel.  A segment's pairs all lie in its block, so the blocks change
    memory only, not the votes.
    """
    seg, traj = table
    own_seg, own_traj = _table(own)
    own_id = own["seg_id"].to_numpy(dtype=np.int64)
    tree = Rtree3D.from_segments(seg, pad=cutoff)
    parts = []
    for lo in range(0, len(own_seg), _QUERY_BLOCK):
        ei, fj = tree.query_boxes(segment_boxes(own_seg[lo:lo + _QUERY_BLOCK]))
        ei = ei + lo
        other = own_traj[ei] != traj[fj]
        part = _pairs_to_votes(own_seg, own_traj, own_id, ei[other], fj[other],
                               sigma, cutoff, table)
        if len(part):
            parts.append(part)
    return pd.concat(parts, ignore_index=True) if parts else _empty_votes()


def _bucket_votes(pdf: pd.DataFrame, sigma: float, cutoff: float) -> pd.DataFrame:
    """The kernel's self-join case, ``own = table``: every segment of
    ``pdf`` voted by the others."""
    if len(pdf) < 2:
        return _empty_votes()
    return _vote_pairs(pdf, _table(pdf), sigma, cutoff)


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
) -> DataFrame | pd.DataFrame:
    """Indexed voting: segments -> segments + ``vote`` column, same frame kind.

    ``sigma`` is the kernel bandwidth (same units as x/y); ``cutoff``
    defaults to ``3 * sigma``.  A pandas frame is voted in-process, as
    the self join :func:`_bucket_votes`.  A Spark frame (cached and
    materialised, as S2T hands it over) is collected once to the driver
    as numpy arrays, and one narrow ``mapInPandas`` over its own
    partitions votes each partition's rows against that whole table:
    one broadcast index join, with no shuffle, giving the in-process
    engine's votes bit for bit.
    """
    if cutoff is None:
        cutoff = CUTOFF_SIGMAS * sigma
    if isinstance(segments, pd.DataFrame):
        return _join_votes(segments, _bucket_votes(segments, sigma, cutoff))
    table = _table(segments.select("traj_id", *SEGMENT_COLS[2:]).toPandas())

    def vote(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = list(batches)
        if frames:
            own = pd.concat(frames, ignore_index=True)
            yield _join_votes(own, _vote_pairs(own, table, sigma, cutoff))

    return segments.mapInPandas(vote, schema=f"{SEGMENT_SCHEMA}, vote double")


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
    seg, traj = _table(pdf)
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

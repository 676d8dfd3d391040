"""Trajectory segmentation phase of S2T-Clustering (NaTS part 2).

Goal (paper §II.A): "partition each trajectory into sub-trajectories
having homogeneous representativeness, irrespectively of their shape
complexity".  The voting phase annotates each segment with its
representativeness; this module detects change-points in that per-
trajectory voting signal, so that a trajectory which e.g. co-moves with
group A, then drifts alone, then joins group B is cut into three
sub-trajectories.

Method: one pass over the voted segments of any number of trajectories,
sorted by ``(traj_id, seg_id)`` — once per trajectory partition of a
Spark DataFrame (``mod.model.by_trajectory``: embarrassingly parallel,
as the calibration hint prescribes), once over the whole frame when the
voted segments already live on the driver:

1. *Forced* boundaries at each trajectory's start and at sampling gaps
   longer than ``max_gap`` — a trajectory with a data hole cannot be one
   homogeneous sub-trajectory.
   Segments of consecutive points bridge a hole with one long segment,
   which is cut off on both sides and left a sub-trajectory of its own.
2. Within each gap-free run, top-down binary segmentation of the voting
   signal: recursively place the split that maximally reduces the sum of
   squared errors around piecewise-constant means, accepting a split
   only when the SSE reduction exceeds a BIC-style penalty
   ``lam * sigma2 * log(n)`` (``sigma2`` robustly estimated from first
   differences of the signal).  ``min_len`` forbids slivers.

The same pass then assembles the cut trajectories
(``core.subtraj._assemble_one``), so the output is the sub-trajectory
rows themselves (``SUBTRAJ_SCHEMA``), with sub-trajectory ids 0-based
and temporally ordered per trajectory.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.subtraj import SUBTRAJ_COLS, SUBTRAJ_SCHEMA, _assemble_one
from repro.mod.model import by_trajectory


def _noise_var(v: np.ndarray) -> float:
    """Noise variance estimate from first differences (robust to level
    shifts, which are the signal we are trying to detect)."""
    if len(v) < 3:
        return float(np.var(v)) if len(v) else 0.0
    d = np.diff(v)
    mad = np.median(np.abs(d - np.median(d)))
    sigma = 1.4826 * mad / np.sqrt(2.0)
    if sigma <= 0:
        sigma = float(np.std(d) / np.sqrt(2.0))
    return float(sigma * sigma)


def _best_split(s1: np.ndarray, s2: np.ndarray, lo: int, hi: int,
                min_len: int) -> tuple[int, float]:
    """Best single split of [lo, hi) from the prefix sums ``s1`` of the
    signal and ``s2`` of its squares; returns (k, sse_gain), the first
    maximum over every admissible ``k``, with k = -1 when no split
    reduces the SSE."""
    m = max(min_len, 1)
    k = np.arange(lo + m, hi - m + 1)
    if not len(k):
        return -1, 0.0

    def sse(a, b):  # [a, b)
        tot = s1[b] - s1[a]
        return (s2[b] - s2[a]) - tot * tot / (b - a)

    gain = sse(lo, hi) - sse(lo, k) - sse(k, hi)
    i = int(np.argmax(gain))
    return (int(k[i]), float(gain[i])) if gain[i] > 0 else (-1, 0.0)


def segment_signal(v: np.ndarray, *, min_len: int, lam: float) -> np.ndarray:
    """Change-point boundaries of a 1D signal: sorted interior split
    indices (split at k means pieces ``[..k)`` and ``[k..)``)."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if n < 2 * min_len:
        return np.empty(0, dtype=np.int64)
    penalty = lam * max(_noise_var(v), 1e-12) * np.log(max(n, 2))
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])
    splits: list[int] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        k, gain = _best_split(s1, s2, lo, hi, min_len)
        if k >= 0 and gain > penalty:
            splits.append(k)
            stack.append((lo, k))
            stack.append((k, hi))
    return np.asarray(sorted(splits), dtype=np.int64)


def _segment_one(pdf: pd.DataFrame, min_len: int, lam: float, max_gap: float) -> pd.DataFrame:
    """Voted segments of any number of trajectories, sorted by
    ``(traj_id, seg_id)``, plus the ``subtraj_id`` of each."""
    pdf = pdf.sort_values(["traj_id", "seg_id"], ignore_index=True)
    tid = pdf["traj_id"].to_numpy()
    v = pdf["vote"].to_numpy(dtype=np.float64)
    t1 = pdf["t1"].to_numpy(dtype=np.float64)
    t2 = pdf["t2"].to_numpy(dtype=np.float64)
    n = len(pdf)
    # forced boundaries: trajectory starts, sampling gaps between
    # segments, and both sides of a segment that spans one (segments of
    # points always chain); cut[n] closes the last run
    start = np.diff(tid, prepend=tid[:1] - 1) != 0
    cut = np.append(start, True)
    cut[1:n] |= t1[1:] - t2[:-1] > max_gap
    long = np.flatnonzero(t2 - t1 > max_gap)
    cut[long] = cut[long + 1] = True
    bounds = np.flatnonzero(cut)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        cut[segment_signal(v[lo:hi], min_len=min_len, lam=lam) + lo] = True
    # running count of cuts, from 0 at each trajectory's first segment
    ids = np.cumsum(cut[:n])
    return pdf.assign(subtraj_id=ids - np.maximum.accumulate(np.where(start, ids, 0)))


def segment_trajectories(
    voted_segments: DataFrame | pd.DataFrame, *, min_len: int, lam: float, max_gap: float
) -> DataFrame | pd.DataFrame:
    """NaTS segmentation: voted segments -> sub-trajectory rows
    (``SUBTRAJ_SCHEMA``), by one kernel: once per trajectory partition of
    a Spark DataFrame (:func:`~repro.mod.model.by_trajectory`), once over
    a whole pandas frame.

    ``min_len`` — minimum sub-trajectory length in segments;
    ``lam`` — BIC penalty multiplier (higher = fewer cuts);
    ``max_gap`` — sampling gap (s) that forces a boundary: a longer
    pause between segments, or a segment lasting longer.
    """
    def segment(pdf: pd.DataFrame) -> pd.DataFrame:
        return _assemble_one(_segment_one(pdf, min_len, lam, max_gap))

    if isinstance(voted_segments, DataFrame):
        return by_trajectory(voted_segments, segment, SUBTRAJ_SCHEMA)
    if voted_segments.empty:
        return pd.DataFrame(columns=SUBTRAJ_COLS)
    return segment(voted_segments)

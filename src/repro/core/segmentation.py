"""Trajectory segmentation phase of S2T-Clustering (NaTS part 2).

Goal (paper §II.A): "partition each trajectory into sub-trajectories
having homogeneous representativeness, irrespectively of their shape
complexity".  The voting phase annotates each segment with its
representativeness; this module detects change-points in that per-
trajectory voting signal, so that a trajectory which e.g. co-moves with
group A, then drifts alone, then joins group B is cut into three
sub-trajectories.

Method: per trajectory (one `applyInPandas` group — embarrassingly
parallel, as the calibration hint prescribes; one pandas group when the
voted segments already live on the driver):

1. *Forced* boundaries at sampling gaps longer than ``max_gap`` — a
   trajectory with a data hole cannot be one homogeneous sub-trajectory.
   Segments of consecutive points bridge a hole with one long segment,
   which is cut off on both sides and left a sub-trajectory of its own.
2. Within each gap-free run, top-down binary segmentation of the voting
   signal: recursively place the split that maximally reduces the sum of
   squared errors around piecewise-constant means, accepting a split
   only when the SSE reduction exceeds a BIC-style penalty
   ``lam * sigma2 * log(n)`` (``sigma2`` robustly estimated from first
   differences of the signal).  ``min_len`` forbids slivers.

The same per-trajectory pass then assembles the cut trajectory
(``core.subtraj._assemble_one``), so the output is the sub-trajectory
rows themselves (``SUBTRAJ_SCHEMA``), with sub-trajectory ids 0-based
and temporally ordered per trajectory.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.subtraj import SUBTRAJ_COLS, SUBTRAJ_SCHEMA, _assemble_one


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


def _sse_prefix(v: np.ndarray):
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def sse(lo: int, hi: int) -> float:  # [lo, hi)
        n = hi - lo
        if n <= 0:
            return 0.0
        tot = s1[hi] - s1[lo]
        return float((s2[hi] - s2[lo]) - tot * tot / n)

    return sse


def _best_split(v: np.ndarray, lo: int, hi: int, min_len: int, sse) -> tuple[int, float]:
    """Best single split of [lo, hi); returns (k, sse_gain) with k = -1
    when no admissible split exists."""
    n = hi - lo
    if n < 2 * min_len:
        return -1, 0.0
    parent = sse(lo, hi)
    best_k, best_gain = -1, 0.0
    for k in range(lo + min_len, hi - min_len + 1):
        gain = parent - sse(lo, k) - sse(k, hi)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k, best_gain


def segment_signal(v: np.ndarray, *, min_len: int = 4, lam: float = 3.0) -> np.ndarray:
    """Change-point boundaries of a 1D signal: sorted interior split
    indices (split at k means pieces ``[..k)`` and ``[k..)``)."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if n < 2 * min_len:
        return np.empty(0, dtype=np.int64)
    penalty = lam * max(_noise_var(v), 1e-12) * np.log(max(n, 2))
    sse = _sse_prefix(v)
    splits: list[int] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        k, gain = _best_split(v, lo, hi, min_len, sse)
        if k >= 0 and gain > penalty:
            splits.append(k)
            stack.append((lo, k))
            stack.append((k, hi))
    return np.asarray(sorted(splits), dtype=np.int64)


def _segment_one(pdf: pd.DataFrame, min_len: int, lam: float, max_gap: float) -> pd.DataFrame:
    """One trajectory's voted segments, sorted by ``seg_id``, plus the
    ``subtraj_id`` of each."""
    pdf = pdf.sort_values("seg_id").reset_index(drop=True)
    v = pdf["vote"].to_numpy(dtype=np.float64)
    t1 = pdf["t1"].to_numpy(dtype=np.float64)
    t2 = pdf["t2"].to_numpy(dtype=np.float64)
    n = len(pdf)
    # forced boundaries at sampling gaps: between segments, and on both
    # sides of a segment that spans one (segments of points always chain)
    long = np.flatnonzero(t2 - t1 > max_gap)
    forced = np.union1d(np.flatnonzero(t1[1:] - t2[:-1] > max_gap) + 1,
                        np.concatenate([long, long + 1]))
    forced = forced[(forced > 0) & (forced < n)]
    bounds = [0, *forced.tolist(), n]
    all_splits: list[int] = forced.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rel = segment_signal(v[lo:hi], min_len=min_len, lam=lam)
        all_splits.extend((rel + lo).tolist())
    cuts = np.zeros(n, dtype=np.int64)
    if all_splits:
        cuts[np.asarray(sorted(set(all_splits)), dtype=np.int64)] = 1
    return pdf.assign(subtraj_id=np.cumsum(cuts))


def segment_trajectories(
    voted_segments: DataFrame | pd.DataFrame, *, min_len: int, lam: float, max_gap: float
) -> DataFrame | pd.DataFrame:
    """NaTS segmentation: voted segments -> sub-trajectory rows
    (``SUBTRAJ_SCHEMA``), one pass per trajectory: a grouped
    ``applyInPandas`` over a Spark DataFrame, a pandas ``groupby`` over a
    pandas frame.

    ``min_len`` — minimum sub-trajectory length in segments;
    ``lam`` — BIC penalty multiplier (higher = fewer cuts);
    ``max_gap`` — sampling gap (s) that forces a boundary: a longer
    pause between segments, or a segment lasting longer.
    """
    if isinstance(voted_segments, pd.DataFrame):
        parts = [_assemble_one(_segment_one(g, min_len, lam, max_gap))
                 for _, g in voted_segments.groupby("traj_id")]
        return pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(columns=SUBTRAJ_COLS)
    return voted_segments.groupBy("traj_id").applyInPandas(
        lambda pdf: _assemble_one(_segment_one(pdf, min_len, lam, max_gap)),
        schema=SUBTRAJ_SCHEMA,
    )

"""Spatio-temporal distance kernels for voting and clustering.

Two notions of distance, both *time-aware* (this is the paper's point of
difference from TRACLUS):

1. **Moving-point segment distance** — the minimum Euclidean distance
   between two objects while both move linearly along their segments,
   over the segments' *common time interval*.  Closed form: the relative
   position is linear in time, so squared distance is a quadratic whose
   minimum over the interval is analytic.  No common time interval means
   no interaction (the voting semantics: only objects that co-exist in
   time can vote).  This is the kernel of the voting phase.

2. **Time-synchronized trajectory distance** — the mean Euclidean
   distance between two (sub-)trajectories resampled on a uniform grid
   over their common time span, ``inf`` if the overlap is shorter than a
   threshold.  This is the distance used by sampling, greedy clustering,
   ReTraTree assignment and the T-OPTICS baseline.
"""
from __future__ import annotations

import numpy as np


def min_moving_distance(e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise min distance between co-temporal moving points.

    ``e`` and ``f`` are aligned ``(n, 6)`` arrays of segment rows
    ``[t1, x1, y1, t2, x2, y2]`` (row i of ``e`` vs row i of ``f``).
    Returns ``(dist, overlap)`` where ``overlap`` flags pairs with a
    non-empty common time interval; ``dist`` is ``inf`` where there is
    none.  Fully vectorized; zero-duration segments must have been
    filtered upstream (model.points_to_segments guarantees this).
    """
    e = np.asarray(e, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    et1, ex1, ey1, et2, ex2, ey2 = (e[:, i] for i in range(6))
    ft1, fx1, fy1, ft2, fx2, fy2 = (f[:, i] for i in range(6))

    a = np.maximum(et1, ft1)
    b = np.minimum(et2, ft2)
    overlap = b >= a

    edT = et2 - et1
    fdT = ft2 - ft1
    evx, evy = (ex2 - ex1) / edT, (ey2 - ey1) / edT
    fvx, fvy = (fx2 - fx1) / fdT, (fy2 - fy1) / fdT

    # relative position at common-interval start a, relative velocity w
    rx = (ex1 + evx * (a - et1)) - (fx1 + fvx * (a - ft1))
    ry = (ey1 + evy * (a - et1)) - (fy1 + fvy * (a - ft1))
    wx, wy = evx - fvx, evy - fvy

    w2 = wx * wx + wy * wy
    u_max = np.maximum(b - a, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = np.where(w2 > 0.0, -(rx * wx + ry * wy) / w2, 0.0)
    u = np.clip(u_star, 0.0, u_max)
    dx, dy = rx + u * wx, ry + u * wy
    dist = np.hypot(dx, dy)
    return np.where(overlap, dist, np.inf), overlap


def min_moving_distance_sampled(e_row: np.ndarray, f_row: np.ndarray, n: int = 2001) -> float:
    """Dense-sampling reference for :func:`min_moving_distance` (tests only)."""
    et1, ex1, ey1, et2, ex2, ey2 = e_row
    ft1, fx1, fy1, ft2, fx2, fy2 = f_row
    a, b = max(et1, ft1), min(et2, ft2)
    if b < a:
        return float("inf")
    ts = np.linspace(a, b, n)
    ex = np.interp(ts, [et1, et2], [ex1, ex2])
    ey = np.interp(ts, [et1, et2], [ey1, ey2])
    fx = np.interp(ts, [ft1, ft2], [fx1, fx2])
    fy = np.interp(ts, [ft1, ft2], [fy1, fy2])
    return float(np.hypot(ex - fx, ey - fy).min())


def vote_kernel(d: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian voting kernel: 1 at distance 0, ~0 beyond ~3 sigma.

    The voting value a segment receives from one co-moving trajectory,
    as in S2T-Clustering [9]: a vote in (0, 1] per voter, summed over
    voters to give the segment's representativeness in [0, N).
    """
    d = np.asarray(d, dtype=np.float64)
    out = np.zeros_like(d)
    finite = np.isfinite(d)
    out[finite] = np.exp(-(d[finite] ** 2) / (2.0 * sigma * sigma))
    return out


def resample(ts: np.ndarray, xs: np.ndarray, ys: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Linear-interpolate a polyline onto a time grid -> (len(grid), 2)."""
    return np.stack([np.interp(grid, ts, xs), np.interp(grid, ts, ys)], axis=1)


def sync_distance(
    ts1: np.ndarray, xs1: np.ndarray, ys1: np.ndarray,
    ts2: np.ndarray, xs2: np.ndarray, ys2: np.ndarray,
    *, n_samples: int = 32, min_overlap: float = 0.0,
) -> float:
    """Time-synchronized mean Euclidean distance between two polylines.

    Resamples both onto ``n_samples`` uniform instants across their
    common time span and averages the point distances.  Returns ``inf``
    when the overlap is empty or shorter than ``min_overlap`` seconds —
    trajectories that never co-exist are infinitely far apart, which is
    what makes clusters *time-aware* (Table D hinges on this).
    """
    a = max(ts1[0], ts2[0])
    b = min(ts1[-1], ts2[-1])
    if b - a < max(min_overlap, 0.0) or b < a:
        return float("inf")
    grid = np.linspace(a, b, n_samples)
    p = resample(ts1, xs1, ys1, grid)
    q = resample(ts2, xs2, ys2, grid)
    return float(np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]).mean())


def sync_distance_to_many(
    ts: np.ndarray, xs: np.ndarray, ys: np.ndarray,
    reps: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    *, n_samples: int = 32, min_overlap: float = 0.0,
) -> np.ndarray:
    """Distance of one polyline to each of ``reps`` (list of (ts, xs, ys)).

    The one "polyline vs many" loop of sampling, T-OPTICS and ReTraTree's
    insert.  :func:`sync_distance` is symmetric bit for bit.
    """
    out = np.empty(len(reps), dtype=np.float64)
    for i, (rts, rxs, rys) in enumerate(reps):
        out[i] = sync_distance(
            ts, xs, ys, rts, rxs, rys, n_samples=n_samples, min_overlap=min_overlap
        )
    return out

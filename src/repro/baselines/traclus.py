"""TRACLUS (Lee, Han, Whang — SIGMOD 2007): partition-and-group baseline.

Scenario-1 comparator.  TRACLUS "simplif[ies] and partition[s] the given
trajectories and then appl[ies] density-based clustering, focusing on
the spatial and ignoring the temporal dimension" (paper §I) — which is
precisely why it merges the generator's time-separated twin groups in
Table D.

Faithful pieces:

- **Partitioning** — approximate MDL: walk each trajectory, placing a
  characteristic point whenever the MDL cost of the simplification
  (``L(H) + L(D|H)``, with perpendicular + angular encoding costs)
  exceeds the no-partition cost.  Runs per trajectory in
  ``applyInPandas`` (Spark side).
- **Grouping** — DBSCAN over characteristic line segments with the
  TRACLUS 3-component distance (perpendicular, parallel, angular),
  purely spatial.  Driver side: the comparator's segment count is small.

Labels: every original point inherits the cluster of the characteristic
segment covering its index range; noise segments label their points -1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines._dbscan import dbscan

_CHAR_SCHEMA = (
    "traj_id long, cseg_id long, sx double, sy double, ex double, ey double, "
    "i_start long, i_end long"
)


def _log2(x: float) -> float:
    return float(np.log2(max(x, 1.0)))


def _perp_angle_cost(px: np.ndarray, py: np.ndarray, i: int, j: int) -> float:
    """L(D|H): per-sub-segment encoding cost against hypothesis (i, j).

    Lee et al. eq. (7): the *sum over contained sub-segments* of
    log2(perpendicular distance) + log2(angular distance) — per-segment
    terms (1+d inside the log keeps costs non-negative at km scale)."""
    sx, sy, ex, ey = px[i], py[i], px[j], py[j]
    vx, vy = ex - sx, ey - sy
    L = np.hypot(vx, vy)
    pxw = px[i : j + 1]
    pyw = py[i : j + 1]
    if L < 1e-12:
        d = np.hypot(pxw - sx, pyw - sy)
        return float(np.log2(1.0 + d[:-1] + d[1:]).sum())
    # perpendicular distances of every vertex to the hypothesis line
    t = ((pxw - sx) * vx + (pyw - sy) * vy) / (L * L)
    projx, projy = sx + t * vx, sy + t * vy
    dv = np.hypot(pxw - projx, pyw - projy)
    lp1, lp2 = dv[:-1], dv[1:]
    denom = lp1 + lp2
    with np.errstate(invalid="ignore", divide="ignore"):
        dperp = np.where(denom > 0, (lp1 * lp1 + lp2 * lp2) / np.maximum(denom, 1e-12), 0.0)
    dx = np.diff(pxw)
    dy = np.diff(pyw)
    lens = np.hypot(dx, dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.where(lens > 0, (dx * vx + dy * vy) / np.maximum(lens * L, 1e-12), 1.0)
    sinang = np.sqrt(np.clip(1.0 - np.clip(cosang, -1.0, 1.0) ** 2, 0.0, 1.0))
    dtheta = lens * sinang
    return float(np.log2(1.0 + dperp).sum() + np.log2(1.0 + dtheta).sum())


def approximate_partition(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Characteristic point indices (Lee et al., Algorithm 1).

    Walks the trajectory; at each step compares MDL_par (encode window
    as one hypothesis segment) with MDL_nopar (keep the raw segments);
    when partitioning becomes cheaper than not, emits the previous point
    as a characteristic point and restarts the window there.
    """
    n = len(px)
    cps = [0]
    start, length = 0, 1
    seg_len = np.hypot(np.diff(px), np.diff(py))
    seg_bits = np.log2(1.0 + seg_len)
    while start + length < n:
        cur = start + length
        cost_par = _log2(
            1.0 + float(np.hypot(px[cur] - px[start], py[cur] - py[start]))
        ) + _perp_angle_cost(px, py, start, cur)
        cost_nopar = float(seg_bits[start:cur].sum())
        if cost_par > cost_nopar:
            cps.append(cur - 1 if cur - 1 > start else cur)
            start = cps[-1]
            length = 1
        else:
            length += 1
    if cps[-1] != n - 1:
        cps.append(n - 1)
    return np.unique(np.asarray(cps, dtype=np.int64))


def _partition_one(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf.sort_values("t").reset_index(drop=True)
    px = pdf["x"].to_numpy(dtype=np.float64)
    py = pdf["y"].to_numpy(dtype=np.float64)
    if len(pdf) < 2:
        return pd.DataFrame(columns=[f.split()[0] for f in _CHAR_SCHEMA.split(", ")])
    cps = approximate_partition(px, py)
    rows = []
    for k in range(len(cps) - 1):
        i, j = int(cps[k]), int(cps[k + 1])
        rows.append(
            {
                "traj_id": np.int64(pdf["traj_id"].iloc[0]),
                "cseg_id": np.int64(k),
                "sx": px[i], "sy": py[i], "ex": px[j], "ey": py[j],
                "i_start": np.int64(i), "i_end": np.int64(j),
            }
        )
    return pd.DataFrame(rows)


def partition_trajectories(points: DataFrame) -> DataFrame:
    """Phase 1: MDL partitioning, parallel per trajectory."""
    return points.groupBy("traj_id").applyInPandas(
        lambda pdf: _partition_one(pdf), schema=_CHAR_SCHEMA
    )


def segment_distance(a: np.ndarray, b: np.ndarray) -> float:
    """TRACLUS d = d_perp + d_par + d_angle between segments
    ``[sx, sy, ex, ey]`` (equal weights, as in the paper's experiments)."""
    (sx1, sy1, ex1, ey1), (sx2, sy2, ex2, ey2) = a, b
    l1 = np.hypot(ex1 - sx1, ey1 - sy1)
    l2 = np.hypot(ex2 - sx2, ey2 - sy2)
    # longer segment is the base
    if l2 > l1:
        (sx1, sy1, ex1, ey1, l1), (sx2, sy2, ex2, ey2, l2) = \
            (sx2, sy2, ex2, ey2, l2), (sx1, sy1, ex1, ey1, l1)
    vx, vy = ex1 - sx1, ey1 - sy1
    if l1 < 1e-12:
        return float(np.hypot(sx2 - sx1, sy2 - sy1))
    u1 = ((sx2 - sx1) * vx + (sy2 - sy1) * vy) / (l1 * l1)
    u2 = ((ex2 - sx1) * vx + (ey2 - sy1) * vy) / (l1 * l1)
    p1x, p1y = sx1 + u1 * vx, sy1 + u1 * vy
    p2x, p2y = sx1 + u2 * vx, sy1 + u2 * vy
    lp1 = np.hypot(sx2 - p1x, sy2 - p1y)
    lp2 = np.hypot(ex2 - p2x, ey2 - p2y)
    d_perp = 0.0 if lp1 + lp2 < 1e-12 else (lp1 * lp1 + lp2 * lp2) / (lp1 + lp2)
    d_par = min(abs(u1), abs(1 - u1), abs(u2), abs(1 - u2)) * l1
    d_par = min(d_par, l1)  # clamp to base length
    if l1 < 1e-12 or l2 < 1e-12:
        d_ang = 0.0
    else:
        cosang = np.clip(((ex2 - sx2) * vx + (ey2 - sy2) * vy) / (l2 * l1), -1, 1)
        d_ang = l2 * np.sqrt(max(0.0, 1.0 - cosang * cosang))
    return float(d_perp + d_par + d_ang)


@dataclass
class TraclusResult:
    """Characteristic segments with cluster labels + per-point labels."""

    segments: pd.DataFrame        # char segments + "cluster_id"
    point_labels: pd.DataFrame    # traj_id, t, cluster_id


def traclus(points: DataFrame, *, eps: float = 2.0, min_lns: int = 4) -> TraclusResult:
    """Full TRACLUS: partition (Spark) + group (driver DBSCAN)."""
    char = partition_trajectories(points).toPandas()
    char = char.sort_values(["traj_id", "cseg_id"]).reset_index(drop=True)
    segs = char[["sx", "sy", "ex", "ey"]].to_numpy(dtype=np.float64)

    def neighbours(i: int) -> np.ndarray:
        d = np.asarray([segment_distance(segs[i], segs[j]) for j in range(len(segs))])
        return np.flatnonzero(d <= eps)

    labels = dbscan(len(segs), neighbours, min_lns)
    char["cluster_id"] = labels

    pts = points.select("traj_id", "t").toPandas().sort_values(["traj_id", "t"])
    pts["idx"] = pts.groupby("traj_id").cumcount()
    lab = pts.merge(char[["traj_id", "i_start", "i_end", "cluster_id"]], on="traj_id", how="left")
    lab = lab[(lab["idx"] >= lab["i_start"]) & (lab["idx"] <= lab["i_end"])]
    lab = lab.sort_values("cluster_id", ascending=False).drop_duplicates(["traj_id", "t"])
    out = pts.merge(lab[["traj_id", "t", "cluster_id"]], on=["traj_id", "t"], how="left")
    out["cluster_id"] = out["cluster_id"].fillna(-1).astype(np.int64)
    return TraclusResult(segments=char, point_labels=out[["traj_id", "t", "cluster_id"]])

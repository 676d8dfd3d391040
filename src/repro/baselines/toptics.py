"""T-OPTICS (Nanni & Pedreschi, JIIS 2006): time-focused whole-trajectory
clustering baseline.

Scenario-1 comparator.  T-OPTICS runs OPTICS with a *time-synchronized*
trajectory distance, but clusters **entire trajectories** — it cannot
split a multi-leg object between two groups, which is exactly the
structural handicap Table D demonstrates (the demo paper's motivation
for *sub*-trajectory clustering).

Pieces:

- the whole-trajectory distance reuses ``repro.core.distance``'s
  time-synchronized mean distance (pairs with no temporal overlap are at
  a large finite distance so OPTICS ordering stays total);
- OPTICS (eps = inf, ``min_pts``) producing the reachability ordering,
  then cluster extraction by a reachability threshold ``xi_eps``;
- every point of a trajectory inherits its trajectory's cluster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.distance import sync_distance_to_many
from repro.mod.model import split_polylines

_FAR = 1e9  # finite stand-in for "no temporal overlap"


def trajectory_distance_matrix(polys: pd.DataFrame, *, n_samples: int = 32) -> np.ndarray:
    """Symmetric time-synchronized distance matrix over trajectories."""
    n = len(polys)
    arrs = list(zip(polys["ts"], polys["xs"], polys["ys"]))
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        d = sync_distance_to_many(*arrs[i], arrs[i + 1:], n_samples=n_samples)
        m[i, i + 1:] = m[i + 1:, i] = np.where(np.isfinite(d), d, _FAR)
    return m


def optics_order(dist: np.ndarray, min_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """OPTICS with eps=inf: returns (ordering, reachability distances)."""
    n = len(dist)
    reach = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    order = []
    core = np.sort(dist, axis=1)[:, min(min_pts - 1, n - 1)]  # core distances
    for start in range(n):
        if processed[start]:
            continue
        seeds = {start: np.inf}
        while seeds:
            i = min(seeds, key=lambda k: (seeds[k], k))
            r = seeds.pop(i)
            if processed[i]:
                continue
            processed[i] = True
            reach[i] = r
            order.append(i)
            if np.isfinite(core[i]):
                for j in range(n):
                    if processed[j]:
                        continue
                    nr = max(core[i], dist[i, j])
                    if nr < seeds.get(j, np.inf):
                        seeds[j] = nr
    return np.asarray(order, dtype=np.int64), reach


def extract_clusters(order: np.ndarray, reach: np.ndarray, xi_eps: float) -> np.ndarray:
    """Threshold extraction: a new cluster starts where reachability
    exceeds ``xi_eps``; items whose reachability and successors' are all
    above threshold are noise."""
    n = len(order)
    labels = np.full(n, -1, dtype=np.int64)
    cluster = -1
    for pos, i in enumerate(order):
        if reach[i] > xi_eps:
            nxt = order[pos + 1] if pos + 1 < n else None
            if nxt is not None and reach[nxt] <= xi_eps:
                cluster += 1
                labels[i] = cluster
            # else: noise (stays -1)
        else:
            if cluster == -1:
                cluster = 0
            labels[i] = cluster
    return labels


@dataclass
class TOpticsResult:
    trajectories: pd.DataFrame    # traj_id, cluster_id
    point_labels: pd.DataFrame    # traj_id, t, cluster_id


def t_optics(
    points: DataFrame, *, min_pts: int = 3, xi_eps: float = 3.0, n_samples: int = 32
) -> TOpticsResult:
    """Full T-OPTICS over a points DataFrame."""
    pts = points.select("traj_id", "t", "x", "y").toPandas()
    polys = split_polylines(pts, ["traj_id"])
    dist = trajectory_distance_matrix(polys, n_samples=n_samples)
    order, reach = optics_order(dist, min_pts)
    labels = extract_clusters(order, reach, xi_eps)
    trajs = pd.DataFrame({"traj_id": polys["traj_id"].to_numpy(), "cluster_id": labels})
    out = pts[["traj_id", "t"]].merge(trajs, on="traj_id", how="left")
    out["cluster_id"] = out["cluster_id"].fillna(-1).astype(np.int64)
    return TOpticsResult(trajectories=trajs, point_labels=out)

"""Greedy clustering + outlier detection of SaCO.

Paper §II.A: "each sub-trajectory in the sampling set is considered to
be a cluster representative ... the clustering is done building the
clusters 'around' those representatives" — and sub-trajectories that fit
into no group are *outliers*.

Each sub-trajectory is assigned to the nearest representative by
time-synchronized distance if that distance is within the clustering
radius ``eps``; otherwise it is an outlier (cluster -1).  Clusters that
end up smaller than ``min_cluster_size`` (the QUT ``gamma`` parameter)
are dissolved into outliers.  The distances are the matrix sampling
filled while it picked the representatives
(``core.sampling.sample_representatives``), so assignment is numpy on
the driver, whichever engine ran the NaTS phase.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

OUTLIER = -1


def _assign_batch(dist: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the N x R distance matrix: the nearest representative
    and its distance, or -1 and inf when none lies within ``eps``."""
    if dist.shape[1] == 0:
        return np.full(len(dist), OUTLIER, dtype=np.int64), np.full(len(dist), np.inf)
    j = np.argmin(dist, axis=1)
    d = dist[np.arange(len(dist)), j]
    hit = d <= eps
    return np.where(hit, j, OUTLIER), np.where(hit, d, np.inf)


def _dissolve(cluster: np.ndarray, min_cluster_size: int) -> np.ndarray:
    """Members of clusters smaller than ``min_cluster_size``."""
    size = np.bincount(cluster - OUTLIER)  # slot 0 counts the outliers
    return (cluster != OUTLIER) & (size[cluster - OUTLIER] < min_cluster_size)


def assign_clusters(
    sub_pdf: pd.DataFrame,
    dist: np.ndarray,
    *,
    eps: float,
    min_cluster_size: int,
) -> pd.DataFrame:
    """Assign every sub-trajectory to a representative or to the outliers.

    ``dist`` holds the distance of each row of ``sub_pdf`` to each
    representative (``sample_representatives``).  Returns (traj_id,
    subtraj_id, cluster_id, dist) in ``sub_pdf``'s row order;
    ``cluster_id`` is the representative's ``rep_id`` or -1, ``dist``
    the assignment distance (inf for outliers).  ``min_cluster_size``
    dissolves undersized clusters (QUT's gamma).
    """
    cluster, d = _assign_batch(dist, eps)
    small = _dissolve(cluster, min_cluster_size)
    return pd.DataFrame(
        {
            "traj_id": sub_pdf["traj_id"].to_numpy(dtype=np.int64),
            "subtraj_id": sub_pdf["subtraj_id"].to_numpy(dtype=np.int64),
            "cluster_id": np.where(small, OUTLIER, cluster),
            "dist": np.where(small, np.inf, d),
        }
    )

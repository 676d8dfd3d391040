"""Greedy clustering + outlier detection of SaCO.

Paper §II.A: "each sub-trajectory in the sampling set is considered to
be a cluster representative ... the clustering is done building the
clusters 'around' those representatives" — and sub-trajectories that fit
into no group are *outliers*.

Each sub-trajectory is assigned to the nearest representative by
time-synchronized distance if that distance is within the clustering
radius ``eps``; otherwise it is an outlier (cluster -1).  Clusters that
end up smaller than ``min_cluster_size`` (the QUT ``gamma`` parameter)
are dissolved into outliers.  The representative set is small and is
shipped to executors inside the `mapInPandas` closure (the explicit
broadcast-variable path adds nothing at this size); assignment is
embarrassingly parallel over sub-trajectory rows.  Sub-trajectories
already on the driver (a pandas frame) are assigned there, in one batch.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import Window

from repro.core.distance import sync_distance_to_many
from repro.core.sampling import Representative

OUTLIER = -1

_ASSIGN_SCHEMA = "traj_id long, subtraj_id long, cluster_id long, dist double"


def _assign_batch(pdf: pd.DataFrame, reps_arrs, eps, n_samples, min_overlap) -> pd.DataFrame:
    n = len(pdf)
    cluster = np.full(n, OUTLIER, dtype=np.int64)
    dist = np.full(n, np.inf, dtype=np.float64)
    for k in range(n):
        ts = np.asarray(pdf["ts"].iloc[k], dtype=np.float64)
        xs = np.asarray(pdf["xs"].iloc[k], dtype=np.float64)
        ys = np.asarray(pdf["ys"].iloc[k], dtype=np.float64)
        d = sync_distance_to_many(
            ts, xs, ys, reps_arrs, n_samples=n_samples, min_overlap=min_overlap
        )
        j = int(np.argmin(d)) if len(d) else -1
        if j >= 0 and d[j] <= eps:
            cluster[k] = j
            dist[k] = d[j]
    return pd.DataFrame(
        {
            "traj_id": pdf["traj_id"].to_numpy(dtype=np.int64),
            "subtraj_id": pdf["subtraj_id"].to_numpy(dtype=np.int64),
            "cluster_id": cluster,
            "dist": dist,
        }
    )


def _dissolve(assigned: pd.DataFrame, min_cluster_size: int) -> pd.DataFrame:
    """Turn the members of clusters smaller than ``min_cluster_size`` into
    outliers (``dist`` inf)."""
    size = assigned.groupby("cluster_id")["cluster_id"].transform("size")
    small = (assigned["cluster_id"] != OUTLIER) & (size < min_cluster_size)
    return assigned.assign(
        cluster_id=assigned["cluster_id"].mask(small, OUTLIER),
        dist=assigned["dist"].mask(small, np.inf),
    )


def assign_clusters(
    subtrajs: DataFrame | pd.DataFrame,
    reps: list[Representative],
    *,
    eps: float,
    min_cluster_size: int = 1,
    n_samples: int = 32,
    min_overlap: float = 0.0,
) -> DataFrame | pd.DataFrame:
    """Assign every sub-trajectory to a representative or to the outliers.

    Returns (traj_id, subtraj_id, cluster_id, dist), as the same frame
    kind as ``subtrajs``; ``cluster_id`` is the representative's
    ``rep_id`` or -1, ``dist`` the assignment distance (inf for
    outliers).  ``min_cluster_size`` dissolves undersized clusters
    (QUT's gamma).  A pandas frame is assigned in-process, in one batch.
    """
    reps_arrs = [(r.ts, r.xs, r.ys) for r in reps]
    if isinstance(subtrajs, pd.DataFrame):
        assigned = _assign_batch(subtrajs, reps_arrs, eps, n_samples, min_overlap)
        return _dissolve(assigned, min_cluster_size) if min_cluster_size > 1 else assigned

    def run(it):
        for pdf in it:
            yield _assign_batch(pdf, reps_arrs, eps, n_samples, min_overlap)

    assigned = subtrajs.select(
        "traj_id", "subtraj_id", "ts", "xs", "ys"
    ).mapInPandas(run, schema=_ASSIGN_SCHEMA)

    if min_cluster_size > 1:
        w = Window.partitionBy("cluster_id")
        assigned = (
            assigned.withColumn("csize", F.count(F.lit(1)).over(w))
            .withColumn(
                "cluster_id",
                F.when(
                    (F.col("cluster_id") != OUTLIER)
                    & (F.col("csize") < F.lit(min_cluster_size)),
                    F.lit(OUTLIER),
                ).otherwise(F.col("cluster_id")),
            )
            .withColumn(
                "dist",
                F.when(F.col("cluster_id") == OUTLIER, F.lit(float("inf"))).otherwise(
                    F.col("dist")
                ),
            )
            .drop("csize")
        )
    return assigned

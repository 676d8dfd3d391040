"""QuT-Clustering — public API (paper [10], demo scenario 2).

The algorithm is implemented as :meth:`repro.retratree.tree.ReTraTree.qut`
because it is inseparable from the index it queries (reuse of stored
per-chunk clusters, boundary re-clustering, representative-continuity
merge).  This module is the algorithm-level entry point mirroring the
paper's `SELECT QUT(D, Wi, We, tau, delta, t, d, gamma)` call signature
and holds its one parameter mapping; the SQL string form in
:mod:`repro.mod.hermes` parses into this call.
"""
from __future__ import annotations

from dataclasses import replace

from repro.retratree.tree import QuTResult, ReTraTree

__all__ = ["QuTResult", "qut_clustering"]


def qut_clustering(
    tree: ReTraTree,
    wi: float,
    we: float,
    *,
    tau: int | None = None,
    delta: float | None = None,
    t: float | None = None,
    d: float | None = None,
    gamma: int | None = None,
) -> QuTResult:
    """Run QuT-Clustering over a built ReTraTree for window [wi, we].

    Parameters mirror the paper's SQL call (DESIGN.md mapping):
    ``delta`` assignment/clustering radius, ``t`` minimum sub-trajectory
    duration, ``d`` cross-chunk merge distance, ``gamma`` minimum cluster
    cardinality; ``None`` keeps the tree's defaults.  ``tau``, the
    outlier-partition re-cluster threshold, is the tree's build/insert-time
    property (``ReTraTree.tau``); it is accepted for the call signature
    and does not affect the query, which leaves the tree unchanged.
    """
    overrides = {}
    if delta is not None:
        overrides["eps"] = float(delta)
    if t is not None:
        overrides["min_duration"] = float(t)
    if gamma is not None:
        overrides["min_cluster_size"] = int(gamma)
    params = replace(tree.params, **overrides) if overrides else None
    return tree.qut(wi, we, d_merge=d, params=params)

"""The scenario-2 comparator: clustering a time window *without* ReTraTree.

Paper §III: "We compare QuT-Clustering with the alternative approach
that consists of (i) extracting the relevant records using a temporal
range query, (ii) creating an R-tree index on the result of the query,
and (iii) applying clustering (S2T-Clustering, in our case)."

This module is exactly that pipeline, one span per step (``repro.trace``)
so Table A can attribute the cost.  Step (ii) builds a pg3D-Rtree over
the window's segment boxes — the index S2T's voting would use in Hermes;
our Spark voting builds its index inside each voting task, so this
up-front build is timed (it is part of the baseline's bill, as in the
paper) and its tree is reported but not reused.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.s2t import S2TParams, S2TResult, s2t_clustering, point_labels
from repro.index.rtree3d import Rtree3D, segment_boxes
from repro.mod.model import SEGMENT_COLS, points_to_segments, temporal_range
from repro.trace import Span, count, span


@dataclass
class BaselineResult:
    """Outcome + per-step trace of the rebuild-from-scratch pipeline: the
    ``qut_baseline`` span holds ``range_query``, ``index_build`` and S2T's
    ``s2t`` span (labelling is not billed); ``timings`` reads them, with
    S2T's phases as ``s2t_<phase>``, and ``total``, their billed sum."""

    s2t: S2TResult
    labels: pd.DataFrame          # traj_id, t, cluster_id (ints, -1 outlier)
    trace: Span
    rtree_nodes: int

    @property
    def timings(self) -> dict[str, float]:
        steps = {c.name: c.seconds for c in self.trace.children if c.name != "s2t"}
        s2t = self.s2t.trace.timings("s2t_")
        return {**steps, **s2t, "total": sum(steps.values()) + s2t["s2t_total"]}


def qut_baseline(
    points: DataFrame, wi: float, we: float, params: S2TParams | None = None
) -> BaselineResult:
    """Range query -> R-tree build -> S2T from scratch on [wi, we]."""
    p = params or S2TParams()
    with span("qut_baseline") as trace:
        with span("range_query"):
            wpts = temporal_range(points, wi, we).cache()
            count("rows", wpts.count())
        with span("index_build"):
            seg_pdf = points_to_segments(wpts).select(*SEGMENT_COLS[2:]).toPandas()
            tree = Rtree3D.bulk_load(segment_boxes(seg_pdf.to_numpy(dtype=np.float64)))
        res = s2t_clustering(wpts, p)

    labels = (
        point_labels(wpts, res)
        .select("traj_id", "t", "cluster_id")
        .toPandas()
        .astype({"traj_id": "int64", "t": "float64", "cluster_id": "int64"})
    )
    wpts.unpersist()
    return BaselineResult(
        s2t=res, labels=labels, trace=trace, rtree_nodes=tree.node_count()
    )

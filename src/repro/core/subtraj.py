"""Sub-trajectory assembly: segmented trajectories -> summary + polyline rows.

The SaCO phase (sampling, clustering, outliers) and ReTraTree operate on
*sub-trajectories*, not raw segments.  This module materialises them:
one row per (traj_id, subtraj_id) carrying the voting summary and the
polyline as array columns, each row's polyline a float64 numpy array
from its creation on; SaCO reads them on the driver
(:func:`subtrajs_to_pandas`).
:func:`_assemble_one` is the second half of segmentation's one pass
(``core.segmentation.segment_trajectories``), which emits these rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

SUBTRAJ_SCHEMA = (
    "traj_id long, subtraj_id long, t_start double, t_end double, "
    "n_segs long, sum_vote double, "
    "ts array<double>, xs array<double>, ys array<double>"
)
SUBTRAJ_COLS = [f.split()[0] for f in SUBTRAJ_SCHEMA.split(", ")]

def _assemble_one(pdf: pd.DataFrame) -> pd.DataFrame:
    """Segments of any number of trajectories, sorted by
    ``(traj_id, seg_id)`` and carrying their ``subtraj_id`` -> one summary
    row with its polyline per sub-trajectory.

    A row starts wherever ``traj_id`` or ``subtraj_id`` changes.  A
    sub-trajectory's polyline is the start point of its first segment
    followed by the end point of each of its segments: one float64 view
    per row into one array per coordinate.
    """
    tid = pdf["traj_id"].to_numpy(dtype=np.int64)
    sub = pdf["subtraj_id"].to_numpy(dtype=np.int64)
    starts = np.flatnonzero((np.diff(tid, prepend=-1) != 0) | (np.diff(sub, prepend=-1) != 0))
    ends = np.append(starts[1:], len(sub))
    v = pdf["vote"].to_numpy(dtype=np.float64)
    # polyline i begins at starts[i] + i once the i head points are inserted
    heads = starts + np.arange(len(starts))

    def polylines(first: str, rest: str) -> list[np.ndarray]:
        head = pdf[first].to_numpy(dtype=np.float64)[starts]
        col = np.insert(pdf[rest].to_numpy(dtype=np.float64), starts, head)
        return np.split(col, heads[1:])

    return pd.DataFrame(
        {
            "traj_id": tid[starts],
            "subtraj_id": sub[starts],
            "t_start": pdf["t1"].to_numpy(dtype=np.float64)[starts],
            "t_end": pdf["t2"].to_numpy(dtype=np.float64)[ends - 1],
            "n_segs": ends - starts,
            # one sum per slice: np.add.reduceat would change the low bits
            "sum_vote": [v[a:b].sum() for a, b in zip(starts, ends)],
            "ts": polylines("t1", "t2"),
            "xs": polylines("x1", "x2"),
            "ys": polylines("y1", "y2"),
        }
    )


def subtrajs_to_pandas(subtrajs: DataFrame | pd.DataFrame) -> pd.DataFrame:
    """Subtraj rows on the driver, sorted by ``(traj_id, subtraj_id)``,
    polylines as float64 numpy arrays.  A Spark frame is collected (Arrow
    ``toPandas`` yields the arrays) and sorted; a pandas frame, the
    in-process engine's :func:`_assemble_one` output, already is this
    and is returned as is.

    Used by the sampling greedy loop: the subtraj summary table is
    orders of magnitude smaller than the point data (paper's reason for
    running SaCO after segmentation), so collecting it is the intended
    cost model.
    """
    if not isinstance(subtrajs, DataFrame):
        return subtrajs
    return subtrajs.toPandas().sort_values(["traj_id", "subtraj_id"], ignore_index=True)

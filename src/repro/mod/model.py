"""Trajectory data model for the Moving Object Database substrate.

Hermes@PostgreSQL stores trajectories as first-class datatypes; the
PySpark equivalent is a small family of canonical DataFrame schemas plus
the transformations between them.  Everything downstream (voting,
segmentation, ReTraTree) consumes these schemas.

Schemas
-------
``points``:    obj_id, traj_id, t, x, y [, gt_label]
    One row per GPS sample. ``t`` is seconds since the MOD epoch,
    ``x``/``y`` are planar coordinates (the generator uses km).
    ``gt_label`` is the planted ground-truth group id (-1 = noise) and
    is carried through when present.

``segments``:  traj_id, seg_id, t1, x1, y1, t2, x2, y2
    One row per consecutive point pair of a trajectory, ordered by
    ``seg_id`` (0-based).  This is the unit of the voting phase: a 3D
    line segment in (x, y, t).

``subtrajs``:  traj_id, subtraj_id, t_start, t_end, n_segs, sum_vote,
              ts, xs, ys
    Segmentation output — one row per sub-trajectory (ids 0-based per
    trajectory, temporally ordered) with its voting summary and its
    polyline as arrays; see ``core.subtraj.SUBTRAJ_SCHEMA``.

Per-trajectory work (segments, NaTS segmentation) is one pandas kernel,
which a Spark frame runs once per trajectory partition
(:func:`by_trajectory`): the engine decides only how data is spread.

Points and polyline rows (sub-trajectories, member rows, trajectories)
convert by one kernel each way: :func:`split_polylines` and
:func:`explode_polylines`.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

SEGMENT_SCHEMA = (
    "traj_id long, seg_id long, t1 double, x1 double, y1 double, "
    "t2 double, x2 double, y2 double"
)
#: Column order of the canonical segment schema (used by tests and the
#: in-pandas kernels so positional numpy views line up).
SEGMENT_COLS = [f.split()[0] for f in SEGMENT_SCHEMA.split(", ")]


def by_trajectory(df: DataFrame, fn: Callable[[pd.DataFrame], pd.DataFrame],
                  schema: str) -> DataFrame:
    """Run the pandas kernel ``fn`` once per partition of ``df`` hashed by
    ``traj_id``, so each call sees whole trajectories; one partition per
    core, not per shuffle partition, as each Python task has a fixed cost.

    A partition's Arrow batches are joined into one frame before the
    call (a trajectory may span several batches); an empty partition
    makes no call.  ``fn`` must take a frame of any number of
    trajectories, in any row order, and return rows of ``schema``.
    """
    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = list(batches)
        if frames:
            yield fn(pd.concat(frames, ignore_index=True))

    width = df.sparkSession.sparkContext.defaultParallelism
    return df.repartition(width, "traj_id").mapInPandas(run, schema=schema)


def points_to_segments(points: DataFrame | pd.DataFrame) -> DataFrame | pd.DataFrame:
    """Turn a points frame into the canonical segments frame, of the same kind.

    Consecutive samples of each trajectory (ordered by ``(t, x, y)``, so
    the samples of a duplicate timestamp have a defined order) become 3D
    line segments: the ``lead`` of each sample per trajectory, taken with
    ``shift`` on a pandas frame; a Spark DataFrame runs that same kernel
    once per trajectory partition (:func:`by_trajectory`).  The
    equivalent SQL (``lead`` over a partition) is what the DuckDB oracle
    checks in the tests.

    Zero-duration segments (duplicate timestamps) are dropped — they
    carry no motion and would divide by zero in the distance kernels.
    """
    if isinstance(points, DataFrame):
        return by_trajectory(points.select("traj_id", "t", "x", "y"),
                             points_to_segments, SEGMENT_SCHEMA)
    pts = points.sort_values(["traj_id", "t", "x", "y"], ignore_index=True)
    nxt = pts.groupby("traj_id")[["t", "x", "y"]].shift(-1)
    seg = pd.DataFrame({
        "traj_id": pts["traj_id"].astype(np.int64),
        "t1": pts["t"], "x1": pts["x"], "y1": pts["y"],
        "t2": nxt["t"], "x2": nxt["x"], "y2": nxt["y"],
    }).astype({c: np.float64 for c in SEGMENT_COLS[2:]})
    seg = seg[seg["t2"].notna() & (seg["t2"] > seg["t1"])].reset_index(drop=True)
    seg["seg_id"] = seg.groupby("traj_id").cumcount().astype(np.int64)
    return seg[SEGMENT_COLS]


def temporal_range(points: DataFrame, t_start: float, t_end: float) -> DataFrame:
    """Temporal range query: points with ``t`` in ``[t_start, t_end]``.

    This is step (i) of the QuT baseline (the "extract the relevant
    records using a temporal range query" of scenario 2) and is
    oracle-checked against the identical DuckDB predicate.
    """
    return points.where((F.col("t") >= F.lit(t_start)) & (F.col("t") <= F.lit(t_end)))


def split_polylines(pdf: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Points -> polyline rows: one row per distinct value of the integer
    ``keys`` columns of a points frame, in ``keys`` order, its samples
    sorted by ``(t, x, y)`` into float64 arrays ``ts``, ``xs``, ``ys``.
    No points give no rows.  The inverse of :func:`explode_polylines`.
    """
    pts = pdf.sort_values([*keys, "t", "x", "y"], ignore_index=True)
    key = pts[keys].to_numpy(dtype=np.int64)
    starts = np.flatnonzero((np.diff(key, axis=0, prepend=key[:1] - 1) != 0).any(axis=1))
    # split at every start, the first too, and drop the empty head piece
    polys = {c: np.split(pts[c[0]].to_numpy(dtype=np.float64), starts)[1:]
             for c in ("ts", "xs", "ys")}
    return pd.DataFrame({**dict(zip(keys, key[starts].T)), **polys})


def explode_polylines(
    rows: pd.DataFrame, lo: float = -np.inf, hi: float = np.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Polyline rows -> points: flatten the ts/xs/ys polylines of
    ``rows`` into point arrays, in row order, keeping the points with
    ``lo <= t <= hi``.

    Returns ``(row, ts, xs, ys)``: ``row`` is the position in ``rows`` of
    each point's row.
    """
    n = np.array([len(a) for a in rows["ts"]], dtype=np.int64)
    row = np.repeat(np.arange(len(rows)), n)
    ts, xs, ys = (np.concatenate([np.empty(0), *rows[c]]) for c in ("ts", "xs", "ys"))
    keep = (ts >= lo) & (ts <= hi)
    return row[keep], ts[keep], xs[keep], ys[keep]


def make_points_df(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a points DataFrame from pandas with canonical dtypes."""
    pdf = pdf.copy()
    for c in ("obj_id", "traj_id"):
        if c in pdf.columns:
            pdf[c] = pdf[c].astype("int64")
    for c in ("t", "x", "y"):
        pdf[c] = pdf[c].astype("float64")
    if "gt_label" in pdf.columns:
        pdf["gt_label"] = pdf["gt_label"].astype("int64")
    return spark.createDataFrame(pdf)

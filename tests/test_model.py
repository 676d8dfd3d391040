"""Trajectory data model: every relational transformation is checked
against the identical SQL on DuckDB (the oracle)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.mod.model import (
    SEGMENT_COLS,
    explode_polylines,
    make_points_df,
    points_to_segments,
    split_polylines,
    temporal_range,
)
from repro.oracle import assert_equivalent

_SEGMENTS_SQL = """
WITH s AS (
  SELECT traj_id, t AS t1, x AS x1, y AS y1,
         lead(t) OVER w AS t2, lead(x) OVER w AS x2, lead(y) OVER w AS y2
  FROM pts
  WINDOW w AS (PARTITION BY traj_id ORDER BY t)
)
SELECT traj_id,
       CAST(row_number() OVER (PARTITION BY traj_id ORDER BY t1) - 1 AS BIGINT) AS seg_id,
       t1, x1, y1, t2, x2, y2
FROM s WHERE t2 IS NOT NULL AND t2 > t1
"""


def test_points_to_segments_matches_sql(segments, mod_pdf):
    assert_equivalent(segments, _SEGMENTS_SQL, pts=mod_pdf)


def test_segments_column_order(segments):
    assert segments.columns == SEGMENT_COLS


def test_segments_drop_zero_duration(spark):
    pdf = pd.DataFrame(
        {
            "traj_id": [1, 1, 1, 1],
            "t": [0.0, 10.0, 10.0, 20.0],  # duplicate timestamp
            "x": [0.0, 1.0, 2.0, 3.0],
            "y": [0.0, 0.0, 0.0, 0.0],
        }
    )
    seg = points_to_segments(make_points_df(spark, pdf)).toPandas()
    assert (seg["t2"] > seg["t1"]).all()
    assert len(seg) == 2  # (0->10) and (10->20); zero-duration pair dropped


def test_segments_per_traj_counts(segments, mod_pdf):
    got = segments.groupBy("traj_id").count().toPandas().set_index("traj_id")["count"]
    for tid, g in mod_pdf.groupby("traj_id"):
        assert got.get(tid, 0) == len(g) - 1


@pytest.mark.parametrize("lo,hi", [(0.0, 1800.0), (900.0, 5400.0), (3600.0, 7200.0)])
def test_temporal_range_matches_sql(mod_points, mod_pdf, lo, hi):
    assert_equivalent(
        temporal_range(mod_points, lo, hi),
        f"SELECT * FROM pts WHERE t >= {lo} AND t <= {hi}",
        pts=mod_pdf,
    )


def test_temporal_range_empty_window(mod_points):
    assert temporal_range(mod_points, -100.0, -50.0).count() == 0


def test_split_polylines_sorted_and_complete(mod_pdf):
    """One row per trajectory in traj_id order, samples sorted by t; the
    exploded rows give back every point, sorted by (traj_id, t)."""
    polys = split_polylines(mod_pdf.sample(frac=1.0, random_state=0), ["traj_id"])
    assert polys["traj_id"].tolist() == sorted(mod_pdf["traj_id"].unique())
    for _, row in polys.iterrows():
        assert (np.diff(row["ts"]) > 0).all()
        assert all(isinstance(row[c], np.ndarray) and row[c].dtype == np.float64
                   for c in ("ts", "xs", "ys"))
    row, ts, xs, ys = explode_polylines(polys)
    pts = mod_pdf.sort_values(["traj_id", "t"], ignore_index=True)
    np.testing.assert_array_equal(polys["traj_id"].to_numpy()[row], pts["traj_id"])
    for got, c in ((ts, "t"), (xs, "x"), (ys, "y")):
        np.testing.assert_array_equal(got, pts[c].to_numpy(dtype=np.float64))


def test_split_polylines_orders_duplicate_stamps_and_keys():
    """Samples sharing a stamp are ordered by (x, y); every distinct key
    tuple is one row, a one-point one too; no points give no rows."""
    pdf = pd.DataFrame({"traj_id": [2, 1, 1, 1, 1, 2], "chunk": [0, 1, 0, 0, 0, 0],
                        "t": [5.0, 9.0, 3.0, 3.0, 0.0, 4.0],
                        "x": [0.0, 0.0, 2.0, 1.0, 0.0, 0.0], "y": [0.0, 0.0, 0.0, 7.0, 0.0, 0.0]})
    got = split_polylines(pdf, ["traj_id", "chunk"])
    assert list(got.columns) == ["traj_id", "chunk", "ts", "xs", "ys"]
    assert list(zip(got["traj_id"], got["chunk"])) == [(1, 0), (1, 1), (2, 0)]
    assert [a.tolist() for a in got["ts"]] == [[0.0, 3.0, 3.0], [9.0], [4.0, 5.0]]
    assert [a.tolist() for a in got["xs"]] == [[0.0, 1.0, 2.0], [0.0], [0.0, 0.0]]
    assert [a.tolist() for a in got["ys"]] == [[0.0, 7.0, 0.0], [0.0], [0.0, 0.0]]
    assert len(split_polylines(pdf.iloc[:0], ["traj_id"])) == 0


def test_make_points_df_dtypes(spark):
    pdf = pd.DataFrame(
        {"obj_id": [1], "traj_id": [1], "t": [1], "x": [2], "y": [3], "gt_label": [0]}
    )
    df = make_points_df(spark, pdf)
    d = dict(df.dtypes)
    assert d == {
        "obj_id": "bigint", "traj_id": "bigint", "t": "double",
        "x": "double", "y": "double", "gt_label": "bigint",
    }

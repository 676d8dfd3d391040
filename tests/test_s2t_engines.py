"""S2T's two engines agree: a Spark DataFrame runs the phases as Spark
jobs, a pandas frame runs the same kernels in the driver process.  Both
must give the same segments, votes, sub-trajectory polylines,
representatives and clusters, bit for bit."""
from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.s2t import S2TParams, point_labels, s2t_clustering
from repro.mod.model import SEGMENT_COLS, make_points_df, points_to_segments
from tests.conftest import TEST_PARAMS

SEG_KEY = ["traj_id", "seg_id"]
SUB_KEY = ["traj_id", "subtraj_id"]


def _pdf(df) -> pd.DataFrame:
    return df if isinstance(df, pd.DataFrame) else df.toPandas()


def _sorted(df, key) -> pd.DataFrame:
    return _pdf(df).sort_values(key, ignore_index=True)


def assert_same_run(local, dist) -> None:
    """``local`` (pandas engine) and ``dist`` (Spark engine) are one answer."""
    pd.testing.assert_frame_equal(_sorted(local.segments, SEG_KEY), _sorted(dist.segments, SEG_KEY))

    lv, dv = _sorted(local.voted, SEG_KEY), _sorted(dist.voted, SEG_KEY)
    pd.testing.assert_frame_equal(lv[SEGMENT_COLS], dv[SEGMENT_COLS])
    np.testing.assert_array_equal(lv["vote"], dv["vote"])

    ls, ds = local.sub_pdf, dist.sub_pdf
    cols = ["traj_id", "subtraj_id", "t_start", "t_end", "n_segs"]
    pd.testing.assert_frame_equal(ls[cols], ds[cols])
    for c in ("ts", "xs", "ys"):
        assert all(np.array_equal(a, b) for a, b in zip(ls[c], ds[c])), c
    np.testing.assert_array_equal(ls["sum_vote"], ds["sum_vote"])

    assert [(r.traj_id, r.subtraj_id) for r in local.reps] == [
        (r.traj_id, r.subtraj_id) for r in dist.reps]
    lc, dc = _sorted(local.clusters, SUB_KEY), _sorted(dist.clusters, SUB_KEY)
    pd.testing.assert_frame_equal(lc[SUB_KEY + ["cluster_id"]], dc[SUB_KEY + ["cluster_id"]])
    np.testing.assert_array_equal(lc["dist"], dc["dist"])
    assert set(local.timings) == set(dist.timings)


def _both(spark, pdf: pd.DataFrame, params: S2TParams):
    local = s2t_clustering(pdf, params)
    dist = s2t_clustering(make_points_df(spark, pdf), params)
    return local, dist


def test_engines_agree_on_tier1_mod(spark, mod_pdf):
    local, dist = _both(spark, mod_pdf, TEST_PARAMS)
    try:
        assert len(local.reps) > 1 and (local.sub_pdf.groupby("traj_id").size() > 1).any()
        assert_same_run(local, dist)
    finally:
        dist.unpersist()


def test_engines_agree_when_trajectories_span_arrow_batches(spark, mod_pdf):
    """The Spark engine's per-partition kernels see whole trajectories
    even when a trajectory's rows arrive in several Arrow batches and
    some partitions hold none: 16-row batches, over the tier-1 MOD and
    over two of its trajectories, fewer than the session's cores."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    saved = spark.conf.get(key)
    two = mod_pdf[mod_pdf["traj_id"].isin(mod_pdf["traj_id"].unique()[:2])]
    width = spark.sparkContext.defaultParallelism
    sizes = []
    try:
        spark.conf.set(key, "16")
        for pdf in (mod_pdf, two):
            pts = make_points_df(spark, pdf).repartition(width, "traj_id")
            sizes += pts.rdd.glom().map(len).collect()
            local, dist = _both(spark, pdf, TEST_PARAMS)
            try:
                assert_same_run(local, dist)
            finally:
                dist.unpersist()
    finally:
        spark.conf.set(key, saved)
    assert min(sizes) == 0 and max(sizes) > 16


@st.composite
def small_mods(draw) -> pd.DataFrame:
    """A few trajectories sampled every 30 s in two loose bundles and one
    stray, optionally with duplicate timestamps (other x/y) and with a
    sampling hole; rows shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_traj = draw(st.integers(2, 6))
    dup, hole = draw(st.booleans()), draw(st.booleans())
    frames = []
    for k in range(n_traj):
        n = int(rng.integers(3, 30))
        t = 30.0 * (int(rng.integers(0, 8)) + np.arange(n))
        off = (k % 3) * 2.5 + rng.normal(0, 0.3)
        x = 0.02 * t + off + rng.normal(0, 0.05, n)
        y = off + np.where(np.arange(n) > n // 2, 1.5 * (k % 2), 0.0) + rng.normal(0, 0.05, n)
        frames.append(pd.DataFrame({"traj_id": k, "t": t, "x": x, "y": y}))
    pdf = pd.concat(frames, ignore_index=True)
    if dup:
        extra = pdf.sample(n=max(1, len(pdf) // 8), random_state=rng.integers(1 << 31))
        pdf = pd.concat([pdf, extra.assign(x=extra["x"] + 0.3, y=extra["y"] - 0.2)])
    if hole:
        longest = pdf.groupby("traj_id").size().idxmax()
        rows = pdf.index[pdf["traj_id"] == longest][3:9]
        pdf = pdf.drop(rows)
    pdf = pdf.sample(frac=1.0, random_state=rng.integers(1 << 31)).reset_index(drop=True)
    return pdf.assign(obj_id=pdf["traj_id"])


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pdf=small_mods())
def test_engines_agree_on_random_mods(spark, pdf):
    local, dist = _both(spark, pdf, S2TParams(sigma=1.0, min_len=2, lam=3.0))
    try:
        assert_same_run(local, dist)
    finally:
        dist.unpersist()


def test_duplicate_timestamps_ordered_by_t_x_y(spark):
    """Samples sharing a stamp are ordered by (x, y): the zero-duration
    segment between them is dropped, and the next segment starts at the
    larger one, whatever the input order."""
    pdf = pd.DataFrame({
        "obj_id": 1, "traj_id": 1,
        "t": [0.0, 10.0, 10.0, 10.0, 20.0, 30.0],
        "x": [0.0, 5.0, 1.0, 1.0, 2.0, 3.0],
        "y": [0.0, 0.0, 4.0, 2.0, 0.0, 0.0],
    })
    want = pd.DataFrame({
        "traj_id": [1, 1, 1], "seg_id": [0, 1, 2],
        "t1": [0.0, 10.0, 20.0], "x1": [0.0, 5.0, 2.0], "y1": [0.0, 0.0, 0.0],
        "t2": [10.0, 20.0, 30.0], "x2": [1.0, 2.0, 3.0], "y2": [2.0, 0.0, 0.0],
    }).astype({"traj_id": "int64", "seg_id": "int64"})
    for seed in range(3):
        shuffled = pdf.sample(frac=1.0, random_state=seed).reset_index(drop=True)
        got = points_to_segments(shuffled)
        pd.testing.assert_frame_equal(_sorted(got, SEG_KEY), want)
        got = points_to_segments(make_points_df(spark, shuffled).repartition(3))
        pd.testing.assert_frame_equal(_sorted(got, SEG_KEY), want)


def test_empty_points_run_in_process():
    pdf = pd.DataFrame({"obj_id": [1], "traj_id": [1], "t": [0.0], "x": [0.0], "y": [0.0]})
    res = s2t_clustering(pdf, TEST_PARAMS)
    assert len(res.segments) == 0 and len(res.sub_pdf) == 0
    assert res.reps == [] and len(res.clusters) == 0
    assert {"prepare", "voting", "segmentation", "sampling", "clustering", "total"} <= set(res.timings)


def test_empty_points_run_on_spark(spark):
    """One-point trajectories on the Spark engine: no segments, no
    sub-trajectories, an empty ``clusters`` table, and every point
    labelled -1."""
    pdf = pd.DataFrame({"obj_id": [1, 2, 3], "traj_id": [1, 2, 3],
                        "t": [0.0, 10.0, 20.0], "x": [0.0, 1.0, 2.0], "y": [0.0, 0.0, 0.0]})
    pts = make_points_df(spark, pdf)
    res = s2t_clustering(pts, TEST_PARAMS)
    try:
        assert res.segments.count() == 0 and res.subtrajs.count() == 0
        assert len(res.sub_pdf) == 0 and res.reps == []
        assert isinstance(res.clusters, pd.DataFrame) and len(res.clusters) == 0
        lab = point_labels(pts, res).toPandas()
    finally:
        res.unpersist()
    assert sorted(lab["traj_id"]) == [1, 2, 3]
    assert (lab["cluster_id"] == -1).all()

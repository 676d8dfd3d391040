"""S2T-Clustering end-to-end on planted ground truth: the pipeline must
recover the planted co-movement groups, isolate the planted noise, and
report honest per-phase timings."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from pyspark.sql import functions as F

from repro import synth_data
from repro.core.clustering import OUTLIER
from repro.core.s2t import S2TParams, point_labels, s2t_clustering
from repro.eval.quality import evaluate_point_labels
from repro.mod.model import make_points_df
from tests.conftest import TEST_PARAMS


def _metrics(spark, sf, seed, **gen_overrides):
    pts = synth_data.trajectories(spark, sf=sf, seed=seed, **gen_overrides).cache()
    res = s2t_clustering(pts, S2TParams(sigma=1.0))
    lab = point_labels(pts, res).select("gt_label", "cluster_id").toPandas()
    m = evaluate_point_labels(lab)
    res.unpersist()
    pts.unpersist()
    return m, res


def test_recovers_planted_groups(spark, mod_points, s2t_result):
    lab = point_labels(mod_points, s2t_result).select("gt_label", "cluster_id").toPandas()
    m = evaluate_point_labels(lab)
    assert m["ari_clustered"] >= 0.6
    assert m["purity"] >= 0.9
    assert m["outlier_f1"] >= 0.6


@pytest.mark.parametrize("seed", [7, 11])
def test_quality_across_seeds(spark, seed):
    m, _ = _metrics(spark, 0.01, seed)
    assert m["ari_clustered"] >= 0.55, m
    assert m["purity"] >= 0.85, m


def test_time_separated_twins_not_merged(spark):
    """Twin mode: S2T must produce (at least) one cluster per twin —
    time-awareness means spatial coincidence is not enough to merge."""
    m, _ = _metrics(
        spark, 0.01, 5, groups_per_route=2, twin_time_separated=True
    )
    assert m["purity"] >= 0.85, m
    assert m["ari_clustered"] >= 0.5, m


def test_timings_cover_all_phases(s2t_result):
    t = s2t_result.timings
    for k in ("prepare", "voting", "segmentation", "sampling", "clustering", "total"):
        assert k in t and t[k] >= 0.0
    assert t["total"] == pytest.approx(
        t["prepare"] + t["voting"] + t["segmentation"] + t["sampling"] + t["clustering"]
    )


def test_point_labels_complete(mod_points, s2t_result):
    lab = point_labels(mod_points, s2t_result)
    assert lab.count() == mod_points.count()
    assert lab.where("cluster_id IS NULL").count() == 0


def _relational_point_labels(points, result):
    """The relational plan that ``point_labels`` replaced, kept as its
    reference: the Spark sub-trajectory rows exploded to points, the
    largest ``subtraj_id`` per ``(traj_id, t)``, then left joins to the
    points and to ``clusters``."""
    point_sub = (
        result.subtrajs.select("traj_id", "subtraj_id", F.explode("ts").alias("t"))
        .groupBy("traj_id", "t")
        .agg(F.max("subtraj_id").alias("subtraj_id"))
    )
    clusters = points.sparkSession.createDataFrame(
        result.clusters[["traj_id", "subtraj_id", "cluster_id"]],
        schema="traj_id long, subtraj_id long, cluster_id long",
    )
    out = points.join(point_sub, ["traj_id", "t"], "left").join(
        clusters, ["traj_id", "subtraj_id"], "left"
    )
    return out.withColumn("cluster_id", F.coalesce(F.col("cluster_id"), F.lit(OUTLIER)))


def _with_one_point_trajectories(pdf):
    lone = pdf.groupby("traj_id").head(1).iloc[:3]
    ids = pdf["traj_id"].max() + 1 + np.arange(len(lone))
    return pd.concat([pdf, lone.assign(obj_id=ids, traj_id=ids)], ignore_index=True)


def _with_duplicate_stamps(pdf):
    extra = pdf.iloc[::9]
    return pd.concat([pdf, extra.assign(x=extra["x"] + 0.3, y=extra["y"] - 0.2)],
                     ignore_index=True)


@pytest.mark.parametrize("variant", [None, _with_one_point_trajectories, _with_duplicate_stamps],
                         ids=["tier1", "one_point_trajectories", "duplicate_stamps"])
def test_point_labels_equal_the_relational_plan(spark, mod_points, mod_pdf, s2t_result, variant):
    """Every column, compared by name, equals the relational plan's on
    the tier-1 MOD and on it with one-point trajectories or duplicate
    timestamps added."""
    pts, res = mod_points, s2t_result
    if variant is not None:
        pts = make_points_df(spark, variant(mod_pdf))
        res = s2t_clustering(pts, TEST_PARAMS)
    try:
        got = point_labels(pts, res).toPandas()
        want = _relational_point_labels(pts, res).toPandas()
    finally:
        if variant is not None:
            res.unpersist()
    assert sorted(got.columns) == sorted(want.columns)
    cols, key = sorted(got.columns), ["traj_id", "t", "x", "y", "obj_id"]
    got = got[cols].sort_values(key, ignore_index=True)
    want = want[cols].sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    assert len(got) == pts.count() and (got["cluster_id"] >= 0).any()


def test_reps_are_members_of_their_clusters(s2t_result):
    """Every representative's own sub-trajectory must be assigned to its
    cluster at distance ~0 (unless the cluster was dissolved)."""
    cl = s2t_result.clusters
    for r in s2t_result.reps:
        row = cl[(cl.traj_id == r.traj_id) & (cl.subtraj_id == r.subtraj_id)]
        assert len(row) == 1
        if int(row["cluster_id"].iloc[0]) != -1:
            assert int(row["cluster_id"].iloc[0]) == r.rep_id
            assert row["dist"].iloc[0] == pytest.approx(0.0, abs=1e-9)


def test_cluster_ids_within_rep_range(s2t_result):
    ids = set(s2t_result.clusters["cluster_id"].tolist())
    assert ids <= set(range(len(s2t_result.reps))) | {-1}


def test_eps_eff_default():
    assert S2TParams(sigma=2.0).eps_eff == 6.0
    assert S2TParams(sigma=2.0, eps=1.5).eps_eff == 1.5


def test_noise_objects_mostly_outlier(spark, mod_points, s2t_result, mod_pdf):
    lab = point_labels(mod_points, s2t_result).select("traj_id", "t", "cluster_id").toPandas()
    noise_trajs = set(mod_pdf.groupby("traj_id")["gt_label"].max().loc[lambda s: s == -1].index)
    if not noise_trajs:
        pytest.skip("no pure-noise objects at this seed")
    noisy = lab[lab.traj_id.isin(noise_trajs)]
    frac_outlier = (noisy["cluster_id"] == -1).mean()
    assert frac_outlier >= 0.7


def _track(traj, t0, t1, y, step=50.0):
    t = np.arange(t0, t1 + step / 2, step)
    return pd.DataFrame({"obj_id": traj, "traj_id": traj, "t": t, "x": 0.01 * t, "y": y})


def test_point_labels_degenerate_inputs(spark):
    """The labelling rule on a hand-built MOD: trajectory 1 rides with
    trajectories 2-3 until t = 1000 s and with 4-7 after, so its vote
    steps and it is cut into two sub-trajectories; trajectory 2 repeats
    a timestamp mid-way, trajectory 3 at its end; trajectory 8 is one point."""
    pdf = pd.concat(
        [_track(1, 0, 2000, 0.0)]
        + [_track(k, 0, 1000, 0.1 * k) for k in (2, 3)]
        + [_track(k, 1000, 2000, 0.1 * k) for k in (4, 5, 6, 7)],
        ignore_index=True,
    )
    dups = pd.concat([pdf[pdf.traj_id == 2].iloc[[10]], pdf[pdf.traj_id == 3].iloc[[-1]]])
    one = pd.DataFrame({"obj_id": [8], "traj_id": [8], "t": [500.0], "x": [5.0], "y": [0.0]})
    pdf = pd.concat([pdf, dups.assign(x=dups.x + 0.05), one], ignore_index=True)
    pts = make_points_df(spark, pdf)
    # min_overlap keeps a sub-trajectory from joining a cluster through
    # the few seconds it shares with the other group's representative
    res = s2t_clustering(pts, S2TParams(sigma=1.0, min_overlap=200.0))
    lab = point_labels(pts, res).toPandas()
    sub = res.subtrajs.toPandas().sort_values(["traj_id", "subtraj_id"])
    cl = res.clusters.set_index(["traj_id", "subtraj_id"])["cluster_id"]
    res.unpersist()

    key = ["traj_id", "t", "x", "y"]
    assert sorted(map(tuple, lab[key].to_numpy())) == sorted(map(tuple, pdf[key].to_numpy()))

    cut = sub[sub.traj_id == 1]
    assert len(cut) >= 2
    for (_, a), (_, b) in zip(cut.iloc[:-1].iterrows(), cut.iloc[1:].iterrows()):
        (shared,) = lab.loc[(lab.traj_id == 1) & (lab.t == b["ts"][0]), "cluster_id"]
        assert a["ts"][-1] == b["ts"][0]
        assert cl[(1, b["subtraj_id"])] != cl[(1, a["subtraj_id"])]
        assert shared == cl[(1, b["subtraj_id"])]

    for r in dups.itertuples():
        assert lab.loc[(lab.traj_id == r.traj_id) & (lab.t == r.t), "cluster_id"].nunique() == 1
    assert lab.loc[lab.traj_id == 8, "cluster_id"].tolist() == [-1]

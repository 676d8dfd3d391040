"""Scenario-1 comparators: TRACLUS, T-OPTICS, Convoys — unit behaviour
plus the structural weaknesses the demo paper attributes to them."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.baselines._dbscan import dbscan_euclidean
from repro.baselines.convoy import discover_convoys
from repro.baselines.toptics import (
    extract_clusters,
    optics_order,
    t_optics,
    trajectory_distance_matrix,
)
from repro.baselines.traclus import (
    approximate_partition,
    partition_trajectories,
    segment_distance,
    traclus,
)
from repro.core.distance import sync_distance
from repro.mod.model import make_points_df, split_polylines


# ------------------------------------------------------------------ DBSCAN
def test_dbscan_two_blobs():
    g = np.random.default_rng(0)
    a = g.normal(0, 0.2, (20, 2))
    b = g.normal(10, 0.2, (20, 2))
    labels = dbscan_euclidean(np.vstack([a, b]), eps=1.0, min_pts=3)
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[20]


def test_dbscan_noise_isolated():
    pts = np.array([[0, 0], [0.1, 0], [0.2, 0], [50, 50]], float)
    labels = dbscan_euclidean(pts, eps=1.0, min_pts=3)
    assert labels[3] == -1
    assert (labels[:3] == labels[0]).all() and labels[0] >= 0


def test_dbscan_all_noise():
    pts = np.array([[0, 0], [10, 10], [20, 20]], float)
    assert (dbscan_euclidean(pts, eps=1.0, min_pts=2) == -1).all()


# ----------------------------------------------------------------- TRACLUS
def test_partition_straight_line_minimal():
    n = 30
    cps = approximate_partition(np.arange(n, dtype=float), np.zeros(n))
    assert cps[0] == 0 and cps[-1] == n - 1
    assert len(cps) <= 4  # near-minimal description for a straight line


def test_partition_sharp_corner_detected():
    xs = np.concatenate([np.arange(20.0), np.full(19, 19.0)])
    ys = np.concatenate([np.zeros(20), np.arange(1.0, 20.0)])
    cps = approximate_partition(xs, ys)
    assert any(abs(c - 19) <= 2 for c in cps[1:-1])


def test_partition_trajectories_schema(spark, mod_points):
    char = partition_trajectories(mod_points).toPandas()
    assert {"traj_id", "cseg_id", "sx", "sy", "ex", "ey"} <= set(char.columns)
    assert char.groupby("traj_id")["cseg_id"].min().eq(0).all()


def test_segment_distance_identical_zero():
    s = np.array([0.0, 0.0, 10.0, 0.0])
    assert segment_distance(s, s) == pytest.approx(0.0, abs=1e-9)


def test_segment_distance_parallel_offset():
    a = np.array([0.0, 0.0, 10.0, 0.0])
    b = np.array([0.0, 2.0, 10.0, 2.0])
    assert segment_distance(a, b) == pytest.approx(2.0, abs=1e-6)


def test_segment_distance_perpendicular_has_angle_term():
    a = np.array([0.0, 0.0, 10.0, 0.0])
    b = np.array([5.0, -5.0, 5.0, 5.0])
    assert segment_distance(a, b) > 5.0  # angular penalty dominates


def test_traclus_merges_time_separated_twins(spark):
    """The headline weakness: two co-located, time-disjoint bundles are
    ONE spatial cluster for TRACLUS."""
    rows = []
    for k in range(4):  # bundle A at t~0, bundle B at t~10000, same corridor
        for t0, base in ((0.0, 0), (10_000.0, 100)):
            ts = t0 + np.arange(20.0) * 10
            rows.append(pd.DataFrame({
                "obj_id": base + k, "traj_id": base + k, "t": ts,
                "x": (ts - t0) * 0.1, "y": 0.05 * k,
            }))
    pts = make_points_df(spark, pd.concat(rows, ignore_index=True))
    res = traclus(pts, eps=2.0, min_lns=3)
    labs = res.point_labels
    la = labs[labs.traj_id < 100]["cluster_id"]
    lb = labs[labs.traj_id >= 100]["cluster_id"]
    shared = set(la[la >= 0]) & set(lb[lb >= 0])
    assert shared, "TRACLUS should merge the time-separated twins"


def test_traclus_labels_cover_points(spark, mod_points):
    res = traclus(mod_points, eps=2.0, min_lns=4)
    assert len(res.point_labels) == mod_points.count()
    assert res.point_labels["cluster_id"].dtype == np.int64


# ---------------------------------------------------------------- T-OPTICS
def test_distance_matrix_symmetric_zero_diag(mod_pdf):
    """Entry (i, j) is the pair's ``sync_distance``, with no overlap at
    the finite stand-in; the matrix is exactly symmetric, zero on the
    diagonal."""
    polys = split_polylines(mod_pdf, ["traj_id"]).head(8)
    m = trajectory_distance_matrix(polys)
    np.testing.assert_array_equal(m, m.T)
    assert (np.diag(m) == 0.0).all()
    arrs = list(zip(polys["ts"], polys["xs"], polys["ys"]))
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            d = sync_distance(*arrs[i], *arrs[j])
            assert m[i, j] == (d if np.isfinite(d) else 1e9)


def test_optics_orders_all_points():
    d = np.array(
        [[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1], [9, 9, 1, 0]], dtype=float
    )
    order, reach = optics_order(d, min_pts=2)
    assert sorted(order.tolist()) == [0, 1, 2, 3]


def test_extract_clusters_two_groups():
    d = np.array(
        [[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1], [9, 9, 1, 0]], dtype=float
    )
    order, reach = optics_order(d, min_pts=2)
    labels = extract_clusters(order, reach, xi_eps=3.0)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_toptics_cannot_split_multileg(spark):
    """An object flying with group A then group B gets ONE label — the
    whole-trajectory limitation."""
    rows = []
    for k in range(3):  # group A
        ts = np.arange(20.0) * 10
        rows.append(pd.DataFrame({"obj_id": k, "traj_id": k, "t": ts,
                                  "x": ts * 0.1, "y": 0.1 * k}))
    for k in range(3, 6):  # group B, elsewhere and later
        ts = 5000 + np.arange(20.0) * 10
        rows.append(pd.DataFrame({"obj_id": k, "traj_id": k, "t": ts,
                                  "x": 50 + (ts - 5000) * 0.1, "y": 50 + 0.1 * k}))
    # the multi-leg object: leg with A, then leg with B
    ts1 = np.arange(20.0) * 10
    ts2 = 5000 + np.arange(20.0) * 10
    rows.append(pd.DataFrame({"obj_id": 9, "traj_id": 9,
                              "t": np.concatenate([ts1, ts2]),
                              "x": np.concatenate([ts1 * 0.1, 50 + (ts2 - 5000) * 0.1]),
                              "y": np.concatenate([np.full(20, 0.15), np.full(20, 50.15)])}))
    pts = make_points_df(spark, pd.concat(rows, ignore_index=True))
    res = t_optics(pts, min_pts=2, xi_eps=3.0)
    ml = res.point_labels[res.point_labels.traj_id == 9]["cluster_id"]
    assert ml.nunique() == 1  # one label for both legs, necessarily wrong for one


def test_toptics_labels_cover_points(spark, mod_points):
    res = t_optics(pts := mod_points, min_pts=3, xi_eps=3.0)
    assert len(res.point_labels) == pts.count()


# ------------------------------------------------------------------ Convoys
def test_convoy_detects_comoving_bundle(spark):
    rows = []
    for k in range(4):
        ts = np.arange(30.0) * 10
        rows.append(pd.DataFrame({"obj_id": k, "traj_id": k, "t": ts,
                                  "x": ts * 0.05, "y": 0.2 * k}))
    pts = make_points_df(spark, pd.concat(rows, ignore_index=True))
    res = discover_convoys(pts, eps=2.0, min_objs=3, min_snaps=3, dt_snap=30.0)
    assert len(res.convoys) >= 1
    best = max(res.convoys, key=lambda c: len(c.objs))
    assert len(best.objs) == 4


def test_convoy_requires_duration(spark):
    """Objects that co-locate for a single snapshot form no convoy."""
    rows = []
    for k in range(4):
        ts = np.arange(10.0) * 30
        x = np.full(10, 50.0) if k == 0 else np.linspace(0, 100, 10) + 3 * k
        rows.append(pd.DataFrame({"obj_id": k, "traj_id": k, "t": ts,
                                  "x": x, "y": np.full(10, float(k * 30))}))
    pts = make_points_df(spark, pd.concat(rows, ignore_index=True))
    res = discover_convoys(pts, eps=2.0, min_objs=3, min_snaps=3, dt_snap=30.0)
    assert len(res.convoys) == 0


def test_convoy_point_labels_shape(spark, mod_points):
    res = discover_convoys(mod_points, eps=2.0, min_objs=3, min_snaps=3, dt_snap=60.0)
    assert len(res.point_labels) == mod_points.count()
    assert set(res.point_labels.columns) == {"traj_id", "t", "cluster_id"}


@pytest.mark.parametrize("min_objs", [2, 3, 5])
def test_convoy_min_objs_monotone(spark, mod_points, min_objs):
    res = discover_convoys(mod_points, eps=2.0, min_objs=min_objs, min_snaps=3)
    for c in res.convoys:
        assert len(c.objs) >= min_objs

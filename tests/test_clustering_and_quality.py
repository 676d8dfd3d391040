"""Greedy clustering semantics (assignment vs brute force, gamma
dissolution, outliers) and the quality metrics used for Table D."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.clustering import OUTLIER, assign_clusters
from repro.core.distance import sync_distance_to_many
from repro.core.sampling import Representative
from repro.core.segmentation import segment_trajectories
from repro.core.subtraj import subtrajs_to_pandas
from repro.eval.quality import (
    adjusted_rand_index,
    evaluate_point_labels,
    outlier_prf,
    purity,
)


@pytest.fixture(scope="module")
def subtrajs(voted):
    df = segment_trajectories(voted, min_len=4, lam=3.0, max_gap=120.0).cache()
    df.count()
    yield df
    df.unpersist()


def _mk_rep(rep_id, t0, t1, y):
    ts = np.linspace(t0, t1, 12)
    return Representative(
        rep_id, 1000 + rep_id, 0, ts, np.linspace(0, 10, 12), np.full(12, float(y)), 1.0
    )


# ----------------------------------------------------------- assignment
def test_assignment_matches_bruteforce(subtrajs):
    pdf = subtrajs_to_pandas(subtrajs)
    t_lo, t_hi = pdf["t_start"].min(), pdf["t_end"].max()
    reps = [_mk_rep(0, t_lo, t_hi, 40.0), _mk_rep(1, t_lo, t_hi, 60.0)]
    got = (
        assign_clusters(subtrajs, reps, eps=50.0)
        .toPandas()
        .sort_values(["traj_id", "subtraj_id"])
        .reset_index(drop=True)
    )
    for _, r in pdf.iterrows():
        d = sync_distance_to_many(
            r["ts"], r["xs"], r["ys"], [(q.ts, q.xs, q.ys) for q in reps], n_samples=32
        )
        row = got[(got.traj_id == r["traj_id"]) & (got.subtraj_id == r["subtraj_id"])]
        j = int(np.argmin(d))
        if np.isfinite(d[j]) and d[j] <= 50.0:
            assert int(row["cluster_id"].iloc[0]) == j
            assert row["dist"].iloc[0] == pytest.approx(d[j], rel=1e-9)
        else:
            assert int(row["cluster_id"].iloc[0]) == OUTLIER


def test_no_reps_all_outliers(subtrajs):
    got = assign_clusters(subtrajs, [], eps=1.0).toPandas()
    assert (got["cluster_id"] == OUTLIER).all()
    assert np.isinf(got["dist"]).all()


def test_eps_respected(subtrajs):
    pdf = subtrajs_to_pandas(subtrajs)
    reps = [_mk_rep(0, pdf["t_start"].min(), pdf["t_end"].max(), 0.0)]
    got = assign_clusters(subtrajs, reps, eps=0.001).toPandas()
    clustered = got[got.cluster_id != OUTLIER]
    assert (clustered["dist"] <= 0.001).all()


def test_min_cluster_size_dissolves(subtrajs):
    pdf = subtrajs_to_pandas(subtrajs)
    reps = [_mk_rep(0, pdf["t_start"].min(), pdf["t_end"].max(), 50.0)]
    loose = assign_clusters(subtrajs, reps, eps=100.0, min_cluster_size=1).toPandas()
    n_members = (loose["cluster_id"] == 0).sum()
    strict = assign_clusters(
        subtrajs, reps, eps=100.0, min_cluster_size=int(n_members) + 1
    ).toPandas()
    assert (strict["cluster_id"] == OUTLIER).all()


# ---------------------------------------------------------------- metrics
def test_ari_identical_partitions():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(a, a) == 1.0


def test_ari_label_permutation_invariant():
    a = np.array([0, 0, 1, 1, 2, 2])
    b = np.array([5, 5, 9, 9, 7, 7])
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_random_near_zero():
    g = np.random.default_rng(0)
    a = g.integers(0, 4, 3000)
    b = g.integers(0, 4, 3000)
    assert abs(adjusted_rand_index(a, b)) < 0.05


def test_ari_partial():
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 1, 1])
    assert 0.0 < adjusted_rand_index(a, b) < 1.0


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        adjusted_rand_index(np.zeros(3), np.zeros(4))


def test_ari_empty():
    assert adjusted_rand_index(np.empty(0), np.empty(0)) == 1.0


def test_purity_perfect_and_mixed():
    a = np.array([0, 0, 1, 1])
    assert purity(a, np.array([5, 5, 6, 6])) == 1.0
    assert purity(a, np.array([5, 5, 5, 5])) == 0.5
    assert purity(a, np.array([-1, -1, -1, -1])) == 0.0  # nothing clustered


def test_outlier_prf_cases():
    a = np.array([-1, -1, 0, 1])
    assert outlier_prf(a, np.array([-1, -1, 0, 1])) == (1.0, 1.0, 1.0)
    p, r, f1 = outlier_prf(a, np.array([-1, 0, 0, 1]))
    assert r == 0.5 and p == 1.0
    p, r, f1 = outlier_prf(a, np.array([0, 0, 0, 0]))
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_evaluate_point_labels_keys():
    pdf = pd.DataFrame(
        {"gt_label": [0, 0, 1, -1], "cluster_id": [0, 0, 1, -1]}
    )
    m = evaluate_point_labels(pdf)
    assert m["ari_all"] == 1.0 and m["n_clusters"] == 2 and m["n_points"] == 4
    assert m["outlier_f1"] == 1.0

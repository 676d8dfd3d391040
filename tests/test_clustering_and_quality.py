"""Greedy clustering semantics (assignment vs brute force, gamma
dissolution, outliers) and the quality metrics used for Table D."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import OUTLIER, assign_clusters
from repro.core.distance import sync_distance, sync_distance_to_many
from repro.core.sampling import Representative, sample_representatives
from repro.core.segmentation import segment_trajectories
from repro.core.subtraj import subtrajs_to_pandas
from repro.eval.quality import (
    adjusted_rand_index,
    evaluate_point_labels,
    outlier_prf,
    purity,
)


@pytest.fixture(scope="module")
def sub_pdf(voted):
    df = segment_trajectories(voted, min_len=4, lam=3.0, max_gap=120.0)
    return subtrajs_to_pandas(df)


def _mk_rep(rep_id, t0, t1, y):
    ts = np.linspace(t0, t1, 12)
    return Representative(
        rep_id, 1000 + rep_id, 0, ts, np.linspace(0, 10, 12), np.full(12, float(y)), 1.0
    )


def _matrix(pdf, reps, n_samples=32, min_overlap=0.0) -> np.ndarray:
    """Every row's distance to every representative, one
    ``sync_distance(row, rep)`` call each."""
    return np.array([
        [sync_distance(ts, xs, ys, r.ts, r.xs, r.ys, n_samples=n_samples, min_overlap=min_overlap)
         for r in reps]
        for ts, xs, ys in zip(pdf["ts"], pdf["xs"], pdf["ys"])
    ], dtype=np.float64).reshape(len(pdf), len(reps))


# ----------------------------------------------------------- assignment
def test_assignment_matches_bruteforce(sub_pdf):
    t_lo, t_hi = sub_pdf["t_start"].min(), sub_pdf["t_end"].max()
    reps = [_mk_rep(0, t_lo, t_hi, 40.0), _mk_rep(1, t_lo, t_hi, 60.0)]
    got = assign_clusters(sub_pdf, _matrix(sub_pdf, reps), eps=50.0, min_cluster_size=1)
    pd.testing.assert_frame_equal(got[["traj_id", "subtraj_id"]], sub_pdf[["traj_id", "subtraj_id"]])
    for (_, r), (_, row) in zip(sub_pdf.iterrows(), got.iterrows()):
        d = sync_distance_to_many(
            r["ts"], r["xs"], r["ys"], [(q.ts, q.xs, q.ys) for q in reps], n_samples=32
        )
        j = int(np.argmin(d))
        if np.isfinite(d[j]) and d[j] <= 50.0:
            assert row["cluster_id"] == j
            assert row["dist"] == pytest.approx(d[j], rel=1e-9)
        else:
            assert row["cluster_id"] == OUTLIER


def test_no_reps_all_outliers(sub_pdf):
    got = assign_clusters(sub_pdf, _matrix(sub_pdf, []), eps=1.0, min_cluster_size=1)
    assert len(got) == len(sub_pdf)
    assert (got["cluster_id"] == OUTLIER).all()
    assert np.isinf(got["dist"]).all()


def test_eps_respected(sub_pdf):
    reps = [_mk_rep(0, sub_pdf["t_start"].min(), sub_pdf["t_end"].max(), 0.0)]
    got = assign_clusters(sub_pdf, _matrix(sub_pdf, reps), eps=0.001, min_cluster_size=1)
    clustered = got[got.cluster_id != OUTLIER]
    assert (clustered["dist"] <= 0.001).all()


def test_min_cluster_size_dissolves(sub_pdf):
    reps = [_mk_rep(0, sub_pdf["t_start"].min(), sub_pdf["t_end"].max(), 50.0)]
    dist = _matrix(sub_pdf, reps)
    loose = assign_clusters(sub_pdf, dist, eps=100.0, min_cluster_size=1)
    n_members = (loose["cluster_id"] == 0).sum()
    strict = assign_clusters(sub_pdf, dist, eps=100.0, min_cluster_size=int(n_members) + 1)
    assert (strict["cluster_id"] == OUTLIER).all()


@st.composite
def _subtraj_tables(draw) -> pd.DataFrame:
    """Sub-trajectory rows sorted by (traj_id, subtraj_id): polylines of
    2-8 points over spans of different lengths and start times, some
    with no votes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for k in range(draw(st.integers(0, 24))):
        m = int(rng.integers(2, 9))
        ts = 100.0 * int(rng.integers(0, 10)) + np.cumsum(rng.uniform(1.0, 120.0, m))
        xs = 0.01 * ts + rng.normal(0.0, 1.0, m)
        ys = float(rng.integers(0, 3)) + rng.normal(0.0, 0.5, m)
        rows.append({"traj_id": k // 3, "subtraj_id": k % 3, "t_start": ts[0],
                     "t_end": ts[-1], "sum_vote": float(rng.choice([0.0, rng.uniform(0.0, 20.0)])),
                     "ts": ts, "xs": xs, "ys": ys})
    cols = ["traj_id", "subtraj_id", "t_start", "t_end", "sum_vote", "ts", "xs", "ys"]
    return pd.DataFrame(rows, columns=cols)


def _reference_assignment(dist, eps, min_cluster_size) -> list[tuple[int, float]]:
    """argmin -> eps -> gamma, one row and one representative at a time."""
    out = []
    for row in dist:
        best, bd = OUTLIER, np.inf
        for k, d in enumerate(row):
            if d < bd:
                best, bd = k, d
        out.append((best, bd) if bd <= eps else (OUTLIER, np.inf))
    size = Counter(c for c, _ in out)
    return [(c, d) if c == OUTLIER or size[c] >= min_cluster_size else (OUTLIER, np.inf)
            for c, d in out]


@settings(max_examples=60, deadline=None)
@given(
    pdf=_subtraj_tables(),
    eps=st.floats(0.2, 5.0),
    max_reps=st.integers(0, 6),
    min_gain=st.floats(0.0, 0.5),
    min_duration=st.sampled_from([0.0, 150.0, 400.0]),
    n_samples=st.sampled_from([2, 8, 32]),
    min_overlap=st.sampled_from([0.0, 60.0]),
    min_cluster_size=st.integers(1, 4),
)
def test_property_saco_over_one_matrix(pdf, eps, max_reps, min_gain, min_duration,
                                       n_samples, min_overlap, min_cluster_size):
    """The sampler's matrix holds ``sync_distance(row, rep)`` bit for bit
    for every row; short rows are never seeds but are still assigned; the
    assignment equals the argmin -> eps -> gamma reference."""
    reps, dist = sample_representatives(
        pdf, eps=eps, max_reps=max_reps, min_gain=min_gain, min_duration=min_duration,
        n_samples=n_samples, min_overlap=min_overlap,
    )
    assert len(reps) <= max_reps
    np.testing.assert_array_equal(dist, _matrix(pdf, reps, n_samples, min_overlap))

    duration = (pdf["t_end"] - pdf["t_start"]).set_axis(
        pd.MultiIndex.from_frame(pdf[["traj_id", "subtraj_id"]]))
    assert all(duration[(r.traj_id, r.subtraj_id)] >= min_duration for r in reps)

    got = assign_clusters(pdf, dist, eps=eps, min_cluster_size=min_cluster_size)
    assert got["traj_id"].tolist() == pdf["traj_id"].tolist()
    assert got["subtraj_id"].tolist() == pdf["subtraj_id"].tolist()
    want = _reference_assignment(dist, eps, min_cluster_size)
    assert got["cluster_id"].tolist() == [c for c, _ in want]
    np.testing.assert_array_equal(got["dist"].to_numpy(), [d for _, d in want])


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

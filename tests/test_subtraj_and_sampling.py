"""SaCO inputs: sub-trajectory assembly invariants and the greedy
coverage sampling semantics."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sampling import Representative, sample_representatives
from repro.core.segmentation import segment_trajectories
from repro.core.subtraj import SUBTRAJ_COLS, _assemble_one, subtrajs_to_pandas


@pytest.fixture(scope="module")
def subtrajs(voted):
    df = segment_trajectories(voted, min_len=4, lam=3.0, max_gap=120.0).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def sub_pdf(subtrajs):
    return subtrajs_to_pandas(subtrajs)


# ------------------------------------------------------------ assembly
def test_one_row_per_subtraj(subtrajs):
    expected = subtrajs.select("traj_id", "subtraj_id").distinct().count()
    assert subtrajs.count() == expected


def test_polyline_lengths(sub_pdf):
    for _, r in sub_pdf.iterrows():
        assert len(r["ts"]) == r["n_segs"] + 1
        assert len(r["xs"]) == len(r["ts"]) == len(r["ys"])
        assert (np.diff(r["ts"]) > 0).all()
        assert r["t_start"] == r["ts"][0] and r["t_end"] == r["ts"][-1]


def test_votes_aggregated(sub_pdf, voted):
    total = voted.groupBy().sum("vote").first()[0]
    assert sub_pdf["sum_vote"].sum() == pytest.approx(total, rel=1e-9)
    assert (sub_pdf["sum_vote"] >= 0).all()


def test_segments_partition_into_subtrajs(sub_pdf, segments):
    assert int(sub_pdf["n_segs"].sum()) == segments.count()


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _chain(traj_id: int, t, x, y, vote, cuts) -> pd.DataFrame:
    """One trajectory's chain of consecutive segments through the points
    ``(t, x, y)``, sorted by ``seg_id``, with ``subtraj_id`` rising after
    each segment whose ``cuts`` flag is set."""
    return pd.DataFrame({
        "traj_id": np.int64(traj_id),
        "seg_id": np.arange(len(vote), dtype=np.int64),
        "t1": t[:-1], "x1": x[:-1], "y1": y[:-1],
        "t2": t[1:], "x2": x[1:], "y2": y[1:],
        "vote": vote,
        "subtraj_id": np.cumsum([0, *cuts]).astype(np.int64),
    })


@st.composite
def _segmented_trajectories(draw):
    """One to three chains of consecutive segments with votes, in
    ``traj_id`` order, each cut into sub-trajectories by random
    non-decreasing ``subtraj_id``s."""
    chains = []
    for tid in sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=3))):
        n = draw(st.integers(1, 40))
        dt = np.asarray(draw(st.lists(st.floats(0.1, 500.0), min_size=n, max_size=n)))
        t = np.concatenate([[draw(_finite)], dt]).cumsum()
        x, y = (np.asarray(draw(st.lists(_finite, min_size=n + 1, max_size=n + 1)))
                for _ in range(2))
        vote = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
        chains.append(_chain(tid, t, x, y, vote, draw(
            st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))))
    return pd.concat(chains, ignore_index=True)


_line = np.arange(4.0)
#: Two adjacent trajectories, uncut: both rows have ``subtraj_id`` 0.
_TWO_UNCUT = pd.concat([_chain(tid, 10.0 * _line, _line, _line, [1.0, 2.0, 3.0], [False] * 2)
                        for tid in (7, 8)], ignore_index=True)


@example(_TWO_UNCUT)
@settings(max_examples=100, deadline=None)
@given(_segmented_trajectories())
def test_property_assemble_one_partitions_the_chain(seg):
    out = _assemble_one(seg)
    assert list(out.columns) == SUBTRAJ_COLS
    tid, ids = seg["traj_id"].to_numpy(), seg["subtraj_id"].to_numpy()
    assert list(zip(out["traj_id"], out["subtraj_id"])) == sorted(set(zip(tid, ids)))
    assert int(out["n_segs"].sum()) == len(seg)
    v = seg["vote"].to_numpy()
    for k, r in out.iterrows():
        rows = np.flatnonzero((tid == r["traj_id"]) & (ids == r["subtraj_id"]))
        a, b = rows[0], rows[-1] + 1
        assert r["n_segs"] == b - a
        assert len(r["ts"]) == len(r["xs"]) == len(r["ys"]) == r["n_segs"] + 1
        for c in ("ts", "xs", "ys"):
            assert isinstance(r[c], np.ndarray) and r[c].dtype == np.float64
        assert r["ts"].tolist() == [seg["t1"].iloc[a], *seg["t2"].iloc[a:b]]
        assert r["xs"].tolist() == [seg["x1"].iloc[a], *seg["x2"].iloc[a:b]]
        assert r["ys"].tolist() == [seg["y1"].iloc[a], *seg["y2"].iloc[a:b]]
        assert (r["t_start"], r["t_end"]) == (r["ts"][0], r["ts"][-1])
        assert r["sum_vote"] == v[a:b].sum()
        if k + 1 < len(out) and out["traj_id"].iloc[k + 1] == r["traj_id"]:
            assert r["ts"][-1] == out["ts"].iloc[k + 1][0]


# ------------------------------------------------------------ sampling
def _toy_subtrajs() -> pd.DataFrame:
    """Three candidates: two co-temporal near-duplicates (votes 10, 9)
    and one far-away in time (vote 5)."""
    ts = np.arange(0.0, 100.0, 10.0)
    mk = lambda off_y, t_off, vote: {
        "traj_id": 0, "subtraj_id": 0,
        "t_start": ts[0] + t_off, "t_end": ts[-1] + t_off,
        "n_segs": len(ts) - 1, "sum_vote": vote,
        "ts": ts + t_off, "xs": ts / 10.0, "ys": np.full(len(ts), off_y),
    }
    rows = [mk(0.0, 0.0, 10.0), mk(0.2, 0.0, 9.0), mk(0.0, 10_000.0, 5.0)]
    pdf = pd.DataFrame(rows)
    pdf["traj_id"] = [0, 1, 2]
    return pdf


def _sample(pdf, *, eps, max_reps, min_gain, min_duration=0.0):
    """The representatives alone; the distance knobs as in ``S2TParams()``."""
    reps, dist = sample_representatives(
        pdf, eps=eps, max_reps=max_reps, min_gain=min_gain,
        min_duration=min_duration, n_samples=32, min_overlap=0.0,
    )
    assert dist.shape == (len(pdf), len(reps))
    return reps


def test_greedy_picks_top_vote_first():
    reps = _sample(_toy_subtrajs(), eps=2.0, max_reps=3, min_gain=0.01)
    assert reps[0].traj_id == 0
    assert reps[0].score == pytest.approx(10.0)


def test_near_duplicate_suppressed_time_distant_kept():
    """Novelty kills the co-temporal near-duplicate; the time-shifted
    twin (similarity 0 — no temporal overlap) is selected: the
    time-awareness of the sampling step."""
    reps = _sample(_toy_subtrajs(), eps=2.0, max_reps=3, min_gain=0.2)
    picked = [r.traj_id for r in reps]
    assert picked == [0, 2]


def test_max_reps_cap():
    reps = _sample(_toy_subtrajs(), eps=0.01, max_reps=1, min_gain=0.0)
    assert len(reps) == 1


def test_min_duration_filters():
    pdf = _toy_subtrajs()
    reps = _sample(pdf, eps=2.0, max_reps=3, min_gain=0.01, min_duration=1000.0)
    assert len(reps) == 0


def test_empty_input():
    assert _sample(_toy_subtrajs().iloc[:0], eps=1.0, max_reps=3, min_gain=0.01) == []


def test_eps_must_be_positive():
    with pytest.raises(ValueError, match="eps"):
        _sample(_toy_subtrajs(), eps=0.0, max_reps=3, min_gain=0.01)


def test_zero_votes_yields_nothing():
    pdf = _toy_subtrajs()
    pdf["sum_vote"] = 0.0
    assert _sample(pdf, eps=1.0, max_reps=3, min_gain=0.01) == []


def test_rep_ids_sequential_and_deterministic(sub_pdf):
    a = _sample(sub_pdf, eps=3.0, max_reps=10, min_gain=0.1)
    b = _sample(sub_pdf, eps=3.0, max_reps=10, min_gain=0.1)
    assert [r.rep_id for r in a] == list(range(len(a)))
    assert [(r.traj_id, r.subtraj_id) for r in a] == [
        (r.traj_id, r.subtraj_id) for r in b
    ]


def test_scores_nonincreasing(sub_pdf):
    reps = _sample(sub_pdf, eps=3.0, max_reps=10, min_gain=0.05)
    scores = [r.score for r in reps]
    assert scores == sorted(scores, reverse=True)


def test_representative_dataclass_fields():
    r = Representative(0, 1, 2, np.arange(3.0), np.arange(3.0), np.arange(3.0), 5.0)
    assert r.rep_id == 0 and r.score == 5.0

"""NaTS segmentation: change-point recovery on the voting signal,
penalty/min-length semantics, forced gap boundaries, Spark-level
structural invariants."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.segmentation import _best_split, segment_signal, segment_trajectories
from repro.core.voting import vote_segments
from repro.mod.model import make_points_df, points_to_segments


# ----------------------------------------------------------- signal level
def test_step_signal_single_split():
    v = np.concatenate([np.zeros(20), np.full(20, 5.0)])
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 1
    assert abs(splits[0] - 20) <= 1


def test_noisy_step_recovered():
    g = np.random.default_rng(0)
    v = np.concatenate([g.normal(0, 0.3, 30), g.normal(4, 0.3, 30)])
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 1
    assert abs(splits[0] - 30) <= 2


def test_three_level_staircase():
    g = np.random.default_rng(1)
    v = np.concatenate(
        [g.normal(0, 0.2, 25), g.normal(5, 0.2, 25), g.normal(10, 0.2, 25)]
    )
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 2


def test_flat_signal_no_split():
    g = np.random.default_rng(2)
    v = g.normal(3.0, 0.2, 60)
    assert len(segment_signal(v, min_len=4, lam=6.0)) == 0


def test_higher_penalty_fewer_splits():
    g = np.random.default_rng(3)
    v = np.concatenate([g.normal(i, 0.5, 15) for i in (0, 2, 4, 6)])
    n_lo = len(segment_signal(v, min_len=4, lam=1.0))
    n_hi = len(segment_signal(v, min_len=4, lam=50.0))
    assert n_lo >= n_hi


@pytest.mark.parametrize("min_len", [2, 4, 8])
def test_min_len_respected(min_len):
    g = np.random.default_rng(4)
    v = np.concatenate([g.normal(0, 0.2, 40), g.normal(6, 0.2, 40)])
    splits = segment_signal(v, min_len=min_len, lam=3.0)
    bounds = [0, *splits.tolist(), len(v)]
    assert min(np.diff(bounds)) >= min_len


def test_short_signal_never_split():
    assert len(segment_signal(np.array([1.0, 5.0, 1.0]), min_len=4, lam=3.0)) == 0


def test_empty_signal():
    assert len(segment_signal(np.empty(0), min_len=4, lam=3.0)) == 0


def _sse_prefix(v: np.ndarray):
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def sse(lo: int, hi: int) -> float:  # [lo, hi)
        n = hi - lo
        if n <= 0:
            return 0.0
        tot = s1[hi] - s1[lo]
        return float((s2[hi] - s2[lo]) - tot * tot / n)

    return sse


def _best_split_scan(v: np.ndarray, lo: int, hi: int, min_len: int) -> tuple[int, float]:
    """Reference: the best split of [lo, hi) by a Python scan over every
    admissible ``k``, keeping the first strictly larger SSE gain."""
    sse = _sse_prefix(v)
    if hi - lo < 2 * min_len:
        return -1, 0.0
    parent = sse(lo, hi)
    best_k, best_gain = -1, 0.0
    for k in range(lo + min_len, hi - min_len + 1):
        gain = parent - sse(lo, k) - sse(k, hi)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k, best_gain


_signals = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0, 3.0]), max_size=40),  # constant runs, tied gains
    st.lists(st.floats(-100.0, 100.0), max_size=40),
)


@example(v=[0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0], min_len=1, span=(0, 8))  # tie at k=2, 6
@example(v=[2.0] * 12, min_len=3, span=(0, 12))  # constant: no gain
@settings(max_examples=300, deadline=None)
@given(v=_signals, min_len=st.integers(1, 8),
       span=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_property_best_split_matches_python_scan(v, min_len, span):
    v = np.asarray(v, dtype=np.float64)
    lo, hi = sorted(min(i, len(v)) for i in span)
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])
    assert _best_split(s1, s2, lo, hi, min_len) == _best_split_scan(v, lo, hi, min_len)


@st.composite
def _voted_trajectories(draw) -> pd.DataFrame:
    """Several trajectories' voted segments, rows shuffled.  Segment
    durations and the pauses between segments are drawn from below and
    above ``max_gap``, and votes from a few levels or at random."""
    ids = draw(st.sets(st.integers(0, 10**6), min_size=2, max_size=5))
    durations = st.sampled_from([10.0, 30.0, 60.0, 200.0])
    pauses = st.sampled_from([0.0, 0.0, 0.0, 5.0, 500.0])
    votes = st.one_of(st.sampled_from([0.0, 2.0, 8.0]), st.floats(0.0, 20.0))
    frames = []
    for tid in ids:
        n = draw(st.integers(1, 30))
        dur = np.asarray(draw(st.lists(durations, min_size=n, max_size=n)))
        pause = np.asarray(draw(st.lists(pauses, min_size=n, max_size=n)))
        t1 = np.cumsum(pause + np.concatenate([[0.0], dur[:-1]]))
        x = np.arange(n, dtype=float) + tid
        frames.append(pd.DataFrame({
            "traj_id": np.int64(tid), "seg_id": np.arange(n, dtype=np.int64),
            "t1": t1, "x1": x, "y1": 0.0, "t2": t1 + dur, "x2": x + 1.0, "y2": 0.0,
            "vote": draw(st.lists(votes, min_size=n, max_size=n)),
        }))
    return pd.concat(frames).sample(frac=1.0, random_state=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(_voted_trajectories(), st.integers(1, 5), st.sampled_from([0.5, 3.0, 12.0]))
def test_property_whole_frame_equals_per_trajectory_calls(voted, min_len, lam):
    nats = dict(min_len=min_len, lam=lam, max_gap=NATS["max_gap"])
    one_by_one = pd.concat(
        [segment_trajectories(voted[voted["traj_id"] == tid], **nats)
         for tid in sorted(voted["traj_id"].unique())],
        ignore_index=True,
    )
    assert segment_trajectories(voted, **nats).equals(one_by_one)


# ------------------------------------------------------------ spark level
def _toy_voted(spark, votes, gap_at=None, gap=1000.0):
    """Build a single-trajectory voted-segments frame with a given vote
    signal and (optionally) a temporal gap before segment ``gap_at``."""
    n = len(votes)
    t1 = np.arange(n, dtype=float) * 10.0
    if gap_at is not None:
        t1[gap_at:] += gap
    pdf = pd.DataFrame(
        {
            "traj_id": np.int64(1),
            "seg_id": np.arange(n, dtype=np.int64),
            "t1": t1,
            "x1": np.arange(n, dtype=float),
            "y1": 0.0,
            "t2": t1 + 10.0,
            "x2": np.arange(n, dtype=float) + 1.0,
            "y2": 0.0,
            "vote": np.asarray(votes, dtype=float),
        }
    )
    return spark.createDataFrame(pdf)


#: The segmentation knobs the Spark-level tests run with.
NATS = dict(min_len=4, lam=3.0, max_gap=120.0)


@pytest.fixture(scope="module")
def sub_rows(voted):
    return segment_trajectories(voted, **NATS).toPandas()


def test_forced_gap_boundary(spark, mod_pdf):
    voted = _toy_voted(spark, np.zeros(20), gap_at=10)
    out = segment_trajectories(voted, **NATS).toPandas().sort_values("subtraj_id")
    assert out["subtraj_id"].tolist() == [0, 1]
    assert out["n_segs"].tolist() == [10, 10]

    # a real MOD with a sampling hole: segments of points chain, so the
    # hole is one long segment, cut off on both sides
    tid = mod_pdf.groupby("traj_id").size().idxmax()
    traj = mod_pdf[mod_pdf["traj_id"] == tid].sort_values("t")
    hole = traj.index[60:80]
    before, after = traj["t"].iloc[59], traj["t"].iloc[80]
    assert after - before > NATS["max_gap"]
    seg = points_to_segments(make_points_df(spark, mod_pdf.drop(hole)))
    out = segment_trajectories(vote_segments(seg, sigma=1.0), **NATS).toPandas()
    mine = out[out["traj_id"] == tid]
    assert before in set(mine["t_end"]) and after in set(mine["t_start"])
    bridge = mine[mine["t_start"] == before]
    assert bridge["t_end"].tolist() == [after] and bridge["n_segs"].tolist() == [1]


def test_no_gap_no_split_flat(spark):
    voted = _toy_voted(spark, np.full(20, 2.0))
    out = segment_trajectories(voted, min_len=4, lam=6.0, max_gap=120.0).toPandas()
    assert len(out) == 1


def test_vote_step_splits(spark):
    voted = _toy_voted(spark, np.concatenate([np.zeros(15), np.full(15, 6.0)]))
    out = segment_trajectories(voted, **NATS).toPandas()
    assert len(out) == 2


def test_assignment_covers_every_segment(sub_rows, voted):
    assert int(sub_rows["n_segs"].sum()) == voted.count()
    assert sub_rows["subtraj_id"].notna().all()


def test_subtraj_ids_contiguous_from_zero(sub_rows):
    stats = sub_rows.groupby("traj_id")["subtraj_id"].agg(["min", "max", "nunique", "size"])
    assert (stats["min"] == 0).all()
    assert (stats["nunique"] == stats["max"] + 1).all()
    assert (stats["size"] == stats["nunique"]).all()


def test_subtraj_ids_temporally_ordered(sub_rows):
    for _, g in sub_rows.sort_values(["traj_id", "subtraj_id"]).groupby("traj_id"):
        assert (np.diff(g["t_start"].to_numpy()) > 0).all()


def test_multi_leg_objects_get_segmented(mod_pdf, sub_rows):
    """Objects planted with two group legs must end up with >= 2
    sub-trajectories (the structural reason segmentation exists)."""
    per_traj = mod_pdf[mod_pdf.gt_label >= 0].groupby("traj_id")["gt_label"].nunique()
    multi = set(per_traj[per_traj >= 2].index)
    if not multi:
        pytest.skip("no multi-leg objects at this seed")
    counts = sub_rows.groupby("traj_id")["subtraj_id"].nunique()
    assert max(counts.get(t, 1) for t in multi) >= 2

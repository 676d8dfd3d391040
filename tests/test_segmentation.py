"""NaTS segmentation: change-point recovery on the voting signal,
penalty/min-length semantics, forced gap boundaries, Spark-level
structural invariants."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.segmentation import segment_signal, segment_trajectories
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
    assert len(segment_signal(np.array([1.0, 5.0, 1.0]), min_len=4)) == 0


def test_empty_signal():
    assert len(segment_signal(np.empty(0))) == 0


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

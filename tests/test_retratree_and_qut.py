"""ReTraTree structure, incremental insertion (Fig. 2 flow), and
QuT-Clustering answer parity with the from-scratch baseline."""
from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.qut_baseline import qut_baseline
from repro.core.s2t import S2TParams
from repro.eval.quality import adjusted_rand_index
from repro.mod.model import make_points_df
from repro.retratree import tree as tree_mod
from repro.retratree.storage import MEMBER_COLS, OUTLIER_PARTITION, PartitionStore
from repro.retratree.tree import QuTResult, ReTraTree, _empty_members
from repro.trace import Span
from tests.conftest import TEST_PARAMS


# -------------------------------------------------------------- structure
def test_chunks_cover_span(retratree, mod_pdf):
    t_lo = min(c.t_lo for c in retratree.chunks.values())
    t_hi = max(c.t_hi for c in retratree.chunks.values())
    assert t_lo <= mod_pdf["t"].min()
    assert t_hi >= mod_pdf["t"].max()
    cids = sorted(retratree.chunks)
    assert cids == list(range(cids[0], cids[-1] + 1))  # contiguous


def test_chunk_boundaries_aligned(retratree):
    for c in retratree.chunks.values():
        assert c.t_lo == c.chunk_id * retratree.chunk_width
        assert c.t_hi == c.t_lo + retratree.chunk_width


def test_partitions_exist_per_rep(retratree):
    for c in retratree.chunks.values():
        names = retratree.store.list_partitions(c.chunk_id)
        for rep in c.reps:
            assert rep.partition in names
            assert rep.n_members >= 1
        assert OUTLIER_PARTITION in names


def test_rep_polylines_inside_chunk(retratree):
    for c in retratree.chunks.values():
        for rep in c.reps:
            assert rep.ts[0] >= c.t_lo - 1e-6
            assert rep.ts[-1] <= c.t_hi + 1e-6


def test_members_conservation(retratree, mod_pdf):
    """Each chunk stores, keyed by ``(traj_id, t)``, exactly the MOD's
    points with ``floor(t / chunk_width) == chunk_id`` whose piece (one
    trajectory's points in the chunk) holds at least two distinct
    timestamps; a point repeats only as an end of every row holding it,
    where sub-trajectories join."""
    chunk = np.floor(mod_pdf["t"].to_numpy() / retratree.chunk_width).astype(np.int64)
    n_ts = mod_pdf.groupby([mod_pdf["traj_id"], chunk])["t"].transform("nunique").to_numpy()
    for c in retratree.chunks.values():
        mine = mod_pdf[(chunk == c.chunk_id) & (n_ts >= 2)]
        counts, ends = Counter(), Counter()
        for name in retratree.store.list_partitions(c.chunk_id):
            mem = retratree.store.read(c.chunk_id, name)
            for tid, ts in zip(mem["traj_id"], mem["ts"]):
                for i, t in enumerate(ts):
                    counts[int(tid), float(t)] += 1
                    ends[int(tid), float(t)] += i in (0, len(ts) - 1)
        assert set(counts) == set(zip(mine["traj_id"].astype(int), mine["t"].astype(float)))
        assert all(n == 1 or ends[k] == n for k, n in counts.items())


# ------------------------------------------------------------------ insert
def _co_moving_pdf(n_trajs, t0, base_id=10_000, x0=200.0) -> pd.DataFrame:
    """A bundle of co-moving trajectories placed far from the MOD."""
    rows = []
    for k in range(n_trajs):
        ts = t0 + np.arange(30.0) * 10.0
        rows.append(
            pd.DataFrame(
                {
                    "obj_id": base_id + k,
                    "traj_id": base_id + k,
                    "t": ts,
                    "x": x0 + (ts - t0) * 0.05 + 0.1 * k,
                    "y": 50.0 + 0.1 * k,
                }
            )
        )
    return pd.concat(rows, ignore_index=True)


def _co_moving_batch(spark, n_trajs, t0, base_id=10_000, x0=200.0):
    """:func:`_co_moving_pdf` as a Spark frame."""
    return make_points_df(spark, _co_moving_pdf(n_trajs, t0, base_id, x0))


def test_insert_outlier_path_then_recluster(spark, tmp_path):
    """Fresh tree; inserting a far-away co-moving bundle buffers outliers
    until tau is exceeded, which triggers S2T and back-propagates a new
    representative (the Fig. 2 loop)."""
    base = _co_moving_batch(spark, 3, t0=0.0, base_id=0, x0=0.0)
    tree = ReTraTree.build(
        spark, base, tmp_path / "t1", TEST_PARAMS, chunk_width=400.0, tau=4
    )
    c0 = tree.chunks[0]
    reps_before = len(c0.reps)
    stats = tree.insert(_co_moving_batch(spark, 6, t0=0.0, x0=200.0))
    assert stats["outliers"] == 6          # far from any existing rep
    assert stats["reclustered_chunks"] == 1
    assert len(c0.reps) > reps_before      # new representative back-propagated
    assert c0.outlier_count < 6            # members were archived


@pytest.fixture()
def appends(monkeypatch):
    """The ``(chunk, partition)`` of every ``PartitionStore.append`` call."""
    calls, real = [], PartitionStore.append

    def counting(self, chunk_id, name, members):
        calls.append((chunk_id, name))
        return real(self, chunk_id, name, members)

    monkeypatch.setattr(PartitionStore, "append", counting)
    return calls


@pytest.mark.parametrize("n_new", [1, 3])
def test_insert_assignment_path(spark, tmp_path, appends, n_new):
    """New trajectories near an existing representative are archived into
    that representative's partition without re-clustering: one append per
    touched partition, the newcomers after the built rows, in traj_id
    order."""
    base = _co_moving_batch(spark, 4, t0=0.0, base_id=0, x0=0.0)
    tree = ReTraTree.build(
        spark, base, tmp_path / "t2", TEST_PARAMS, chunk_width=400.0, tau=50
    )
    c0 = tree.chunks[0]
    assert c0.reps, "build should have found a representative"
    rep = c0.reps[0]
    n_before = rep.n_members
    built = tree.store.read(0, rep.partition)
    newcomers = _co_moving_batch(spark, n_new, t0=0.0, base_id=99_000, x0=0.0)
    stats = tree.insert(newcomers)
    assert stats["assigned"] == n_new and stats["outliers"] == 0
    assert rep.n_members == n_before + n_new
    assert appends == [(0, rep.partition)]
    mem = tree.store.read(0, rep.partition)
    assert mem["traj_id"].tolist() == (
        built["traj_id"].tolist() + [99_000 + k for k in range(n_new)])
    assert mem["t_start"].iloc[:len(built)].tolist() == built["t_start"].tolist()


def _row_keys(rows):
    """Multiset of (traj_id, first t, last t, length) over member rows."""
    return Counter((int(tid), float(ts[0]), float(ts[-1]), len(ts))
                   for tid, ts in zip(rows["traj_id"], rows["ts"]))


def test_recluster_never_overwrites_a_live_partition(spark, tmp_path, monkeypatch):
    """The build's rep 0 is dissolved (its rows turned outliers), leaving a
    gap in the chunk's rep_idx; the outlier re-cluster must name its new
    partitions past the highest live one, so no stored row is lost or
    read twice."""
    real = tree_mod.s2t_clustering

    def dissolve_rep0(points, params):
        res = real(points, params)
        cid = res.clusters["cluster_id"]
        res.clusters["cluster_id"] = cid.where(cid != 0, -1)
        return res

    two_bundles = _co_moving_batch(spark, 3, t0=0.0, base_id=0, x0=0.0).union(
        _co_moving_batch(spark, 3, t0=0.0, base_id=100, x0=100.0))
    monkeypatch.setattr(tree_mod, "s2t_clustering", dissolve_rep0)
    tree = ReTraTree.build(
        spark, two_bundles, tmp_path / "gap", TEST_PARAMS, chunk_width=400.0, tau=4
    )
    monkeypatch.setattr(tree_mod, "s2t_clustering", real)
    c0 = tree.chunks[0]
    assert [r.rep_idx for r in c0.reps] == [1]  # rep 0 gone: a gap in rep_idx

    stats = tree.insert(_co_moving_batch(spark, 3, t0=0.0, x0=200.0))
    assert stats["reclustered_chunks"] == 1
    partitions = [r.partition for r in c0.reps]
    assert len(partitions) > 1
    assert len(set(partitions)) == len(partitions)

    qr = tree.qut(c0.t_lo, c0.t_hi)
    stored = sum((_row_keys(tree.store.read(0, name))
                  for name in tree.store.list_partitions(0)), Counter())
    assert _row_keys(qr.rows) == stored
    assert set(qr.rows["traj_id"]) == {0, 1, 2, 100, 101, 102, 10_000, 10_001, 10_002}


def test_insert_never_drops_or_duplicates_a_row(spark, tmp_path):
    """One batch whose pieces span two chunks, some landing on a rep and
    some in the outliers: the stored rows become the built rows plus each
    inserted piece exactly once, and a whole-span QuT returns them all."""
    base = _co_moving_batch(spark, 3, t0=0.0, base_id=0, x0=0.0)
    tree = ReTraTree.build(
        spark, base, tmp_path / "t4", TEST_PARAMS, chunk_width=200.0, tau=100
    )
    assert sorted(tree.chunks) == [0, 1] and all(c.reps for c in tree.chunks.values())

    def stored():
        return sum((_row_keys(tree.store.read(cid, name)) for cid in sorted(tree.chunks)
                    for name in tree.store.list_partitions(cid)), Counter())

    before = stored()
    batch = _co_moving_batch(spark, 2, t0=0.0, base_id=90_000, x0=0.0).union(
        _co_moving_batch(spark, 2, t0=0.0, base_id=95_000, x0=200.0)).toPandas()
    stats = tree.insert(batch)
    assert stats["assigned"] > 0 and stats["outliers"] > 0
    assert stats["reclustered_chunks"] == 0

    chunk = np.floor(batch["t"] / tree.chunk_width)
    pieces = Counter((int(tid), float(ts.iloc[0]), float(ts.iloc[-1]), len(ts))
                     for (tid, _), ts in batch.groupby([batch["traj_id"], chunk])["t"])
    assert len(pieces) == 8 and set(pieces.values()) == {1}
    assert stored() == before + pieces

    qr = tree.qut(tree.chunks[0].t_lo, tree.chunks[1].t_hi)
    assert qr.n_full == 2 and qr.n_partial == 0
    assert _row_keys(qr.rows) == stored()


def test_insert_short_piece_ignored(spark, tmp_path):
    base = _co_moving_batch(spark, 3, t0=0.0, base_id=0, x0=0.0)
    tree = ReTraTree.build(
        spark, base, tmp_path / "t3", TEST_PARAMS, chunk_width=400.0, tau=50
    )
    single = make_points_df(
        spark,
        pd.DataFrame(
            {"obj_id": [5], "traj_id": [5], "t": [10.0], "x": [0.0], "y": [0.0]}
        ),
    )
    stats = tree.insert(single)
    assert stats == {"assigned": 0, "outliers": 0, "reclustered_chunks": 0}


@st.composite
def _insert_batches(draw) -> pd.DataFrame:
    """New trajectories over ``[-60, 400)`` s, near the bundle of
    :func:`_co_moving_batch` or far from it, so pieces span chunks of
    width 200 s, land on a representative or in the outliers, and some
    hold one point; optionally with duplicate timestamps (other x/y);
    rows shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for k in range(draw(st.integers(1, 6))):
        n = int(rng.integers(1, 16))
        t = float(rng.integers(-6, 30)) * 10.0 + rng.choice([10.0, 20.0, 45.0]) * np.arange(n)
        x0 = rng.choice([0.0, 200.0]) + rng.normal(0.0, 0.2)
        frames.append(pd.DataFrame({"traj_id": 1000 + k, "t": t,
                                    "x": x0 + 0.05 * t, "y": 50.0 + rng.normal(0.0, 0.1, n)}))
    pdf = pd.concat(frames, ignore_index=True)
    if draw(st.booleans()):
        extra = pdf.sample(n=max(1, len(pdf) // 4), random_state=rng.integers(1 << 31))
        pdf = pd.concat([pdf, extra.assign(x=extra["x"] + 0.3, y=extra["y"] - 0.2)])
    pdf = pdf.sample(frac=1.0, random_state=rng.integers(1 << 31)).reset_index(drop=True)
    return pdf.assign(obj_id=pdf["traj_id"])


@settings(max_examples=30, deadline=None)
@given(batch=_insert_batches())
def test_property_insert_appends_each_piece_once_after_the_built_rows(batch):
    """Each ``(traj_id, chunk)`` piece of two or more points becomes one
    member row holding its points, appended after its partition's built
    rows in ``(traj_id, chunk)`` order; one-point pieces are dropped; the
    counters agree with the stored partitions."""
    base = _co_moving_pdf(3, t0=0.0, base_id=0, x0=0.0)
    with tempfile.TemporaryDirectory() as root:
        tree = ReTraTree.build(None, base, root, TEST_PARAMS, chunk_width=200.0, tau=10**6)
        store = tree.store

        def partitions():
            return {(cid, name): store.read(cid, name)
                    for cid in sorted(tree.chunks) for name in store.list_partitions(cid)}

        built = partitions()
        stats = tree.insert(batch)
        after = partitions()

        chunk = np.floor(batch["t"] / tree.chunk_width).astype(np.int64)
        pieces = {(tid, cid): sorted(zip(g["t"], g["x"], g["y"]))
                  for (tid, cid), g in batch.groupby([batch["traj_id"], chunk])}
        pieces = {k: v for k, v in pieces.items() if len(v) >= 2}
        assert stats["reclustered_chunks"] == 0
        assert stats["assigned"] + stats["outliers"] == len(pieces)

        seen = []
        for (cid, name), rows in after.items():
            old = built.get((cid, name), rows.iloc[:0])
            pd.testing.assert_frame_equal(rows.iloc[:len(old)], old, check_exact=True)
            new = rows.iloc[len(old):]
            assert new["traj_id"].is_monotonic_increasing and new["traj_id"].is_unique
            for _, r in new.iterrows():
                assert (np.diff(r["ts"]) >= 0).all()
                assert sorted(zip(r["ts"], r["xs"], r["ys"])) == pieces[(r["traj_id"], cid)]
                assert (r["subtraj_id"], r["sum_vote"]) == (0, 0.0)
                assert (r["t_start"], r["t_end"]) == (r["ts"][0], r["ts"][-1])
                seen.append((r["traj_id"], cid))
        assert sorted(seen) == sorted(pieces)

        for cid, c in tree.chunks.items():
            assert all(r.n_members == len(after[(cid, r.partition)]) for r in c.reps)
            assert c.outlier_count == len(after.get((cid, OUTLIER_PARTITION), ()))


# --------------------------------------------------------------------- QuT
def test_qut_rejects_bad_window(retratree):
    with pytest.raises(ValueError):
        retratree.qut(100.0, 100.0)


def test_qut_full_window_pure_reuse(retratree):
    """A window covering every chunk is answered by partition reads alone:
    ``reuse`` reads exactly the partitions the tree stores, and
    ``recluster`` reads none and runs no S2T."""
    t_lo = min(c.t_lo for c in retratree.chunks.values())
    t_hi = max(c.t_hi for c in retratree.chunks.values())
    qr = retratree.qut(t_lo, t_hi)
    assert qr.n_partial == 0
    assert qr.n_full == len(retratree.chunks)
    reuse, recluster = qr.trace.child("reuse"), qr.trace.child("recluster")
    assert recluster.counts.get("partitions_read", 0) == 0
    assert "s2t" not in [c.name for c in recluster.children]
    stored = sum(len(retratree.store.list_partitions(c)) for c in retratree.chunks)
    assert reuse.counts["partitions_read"] == stored
    assert reuse.counts["rows_read"] == len(qr.rows) > 0


def test_qut_rows_within_window(retratree):
    wi, we = 900.0, 6300.0
    qr = retratree.qut(wi, we)
    for _, r in qr.rows.iterrows():
        assert r["ts"][0] >= wi - retratree.chunk_width  # full chunks inside
        assert r["ts"][-1] <= we + retratree.chunk_width


def test_qut_parity_with_baseline(spark, retratree, mod_points):
    """QuT's answer on a window must essentially agree with running the
    full pipeline from scratch on the same window (the paper's point:
    same analysis, much cheaper)."""
    wi, we = 900.0, 6300.0
    qr = retratree.qut(wi, we)
    br = qut_baseline(mod_points, wi, we, TEST_PARAMS)
    m = qr.point_labels().merge(br.labels, on=["traj_id", "t"], suffixes=("_q", "_b"))
    assert len(m) >= 0.6 * len(br.labels)
    ari = adjusted_rand_index(m["cluster_id_q"].to_numpy(), m["cluster_id_b"].to_numpy())
    assert ari >= 0.7, f"parity ARI {ari}"
    br.s2t.unpersist()


def test_qut_subwindow_subset_of_chunks(retratree):
    wi = retratree.chunk_width * 1.0
    we = retratree.chunk_width * 2.0
    qr = retratree.qut(wi, we)
    assert qr.n_full == 1 and qr.n_partial == 0


def test_qut_interior_window_reclusters_boundaries(retratree):
    wi = retratree.chunk_width * 0.5
    we = retratree.chunk_width * 2.5
    qr = retratree.qut(wi, we)
    assert qr.n_full == 1 and qr.n_partial == 2


@pytest.mark.parametrize("side", ["after", "before"])
def test_qut_window_outside_chunks_is_empty(retratree, side):
    t_lo = min(c.t_lo for c in retratree.chunks.values())
    t_hi = max(c.t_hi for c in retratree.chunks.values())
    wi, we = (t_hi + 10.0, t_hi + 500.0) if side == "after" else (t_lo - 500.0, t_lo - 10.0)
    qr = retratree.qut(wi, we)
    assert qr.n_full == 0 and qr.n_partial == 0
    assert len(qr.rows) == 0
    assert len(qr.point_labels()) == 0


def test_qut_timings_keys(retratree):
    qr = retratree.qut(0.0, retratree.chunk_width)
    assert set(qr.timings) == {"reuse", "recluster", "merge", "total"}


def _polyline_points(rows: pd.DataFrame) -> pd.DataFrame:
    """One row per polyline point of ``rows``: its row position, traj_id
    and t, and whether it is an end of its polyline."""
    n = np.array([len(ts) for ts in rows["ts"]], dtype=np.int64)
    end = np.zeros(int(n.sum()), dtype=bool)
    end[np.cumsum(n) - 1] = end[np.cumsum(n) - n] = True
    return pd.DataFrame({
        "row": np.repeat(np.arange(len(rows)), n),
        "traj_id": np.repeat(rows["traj_id"].to_numpy(dtype=np.int64), n),
        "t": np.concatenate([np.empty(0), *rows["ts"]]),
        "end": end,
    })


# the fixture's chunks are [0, 1800), ..., [5400, 7200); samples are 30 s apart
@example(wi=900.0, width=20.0)     # inside one chunk, shorter than a sampling step
@example(wi=1790.0, width=20.0)    # across a chunk boundary, shorter than a step
@example(wi=1790.0, width=910.0)   # the first boundary slab is empty
@example(wi=2700.0, width=2710.0)  # the last boundary slab is empty
@example(wi=1800.0, width=3600.0)  # chunk-aligned: reuse only
@settings(max_examples=25, deadline=None)
@given(wi=st.floats(-900.0, 7200.0),
       width=st.one_of(st.floats(0.5, 29.0), st.floats(29.0, 5400.0)))
def test_property_qut_answer_is_the_stored_points_in_window(retratree, wi, width):
    """A QuT answer holds, keyed by ``(traj_id, t)``, exactly the points
    stored in the chunks inside W plus the in-W points of the boundary
    chunks' rows that keep at least two there; a point repeats only as an
    end of every row holding it; ``point_labels`` labels each polyline
    point once."""
    tree, we = retratree, wi + width
    assert tree.chunk_width == 1800.0
    q = tree.qut(wi, we)
    want = set()
    for c in tree.chunks.values():
        names = tree.store.list_partitions(c.chunk_id)
        if not (c.t_lo < we and c.t_hi > wi and names):
            continue
        pts = _polyline_points(pd.concat([tree.store.read(c.chunk_id, name) for name in names],
                                         ignore_index=True))
        if not (c.t_lo >= wi and c.t_hi <= we):
            inside = pts["t"].between(wi, we)
            pts = pts[inside & (inside.groupby(pts["row"]).transform("sum") >= 2)]
        want |= set(zip(pts["traj_id"], pts["t"]))
    got = _polyline_points(q.rows)
    assert set(zip(got["traj_id"], got["t"])) == want
    g = got.groupby(["traj_id", "t"])["end"].agg(["size", "sum"])
    assert ((g["size"] == 1) | (g["sum"] == g["size"])).all()
    assert len(q.point_labels()) == len(got)


def _labels(traj, t, cluster):
    return pd.DataFrame({"traj_id": np.asarray(traj, dtype=np.int64),
                         "t": np.asarray(t, dtype=np.float64),
                         "cluster_id": np.asarray(cluster, dtype=np.int64)})


_TWO_ROWS = pd.DataFrame({
    "traj_id": [7, 3], "cluster": ["c1:rep-0", None],
    "ts": [np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0])],
    "xs": [np.zeros(3), np.ones(2)], "ys": [np.zeros(3), np.ones(2)],
})


@pytest.mark.parametrize("rows,expected", [
    (_empty_members()[["traj_id", "cluster", "ts", "xs", "ys"]], _labels([], [], [])),
    (_TWO_ROWS, _labels([7, 7, 7, 3, 3], [1, 2, 3, 5, 6], [0, 0, 0, -1, -1])),
], ids=["empty", "two_rows"])
def test_point_labels_rows_order_dtypes(rows, expected):
    got = QuTResult(rows=rows, trace=Span("qut"), n_full=0, n_partial=0).point_labels()
    pd.testing.assert_frame_equal(got, expected)


def test_members_to_points_clips_to_window_and_keeps_rows_with_two_points(tmp_path):
    """A boundary chunk's rows, read in partition-name order, flatten to
    their points in [lo, hi] (bounds inclusive); a row keeping fewer than
    two points there is dropped.  Synthetic traj_ids are row positions
    and the id map takes them back to the stored ids."""
    tree = ReTraTree(tmp_path, TEST_PARAMS, chunk_width=100.0)

    def member(tid, ts):
        ts = np.asarray(ts, dtype=np.float64)
        return {"traj_id": tid, "subtraj_id": 0, "t_start": ts[0], "t_end": ts[-1],
                "sum_vote": 1.0, "ts": ts, "xs": ts + 0.5, "ys": -ts}

    tree.store.write(0, "rep-0", pd.DataFrame([
        member(1, [10, 20, 30, 40]), member(2, [10, 16, 50]), member(3, [36, 37]),
    ], columns=MEMBER_COLS))
    tree.store.write(0, OUTLIER_PARTITION, pd.DataFrame([member(4, [14, 15, 35, 36])]))
    # partitions are read in name order: "outliers" before "rep-0"
    assert tree.store.list_partitions(0) == [OUTLIER_PARTITION, "rep-0"]
    rows = pd.concat([tree.store.read(0, name) for name in tree.store.list_partitions(0)],
                     ignore_index=True)
    pts, id_map = tree_mod._members_to_points(rows, 15.0, 35.0)
    t = np.array([15.0, 35.0, 20.0, 30.0])
    pd.testing.assert_frame_equal(pts, pd.DataFrame({
        "obj_id": np.array([4, 4, 1, 1], dtype=np.int64),
        "traj_id": np.array([0, 0, 1, 1], dtype=np.int64),
        "t": t, "x": t + 0.5, "y": -t,
    }))
    assert id_map[pts["traj_id"]].tolist() == [4, 4, 1, 1]
    assert id_map.tolist() == [4, 1, 2, 3]


def test_baseline_timings_structure(spark, mod_points):
    br = qut_baseline(mod_points, 0.0, 3600.0, TEST_PARAMS)
    phases = ["prepare", "voting", "segmentation", "sampling", "clustering"]
    assert set(br.timings) == {"range_query", "index_build", "total",
                               *(f"s2t_{k}" for k in [*phases, "total"])}
    assert br.timings["total"] == pytest.approx(
        br.timings["range_query"] + br.timings["index_build"] + br.timings["s2t_total"])
    # the baseline's span holds its two steps, then S2T's span with its phases
    assert [c.name for c in br.trace.children] == ["range_query", "index_build", "s2t"]
    assert br.trace.child("s2t") is br.s2t.trace
    assert [c.name for c in br.s2t.trace.children] == phases
    assert br.trace.child("range_query").counts["rows"] == len(br.labels)
    assert br.rtree_nodes >= 1
    br.s2t.unpersist()

"""ReTraTree level-4 storage: Arrow IPC partitions, with each partition's
pg3D-Rtree bulk-loaded from its rows on demand."""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retratree.storage import (
    MEMBER_COLS,
    MEMBER_SCHEMA,
    OUTLIER_PARTITION,
    PartitionStore,
    _from_batch,
    _to_batch,
)
from repro.trace import span

CONTRACT_DTYPES = {"traj_id": "int64", "subtraj_id": "int64", "t_start": "float64",
                   "t_end": "float64", "sum_vote": "float64",
                   "ts": "object", "xs": "object", "ys": "object"}


def _members(n: int, t0: float = 0.0) -> pd.DataFrame:
    g = np.random.default_rng(int(t0) + n)
    rows = []
    for i in range(n):
        ts = t0 + np.arange(10.0) * 5 + i
        rows.append(
            {
                "traj_id": np.int64(i), "subtraj_id": np.int64(0),
                "t_start": ts[0], "t_end": ts[-1], "sum_vote": float(i),
                "ts": ts, "xs": g.uniform(0, 10, 10), "ys": g.uniform(0, 10, 10),
            }
        )
    return pd.DataFrame(rows, columns=MEMBER_COLS)


@pytest.fixture()
def store(tmp_path):
    return PartitionStore(tmp_path / "parts")


def test_write_read_roundtrip(store):
    m = _members(5)
    meta = store.write(0, "rep-0", m)
    back = store.read(0, "rep-0")
    assert len(back) == 5
    for c in ("ts", "xs", "ys"):
        for got, want in zip(back[c], m[c]):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            np.testing.assert_array_equal(got, want, strict=True)
    assert meta.n_members == 5 and meta.chunk_id == 0 and meta.name == "rep-0"


def test_rtree_persisted_and_queryable(store):
    """Only the rows are stored; the R-tree built from them answers box
    queries as a brute-force overlap over the rows' boxes does."""
    m = _members(40)
    meta = store.write(1, "rep-3", m)
    assert [p.name for p in Path(meta.path).iterdir()] == ["data.arrow"]
    tree = store.read_rtree(1, "rep-3")
    assert len(tree) == 40
    hits = tree.query_box(np.array([-100, -100, -100, 1000, 1000, 1000], float))
    assert len(hits) == 40
    lo = np.stack([m["xs"].map(np.min), m["ys"].map(np.min), m["t_start"]], axis=1)
    hi = np.stack([m["xs"].map(np.max), m["ys"].map(np.max), m["t_end"]], axis=1)
    g = np.random.default_rng(3)
    sizes = set()
    for _ in range(20):
        qlo = g.uniform([0, 0, 0], [10, 10, 80])
        q = np.concatenate([qlo, qlo + g.uniform([0, 0, 1], [4, 4, 20])])
        brute = np.flatnonzero(np.all(lo <= q[3:], axis=1) & np.all(hi >= q[:3], axis=1))
        assert np.sort(tree.query_box(q)).tolist() == brute.tolist()
        sizes.add(len(brute))
    assert len(sizes) > 2  # the queries select row sets of several sizes


def test_append_accumulates(store):
    store.write(0, OUTLIER_PARTITION, _members(3))
    store.append(0, OUTLIER_PARTITION, _members(4, t0=1000.0))
    assert len(store.read(0, OUTLIER_PARTITION)) == 7
    assert len(store.read_rtree(0, OUTLIER_PARTITION)) == 7


def test_append_creates_if_missing(store):
    meta = store.append(2, "rep-0", _members(2))
    assert meta.n_members == 2


def test_exists_and_list(store):
    assert not store.exists(0, "rep-0")
    store.write(0, "rep-0", _members(1))
    store.write(0, "rep-1", _members(1))
    store.write(0, OUTLIER_PARTITION, _members(0))
    assert store.exists(0, "rep-0")
    assert store.list_partitions(0) == [OUTLIER_PARTITION, "rep-0", "rep-1"]
    assert store.list_partitions(9) == []


def test_empty_partition_roundtrip(store):
    meta = store.write(0, OUTLIER_PARTITION, _members(0))
    assert meta.n_members == 0
    assert len(store.read(0, OUTLIER_PARTITION)) == 0
    assert len(store.read_rtree(0, OUTLIER_PARTITION)) == 0


@pytest.mark.parametrize("n", [0, 1])
def test_schema_fixed_for_empty_and_one_row(store, n):
    """An empty partition is stored in the same schema as a full one (no
    Arrow ``null`` columns inferred from no values) and reads back with the
    same dtypes."""
    store.write(0, "rep-0", _members(n))
    path = store._dir(0, "rep-0") / "data.arrow"
    with pa.OSFile(str(path)) as f:
        assert pa.ipc.open_file(f).schema.equals(MEMBER_SCHEMA)
    back = store.read(0, "rep-0")
    assert back.dtypes.astype(str).to_dict() == CONTRACT_DTYPES
    for c in ("ts", "xs", "ys"):
        assert all(a.dtype == np.float64 and not a.flags.writeable for a in back[c])


def test_failed_write_leaves_partition_intact(store, monkeypatch):
    """A write that fails after its file is opened keeps the previous rows,
    and a partition whose first write fails does not exist."""
    store.write(0, "rep-0", _members(3))
    real = pa.ipc.new_file

    def torn(sink, schema):
        real(sink, schema)  # the schema is on disk, no record batch
        raise OSError("disk full")

    monkeypatch.setattr(pa.ipc, "new_file", torn)
    with pytest.raises(OSError, match="disk full"):
        store.append(0, "rep-0", _members(4, t0=1000.0))
    with pytest.raises(OSError, match="disk full"):
        store.write(0, "rep-1", _members(2))
    monkeypatch.undo()

    pd.testing.assert_frame_equal(store.read(0, "rep-0"), _members(3))
    assert not store.exists(0, "rep-1")
    assert store.list_partitions(0) == ["rep-0"]
    assert [p.name for p in store._dir(0, "rep-0").iterdir()] == ["data.arrow"]
    assert list(store._dir(0, "rep-1").iterdir()) == []


@st.composite
def member_frames(draw):
    """0-20 member rows with polylines of 1-30 points; hypothesis draws the
    shape and a seed, the values come from the seeded generator."""
    lens = draw(st.lists(st.integers(1, 30), max_size=20))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(lens)

    def floats(k):
        return g.normal(size=k) * 10.0 ** g.integers(-300, 300, size=k)

    return pd.DataFrame({
        "traj_id": g.integers(-2**62, 2**62, size=n),
        "subtraj_id": g.integers(0, 100, size=n),
        "t_start": floats(n), "t_end": floats(n), "sum_vote": floats(n),
        **{c: pd.Series([floats(k) for k in lens], dtype=object) for c in ("ts", "xs", "ys")},
    }, columns=MEMBER_COLS)


@settings(max_examples=50, deadline=None)
@given(member_frames(), member_frames())
def test_roundtrip_property(m, extra):
    """``read(write(m))`` is ``m`` value for value, in the contract dtypes
    with read-only float64 polylines; ``append`` is ``pd.concat``; reads
    count the rows they return."""
    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionStore(tmp)
        store.write(0, "rep-0", m)
        with span("read") as s:
            back = store.read(0, "rep-0")
        assert s.counts == {"partitions_read": 1, "rows_read": len(m)}
        assert back.dtypes.astype(str).to_dict() == CONTRACT_DTYPES
        pd.testing.assert_frame_equal(back, m)
        for c in ("ts", "xs", "ys"):
            for got, want in zip(back[c], m[c]):
                assert got.dtype == np.float64 and not got.flags.writeable
                np.testing.assert_array_equal(got, want, strict=True)

        store.append(0, "rep-0", extra)
        with span("read") as s:
            both = store.read(0, "rep-0")
        assert s.counts["rows_read"] == len(m) + len(extra)
        pd.testing.assert_frame_equal(both, pd.concat([m, extra], ignore_index=True))

    # a sliced batch's list offsets do not start at 0
    k = len(m) // 2
    pd.testing.assert_frame_equal(_from_batch(_to_batch(m).slice(k)),
                                  m.iloc[k:].reset_index(drop=True))


def test_meta_time_bounds(store):
    m = _members(6, t0=500.0)
    meta = store.write(0, "rep-0", m)
    assert meta.t_min == m["t_start"].min()
    assert meta.t_max == m["t_end"].max()

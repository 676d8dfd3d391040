"""ReTraTree level-4 storage: Parquet partitions, with each partition's
pg3D-Rtree bulk-loaded from its rows on demand."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.retratree.storage import (
    MEMBER_COLS,
    OUTLIER_PARTITION,
    PartitionStore,
)


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
    assert [p.name for p in Path(meta.path).iterdir()] == ["data.parquet"]
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


def test_meta_time_bounds(store):
    m = _members(6, t0=500.0)
    meta = store.write(0, "rep-0", m)
    assert meta.t_min == m["t_start"].min()
    assert meta.t_max == m["t_end"].max()

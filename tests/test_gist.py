"""GiST substrate invariants: the generic tree mechanics are correct for
any extension — exercised with the 3D-box extension (its production
client) against brute-force references."""
from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.gist import GiST
from repro.index.rtree3d import BOX3D_EXTENSION


def _rand_boxes(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    lo = g.uniform(0, 100, (n, 3))
    ext = g.uniform(0, 10, (n, 3))
    return np.concatenate([lo, lo + ext], axis=1)


def _brute(boxes: np.ndarray, q: np.ndarray) -> np.ndarray:
    hit = np.all(boxes[:, :3] <= q[3:], axis=1) & np.all(boxes[:, 3:] >= q[:3], axis=1)
    return np.flatnonzero(hit)


def test_rejects_tiny_fanout():
    with pytest.raises(ValueError):
        GiST(BOX3D_EXTENSION, max_entries=2)


def test_empty_tree_search():
    t = GiST(BOX3D_EXTENSION)
    assert len(t.search(np.zeros(6))) == 0
    assert len(t) == 0 and t.height() == 0 and t.node_count() == 0


@pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 200, 1000])
def test_bulk_load_search_matches_brute_force(n):
    boxes = _rand_boxes(n, seed=n)
    t = GiST(BOX3D_EXTENSION, max_entries=8)
    t.bulk_load(boxes, np.arange(n))
    for qseed in range(5):
        q = _rand_boxes(1, seed=1000 + qseed)[0]
        got = np.sort(t.search(q))
        exp = _brute(boxes, q)
        np.testing.assert_array_equal(got, exp)


@pytest.mark.parametrize("n", [1, 7, 40, 300])
def test_insert_search_matches_brute_force(n):
    boxes = _rand_boxes(n, seed=n + 1)
    t = GiST(BOX3D_EXTENSION, max_entries=6)
    for i in range(n):
        t.insert(boxes[i], i)
    assert len(t) == n
    for qseed in range(5):
        q = _rand_boxes(1, seed=2000 + qseed)[0]
        np.testing.assert_array_equal(np.sort(t.search(q)), _brute(boxes, q))


def test_mixed_bulk_then_insert():
    boxes = _rand_boxes(120, seed=3)
    t = GiST(BOX3D_EXTENSION, max_entries=8)
    t.bulk_load(boxes[:60], np.arange(60))
    for i in range(60, 120):
        t.insert(boxes[i], i)
    q = np.array([0, 0, 0, 100, 100, 100], dtype=float)
    np.testing.assert_array_equal(np.sort(t.search(q)), _brute(boxes, q))


@pytest.mark.parametrize("n,M", [(100, 4), (100, 8), (1000, 32)])
def test_height_is_logarithmic(n, M):
    boxes = _rand_boxes(n, seed=7)
    t = GiST(BOX3D_EXTENSION, max_entries=M)
    t.bulk_load(boxes, np.arange(n))
    assert t.height() <= int(np.ceil(np.log(max(n, 2)) / np.log(M))) + 1


def test_leaves_at_same_depth_after_inserts():
    """Split propagation must keep the tree height-balanced."""
    boxes = _rand_boxes(400, seed=11)
    t = GiST(BOX3D_EXTENSION, max_entries=5)
    for i in range(400):
        t.insert(boxes[i], i)
    depths = set()

    def walk(node, d):
        if node.is_leaf:
            depths.add(d)
        else:
            for c in node.children:
                walk(c, d + 1)

    walk(t.root, 0)
    assert len(depths) == 1


def test_parent_keys_cover_children():
    """Union keys in internal nodes must bound their subtrees."""
    boxes = _rand_boxes(300, seed=13)
    t = GiST(BOX3D_EXTENSION, max_entries=8)
    for i in range(300):
        t.insert(boxes[i], i)

    def walk(node):
        if node.is_leaf:
            return
        for i, c in enumerate(node.children):
            b = c.bound(t.ext)
            assert np.all(node.keys[i][:3] <= b[:3] + 1e-9)
            assert np.all(node.keys[i][3:] >= b[3:] - 1e-9)
            walk(c)

    walk(t.root)


def test_pickle_roundtrip_preserves_queries():
    boxes = _rand_boxes(150, seed=17)
    t = GiST(BOX3D_EXTENSION, max_entries=8)
    t.bulk_load(boxes, np.arange(150))
    t2 = pickle.loads(pickle.dumps(t))
    assert len(t2) == 150
    for qseed in range(4):
        q = _rand_boxes(1, seed=4000 + qseed)[0]
        np.testing.assert_array_equal(np.sort(t.search(q)), np.sort(t2.search(q)))


def test_bulk_load_validates_shapes():
    t = GiST(BOX3D_EXTENSION)
    with pytest.raises(ValueError):
        t.bulk_load(np.zeros((3, 6)), np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_property_search_equals_brute(n, qseed):
    boxes = _rand_boxes(n, seed=qseed % 97) if n else np.empty((0, 6))
    t = GiST(BOX3D_EXTENSION, max_entries=4)
    t.bulk_load(boxes, np.arange(n))
    q = _rand_boxes(1, seed=qseed)[0]
    got = np.sort(t.search(q))
    exp = _brute(boxes, q) if n else np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(got, exp)

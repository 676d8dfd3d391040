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


# ------------------------------------------------------------- batched search
def _grid_boxes(data: st.DataObject, n: int) -> np.ndarray:
    """Boxes on a coarse integer grid: zero extents and boxes that only
    touch faces are common, which exercises the closed-interval test."""
    cells = data.draw(st.lists(
        st.tuples(*[st.integers(0, 8)] * 3, *[st.integers(0, 3)] * 3),
        min_size=n, max_size=n,
    ))
    a = np.array(cells, dtype=np.float64).reshape(n, 6)
    return np.concatenate([a[:, :3], a[:, :3] + a[:, 3:]], axis=1)


def _pair_set(qi: np.ndarray, ids: np.ndarray) -> set[tuple[int, int]]:
    assert qi.dtype == np.int64 and ids.dtype == np.int64 and len(qi) == len(ids)
    pairs = set(zip(qi.tolist(), ids.tolist()))
    assert len(pairs) == len(qi), "a (query, id) pair was returned twice"
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 120), st.integers(0, 40),
       st.integers(4, 32), st.booleans())
def test_property_search_many_equals_brute_and_search(data, n, q, fanout, bulk):
    boxes = _grid_boxes(data, n)
    queries = _grid_boxes(data, q)
    t = GiST(BOX3D_EXTENSION, max_entries=fanout)
    if bulk:
        t.bulk_load(boxes, np.arange(n))
    else:
        for i in range(n):
            t.insert(boxes[i], i)
    got = _pair_set(*t.search_many(queries))
    brute = {(j, int(i)) for j in range(q) for i in _brute(boxes, queries[j])}
    per_query = {(j, int(i)) for j in range(q) for i in t.search(queries[j])}
    assert got == brute == per_query


def test_search_many_face_touching_and_zero_extent():
    boxes = np.array([[0, 0, 0, 1, 1, 1], [1, 0, 0, 2, 1, 1], [3, 3, 3, 3, 3, 3]], float)
    t = GiST(BOX3D_EXTENSION, max_entries=4)
    t.bulk_load(boxes, np.arange(3))
    queries = np.array([[1, 1, 1, 1, 1, 1],      # a corner shared by boxes 0 and 1
                        [3, 3, 3, 3, 3, 3],      # the zero-extent box itself
                        [2.5, 0, 0, 2.9, 1, 1]], float)  # between the boxes
    assert _pair_set(*t.search_many(queries)) == {(0, 0), (0, 1), (1, 2)}


def test_search_many_empty_tree_and_no_queries():
    empty = GiST(BOX3D_EXTENSION)
    full = GiST(BOX3D_EXTENSION)
    full.bulk_load(_rand_boxes(50, seed=5), np.arange(50))
    for tree, queries in [(empty, _rand_boxes(3, seed=6)), (empty, np.empty((0, 6))),
                          (full, np.empty((0, 6)))]:
        qi, ids = tree.search_many(queries)
        assert qi.dtype == ids.dtype == np.int64
        assert len(qi) == len(ids) == 0

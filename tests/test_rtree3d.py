"""pg3D-Rtree: STR packing, query correctness, segment-box semantics."""
from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree3d import Rtree3D, segment_boxes, str_order


def _rand_boxes(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    lo = np.concatenate([g.uniform(0, 100, (n, 2)), g.uniform(0, 7200, (n, 1))], axis=1)
    ext = np.concatenate([g.uniform(0, 5, (n, 2)), g.uniform(0, 120, (n, 1))], axis=1)
    return np.concatenate([lo, lo + ext], axis=1)


def _brute(boxes: np.ndarray, q: np.ndarray) -> np.ndarray:
    hit = np.all(boxes[:, :3] <= q[3:], axis=1) & np.all(boxes[:, 3:] >= q[:3], axis=1)
    return np.flatnonzero(hit)


# ---------------------------------------------------------------- str_order
@pytest.mark.parametrize("n", [0, 1, 10, 100, 777])
def test_str_order_is_permutation(n):
    boxes = _rand_boxes(n, seed=n + 5)
    o = str_order(boxes, leaf_size=16)
    assert sorted(o.tolist()) == list(range(n))


def test_str_order_improves_leaf_compactness():
    """STR-packed leaves should have (much) smaller total volume than
    random-order packing — the point of bulk loading."""
    boxes = _rand_boxes(1000, seed=2)
    o = str_order(boxes, leaf_size=16)

    def leaf_volume(order):
        tot = 0.0
        for i in range(0, len(order), 16):
            grp = boxes[order[i : i + 16]]
            lo = grp[:, :3].min(axis=0)
            hi = grp[:, 3:].max(axis=0)
            tot += float(np.prod(hi - lo))
        return tot

    assert leaf_volume(o) < 0.5 * leaf_volume(np.arange(1000))


# ------------------------------------------------------------------ queries
@pytest.mark.parametrize("n", [1, 16, 100, 2000])
def test_query_box_matches_brute_force(n):
    boxes = _rand_boxes(n, seed=n)
    t = Rtree3D.bulk_load(boxes)
    for qs in range(6):
        q = _rand_boxes(1, seed=9000 + qs)[0]
        np.testing.assert_array_equal(np.sort(t.query_box(q)), _brute(boxes, q))


def test_custom_ids_returned(spark=None):
    boxes = _rand_boxes(50, seed=1)
    ids = np.arange(50) * 7 + 3
    t = Rtree3D.bulk_load(boxes, ids)
    q = np.array([0, 0, 0, 200, 200, 10000], dtype=float)
    np.testing.assert_array_equal(np.sort(t.query_box(q)), np.sort(ids))


def test_bulk_load_validates_shape():
    with pytest.raises(ValueError):
        Rtree3D.bulk_load(np.zeros((4, 5)))


def test_empty_tree():
    t = Rtree3D.bulk_load(np.empty((0, 6)))
    assert len(t) == 0
    assert len(t.query_box(np.array([0, 0, 0, 1, 1, 1], float))) == 0


def test_incremental_insert_matches_brute():
    boxes = _rand_boxes(200, seed=4)
    t = Rtree3D.bulk_load(boxes[:100])
    for i in range(100, 200):
        t.insert(boxes[i], i)
    q = _rand_boxes(1, seed=12)[0]
    np.testing.assert_array_equal(np.sort(t.query_box(q)), _brute(boxes, q))


def test_stats_populated():
    t = Rtree3D.bulk_load(_rand_boxes(500, seed=6))
    assert t.height() >= 2
    assert t.node_count() > 500 // 32


def test_pickle_roundtrip():
    boxes = _rand_boxes(300, seed=8)
    t = Rtree3D.bulk_load(boxes)
    t2 = pickle.loads(pickle.dumps(t))
    q = _rand_boxes(1, seed=77)[0]
    np.testing.assert_array_equal(np.sort(t.query_box(q)), np.sort(t2.query_box(q)))


# ------------------------------------------------------------ segment boxes
def test_segment_boxes_orientation_independent():
    seg = np.array([[0.0, 5.0, 5.0, 10.0, 1.0, 2.0]])  # moving "backwards" in x/y
    b = segment_boxes(seg)
    assert b[0, 0] == 1.0 and b[0, 3] == 5.0      # x min/max sorted
    assert b[0, 1] == 2.0 and b[0, 4] == 5.0      # y min/max sorted
    assert b[0, 2] == 0.0 and b[0, 5] == 10.0     # t preserved


def test_segment_boxes_padding_spatial_only():
    seg = np.array([[0.0, 1.0, 1.0, 10.0, 2.0, 2.0]])
    b = segment_boxes(seg, pad=0.5)
    assert b[0, 0] == 0.5 and b[0, 3] == 2.5
    assert b[0, 2] == 0.0 and b[0, 5] == 10.0  # time never padded


def test_from_segments_query_semantics():
    """Indexing padded boxes turns 'within eps of segment' into box hit."""
    seg = np.array(
        [
            [0.0, 0.0, 0.0, 10.0, 10.0, 0.0],   # A: along x
            [0.0, 0.0, 2.0, 10.0, 10.0, 2.0],   # B: parallel, 2 away in y
            [100.0, 0.0, 0.0, 110.0, 10.0, 0.0] # C: far in time
        ]
    )
    t = Rtree3D.from_segments(seg, pad=3.0)
    hits = set(t.query_box(segment_boxes(seg[:1])[0]).tolist())
    assert {0, 1} <= hits and 2 not in hits


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=0, max_value=10_000))
def test_property_query_equals_brute(n, qseed):
    boxes = _rand_boxes(n, seed=(qseed * 31 + n) % 1009)
    t = Rtree3D.bulk_load(boxes, max_entries=8)
    q = _rand_boxes(1, seed=qseed)[0]
    np.testing.assert_array_equal(np.sort(t.query_box(q)), _brute(boxes, q))


# --------------------------------------------------------- batched queries
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 60), st.integers(4, 32),
       st.booleans(), st.integers(0, 10_000))
def test_property_query_boxes_equals_brute_and_query_box(n, q, fanout, bulk, seed):
    """Grid-snapped boxes, a third of them collapsed to points: zero
    extents and face-only contacts are common."""
    g = np.random.default_rng(seed)
    grid = np.array([4.0, 4.0, 120.0] * 2)

    def snapped(m: int) -> np.ndarray:
        b = np.round(_rand_boxes(m, seed=int(g.integers(1 << 30))) / grid) * grid
        flat = g.random(m) < 0.3
        b[flat, 3:] = b[flat, :3]
        return b

    boxes, queries = snapped(n), snapped(q)
    if bulk:
        t = Rtree3D.bulk_load(boxes, max_entries=fanout)
    else:
        t = Rtree3D(max_entries=fanout)
        for i in range(n):
            t.insert(boxes[i], i)
    qi, ids = t.query_boxes(queries)
    assert qi.dtype == ids.dtype == np.int64
    got = sorted(zip(qi.tolist(), ids.tolist()))
    brute = sorted((j, int(i)) for j in range(q) for i in _brute(boxes, queries[j]))
    per_query = sorted((j, int(i)) for j in range(q) for i in t.query_box(queries[j]))
    assert got == brute == per_query


def test_query_boxes_empty_tree_and_no_queries():
    for t, queries in [(Rtree3D.bulk_load(np.empty((0, 6))), _rand_boxes(4, seed=1)),
                       (Rtree3D.bulk_load(_rand_boxes(40, seed=2)), np.empty((0, 6)))]:
        qi, ids = t.query_boxes(queries)
        assert qi.dtype == ids.dtype == np.int64
        assert len(qi) == len(ids) == 0

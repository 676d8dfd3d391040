"""Micro-benchmarks of the substrate hot paths: pg3D-Rtree bulk load,
single and batched query, the closed-form voting kernel, and the
time-synchronized distance — the per-task inner loops whose cost
Table A/B aggregate."""
import numpy as np
import pytest

from repro.core.distance import min_moving_distance, sync_distance, vote_kernel
from repro.index.rtree3d import Rtree3D


def _boxes(n, seed=0):
    g = np.random.default_rng(seed)
    lo = np.concatenate([g.uniform(0, 100, (n, 2)), g.uniform(0, 7200, (n, 1))], axis=1)
    ext = np.concatenate([g.uniform(0, 3, (n, 2)), g.uniform(0, 60, (n, 1))], axis=1)
    return np.concatenate([lo, lo + ext], axis=1)


@pytest.mark.benchmark(group="micro-index")
def test_bench_rtree_bulk_load_20k(benchmark):
    boxes = _boxes(20_000)
    tree = benchmark(lambda: Rtree3D.bulk_load(boxes))
    assert len(tree) == 20_000


@pytest.mark.benchmark(group="micro-index")
def test_bench_rtree_query_20k(benchmark):
    boxes = _boxes(20_000)
    tree = Rtree3D.bulk_load(boxes)
    queries = _boxes(100, seed=1)

    def run():
        return sum(len(tree.query_box(q)) for q in queries)

    hits = benchmark(run)
    assert hits > 0


@pytest.mark.benchmark(group="micro-index")
def test_bench_rtree_query_many_20k(benchmark):
    boxes = _boxes(20_000)
    tree = Rtree3D.bulk_load(boxes)
    queries = _boxes(2_000, seed=1)

    qi, ids = benchmark(lambda: tree.query_boxes(queries))
    assert len(qi) == len(ids) == sum(len(tree.query_box(q)) for q in queries) > 0


@pytest.mark.benchmark(group="micro-kernel")
def test_bench_moving_distance_100k_pairs(benchmark):
    g = np.random.default_rng(0)
    n = 100_000
    e = np.stack([g.uniform(0, 7200, n), g.uniform(0, 100, n), g.uniform(0, 100, n),
                  np.zeros(n), g.uniform(0, 100, n), g.uniform(0, 100, n)], axis=1)
    e[:, 3] = e[:, 0] + g.uniform(1, 60, n)
    f = e[g.permutation(n)]

    def run():
        d, _ = min_moving_distance(e, f)
        return vote_kernel(d, sigma=1.0).sum()

    total = benchmark(run)
    assert total >= 0


@pytest.mark.benchmark(group="micro-kernel")
def test_bench_sync_distance_1k_pairs(benchmark):
    g = np.random.default_rng(0)
    polys = []
    for _ in range(200):
        ts = np.sort(g.uniform(0, 7200, 50))
        polys.append((ts, g.uniform(0, 100, 50), g.uniform(0, 100, 50)))

    def run():
        s = 0.0
        for i in range(0, 200, 2):
            d = sync_distance(*polys[i], *polys[i + 1])
            if np.isfinite(d):
                s += d
        return s

    benchmark(run)

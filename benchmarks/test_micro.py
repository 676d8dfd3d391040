"""Micro-benchmarks of the substrate hot paths: pg3D-Rtree bulk load,
single and batched query, the closed-form voting kernel, the
time-synchronized distance — the per-task inner loops whose cost
Table A/B aggregate — in-process NaTS segmentation of a whole MOD, an
in-process QuT that re-clusters two boundary slices, ReTraTree level-4
partition IO, and the cost of one empty trace span."""
import numpy as np
import pytest

from repro import synth_data
from repro.core.distance import min_moving_distance, sync_distance, vote_kernel
from repro.core.s2t import S2TParams
from repro.core.segmentation import segment_trajectories
from repro.core.voting import vote_segments
from repro.index.rtree3d import Rtree3D
from repro.mod.model import points_to_segments
from repro.retratree.tree import ReTraTree
from repro.trace import span


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


@pytest.mark.benchmark(group="micro-segmentation")
def test_bench_segmentation_inproc(benchmark):
    """The voted segments of the ``s2t_batch`` MOD (sf 0.1, seed 0), cut
    into sub-trajectories in the driver process."""
    p = S2TParams(sigma=1.0)
    pdf = synth_data.trajectories_pdf(sf=0.1, seed=0)
    voted = vote_segments(points_to_segments(pdf), sigma=p.sigma)
    assert (len(voted), voted["traj_id"].nunique()) == (8222, 124)

    subtrajs = benchmark(lambda: segment_trajectories(
        voted, min_len=p.min_len, lam=p.lam, max_gap=p.max_gap))
    assert len(subtrajs) == 302


@pytest.mark.benchmark(group="micro-qut")
def test_bench_qut_boundary_inproc(benchmark, tmp_path):
    """QuT over a 2-chunk tree of the ``s2t_batch`` MOD (sf 0.1, seed 0),
    built in the driver process, for the window half a chunk off: both
    chunks are boundary slices, re-clustered by one S2T run."""
    pdf = synth_data.trajectories_pdf(sf=0.1, seed=0)
    width = float(np.ceil(pdf["t"].max() / 2 / 100.0) * 100.0)
    tree = ReTraTree.build(None, pdf, tmp_path, S2TParams(sigma=1.0), chunk_width=width)
    assert sorted(tree.chunks) == [0, 1]

    q = benchmark(lambda: tree.qut(0.5 * width, 1.5 * width))
    assert (q.n_full, q.n_partial, len(q.rows)) == (0, 2, 188)


@pytest.mark.benchmark(group="micro-storage")
def test_bench_partition_read_write(benchmark, tmp_path):
    """Read, then rewrite, every level-4 partition of the 2-chunk tree of
    the ``s2t_batch`` MOD (sf 0.1, seed 0): the mean divided by the
    partition count is the IO cost of one partition."""
    pdf = synth_data.trajectories_pdf(sf=0.1, seed=0)
    width = float(np.ceil(pdf["t"].max() / 2 / 100.0) * 100.0)
    tree = ReTraTree.build(None, pdf, tmp_path, S2TParams(sigma=1.0), chunk_width=width)
    store = tree.store
    parts = [(cid, name) for cid in sorted(tree.chunks) for name in store.list_partitions(cid)]

    def run():
        rows = 0
        for cid, name in parts:
            members = store.read(cid, name)
            store.write(cid, name, members)
            rows += len(members)
        return rows

    assert (len(parts), benchmark(run)) == (25, 321)


@pytest.mark.benchmark(group="micro-trace")
def test_bench_span_overhead_100k(benchmark):
    """100k empty spans, each nested in one open span: the mean divided by
    100k is the cost one span adds to a traced run."""
    def run():
        with span("root") as root:
            for _ in range(100_000):
                with span("empty"):
                    pass
        return root

    assert len(benchmark(run).children) == 100_000

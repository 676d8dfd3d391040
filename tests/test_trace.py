"""The program's one timing path (``repro.trace``): span nesting and
counters, and what the S2T, QuT and ReTraTree spans record."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.s2t import s2t_clustering
from repro.retratree.tree import ReTraTree
from repro.trace import count, span
from tests.conftest import TEST_PARAMS

S2T_PHASES = ["prepare", "voting", "segmentation", "sampling", "clustering"]


def test_count_without_open_span_is_a_noop():
    count("rows", 5)
    with span("a") as a:
        count("rows", 2)
        count("rows")
    count("rows", 7)
    assert a.counts == {"rows": 3}


def test_spans_nest_and_a_raising_span_keeps_its_seconds_and_restores_its_parent():
    with span("root") as root:
        with pytest.raises(RuntimeError):
            with span("fails"):
                count("rows")
                raise RuntimeError
        with span("after"):
            count("rows", 4)
        count("rows", 10)
    failed, after = root.children
    assert (failed.name, failed.counts) == ("fails", {"rows": 1})
    assert (after.name, after.counts, root.counts) == ("after", {"rows": 4}, {"rows": 10})
    assert root.seconds >= failed.seconds + after.seconds > 0 and failed.seconds > 0
    assert root.timings() == {"fails": failed.seconds, "after": after.seconds,
                              "total": failed.seconds + after.seconds}
    assert root.timings("x_").keys() == {"x_fails", "x_after", "x_total"}


def test_timing_runs_only_through_trace():
    """``perf_counter`` and ``time.time()`` appear in ``repro.trace`` only."""
    src = Path(repro.__file__).parent
    hits = [f"{p.relative_to(src)}:{i}"
            for p in sorted(src.rglob("*.py")) if p.name != "trace.py"
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"perf_counter|time\.time\(", line)]
    assert hits == []


def _phase_rows(res) -> list[int]:
    return [res.trace.child(k).counts["rows"] for k in S2T_PHASES]


def test_s2t_phase_rows_are_the_result_frames_on_both_engines(mod_pdf, s2t_result):
    """Each phase counts the rows of the frame it made: ``len`` in the
    driver process, the ``count()`` that materialises it on Spark; the two
    engines count the same rows."""
    local = s2t_clustering(mod_pdf, TEST_PARAMS)
    for res, n in ((local, len), (s2t_result, lambda df: df.count())):
        assert res.trace.name == "s2t"
        assert [c.name for c in res.trace.children] == S2T_PHASES
        frames = [res.segments, res.voted, res.subtrajs, res.sub_pdf, res.clusters]
        assert _phase_rows(res) == [n(frames[0]), n(frames[1]), n(frames[2]),
                                    len(frames[3]), len(frames[4])]
        assert res.trace.child("sampling").counts["reps"] == len(res.reps)
        assert res.timings == res.trace.timings()
    assert _phase_rows(local) == _phase_rows(s2t_result)
    assert local.trace.child("sampling").counts == s2t_result.trace.child("sampling").counts


def test_qut_half_chunk_off_reclusters_in_one_s2t_span(retratree):
    wi, we = 0.5 * retratree.chunk_width, 2.5 * retratree.chunk_width
    q = retratree.qut(wi, we)
    assert (q.n_full, q.n_partial) == (1, 2)
    assert [c.name for c in q.trace.children] == ["reuse", "recluster", "merge"]
    recluster = q.trace.child("recluster")
    s2t = [c for c in recluster.children if c.name == "s2t"]
    assert len(s2t) == 1 and [c.name for c in s2t[0].children] == S2T_PHASES
    cut = [c for c in retratree.chunks.values()
           if c.t_lo < wi < c.t_hi or c.t_lo < we < c.t_hi]
    assert recluster.counts["partitions_read"] == sum(
        len(retratree.store.list_partitions(c.chunk_id)) for c in cut)
    assert set(q.timings) == {"reuse", "recluster", "merge", "total"}


def _stored(tree) -> dict[tuple[int, str], int]:
    return {(cid, name): len(tree.store.read(cid, name))
            for cid in tree.chunks for name in tree.store.list_partitions(cid)}


def test_build_and_insert_count_the_rows_they_write(mod_pdf, tmp_path):
    """The build writes every stored row once; an insert (no re-cluster)
    rewrites each partition it touches whole, after reading it back."""
    held = mod_pdf["traj_id"].isin(np.unique(mod_pdf["traj_id"])[::5])
    with span("load") as load:
        tree = ReTraTree.build(None, mod_pdf[~held], tmp_path, TEST_PARAMS,
                               chunk_width=1800.0, tau=10**6)
    before = _stored(tree)
    with span("ingest") as ingest:
        stats = tree.insert(mod_pdf[held])
    after = _stored(tree)
    build, insert = load.child("build"), ingest.child("insert")
    assert build.counts == {"partitions_written": len(before),
                            "rows_written": sum(before.values())}
    assert [c.name for c in build.children] == ["s2t"] * len(build.children)
    touched = [k for k, n in after.items() if before.get(k) != n]
    assert stats["reclustered_chunks"] == 0 and touched
    assert insert.counts["partitions_written"] == len(touched)
    assert insert.counts["rows_written"] == sum(after[k] for k in touched)
    assert insert.counts.get("rows_read", 0) == sum(before.get(k, 0) for k in touched)
    assert (insert.counts["rows_written"] - insert.counts.get("rows_read", 0)
            == stats["assigned"] + stats["outliers"])
    assert load.counts == ingest.counts == {}

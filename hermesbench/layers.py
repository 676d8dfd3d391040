"""Per-layer accounting, all of it from outside the program.

- Spark's own accounting: jobs, stages and tasks of one op's job group,
  read from the status tracker, and the wall time of a trivial grouped
  ``applyInPandas`` job (the fixed per-job floor).
- Spark 4's UDF profiler (``spark.sql.pyspark.udf.profiler=perf``), read
  back with ``spark.profile.dump`` and grouped by owning function.
- Wrappers around ``PartitionStore`` methods and the names
  ``repro.retratree.tree`` and ``repro.core.voting`` call.
- A driver-side replay of the voting UDF that counts index queries,
  candidates and pairs within the cutoff.
"""
from __future__ import annotations

import pstats
import statistics
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np
import pandas as pd

#: The phases of ``S2TResult.timings``.
S2T_PHASES = ("prepare", "voting", "segmentation", "sampling", "clustering")

#: Owning functions (module file, function name) of each worker-side layer.
KERNEL_GROUPS = {
    "voting.udf_cpu_s": {("voting.py", "_bucket_votes")},
    "index.query_cpu_s": {("rtree3d.py", "query_box"), ("gist.py", "search")},
    "index.bulk_load_cpu_s": {
        ("rtree3d.py", "bulk_load"), ("rtree3d.py", "from_segments"),
        ("gist.py", "bulk_load"),
    },
    "distance.kernel_cpu_s": {
        ("distance.py", "min_moving_distance"), ("distance.py", "vote_kernel"),
    },
    "segmentation.udf_cpu_s": {("segmentation.py", "_segment_one")},
    "subtraj.udf_cpu_s": {("subtraj.py", "_assemble_one")},
    "clustering.udf_cpu_s": {("clustering.py", "_assign_batch")},
}


@contextmanager
def patched(owner, name: str, value):
    old = vars(owner)[name]  # the raw attribute, so a staticmethod is restored as one
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


# --------------------------------------------------------------------- Spark
def job_counts(spark, group: str) -> dict[str, float]:
    """Jobs, stages and tasks that ran under one job group."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = failed = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            st = tracker.getStageInfo(sid)
            if st is not None and st.numCompletedTasks > 0:
                stages += 1
                tasks += st.numCompletedTasks
                failed += st.numFailedTasks
    return {"spark.jobs": len(jobs), "spark.stages": stages,
            "spark.tasks": tasks, "spark.failed_tasks": failed}


def job_floor_s(spark, repeats: int = 5) -> float:
    """Median wall time of a trivial grouped applyInPandas job."""
    df = spark.range(0, 256, numPartitions=4).selectExpr("id", "id % 4 AS g")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        df.groupBy("g").applyInPandas(lambda pdf: pdf, schema="id long, g long").collect()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def group_seconds(stats: pstats.Stats, funcs: set[tuple[str, str]]) -> float:
    """Profiled seconds inside ``funcs``, counting nested calls among them once.

    A function's time is taken from its call edges whose caller is outside
    the group, so a group member called by another member is not added twice.
    """
    total = 0.0
    for (fname, _line, func), (_cc, _nc, _tt, ct, callers) in stats.stats.items():
        if (fname, func) not in funcs:
            continue
        if not callers:
            total += ct
            continue
        total += sum(edge[3] for caller, edge in callers.items()
                     if (caller[0], caller[2]) not in funcs)
    return total


@contextmanager
def udf_profiler(spark, dump_dir: Path, out: dict):
    """Profile the Python UDFs run inside the block; on exit, add the
    per-group worker seconds to ``out``."""
    spark.profile.clear()
    spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
    try:
        yield
    finally:
        spark.conf.unset("spark.sql.pyspark.udf.profiler")
    dump_dir.mkdir(parents=True, exist_ok=True)
    spark.profile.dump(str(dump_dir), type="perf")
    files = sorted(str(p) for p in dump_dir.glob("*.pstats"))
    stats = pstats.Stats(*files) if files else None
    for name, funcs in KERNEL_GROUPS.items():
        out[name] = group_seconds(stats, funcs) if stats else 0.0
    spark.profile.clear()


# ----------------------------------------------------------------- retratree
@contextmanager
def retratree_wrappers(c: dict):
    """Count and time ``PartitionStore`` IO and insert assignment into ``c``,
    and add the phase timings of the S2T runs QuT re-clusters with."""
    from repro.retratree import tree as tree_mod
    from repro.retratree.storage import PartitionStore

    for k in ("storage.read_calls", "storage.rows_read", "storage.read_s",
              "storage.append_calls", "storage.write_calls", "storage.write_s",
              "storage.bytes_written", "storage.rtree_build_s", "insert.assign_s",
              *(f"s2t.{k}_s" for k in S2T_PHASES)):
        c.setdefault(k, 0.0)
    read, write, append = PartitionStore.read, PartitionStore.write, PartitionStore.append
    build_rtree, sync = PartitionStore._build_rtree, tree_mod.sync_distance_to_many
    s2t = tree_mod.s2t_clustering

    def w_read(self, chunk_id, name):
        t0 = time.perf_counter()
        pdf = read(self, chunk_id, name)
        c["storage.read_s"] += time.perf_counter() - t0
        c["storage.read_calls"] += 1
        c["storage.rows_read"] += len(pdf)
        return pdf

    def w_write(self, chunk_id, name, members):
        t0 = time.perf_counter()
        meta = write(self, chunk_id, name, members)
        c["storage.write_s"] += time.perf_counter() - t0
        c["storage.write_calls"] += 1
        c["storage.bytes_written"] += sum(p.stat().st_size for p in Path(meta.path).iterdir())
        return meta

    def w_append(self, chunk_id, name, members):
        c["storage.append_calls"] += 1
        return append(self, chunk_id, name, members)

    def w_build_rtree(members):
        t0 = time.perf_counter()
        out = build_rtree(members)
        c["storage.rtree_build_s"] += time.perf_counter() - t0
        return out

    def w_sync(*args, **kwargs):
        t0 = time.perf_counter()
        out = sync(*args, **kwargs)
        c["insert.assign_s"] += time.perf_counter() - t0
        return out

    def w_s2t(*args, **kwargs):
        res = s2t(*args, **kwargs)
        for k in S2T_PHASES:
            c[f"s2t.{k}_s"] += res.timings[k]
        return res

    with ExitStack() as stack:
        stack.enter_context(patched(tree_mod, "s2t_clustering", w_s2t))
        stack.enter_context(patched(PartitionStore, "read", w_read))
        stack.enter_context(patched(PartitionStore, "write", w_write))
        stack.enter_context(patched(PartitionStore, "append", w_append))
        stack.enter_context(patched(PartitionStore, "_build_rtree", staticmethod(w_build_rtree)))
        stack.enter_context(patched(tree_mod, "sync_distance_to_many", w_sync))
        yield c


# -------------------------------------------------------------------- voting
def replay_voting(segments, sigma: float, cutoff: float | None, bucket_width: float):
    """Re-run the voting UDF on the driver over ``with_time_buckets`` output,
    with the index and distance names ``repro.core.voting`` calls wrapped.

    Returns the counters and the per-segment votes, aggregated as
    ``vote_segments`` does (max per voter, then sum), keyed by
    ``(traj_id, seg_id)``.
    """
    from repro.core import voting
    from repro.index.temporal import with_time_buckets

    cutoff = voting.CUTOFF_SIGMAS * sigma if cutoff is None else cutoff
    n_segments = segments.count()
    bucketed = with_time_buckets(segments, bucket_width).toPandas()
    c = {"index.queries": 0, "index.hits": 0, "index.candidates": 0,
         "voting.pairs_in_cutoff": 0}
    base_tree, mmd, kernel = voting.Rtree3D, voting.min_moving_distance, voting.vote_kernel

    class CountingRtree(base_tree):
        def query_box(self, box):
            hits = super().query_box(box)
            c["index.queries"] += 1
            c["index.hits"] += len(hits)
            return hits

    def counting_mmd(e, f):  # scores the hits on other trajectories
        c["index.candidates"] += len(e)
        return mmd(e, f)

    def counting_kernel(d, s):
        c["voting.pairs_in_cutoff"] += len(d)
        return kernel(d, s)

    with ExitStack() as stack:
        stack.enter_context(patched(voting, "Rtree3D", CountingRtree))
        stack.enter_context(patched(voting, "min_moving_distance", counting_mmd))
        stack.enter_context(patched(voting, "vote_kernel", counting_kernel))
        parts = [voting._bucket_votes(g, sigma, cutoff) for _, g in bucketed.groupby("bucket")]
    pairs = pd.concat([p for p in parts if len(p)], ignore_index=True)
    votes = (pairs.groupby(["traj_id", "seg_id", "voter"])["vote"].max()
             .groupby(["traj_id", "seg_id"]).sum())
    c["voting.segments"] = n_segments
    c["voting.bucketed_rows"] = len(bucketed)
    c["voting.dup_factor"] = len(bucketed) / max(n_segments, 1)
    c["voting.useful_ratio"] = c["voting.pairs_in_cutoff"] / max(c["index.candidates"], 1)
    return c, votes


def votes_match(replayed: pd.Series, voted) -> bool:
    """The replay's per-segment votes equal the ``vote`` column of ``voted``."""
    got = voted.select("traj_id", "seg_id", "vote").toPandas().set_index(["traj_id", "seg_id"])["vote"]
    want = replayed.reindex(got.index, fill_value=0.0)
    return bool(replayed.index.isin(got.index).all()) and bool(
        np.allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9, atol=1e-9))

#!/usr/bin/env python3
"""Benchmark of the S2T / ReTraTree / QuT stack, run from outside the program.

    python3 hermesbench/run.py --workload s2t_batch --seed 0 --seconds 10 --trace 0
    python3 hermesbench/run.py --smoke

Run from the root of a checkout.  Each run starts its own local-mode Spark
session (settings pinned in ``sparkenv.py``), sets up one workload from the
seed, and drives it as a closed loop with one client: the next op starts
when the last one has returned.  A fixed number of warm-up ops runs first
and is discarded; the ops that start within ``--seconds`` are measured,
and at least two.
Each op's output is checked after its timer stops, and a failed check
counts the op as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one more op runs with Spark's
UDF profiler and the benchmark's wrappers on, and the object holds the
per-layer metrics.  A layer a workload does not enter reads 0.  The lines
before it record the pinned settings, the machine and every op time.

``--smoke`` runs each workload for one op, untraced and traced, on a tiny
MOD in one Spark session, and exits non-zero unless every metric named in
``BENCHMARK.json`` is emitted with its unit and every check passes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from sparkenv import CORES, PINNED_ENV, ProcSampler, pinned_settings, start_spark, stop_spark

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Ops measured even when the window closes sooner: an S2T op takes most
#: of a 10 s window, and a median of one op would swing with where it ends.
MIN_MEASURED = 2

def _pin_env() -> None:
    """Re-execute with the pinned environment so the driver has it too."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def _machine() -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + p.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "mem_total_mb": mem_kb // 1024, "python": sys.version.split()[0]}


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def run_op(spark, sampler: ProcSampler, wl, i: int, traced: bool = False) -> dict:
    """One timed op, then its untimed check and per-op metrics."""
    from layers import job_counts, udf_profiler  # numpy only after the pinned re-exec

    sc = spark.sparkContext
    group = f"{wl.name}-{id(wl)}-op-{i}"
    counters: dict = {}
    rec = {"ok": False}
    sc.setJobGroup(group, group)
    mark = sampler.cpu_mark()
    out = None
    try:
        if traced:
            with udf_profiler(spark, wl.work / f"profile-{i}", counters), wl.trace(counters):
                t0 = time.perf_counter()
                out = wl.op()
                rec["s"] = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            out = wl.op()
            rec["s"] = time.perf_counter() - t0
        cpu = sampler.cpu_since(mark)
        sc.setLocalProperty("spark.jobGroup.id", None)
        rec["ok"] = bool(wl.check(out))
        if traced:
            rec["ok"] = bool(wl.after_trace(out, counters)) and rec["ok"]
        rec.update(job_counts(spark, group))
        rec["spark.udf_cpu_s"] = cpu
        rec["spark.udf_share"] = cpu / (rec["s"] * CORES)
        rec.update(wl.layers(out))
        rec.update(counters)
    except Exception:
        traceback.print_exc()
        rec.setdefault("s", float("nan"))
        rec["ok"] = False
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        if out is not None:
            wl.release(out)
    print(f"op {i} {'traced ' if traced else ''}{rec['s']:.4f}s ok={rec['ok']}", flush=True)
    return rec


def measure(spark, sampler: ProcSampler, wl_cls, *, seed: int, seconds: float, trace: bool,
            sf: float, warmup: int, spark_start_s: float, work: Path,
            min_measured: int = MIN_MEASURED) -> dict:
    """Set up one workload, run its ops, and return the result object."""
    from layers import job_floor_s

    wl = wl_cls(spark, seed, sf, work)
    t0 = time.perf_counter()
    setup_layers = wl.setup()
    setup_s = spark_start_s + time.perf_counter() - t0
    floor_s = job_floor_s(spark)  # also starts Spark's Python workers before the warm-up

    ops = [run_op(spark, sampler, wl, i) for i in range(warmup)]
    measured = []
    deadline = time.perf_counter() + seconds
    while len(measured) < min_measured or time.perf_counter() < deadline:
        measured.append(run_op(spark, sampler, wl, len(ops) + len(measured)))
    ops += measured
    traced = run_op(spark, sampler, wl, len(ops), traced=True) if trace else None
    attempted = len(ops) + (traced is not None)
    failed = sum(not r["ok"] for r in ops) + (traced is not None and not traced["ok"])

    # medians over the ops that passed their check; over every op that
    # returned when none passed, so a broken program still gets a result
    good = ([r for r in measured if r["ok"]]
            or [r for r in measured if math.isfinite(r["s"])])
    if not good:
        raise RuntimeError("every measured op raised")
    times = sorted(r["s"] for r in good)
    p50 = statistics.median(times)
    print(f"workload {wl.name} seed {seed} sf {sf}: setup {setup_s:.3f}s, "
          f"{len(measured)} measured ops after {warmup} warm-up, p50 {p50:.4f}s"
          + (f", p90 {statistics.quantiles(times, n=10)[-1]:.4f}s" if len(times) >= 100 else ""),
          flush=True)
    if not trace:
        metrics = {"setup_s": setup_s, "op_s_p50": p50,
                   "peak_rss_mb": sampler.peak_python_rss / 2**20}
    else:
        metrics = {k: v for k, v in traced.items() if k not in ("ok", "s")}
        metrics.update({k: _median(good, k) for k in good[0] if k not in ("ok", "s")})
        metrics.update(setup_layers)
        metrics["spark.job_floor_s"] = floor_s
        metrics["spark.jvm_rss_mb"] = sampler.peak_jvm_rss / 2**20
        metrics["trace.overhead_s"] = traced["s"] - p50
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def result_object(res: dict, units: dict[str, str]) -> dict:
    """The printed result: every metric of ``units``, with its unit; a
    layer the workload does not enter reads 0."""
    extra = set(res["metrics"]) - set(units)
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {k: {"value": float(res["metrics"].get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    return {**res, "metrics": metrics}


def units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    _pin_env()

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fail before starting Spark when the source is absent)
    from workloads import SCALE, SMOKE_SCALE, WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    sampler = ProcSampler().start()
    spark = None
    try:
        print(json.dumps({"machine": _machine(), "settings": pinned_settings()}), flush=True)
        t0 = time.perf_counter()
        spark = start_spark(ROOT, work)
        spark_start_s = time.perf_counter() - t0
        if args.smoke:
            return smoke(spark, sampler, WORKLOADS, SMOKE_SCALE, spark_start_s, work)
        wl_cls = WORKLOADS[args.workload]
        res = measure(spark, sampler, wl_cls, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), sf=SCALE[wl_cls.name], warmup=wl_cls.warmup,
                      spark_start_s=spark_start_s, work=work)
        result = result_object(res, units(args.trace))
    finally:
        if spark is not None:
            stop_spark(spark, sampler)
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print(json.dumps(result), flush=True)
    return 0


def smoke(spark, sampler, workloads, sf, spark_start_s, work) -> int:
    """One op per workload, untraced and traced, on a tiny MOD.

    Fails unless every op passes its check, every workload emits every
    end-to-end metric, every emitted metric is named in BENCHMARK.json and
    every per-layer metric there is measured by at least one workload.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads):
        problems.append("BENCHMARK.json workloads differ from the code's")
    layers_seen: set[str] = set()
    for name, wl_cls in workloads.items():
        for trace in (0, 1):
            res = measure(spark, sampler, wl_cls, seed=0, seconds=0, trace=bool(trace), sf=sf,
                          warmup=0, spark_start_s=spark_start_s, work=work / f"{name}-{trace}",
                          min_measured=1)
            want = units(trace)
            if trace:
                layers_seen |= set(res["metrics"])
            elif set(res["metrics"]) != set(want):
                problems.append(f"{name}: end-to-end metrics {sorted(res['metrics'])}")
            try:
                out = result_object(res, want)
            except KeyError as e:
                problems.append(f"{name} trace={trace}: {e}")
                continue
            if not out["correct"] or out["failed"]:
                problems.append(f"{name} trace={trace}: {out['failed']} failed ops")
            print(json.dumps({"workload": name, "trace": trace, **out}), flush=True)
    if missing := set(units(1)) - layers_seen:
        problems.append(f"per-layer metrics no workload measures: {sorted(missing)}")
    for p in problems:
        print("SMOKE FAIL:", p, flush=True)
    print("smoke ok" if not problems else "smoke failed", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

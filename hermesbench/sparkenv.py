"""The benchmark's pinned process environment, Spark session and /proc sampler.

Everything a run writes (Spark local dirs, JVM and Python temp files, the
ReTraTree partitions) goes under one work directory inside the checkout,
which :func:`stop_spark`'s caller removes at the end.
"""
from __future__ import annotations

import os
import shlex
import sys
import threading
import time
from pathlib import Path

#: Environment pinned for the driver and, by inheritance, the JVM and
#: Spark's Python workers.  ``run.py`` re-executes itself when any differs.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

#: Cores of the local master: ``local[min(4, nproc)]``.
CORES = min(4, os.cpu_count() or 1)

#: Fixed driver heap, never derived from machine memory.
DRIVER_MEMORY = "2g"

#: Session settings, as in the committed ``jobs/`` scripts except for the
#: shuffle-partition count, pinned to 4 so that a run fits the time budget
#: (see CHANGES.md).  The count moves an S2T op several-fold, so it never
#: floats with the machine.
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "4",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}


def pinned_settings() -> dict:
    """Every pinned knob, recorded beside each result."""
    return {
        "master": f"local[{CORES}]",
        "driver_memory": DRIVER_MEMORY,
        **SPARK_CONF,
        **{f"env.{k}": v for k, v in PINNED_ENV.items()},
    }


def start_spark(root: Path, work: Path):
    """Launch a local-mode SparkSession whose JVM and workers see only the
    checkout's ``src`` and write only under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(root / "src")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("hermesbench")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    builder = builder.config("spark.local.dir", str(work / "spark-local"))
    builder = builder.config("spark.sql.warehouse.dir", str(work / "warehouse"))
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark, sampler: "ProcSampler", timeout: float = 60.0) -> None:
    """Stop the session, the JVM and every Python worker, and wait for them."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = gateway.proc
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits on EOF
            try:
                proc.wait(timeout=timeout)
            except Exception:
                proc.kill()
                proc.wait(timeout=timeout)
        SparkContext._gateway = None
        SparkContext._jvm = None
    deadline = time.monotonic() + timeout
    while sampler.descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in sampler.descendants():
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    while sampler.descendants() and time.monotonic() < deadline + 10:
        time.sleep(0.1)


class ProcSampler:
    """Samples ``/proc`` at a fixed low rate for the driver's process tree.

    Tracks the peak summed RSS of the Python processes (the driver plus
    Spark's Python daemon and workers), the peak JVM RSS, and the CPU
    seconds each Python worker has used, so that per-op worker CPU can be
    read as a difference of two snapshots.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.root = os.getpid()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._tick = os.sysconf("SC_CLK_TCK")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.worker_cpu: dict[int, float] = {}
        self.peak_python_rss = 0
        self.peak_jvm_rss = 0

    def _procs(self) -> dict[int, tuple[int, str, float, int]]:
        """pid -> (ppid, comm, cpu seconds, rss bytes) for every process."""
        out = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as f:
                    raw = f.read()
            except OSError:
                continue
            lpar, rpar = raw.index("("), raw.rindex(")")
            rest = raw[rpar + 2:].split()
            cpu = (int(rest[11]) + int(rest[12])) / self._tick
            out[int(name)] = (int(rest[1]), raw[lpar + 1:rpar], cpu, int(rest[21]) * self._page)
        return out

    def _tree(self, procs) -> list[int]:
        children: dict[int, list[int]] = {}
        for pid, (ppid, *_) in procs.items():
            children.setdefault(ppid, []).append(pid)
        tree, stack = [], [self.root]
        while stack:
            pid = stack.pop()
            tree.append(pid)
            stack.extend(children.get(pid, ()))
        return tree

    def descendants(self) -> list[int]:
        procs = self._procs()
        return [p for p in self._tree(procs) if p != self.root]

    def sample(self) -> None:
        procs = self._procs()
        py_rss = jvm_rss = 0
        with self._lock:
            for pid in self._tree(procs):
                if pid not in procs:
                    continue
                _, comm, cpu, rss = procs[pid]
                if comm.startswith("python"):
                    py_rss += rss
                    if pid != self.root:
                        self.worker_cpu[pid] = cpu
                elif comm == "java":
                    jvm_rss += rss
            self.peak_python_rss = max(self.peak_python_rss, py_rss)
            self.peak_jvm_rss = max(self.peak_jvm_rss, jvm_rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def start(self) -> "ProcSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def cpu_mark(self) -> dict[int, float]:
        self.sample()
        with self._lock:
            return dict(self.worker_cpu)

    def cpu_since(self, mark: dict[int, float]) -> float:
        """Python-worker CPU seconds used since ``mark``."""
        self.sample()
        with self._lock:
            return sum(cpu - mark.get(pid, 0.0) for pid, cpu in self.worker_cpu.items())

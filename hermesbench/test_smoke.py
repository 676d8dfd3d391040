"""The benchmark's own test: its smoke mode, one op per workload on a tiny MOD.

    python3 -m pytest hermesbench/test_smoke.py -q

Runs ``run.py --smoke`` in a child process, so the benchmark starts and
stops its own pinned Spark session, and passes when every op's check
passes and every metric of BENCHMARK.json is emitted with its unit.
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_emits_every_metric_and_passes_every_check():
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    assert p.returncode == 0, p.stdout[-4000:] + p.stderr[-4000:]
    assert p.stdout.strip().splitlines()[-1] == "smoke ok"

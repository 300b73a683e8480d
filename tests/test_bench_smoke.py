"""Every benchmark workload still runs on the package and checks out.

Each workload declared in ``BENCHMARK.json`` runs for one short untraced
pass, so that a rename or removal in ``src/`` that breaks the benchmark
fails here.  The trace is off, so nothing is written.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result

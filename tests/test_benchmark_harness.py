"""
A smoke run of the benchmark harness: one traced pass over every workload
and the probes, as ``python3 perfbench/run.py --workload paper-check
--trace 1`` from the repository root.  The harness exits 1 on a failed check
and 2 on a child that fails or loses a span, and prints its result as the
last stdout line, so a child that prints after its result line or a lost
span fails here before any timed run.  One pass does not catch a fault that
shows in only some runs.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_a_traced_benchmark_run_exits_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-check", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)

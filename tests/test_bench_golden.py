"""The benchmark's golden outputs, checked through its command line.

`bench/run.py` compares a few decoded documents and an evaluation report
of the default-seed full-size inputs with `bench/golden/` whatever the
run's size, so a short smoke run is enough for a change that alters
decoded outputs or scores to fail here, not only in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["decode-wide-beam", "evaluate-corpus"])
def test_benchmark_smoke_run_matches_golden_outputs(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "smoke", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr

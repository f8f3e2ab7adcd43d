"""Tests of the benchmark itself (not of factbeam):

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import factbeam.decoder  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.write_inputs(name, "smoke", seed, tmp_path / label)
    a, b, c = (_files(tmp_path / label) for label in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_entity_names_are_distinct_and_about_20_bytes():
    names = generate.entity_names(random.Random(1), 5000)
    assert len(set(names)) == len(names)
    assert 18 <= statistics.mean(len(n.encode()) for n in names) <= 24


def test_fact_counts_are_balanced_in_every_block():
    counts = generate.fact_counts(random.Random(2), 24, 8)
    for start in range(0, 24, 8):
        assert sorted(counts[start:start + 8]) == list(range(1, 9))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_outputs(name, tmp_path):
    workloads.write_inputs(name, "smoke", 3, tmp_path)
    units = workloads.WORKLOADS[name]["smoke"]["trace_docs"]
    plain = workloads.run(name, "smoke", tmp_path, 0.0, max_units=units)
    original = factbeam.decoder.allowed_tokens
    tracer = Tracer()
    api = tracer.install()
    try:
        traced = workloads.run(name, "smoke", tmp_path, 0.0, api, tracer, max_units=units)
    finally:
        tracer.uninstall()
    assert factbeam.decoder.allowed_tokens is original
    assert plain.failed == traced.failed == 0
    assert traced.output == plain.output
    calls, total, self_time = tracer.totals()["fileio.load_catalog"]
    assert calls == 1 and 0 <= self_time <= total


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    totals = tracer.totals()
    assert totals["inner"][0] == 2
    calls, total, self_time = totals["outer"]
    assert calls == 1 and total >= 0.04 and self_time < 0.01


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_finishes_in_seconds(name, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--size", "smoke",
         "--seconds", "1", "--seed", "4", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert time.perf_counter() - start < 60


def test_default_run_covers_the_listed_workloads():
    assert run.listed_workloads() == [w["name"] for w in CONFIG["workloads"]]
    assert set(run.listed_workloads()) <= set(workloads.WORKLOADS)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decode-wide-beam", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corrupted_golden_is_reported_not_raised(tmp_path):
    golden = workloads.golden_path("decode-wide-beam")
    truncated = tmp_path / golden.name
    truncated.write_text(golden.read_text(encoding="utf-8")[:-40], encoding="utf-8")
    assert workloads.golden_problems("decode-wide-beam", tmp_path / "w1") == []
    problems = workloads.golden_problems("decode-wide-beam", tmp_path / "w2", truncated)
    assert problems and "unreadable" in problems[0]


def test_changed_golden_value_is_reported(tmp_path):
    golden = workloads.golden_path("evaluate-corpus")
    report = json.loads(golden.read_text(encoding="utf-8"))
    report["micro"]["f1"] += 1e-6
    changed = tmp_path / golden.name
    changed.write_text(json.dumps(report), encoding="utf-8")
    problems = workloads.golden_problems("evaluate-corpus", tmp_path / "w", changed)
    assert len(problems) == 1 and problems[0].startswith("$.micro.f1: ")


def test_compare_json_tolerates_only_tiny_float_differences():
    assert workloads.compare_json({"x": [1.0, "a"]}, {"x": [1.0 + 1e-10, "a"]}) == []
    assert workloads.compare_json({"x": 1.0}, {"x": 1.0 + 1e-8})
    assert workloads.compare_json({"x": 1.0}, {"y": 1.0})
    assert workloads.compare_json([1.0], None)
    assert workloads.compare_json({"x": "a"}, {"x": ["a"]})


def test_latency_tail_has_ten_samples_beyond_it():
    samples = [i / 1000 for i in range(1, 31)]  # 1..30 ms
    p50, tail, pct = run.latency_summary(samples)
    assert p50 == pytest.approx(15.5)
    assert tail == pytest.approx(20.0)  # 21..30 ms lie beyond it
    assert pct == pytest.approx(100 * 19 / 29)
    assert run.latency_summary(samples[:20])[1:] == (20.0, 100.0)

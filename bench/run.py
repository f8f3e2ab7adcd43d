"""Benchmark entry point: one seeded workload, or each workload
BENCHMARK.json lists in a process of its own.

    python3 bench/run.py --workload decode-large-catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1

Run from the repository root (any directory works; paths are resolved
from this file). The package is imported from `src/` next to `bench/`;
without it the run stops with exit code 2 before measuring anything.

With `--trace 0` the run measures the end-to-end metrics. With
`--trace 1` it runs the workload untraced and then traced over a fixed
number of documents (or evaluation passes), reports the per-layer
metrics and the tracing overhead, and writes the spans to
`.bench_run/trace/`. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_run"
WORKLOAD_NAMES = ("decode-large-catalog", "decode-wide-beam", "evaluate-corpus")


def _import_package() -> None:
    """Put `src/` first on the path and refuse any other copy of factbeam."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import factbeam
    except ImportError as exc:
        print(f"bench: cannot import factbeam from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(factbeam.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: factbeam imported from {factbeam.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def latency_summary(latencies_s: list[float]) -> tuple[float, float, float]:
    """(median ms, tail ms, tail percentile). The tail is the highest
    sample with at least ten samples above it; with fewer than 21 samples
    that would not lie above the median, and the tail is the maximum."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    p50 = statistics.median(ordered) * 1e3
    if n < 21:
        return p50, ordered[-1] * 1e3, 100.0
    return p50, ordered[n - 11] * 1e3, 100.0 * (n - 11) / (n - 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(out) -> tuple[dict, list[str]]:
    p50, tail, pct = latency_summary(out.latencies_s)
    metrics = {
        "docs_per_s": (out.units / out.busy_s, "docs/s"),
        "doc_latency_p50_ms": (p50, "ms"),
        "doc_latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(out.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"doc_latency_tail_ms is p{pct:.1f} of {len(out.latencies_s)} samples",
        f"setup_s is the median of {len(out.setup_s)} set-ups",
    ]
    return metrics, notes


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, traced, untraced) -> tuple[dict, list[str]]:
    """Per-layer metrics: totals over one traced set-up plus the traced
    loop, and the tracing overhead measured on the same documents."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def excl(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    m = min(len(traced.latencies_s), len(untraced.latencies_s))
    traced_dps = 1.0 / statistics.median(traced.latencies_s[:m])
    untraced_dps = 1.0 / statistics.median(untraced.latencies_s[:m])
    decode_s = incl("decoder.decode")
    eval_s = traced.busy_s if calls("decoder.decode") == 0 else 0.0
    candidates = tracer.candidates
    bootstrap_s = incl("metrics.bootstrap_ci")
    attribution_s = incl("attribution.nel_rc_errors") + incl("attribution.recall_error")
    metrics = {
        "trace.units": (traced.attempted, "count"),
        "catalog.len_calls": (calls("catalog.len"), "count"),
        "catalog.len_s": (incl("catalog.len"), "s"),
        "catalog.len_share": (_share(incl("catalog.len"), decode_s), "share"),
        "catalog.children_calls": (calls("catalog.children"), "count"),
        "catalog.children_s": (incl("catalog.children"), "s"),
        "catalog.build_trie_s": (incl("catalog.build_trie"), "s"),
        "catalog.trie_nodes": (traced.sizes.get("trie_nodes", 0), "count"),
        "catalog.trie_bytes": (traced.sizes.get("trie_bytes", 0), "B"),
        "fileio.save_trie_s": (incl("fileio.save_trie"), "s"),
        "fileio.load_trie_s": (incl("fileio.load_trie"), "s"),
        "fileio.trie_file_bytes": (traced.sizes.get("trie_file_bytes", 0), "B"),
        "fileio.load_catalog_s": (incl("fileio.load_catalog"), "s"),
        "fileio.read_jsonl_s": (incl("fileio.read_jsonl"), "s"),
        "fileio.write_jsonl_s": (incl("fileio.write_jsonl"), "s"),
        "fileio.write_json_s": (incl("fileio.write_json"), "s"),
        "tokens.encode_calls": (calls("tokens.encode"), "count"),
        "tokens.encode_s": (incl("tokens.encode"), "s"),
        "scorers.calls": (calls("scorers.next_log_probs"), "count"),
        "scorers.s": (incl("scorers.next_log_probs"), "s"),
        "scorers.share": (_share(incl("scorers.next_log_probs"), decode_s), "share"),
        "scorers.calls_per_doc": (_share(calls("scorers.next_log_probs"), calls("decoder.decode")), "1/doc"),
        "scorers.train_ngram_s": (incl("scorers.train_ngram"), "s"),
        "decoder.decode_s": (decode_s, "s"),
        "decoder.allowed_tokens_calls": (calls("decoder.allowed_tokens"), "count"),
        "decoder.allowed_tokens_self_s": (excl("decoder.allowed_tokens"), "s"),
        "decoder.candidates": (candidates, "count"),
        "decoder.kept_ratio": (_share(calls("scorers.next_log_probs"), candidates), "ratio"),
        "decoder.select_self_s": (excl("decoder.decode"), "s"),
        "decoder.dead_ends": (tracer.dead_ends, "count"),
        "linearize.parse_calls": (calls("linearize.parse"), "count"),
        "linearize.parse_s": (incl("linearize.parse"), "s"),
        "linearize.linearize_s": (incl("linearize.linearize"), "s"),
        "metrics.micro_s": (incl("metrics.micro_scores"), "s"),
        "metrics.macro_s": (incl("metrics.macro_scores"), "s"),
        "metrics.per_relation_calls": (calls("metrics.per_relation_scores"), "count"),
        "metrics.per_relation_s": (incl("metrics.per_relation_scores"), "s"),
        "metrics.bucketed_f1_s": (incl("metrics.bucketed_f1"), "s"),
        "metrics.bootstrap_s": (bootstrap_s, "s"),
        "metrics.bootstrap_share": (_share(bootstrap_s, eval_s), "share"),
        "metrics.bootstrap_statistic_calls": (calls("metrics.bootstrap_statistic"), "count"),
        "attribution.match_calls": (calls("attribution.match"), "count"),
        "attribution.match_s": (incl("attribution.match"), "s"),
        "attribution.nel_rc_s": (incl("attribution.nel_rc_errors"), "s"),
        "attribution.recall_error_s": (incl("attribution.recall_error"), "s"),
        "attribution.share": (_share(attribution_s, eval_s), "share"),
        "trace.untraced_docs_per_s": (untraced_dps, "docs/s"),
        "trace.traced_docs_per_s": (traced_dps, "docs/s"),
        "trace.overhead_docs_per_s": (untraced_dps - traced_dps, "docs/s"),
    }
    notes = [
        f"per-layer totals cover one set-up and {traced.attempted} traced "
        + ("documents" if calls("decoder.decode") else "evaluation passes"),
        f"tracing overhead: median time per document over the first {m} units, "
        f"{untraced_dps:.4g} -> {traced_dps:.4g} docs/s",
    ]
    return metrics, notes


def run_one(args) -> int:
    import workloads
    from spans import Tracer

    work = WORK_ROOT / f"{args.workload}-{args.size}-seed{args.seed}-pid{os.getpid()}"
    try:
        workloads.write_inputs(args.workload, args.size, args.seed, work)
        if args.trace:
            untraced = workloads.run(args.workload, args.size, work, args.seconds)
            tracer = Tracer()
            api = tracer.install()
            try:
                traced = workloads.run(
                    args.workload, args.size, work, args.seconds, api, tracer,
                    max_units=workloads.WORKLOADS[args.workload][args.size]["trace_docs"],
                )
            finally:
                tracer.uninstall()
            tracer.write(WORK_ROOT / "trace" / f"{args.workload}-{args.size}-seed{args.seed}.npz")
            metrics, notes = per_layer(tracer, traced, untraced)
            outcome = traced
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
            outcome.problems += untraced.problems
            common = min(len(traced.output), len(untraced.output))
            if traced.output[:common] != untraced.output[:common]:
                outcome.fail("traced and untraced runs wrote different outputs")
        else:
            outcome = workloads.run(
                args.workload, args.size, work, args.seconds, repeat_setup=True
            )
            metrics, notes = end_to_end(outcome)
        if workloads.golden_path(args.workload):
            outcome.attempted += 1
            problems = workloads.golden_problems(args.workload, work / "golden")
            if problems:
                outcome.fail("golden output differs: " + "; ".join(problems[:5]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"seconds {args.seconds} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(f"  fail_ratio: {outcome.failed / outcome.attempted:.4g} "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for problem in outcome.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def listed_workloads() -> list[str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in config["workloads"]]


def run_listed(args) -> int:
    """Each listed workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in listed_workloads():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="default: each workload BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate bench/golden/ from the current package and exit")
    args = parser.parse_args(argv)
    _import_package()
    if args.write_golden:
        import workloads

        for name in WORKLOAD_NAMES:
            if workloads.golden_path(name):
                work = WORK_ROOT / f"golden-{name}-pid{os.getpid()}"
                try:
                    print(workloads.write_golden(name, work))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload is None:
        return run_listed(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

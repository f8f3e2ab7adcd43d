"""Repeat the benchmark over several seeds and summarise it.

    python3 bench/baseline.py --runs 10 [--workload NAME ...] [--trace] [--out bench/baseline.json]

Each run is a fresh `bench/run.py` process with its own seed (1..runs).
For every end-to-end metric the summary gives the median and the
interquartile range as a share of the median, the spread the benchmark's
bounds must cover. With `--trace`, one traced run per workload (seed 1)
adds the per-layer metrics. With `--out`, the summary is written
together with the machine it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def machine() -> dict:
    import numpy

    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*",
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--commit", help="commit the numbers were measured at")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workload or [w["name"] for w in config["workloads"]]
    report: dict = {"commit": args.commit, "machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in names:
        results = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {
            "why": workloads.WORKLOADS[workload]["why"],
            "params": workloads.WORKLOADS[workload]["full"],
            "seeds": list(range(1, args.runs + 1)),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "run_s": [round(r["run_s"], 1) for r in results],
            "end_to_end": summarise(results),
        }
        if args.trace:
            entry["per_layer"] = run_once(workload, 1, seconds, 1)["metrics"]
        report["workloads"][workload] = entry
        print(f"{workload}: {entry['failed']} of {entry['attempted']} failed, "
              f"runs took {min(entry['run_s'])}-{max(entry['run_s'])} s")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["iqr_share"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, "
                  f"IQR {100 * s['iqr_share']:.2f}% (bound {bound}){flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

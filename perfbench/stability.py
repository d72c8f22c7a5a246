"""Repeat a workload over several seeds and report each metric's spread.

    python3 perfbench/stability.py --workload NAME --runs 10 --first-seed 1 \
        --seconds 30 [--traced]

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. For end-to-end metrics the spread is set against the
bound in BENCHMARK.json; a spread above a third of its bound is flagged. With
``--traced`` every seed also runs with ``--trace 1``, and the tracing overhead
is reported as the median of ``trace.report_s`` over the median of
``report_s``, minus one.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["speed"] = [line for line in proc.stderr.splitlines() if " rounds; " in line]
    return result


def summarise(results: list, bounds: dict) -> list:
    lines = [f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"{bound:6.3f}" + ("  SPREAD > BOUND/3" if spread > bound / 3 else "")
        lines.append(f"{name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {flag}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    plain, traced = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        # alternate which mode runs first, so drift over time hits both alike
        modes = (0, 1) if seed % 2 else (1, 0)
        for trace in modes if args.traced else (0,):
            began = time.perf_counter()
            result = run_once(args.workload, seed, seconds, trace)
            (traced if trace else plain).append(result)
            shares = f"{result['failed']}/{result['attempted']}"
            report = result["metrics"].get("report_s", result["metrics"].get("trace.report_s"))["value"]
            print(f"seed {seed} trace {trace} ({time.perf_counter() - began:.1f} s wall): "
                  f"correct={result['correct']} failed/attempted={shares} report_s={report:.4g}; "
                  + "; ".join(result["speed"]), flush=True)

    print(f"\n{args.workload}: {len(plain)} runs of {seconds} s")
    print("\n".join(summarise(plain, bounds)))
    shares = sorted({r["failed"] / r["attempted"] for r in plain})
    print(f"failed share: {shares}; all correct: {all(r['correct'] for r in plain + traced)}")
    if traced:
        print(f"\n{args.workload} traced: {len(traced)} runs")
        print("\n".join(summarise(traced, {})))
        untraced = statistics.median(r["metrics"]["report_s"]["value"] for r in plain)
        with_trace = statistics.median(r["metrics"]["trace.report_s"]["value"] for r in traced)
        print(f"tracing overhead on report_s: {with_trace / untraced - 1:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

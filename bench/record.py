"""Record the benchmark's results for one commit in a JSON file.

    python3 bench/record.py --out BENCH_<n>.json

Run from anywhere in the repository. For every workload that
``BENCHMARK.json`` declares, it runs ``perfbench/run.py`` on seed 1 for
``BENCHMARK.json``'s run length, twice, one run after another: untraced
(``--trace 0``, the end-to-end metrics) and traced (``--trace 1``, the
per-layer metrics). It writes the JSON line each run printed, together with
the commit, whether the working tree had changes (to tracked files, or
untracked files under ``src/``), the Python and numpy versions, the seed, the
run length and the machine-speed factor of each run: the median speed-probe
kernel time over its reference time, as ``perfbench/run.py`` reports it on
standard error (1.0 is the reference machine in its fast spells). Per-layer
times are already in reference seconds; end-to-end times are wall seconds.
A run that exits non-zero, or prints no JSON line or no speed summary, stops
the recording with its standard error.
"""
from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SPEED = re.compile(r"(\d+) rounds; median kernel ([\d.]+) ms \(reference ([\d.]+) ms\)")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run(workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    speed = SPEED.search(done.stderr)
    if done.returncode != 0 or not lines or not speed:
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    return {
        "workload": workload,
        "seed": SEED,
        "trace": trace,
        "rounds": int(speed.group(1)),
        "speed_factor": float(speed.group(2)) / float(speed.group(3)),
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            runs.append(run(workload, seconds, trace))
            print(f"{workload} trace {trace}: {json.dumps(runs[-1]['result'])}", file=sys.stderr)
    tracked = git("status", "--porcelain", "--untracked-files=no")
    new_sources = git("status", "--porcelain", "--untracked-files=all", "--", "src")
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(tracked or new_sources),
        "seeds": [SEED],
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

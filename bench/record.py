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

It also times one ``bayes --paper-config --seed 1`` run per variant (normal
and robust) in a fresh Python process on perfbench's seed-1 bayes table of
that variant, and records its wall seconds, start-up and import included,
with the machine-speed factor of that run: while it runs, this process times
perfbench's speed-probe kernel on the probe's timer, and the factor is the
median kernel time over its reference time, as for the workload runs.
The draws depend only on the seed, so a second, untimed run of the same
command adds ``--save``; ``min_bulk_ess`` is the smallest bulk ESS of
perfbench's reference ``convergence`` over every scalar parameter of those
draws, ``ess_per_s`` is ``min_bulk_ess`` over ``wall_s``, and
``min_alpha_diff_ess`` is the smallest such ESS over the differences
alpha_i - alpha_j of every pair of algorithms, which the ROPE matrix reads.
The ROPE fields read the indicator chains |alpha_i - alpha_j| < 0.0112 (the
default ``--rope``) of the pairs whose pooled share p of draws inside the
ROPE lies in the band ``ROPE_BAND``, (0.02, 0.98): ``min_rope_ess`` is the
smallest bulk ESS of those chains, and ``max_rope_mcse`` the largest
Monte Carlo standard error sqrt(p (1 - p) / ESS) of their shares; both are
null when no pair's share lies in the band.
A run that exits non-zero, or prints no JSON line or no speed summary, stops
the recording with its standard error.

``source_lines`` counts the lines of each ``src/benchstat/*.py`` module and
of all of them: ``physical`` lines, and ``code`` lines, those that are not
blank and do not start with ``#`` once stripped (docstrings count as code).

    python3 bench/record.py --against COMMIT --pairs N --out PAIRS.json

instead sets the working tree against COMMIT in alternating pairs.  It
extracts COMMIT's ``src/`` (``git archive COMMIT src | tar -x``) into one
temporary directory and copies the working tree's ``src/`` into another,
each beside HEAD's ``perfbench/``, so both sides run the same benchmark code
from paths of the same length, and runs each of ``BENCHMARK.json``'s workloads untraced,
once on each tree per pair: pair ``i`` (from 0) runs seed ``2 + i`` on both trees,
the baseline first in even pairs and the change first in odd ones.  Per workload and end-to-end metric it
records each side's median and quartiles, the median ratio (change over
baseline), the pairs the change won (ties count for neither) and whether the
gain is clear: won in at least nine tenths of the pairs, with the medians
further apart than the baseline's quartiles.  Against the metric's
``BENCHMARK.json`` bound, a share of the baseline median, it also records
``within_bound``, true when the change's median is worse than the
baseline's by no more than that share, and ``unresolved``, true when the
baseline's quartile distance exceeds that share of its median and not every
change run beats every baseline run.  Per workload and side it records the
``attempted`` and ``failed`` operations summed over the runs, and whether
every run read ``correct: true``.  Each pair then times one
``bayes --paper-config --seed 1`` run per variant on each tree, in the
workloads' alternating order, and records each side's ``wall_s`` the same
way; the seed is fixed, so ``min_bulk_ess`` (with ``ess_per_s``,
``min_alpha_diff_ess`` and the ROPE fields) is taken once per side, in the
first pair.  Every run's JSON line is kept, and ``source_lines`` is counted
for both trees.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import reference  # noqa: E402  perfbench's independent statistics
import tables  # noqa: E402  perfbench's seeded input tables
from benchstat.banova import load_draws  # noqa: E402
from speed import KERNEL_REF_S, SpeedProbe  # noqa: E402  perfbench's machine-speed probe

SEED = 1
ROPE = 0.0112  # bayes's default --rope half-width
ROPE_BAND = (0.02, 0.98)  # the pooled ROPE shares whose indicator chains the ROPE fields read
SPEED = re.compile(r"(\d+) rounds; median kernel ([\d.]+) ms \(reference ([\d.]+) ms\)")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run(workload: str, seconds: float, trace: int, seed: int = SEED, root: Path = ROOT) -> dict:
    """One ``perfbench/run.py`` run of the checkout at ``root``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    speed = SPEED.search(done.stderr)
    if done.returncode != 0 or not lines or not speed:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {done.returncode}:\n{done.stderr}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "rounds": int(speed.group(1)),
        "speed_factor": float(speed.group(2)) / float(speed.group(3)),
        "result": json.loads(lines[-1]),
    }


def paper_config_run(variant: str, root: Path = ROOT, with_ess: bool = True) -> dict:
    """One timed ``bayes --paper-config`` run of the checkout at ``root``; with
    ``with_ess``, also the ESS of the draws of an untimed ``--save`` run."""
    with tempfile.TemporaryDirectory() as work:
        table = Path(work) / "table.csv"
        table.write_text(tables.bayes_table(SEED, variant == "robust"))
        argv = [sys.executable, "-m", "benchstat.cli", "bayes", str(table), "--variant", variant,
                "--paper-config", "--seed", str(SEED), "--out", str(Path(work) / "report.csv")]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

        def bayes(*extra):
            done = subprocess.run([*argv, *extra], cwd=root, env={**os.environ, "PYTHONPATH": path},
                                  capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"bayes --variant {variant} --paper-config in {root} exited "
                                 f"{done.returncode}:\n{done.stderr}")

        probe = SpeedProbe()
        probe.start()
        start = time.perf_counter()
        bayes()
        seconds = time.perf_counter() - start
        probe.stop()
        entry = {"variant": variant, "seed": SEED, "wall_s": seconds,
                 "speed_factor": statistics.median(probe.samples) / KERNEL_REF_S}
        if with_ess:
            saved = Path(work) / "draws.bin"
            bayes("--save", str(saved))
            draws = load_draws(saved)
            ess = min(reference.convergence(np.asarray(chains))[1] for _, chains in draws.scalar_chains())
            alpha = draws.alpha
            diff_ess, rope = math.inf, []  # rope: (share, ESS) of each indicator chain in the band
            for i, j in itertools.combinations(range(alpha.shape[1]), 2):
                diff = alpha[:, i] - alpha[:, j]
                diff_ess = min(diff_ess, reference.convergence(diff)[1])
                inside = (np.abs(diff) < ROPE).astype(float)
                share = inside.mean()
                if ROPE_BAND[0] < share < ROPE_BAND[1]:
                    rope.append((share, reference.convergence(inside)[1]))
            entry.update(min_bulk_ess=ess, ess_per_s=ess / seconds, min_alpha_diff_ess=diff_ess,
                         min_rope_ess=min((e for _, e in rope), default=None),
                         max_rope_mcse=max((math.sqrt(p * (1 - p) / e) for p, e in rope), default=None))
    return entry


def source_lines(root: Path = ROOT) -> dict:
    modules = {}
    for path in sorted((root / "src" / "benchstat").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        code = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
        modules[path.name] = {"physical": len(lines), "code": len(code)}
    totals = {key: sum(m[key] for m in modules.values()) for key in ("physical", "code")}
    return {"modules": modules, **totals}


def summarize(baseline: list, change: list, better: str, bound: float | None = None) -> dict:
    """Each side's median and quartiles, the median ratio, and the pairs won;
    with a ``bound``, also whether the change is within it and whether the
    baseline's spread leaves the comparison unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    q_base, q_change = np.percentile(baseline, [25, 50, 75]), np.percentile(change, [25, 50, 75])
    wins = sum(sign * (c - b) > 0 for b, c in zip(baseline, change))
    summary = {
        "better": better,
        "baseline": {"median": q_base[1], "quartiles": [q_base[0], q_base[2]]},
        "change": {"median": q_change[1], "quartiles": [q_change[0], q_change[2]]},
        "median_ratio": q_change[1] / q_base[1] if q_base[1] else None,
        "wins": wins,
        "pairs": len(baseline),
        "clear_gain": bool(wins >= 0.9 * len(baseline)
                           and sign * (q_change[1] - q_base[1]) > q_base[2] - q_base[0]),
    }
    if bound is not None:
        summary["within_bound"] = bool(sign * (q_change[1] - q_base[1]) >= -bound * abs(q_base[1]))
        summary["unresolved"] = bool(q_base[2] - q_base[0] > bound * abs(q_base[1])
                                     and min(sign * c for c in change) <= max(sign * b for b in baseline))
    return summary


def paired(benchmark: dict, commit: str, pairs: int) -> dict:
    """Alternating untraced runs of the working tree and of ``commit``'s ``src/``."""
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    results = {}
    with tempfile.TemporaryDirectory() as base:
        # both trees at paths of one length: the environment's size and the
        # working directory shift a process's memory layout, and so its speed
        roots = {"baseline": Path(base) / "old", "change": Path(base) / "new"}
        shutil.copytree(ROOT / "src", roots["change"] / "src", ignore=shutil.ignore_patterns("__pycache__"))
        roots["baseline"].mkdir()
        for root, tree, path in ((roots["baseline"], commit, "src"), (roots["baseline"], "HEAD", "perfbench"),
                                 (roots["change"], "HEAD", "perfbench")):
            archive = subprocess.run(["git", "archive", tree, path], cwd=ROOT, capture_output=True,
                                     check=True).stdout
            subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for i, seed in enumerate(range(SEED + 1, SEED + 1 + pairs)):
                order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(workload, seconds, 0, seed, roots[side])
                runs.append(pair)
                values = {side: pair[side]["result"]["metrics"]["report_s"]["value"] for side in order}
                print(f"{workload} pair {i + 1}/{pairs} seed {seed}: report_s baseline "
                      f"{values['baseline']:.3f}, change {values['change']:.3f}", file=sys.stderr)
            sides = {side: [pair[side]["result"] for pair in runs] for side in ("baseline", "change")}
            results[workload] = {
                "operations": {
                    side: {"attempted": sum(r["attempted"] for r in done), "failed": sum(r["failed"] for r in done),
                           "all_correct": all(r["correct"] for r in done)}
                    for side, done in sides.items()
                },
                "metrics": {
                    name: summarize(*([r["metrics"][name]["value"] for r in sides[side]] for side in sides),
                                    better, bound)
                    for name, (better, bound) in metrics.items()
                },
                "runs": runs,
            }
        paper = {variant: [] for variant in ("normal", "robust")}
        for i in range(pairs):
            order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
            for variant, runs in paper.items():
                runs.append({"first": order[0]})
                for side in order:
                    runs[-1][side] = paper_config_run(variant, roots[side], with_ess=i == 0)
                print(f"bayes --paper-config {variant} pair {i + 1}/{pairs}: wall_s baseline "
                      f"{runs[-1]['baseline']['wall_s']:.2f}, change {runs[-1]['change']['wall_s']:.2f}",
                      file=sys.stderr)
        paper_config = {
            variant: {
                "wall_s": summarize(*([pair[side]["wall_s"] for pair in runs] for side in ("baseline", "change")),
                                    "lower"),
                **{field: {side: runs[0][side][field] for side in ("baseline", "change")}
                   for field in ("min_bulk_ess", "min_alpha_diff_ess", "min_rope_ess", "max_rope_mcse")},
                "runs": runs,
            }
            for variant, runs in paper.items()
        }
        lines = {side: source_lines(root) for side, root in roots.items()}
    return {"workloads": results, "paper_config": paper_config, "source_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--against", metavar="COMMIT", help="set the working tree against COMMIT in pairs")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload with --against")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    tracked = git("status", "--porcelain", "--untracked-files=no")
    new_sources = git("status", "--porcelain", "--untracked-files=all", "--", "src")
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(tracked or new_sources),
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }
    if args.against:
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
        record.update(against=git("rev-parse", args.against),
                      **paired(benchmark, args.against, args.pairs))
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        return 0
    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            runs.append(run(workload, seconds, trace))
            print(f"{workload} trace {trace}: {json.dumps(runs[-1]['result'])}", file=sys.stderr)
    paper_config = []
    for variant in ("normal", "robust"):
        entry = paper_config_run(variant)
        paper_config.append(entry)
        print(f"bayes --paper-config {variant}: {entry['wall_s']:.2f} s, speed factor {entry['speed_factor']:.3f}, "
              f"min bulk ESS {entry['min_bulk_ess']:.0f}, min alpha-difference ESS "
              f"{entry['min_alpha_diff_ess']:.0f}, min ROPE ESS {entry['min_rope_ess']}, max ROPE MCSE "
              f"{entry['max_rope_mcse']}", file=sys.stderr)
    record.update(seeds=[SEED], runs=runs, paper_config=paper_config, source_lines=source_lines())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

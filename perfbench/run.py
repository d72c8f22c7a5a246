"""Benchmark of the benchstat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's input tables from
``--seed``, drives ``benchstat.cli.main(argv)`` in-process on them for about
``--seconds`` seconds of whole rounds, checks every report against the
benchmark's own computations (``reference.py``), and prints one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
wrapped module attributes (``spans.py``) with ``--trace 1``. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import reference as ref
import tables
from spans import COUNTS, TIMED_METRICS, Tracer
from speed import KERNEL_REF_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
POOL = 6  # distinct tables per freq-sweep run, cycled

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tables_per_s": "tables/s",
    "report_s": "s",
    "output_mb": "MB",
}
SCALED = set(TIMED_METRICS) | {"cli.self_s"}  # layer times, in reference seconds
PER_LAYER = {
    **{m: "s" for m in TIMED_METRICS},
    **{m: "count" for m, _ in COUNTS.values()},
    "data.ingest_rows_per_s": "rows/s",
    "banova.chain_iter_us": "us",
    "banova.draws_bytes": "bytes",
    "banova.min_bulk_ess": "count",
    "banova.ess_per_s": "1/s",
    "cli.self_s": "s",
    "trace.report_s": "s",
}


class Workload:
    """Shared set-up, round loop and bookkeeping; subclasses define a round."""

    def __init__(self, cli, seed: int, work: Path, speed: SpeedProbe, tracer: Tracer | None):
        self.cli = cli
        self.seed = seed
        self.work = work
        self.speed = speed
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.mismatches = []
        self.rounds = []  # per round: dict of samples

    # -- driving the program ------------------------------------------------

    def path(self, name: str) -> str:
        return str(self.work / name)

    def call(self, argv: list, timed: bool = True) -> tuple:
        """Run one CLI command; returns (exit code, reference seconds, stderr text).

        Untimed calls (probes, warm-up) stay outside the tracer's spans.
        """
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            first_sample = len(self.speed.samples)
            start = self.speed.clock()
            if self.tracer is not None and timed:
                code = self.tracer.command(argv[0], lambda: self.cli.main(argv))
            else:
                code = self.cli.main(argv)
            seconds = (self.speed.clock() - start) * self.speed.factor_since(first_sample)
        return code, seconds, err.getvalue()

    def op(self, argv: list, check=None) -> float:
        """One counted operation; a zero exit code runs ``check()``."""
        self.attempted += 1
        code, seconds, err = self.call(argv)
        if code != 0:
            self.failed += 1
            print(f"{argv[0]} exited {code}: {err.strip()}", file=sys.stderr)
        elif check is not None:
            try:
                check()
            except Exception as exc:  # a report that cannot be parsed is wrong too
                self.mismatches.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        return seconds

    def size(self, *names) -> int:
        return sum(os.path.getsize(self.path(n)) for n in names)

    # -- set-up and measurement ---------------------------------------------

    def setup(self) -> float:
        """Median over repeats of: fresh-interpreter import + inputs + warm-up.

        Each repeat is scaled to reference seconds like a round.
        """
        samples = []
        self.speed.start()
        try:
            for _ in range(SETUP_REPEATS):
                first_sample = len(self.speed.samples)
                start = self.speed.clock()
                subprocess.run(
                    [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import benchstat.cli",
                     str(SRC)],
                    check=True,
                )
                self.write_inputs()
                self.warm_up()
                samples.append((self.speed.clock() - start) * self.speed.factor_since(first_sample))
        finally:
            self.speed.stop()
        self.prepare_checks()
        return statistics.median(samples)

    def measure(self, seconds: float):
        """Whole rounds until the next would end after ``seconds``.

        Layer times from the trace are scaled to reference seconds by the
        speed samples of their round.
        """
        start = time.perf_counter()
        index = 0
        self.speed.start()
        try:
            while True:
                began = time.perf_counter()
                first_span = len(self.tracer.spans) if self.tracer else 0
                first_sample = len(self.speed.samples)
                if self.tracer:
                    self.tracer.request = index
                sample = self.round(index)
                if self.tracer:
                    factor = self.speed.factor_since(first_sample)
                    layers = self.tracer.totals(first_span, len(self.tracer.spans))
                    sample["layers"] = {
                        name: value * factor if name in SCALED else value for name, value in layers.items()
                    }
                self.rounds.append(sample)
                index += 1
                now = time.perf_counter()
                if now - start + (now - began) > seconds:
                    break
        finally:
            self.speed.stop()

    def speed_summary(self) -> str:
        kernel = statistics.median(self.speed.samples)
        return f"{len(self.rounds)} rounds; median kernel {kernel * 1e3:.3f} ms (reference {KERNEL_REF_S * 1e3:.3f} ms)"

    def end_to_end(self, setup_s: float) -> dict:
        command_s = sum(r["command_s"] for r in self.rounds)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tables_per_s": len(self.rounds) / command_s,
            "report_s": statistics.median(r["report_s"] for r in self.rounds),
            "output_mb": statistics.median(r["output_bytes"] for r in self.rounds) / 1e6,
        }

    def per_layer(self) -> dict:
        values = {name: [] for name in PER_LAYER}
        for r in self.rounds:
            layers = dict(r["layers"])
            layers["data.ingest_rows_per_s"] = _ratio(layers["data.ingest_rows"], layers["data.ingest_s"])
            layers["banova.chain_iter_us"] = 1e6 * _ratio(layers["banova.run_chains_s"], layers["banova.chain_iters"])
            layers["banova.draws_bytes"] = r.get("draws_bytes", 0)
            layers["banova.min_bulk_ess"] = r.get("min_bulk_ess", 0.0)
            layers["banova.ess_per_s"] = _ratio(r.get("min_bulk_ess", 0.0), r["report_s"])
            layers["trace.report_s"] = r["report_s"]
            for name in values:
                values[name].append(layers[name])
        return {name: statistics.median(v) for name, v in values.items()}

    # -- per workload -------------------------------------------------------

    def write_inputs(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Reference computations that depend only on the inputs."""

    def round(self, index: int) -> dict:
        raise NotImplementedError


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class FreqSweep(Workload):
    """rank (+ CSV/SVG heatmaps), nhst, threshold and timing on many tables."""

    def write_inputs(self):
        self.texts = []
        for i in range(POOL):
            errors = tables.error_table(self.seed, i)
            timings = tables.timing_table(self.seed, i)
            (self.work / f"errors{i}.csv").write_text(errors)
            (self.work / f"timing{i}.csv").write_text(timings)
            (self.work / f"probe{i}.csv").write_text(tables.probe_copy(errors))
            self.texts.append((errors, timings))

    def commands(self, i: int) -> list:
        p = self.path
        return [
            ["rank", p(f"errors{i}.csv"), "--scheme", "average", "--heatmap-csv", p("heatmap.csv"),
             "--heatmap-svg", p("heatmap.svg"), "--out", p("rank.csv")],
            ["nhst", p(f"errors{i}.csv"), "--out", p("nhst.csv")],
            ["threshold", p(f"errors{i}.csv"), "--out", p("threshold.csv")],
            ["timing", p(f"timing{i}.csv"), "--out", p("timing.csv")],
        ]

    def warm_up(self):
        for argv in self.commands(0) + [["rank", self.path("probe0.csv")]]:
            self.call(argv, timed=False)

    def prepare_checks(self):
        self.expected = []
        for errors, timings in self.texts:
            table = ref.ErrorInput(errors)
            algorithms, times = ref.timing_matrix(timings)
            dense = ref.dense_ranks(table.values)
            self.expected.append({
                "table": table,
                "average": ref.average_ranks(table.values),
                "histogram": ref.histogram(dense),
                "timing_algorithms": algorithms,
                "timing_ranks": ref.average_ranks(times),
            })

    def read(self, name: str) -> str:
        return Path(self.path(name)).read_text()

    def round(self, index: int) -> dict:
        i = index % POOL
        e = self.expected[i]
        table = e["table"]

        def check_rank():
            ref.check_rank_summary(ref.blocks(self.read("rank.csv"))[0], table.algorithms, e["average"], "rank")
            ref.check_heatmap_csv(self.read("heatmap.csv"), table.algorithms, e["histogram"])
            ref.check_heatmap_svg(self.read("heatmap.svg"), e["histogram"])

        def check_nhst():
            friedman, pairs = ref.blocks(self.read("nhst.csv"))
            ref.check_friedman_nemenyi(friedman, pairs, table.algorithms, e["average"], "nhst")

        def check_threshold():
            ref.check_threshold(ref.blocks(self.read("threshold.csv"))[0], table)

        def check_timing():
            summary, friedman, pairs = ref.blocks(self.read("timing.csv"))
            ref.check_rank_summary(summary, e["timing_algorithms"], e["timing_ranks"], "timing")
            ref.check_friedman_nemenyi(friedman, pairs, e["timing_algorithms"], e["timing_ranks"], "timing")

        checks = (check_rank, check_nhst, check_threshold, check_timing)
        seconds = sum(self.op(argv, check) for argv, check in zip(self.commands(i), checks))
        self.probe(i)
        outputs = ("rank.csv", "heatmap.csv", "heatmap.svg", "nhst.csv", "threshold.csv", "timing.csv")
        return {"report_s": seconds, "command_s": seconds, "output_bytes": self.size(*outputs)}

    def probe(self, i: int):
        """Ingest the copy with a malformed row; the error must name its file line.

        Untimed and outside the trace. Counted as failed when the reported
        line is wrong.
        """
        self.attempted += 1
        code, _, err = self.call(["rank", self.path(f"probe{i}.csv")], timed=False)
        if code != 2 or f"line {tables.PROBE_LINE}:" not in err:
            self.failed += 1


class Bayes(Workload):
    """One planted-effects table through ``bayes``; rounds differ by MCMC seed."""

    robust = False
    SHORT_MCMC = ["--burn-in", "20", "--adaptation", "20", "--kept", "50", "--chains", "2"]

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = None  # last PosteriorDraws returned by run_chains
        self.text = tables.bayes_table(self.seed, self.robust)
        self.planted = tables.planted_effects(self.seed)

    def capture_draws(self, banova):
        """Keep run_chains' result for the property checks (one call per round)."""
        run_chains = banova.run_chains

        def capture(*args, **kwargs):
            self.draws = run_chains(*args, **kwargs)
            return self.draws

        banova.run_chains = capture

    def bayes_argv(self, seed: int, extra=()) -> list:
        argv = ["bayes", self.path("table.csv"), "--seed", str(seed), "--out", self.path("report.csv")]
        if self.robust:
            argv += ["--variant", "robust"]
        return argv + list(extra)

    def write_inputs(self):
        (self.work / "table.csv").write_text(self.text)

    def warm_up(self):
        self.call(self.bayes_argv(0, self.SHORT_MCMC), timed=False)

    def prepare_checks(self):
        table = ref.ErrorInput(self.text)
        self.names = table.algorithms
        self.scalar_names = (
            ["beta"]
            + [f"alpha[{a}]" for a in table.algorithms]
            + [f"delta[{d}]" for d in table.datasets]
            + ["sigma0", "sigma_a", "sigma_d"]
            + (["df"] if self.robust else [])
        )
        # paired column-mean differences over datasets where both are present
        self.colmean_diff, self.colmean_se = {}, {}
        for i in range(len(self.names)):
            for j in range(i + 1, len(self.names)):
                both = table.mask[:, i] & table.mask[:, j]
                d = table.values[both, i] - table.values[both, j]
                self.colmean_diff[i, j] = d.mean()
                self.colmean_se[i, j] = d.std(ddof=1) / math.sqrt(len(d))

    def check_posterior(self, report: str) -> float:
        """Property checks on the report and the captured draws; returns min bulk ESS."""
        draws = self.draws
        ref.equal(tuple(draws.algorithms), tuple(self.names), "draws algorithm order")
        pairs, diagnostics = ref.blocks(report)
        alpha = np.concatenate([c.alpha for c in draws.chains])
        for a, b, printed in pairs[1:]:
            i, j = self.names.index(a), self.names.index(b)
            diff = alpha[:, i] - alpha[:, j]
            ref.close(printed, float((np.abs(diff) < tables.ROPE).mean()), f"ROPE probability {a}-{b}")
            inside = float(printed)
            gap = abs(self.planted[i] - self.planted[j])
            if gap == 0.0 and not inside > 0.9:
                raise ref.Mismatch(f"ROPE probability {a}-{b} = {inside} with no planted difference")
            if gap >= 3 * tables.ROPE and not inside < 0.01:
                raise ref.Mismatch(f"ROPE probability {a}-{b} = {inside} with planted difference {gap}")
            tolerance = 5.0 * math.hypot(diff.std(), self.colmean_se[i, j])
            if abs(diff.mean() - self.colmean_diff[i, j]) > tolerance:
                raise ref.Mismatch(
                    f"posterior mean {a}-{b} {diff.mean():.5f} vs column means {self.colmean_diff[i, j]:.5f}"
                )
        ref.equal([r[0] for r in diagnostics[1:]], self.scalar_names, "diagnostics parameters")
        chains = draws.chains
        scalars = (
            [np.stack([c.beta for c in chains])]
            + [np.stack([c.alpha[:, a] for c in chains]) for a in range(len(self.names))]
            + [np.stack([c.delta[:, d] for c in chains]) for d in range(chains[0].delta.shape[1])]
            + [np.stack([getattr(c, s) for c in chains]) for s in ("sigma0", "sigma_a", "sigma_d")]
            + ([np.stack([c.df for c in chains])] if self.robust else [])
        )
        min_ess = math.inf
        for name, x in zip(self.scalar_names, scalars):
            rhat, ess = ref.convergence(x)
            if rhat > 1.1:
                raise ref.Mismatch(f"split R-hat {rhat:.3f} > 1.1 for {name}")
            min_ess = min(min_ess, ess)
        if self.robust and not scalars[-1].mean() < 10.0:
            raise ref.Mismatch(f"posterior mean df {scalars[-1].mean():.2f} not below 10")
        return min_ess


class BayesNormal(Bayes):
    """bayes --save, then bayes --load and ppc on the saved draws."""

    def warm_up(self):
        p = self.path
        self.call(self.bayes_argv(0, self.SHORT_MCMC + ["--save", p("draws.csv")]), timed=False)
        self.call(["bayes", p("table.csv"), "--load", p("draws.csv"), "--out", p("loaded.csv")], timed=False)
        self.call(["ppc", p("draws.csv"), p("table.csv"), "--n-draws", "20", "--seed", "0",
                   "--out", p("ppc.csv")], timed=False)

    def round(self, index: int) -> dict:
        p = self.path
        mcmc_seed = self.seed * 1000 + index
        sample = {}

        def check_sampling():
            sample["min_bulk_ess"] = self.check_posterior(Path(p("report.csv")).read_text())

        def check_load():
            sampled = Path(p("report.csv")).read_text().split("\n", 1)
            loaded = Path(p("loaded.csv")).read_text()
            ref.equal(loaded, sampled[1], "--load report vs sampling report")

        def check_ppc():
            rows = dict(ref.blocks(Path(p("ppc.csv")).read_text())[0])
            value = float(rows["bayesian_p_value"])
            if not 0.05 <= value <= 0.95:
                raise ref.Mismatch(f"PPC p-value {value} outside [0.05, 0.95]")

        report_s = self.op(self.bayes_argv(mcmc_seed, ["--save", p("draws.csv")]), check_sampling)
        sample["draws_bytes"] = self.size("draws.csv")
        reuse_s = self.op(["bayes", p("table.csv"), "--load", p("draws.csv"), "--out", p("loaded.csv")], check_load)
        reuse_s += self.op(["ppc", p("draws.csv"), p("table.csv"), "--seed", str(mcmc_seed), "--out", p("ppc.csv")],
                           check_ppc)
        sample.update(
            report_s=report_s,
            command_s=report_s + reuse_s,
            output_bytes=self.size("draws.csv", "report.csv", "loaded.csv", "ppc.csv"),
        )
        return sample


class BayesRobust(Bayes):
    """bayes --variant robust on a heavy-tailed table, nothing saved."""

    robust = True

    def round(self, index: int) -> dict:
        sample = {}

        def check():
            sample["min_bulk_ess"] = self.check_posterior(Path(self.path("report.csv")).read_text())

        seconds = self.op(self.bayes_argv(self.seed * 1000 + index), check)
        sample.update(report_s=seconds, command_s=seconds, output_bytes=self.size("report.csv"))
        return sample


WORKLOADS = {"freq-sweep": FreqSweep, "bayes-normal": BayesNormal, "bayes-robust": BayesRobust}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "benchstat" / "cli.py").is_file():
        print(f"benchstat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import benchstat
    from benchstat import banova, cli

    if Path(benchstat.__file__).resolve().parent != (SRC / "benchstat").resolve():
        print(f"imported benchstat from {benchstat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # the CLI's dropped-dataset warnings

    speed = SpeedProbe()
    tracer = Tracer(speed.clock) if args.trace else None
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](cli, args.seed, work, speed, tracer)
        if isinstance(workload, Bayes):
            workload.capture_draws(banova)
        if tracer:
            tracer.install(benchstat)
        setup_s = workload.setup()
        workload.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(workload.speed_summary(), file=sys.stderr)
    for message in workload.mismatches[:10]:
        print(f"mismatch: {message}", file=sys.stderr)
    if tracer:
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json")
        values, units = workload.per_layer(), PER_LAYER
    else:
        values, units = workload.end_to_end(setup_s), END_TO_END
    print(json.dumps({
        "correct": not workload.mismatches,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line orchestration of the full analysis pipeline.

Exit codes: 0 success, 1 internal/numerical failure, 2 input/usage error.
Every command is deterministic given its input bytes, flags and seed; when no
seed is supplied one is drawn from entropy and echoed in the report header so
the run can be replayed.
"""
from __future__ import annotations

import dataclasses
import os
import secrets
import sys
from pathlib import Path

import click

from . import banova, data, diagnostics, nhst, ranks, render, threshold
from .errors import BenchstatError, ComputationError, InputError


def _read(path: str):
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _load_error_table(path: str) -> data.ErrorTable:
    return _nonempty(data.ingest_error_table(_read(path)))


def _nonempty(table):
    if len(table) == 0:
        raise InputError("empty input: no data rows")
    return table


def _friedman_then_nemenyi(r, alpha: float, format_: str) -> list:
    """Friedman report, then the Nemenyi pairs if it rejects at ``alpha``."""
    result = nhst.friedman_test(r)
    if result.p_value < alpha:
        post_hoc = render.render_pairwise(nhst.nemenyi_pairwise(r), format_, alpha=alpha)
    else:
        post_hoc = (
            f"# Friedman p={render.fmt(result.p_value)} >= alpha={alpha}: "
            "Nemenyi post-hoc skipped\n"
        )
    return [render.render_friedman(result, format_), post_hoc]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _resolve_seed(seed: int | None) -> tuple[int, str]:
    if seed is None:
        seed = secrets.randbits(32)
        return seed, f"# seed: {seed} (drawn from entropy; pass --seed {seed} to replay)\n"
    return seed, f"# seed: {seed}\n"


def _parse_config_file(path: str) -> dict:
    """Simple key=value MCMC settings file."""
    settings = {}
    known = {"chains", "burn_in", "adaptation", "kept", "thinning"}
    for line_no, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise InputError(f"config line {line_no}: unknown key {key!r}")
        try:
            settings[key] = int(value.strip())
        except ValueError:
            raise InputError(f"config line {line_no}: {key} must be an integer") from None
    return settings


@click.group()
def cli():
    """Statistical comparison of algorithms across benchmark datasets."""


_format_option = click.option(
    "--format", "format_", type=click.Choice(render.FORMATS), default="csv"
)
_out_option = click.option("--out", default=None, help="Write the report here instead of stdout.")


@cli.command("rank")
@click.argument("input_path")
@click.option("--scheme", type=click.Choice(["dense", "average"]), default="dense")
@_format_option
@_out_option
@click.option("--heatmap-csv", default=None, help="Also export the rank histogram as CSV.")
@click.option("--heatmap-svg", default=None, help="Also export the rank histogram as SVG.")
def cmd_rank(input_path, scheme, format_, out, heatmap_csv, heatmap_svg):
    """Mean-rank summary table (and optional rank-distribution heatmap)."""
    table = _load_error_table(input_path)
    matrix = data.aggregate_errors(table)
    rank_fn = ranks.dense_ranks if scheme == "dense" else ranks.average_ranks
    r = rank_fn(matrix)
    summary = ranks.mean_rank_summary(r)
    if heatmap_csv or heatmap_svg:
        dense = r if scheme == "dense" else ranks.dense_ranks(matrix)
        if heatmap_csv:
            Path(heatmap_csv).write_text(ranks.histogram_to_csv(dense), encoding="utf-8")
        if heatmap_svg:
            Path(heatmap_svg).write_text(ranks.histogram_to_svg(dense), encoding="utf-8")
    _emit(render.render_rank_summary(summary, format_), out)


@cli.command("nhst")
@click.argument("input_path")
@click.option(
    "--rank-scheme", type=click.Choice(["average", "dense"]), default="average"
)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@_format_option
@_out_option
def cmd_nhst(input_path, rank_scheme, alpha, format_, out):
    """Friedman omnibus test, then Nemenyi pairwise p-values if it rejects."""
    table = _load_error_table(input_path)
    matrix = data.aggregate_errors(table)
    rank_fn = ranks.average_ranks if rank_scheme == "average" else ranks.dense_ranks
    r = rank_fn(matrix).complete_cases()
    _emit("\n".join(_friedman_then_nemenyi(r, alpha, format_)), out)


@cli.command("threshold")
@click.argument("input_path")
@_format_option
@_out_option
def cmd_threshold(input_path, format_, out):
    """Empirical irrelevance threshold from paired per-subset errors."""
    table = _load_error_table(input_path)
    report = threshold.irrelevance_threshold(table)
    _emit(render.render_threshold(report, format_), out)


@cli.command("bayes")
@click.argument("input_path")
@click.option("--variant", type=click.Choice(["normal", "robust"]), default="normal")
@click.option("--rope", type=float, default=0.0112, show_default=True, help="ROPE half-width.")
@click.option("--chains", type=int, default=None)
@click.option("--burn-in", type=int, default=None)
@click.option("--adaptation", type=int, default=None)
@click.option("--kept", type=int, default=None)
@click.option("--thinning", type=int, default=None)
@click.option("--paper-config", is_flag=True, help="Use the published MCMC settings.")
@click.option("--config", "config_path", default=None, help="key=value MCMC settings file.")
@click.option("--seed", type=int, default=None)
@click.option("--save", "save_path", default=None, help="Persist the posterior draws here.")
@click.option("--load", "load_path", default=None, help="Reuse saved draws instead of sampling.")
@click.option(
    "--threads",
    type=int,
    default=_usable_cpus,
    show_default="CPUs this process may use",
    help="Chains sampled at once, in worker processes (at most --chains).",
)
@_format_option
@_out_option
def cmd_bayes(
    input_path,
    variant,
    rope,
    paper_config,
    config_path,
    seed,
    save_path,
    load_path,
    threads,
    format_,
    out,
    **mcmc,
):
    """Hierarchical Bayesian ANOVA: ROPE probability matrix plus diagnostics."""
    header = ""
    if load_path:
        draws = banova.load_draws(load_path)
    else:
        table = _load_error_table(input_path)
        matrix = data.aggregate_errors(table)
        spec = banova.build_model(matrix, variant)
        base = banova.McmcConfig.paper() if paper_config else banova.McmcConfig()
        # the --config file first, then the chains/burn-in/... options over it
        settings = _parse_config_file(config_path) if config_path else {}
        settings.update((key, value) for key, value in mcmc.items() if value is not None)
        cfg = dataclasses.replace(base, **settings, n_jobs=max(1, threads))
        seed, header = _resolve_seed(seed)
        draws = banova.run_chains(spec, matrix, cfg, seed=seed)
        if save_path:
            banova.save_draws(draws, save_path)
    rope_matrix = banova.rope_probability_matrix(draws, rope)
    report = diagnostics.diagnostic_report(draws)
    _emit(
        header
        + render.render_pairwise(rope_matrix, format_)
        + "\n"
        + render.render_diagnostics(report, format_),
        out,
    )


@cli.command("ppc")
@click.argument("draws_path")
@click.argument("input_path")
@click.option("--n-draws", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--scatter", default=None, help="Write the t_real,t_rep scatter CSV here.")
@_out_option
def cmd_ppc(draws_path, input_path, n_draws, seed, scatter, out):
    """Chi-square-discrepancy posterior predictive check."""
    draws = banova.load_draws(draws_path)
    table = _load_error_table(input_path)
    matrix = data.aggregate_errors(table)
    seed, header = _resolve_seed(seed)
    result = diagnostics.posterior_predictive_check(draws, matrix, n_draws, seed=seed)
    if scatter:
        Path(scatter).write_text(render.ppc_scatter_csv(result.discrepancies), encoding="utf-8")
    _emit(
        header
        + f"bayesian_p_value,{render.fmt(result.bayesian_p_value)}\n"
        + f"negative_replicate_fraction,{render.fmt(result.negative_replicate_fraction)}\n",
        out,
    )


@cli.command("timing")
@click.argument("input_path")
@click.option(
    "--metric",
    type=click.Choice(["one_train_test", "per_hyper"]),
    default="one_train_test",
    show_default=True,
)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@_format_option
@_out_option
def cmd_timing(input_path, metric, alpha, format_, out):
    """Mean-rank and Nemenyi analysis of execution times, subsets as subjects."""
    table = _nonempty(data.ingest_timing_table(_read(input_path)))
    matrix = data.matrix_from_timings(table, metric)
    r = ranks.average_ranks(matrix).complete_cases()
    summary = render.render_rank_summary(ranks.mean_rank_summary(r), format_)
    _emit("\n".join([summary] + _friedman_then_nemenyi(r, alpha, format_)), out)


@cli.command("synth")
@click.argument("spec_path")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out", default=None, help="Output CSV path (default stdout).")
def cmd_synth(spec_path, seed, out):
    """Generate a synthetic error table from a JSON generative spec."""
    spec = data.SynthSpec.from_json(_read(spec_path))
    seed, header = _resolve_seed(seed)
    table = data.generate_synthetic(spec, seed)
    comment = (
        f"seed: {seed}\n"
        f"spec: beta={spec.beta} noise_sd={spec.noise_sd} cv_noise_sd={spec.cv_noise_sd} "
        f"algorithms={sorted(spec.alpha)} datasets={len(spec.delta)}"
    )
    _emit(data.error_table_to_csv(table, comment=comment), out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (ComputationError, BenchstatError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

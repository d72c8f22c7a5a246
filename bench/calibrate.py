"""Geweke's joint-distribution test of the whole sampler, and its power.

    python3 bench/calibrate.py [--kept 100000] [--seed 1] [--paths balanced,general,robust] [--no-mutants]

Run from anywhere in the repository. After every sweep of ``banova._run_chain``
a hook (``run_chains(..., after_sweep=...)``) redraws the present cells of the
chain's own copy of the table from the model at the current state,
y = beta + alpha + delta + sigma0 z / sqrt(lam) (lam = 1 on the normal
variant), and the chain recomputes what it derives from them. The chain then
samples the joint law of parameters and cells, so every parameter's
marginal must be its prior (Geweke 2004, *Getting it right: joint
distribution tests of posterior simulators*, JASA). A sweep that leaves the
posterior of some table not invariant shows as a prior moment missed.

The model is one fixed ``ModelSpec`` (``geweke_spec``), that of data mean 0.5
and sd 0.1, on 4 algorithms x 10 datasets: beta ~ N(0.5, 0.5^2), sigma0 ~
U[0.001, 1], effect scales Gamma with mode 0.05 and sd 0.2, df ~ Exp(rate
1/30). Three paths of the sampler: ``balanced`` (normal, every cell present),
``general`` (normal, one cell missing) and ``robust`` (every cell present).
Each runs 4 chains of 1,000 burn-in and ``--kept`` kept sweeps on 2 workers,
and scores the means of beta, alpha_1 (the first algorithm's effect), sigma0,
sigma_a, sigma_d (and df) and the second moments (beta - 0.5)^2 and alpha_1^2
against their prior values as z = (mean - prior mean) / MCSE, the MCSE from
the bulk ESS of perfbench's reference ``convergence``.
``tests/test_geweke.py`` asks |z| <= 4.5 of every statistic at 4 x 20,000 kept
sweeps.

It also runs each mutant of ``MUTANTS`` on the paths it touches and prints its
z: a copy of ``banova``'s source with one statement changed, loaded as a
module of its own; the source file is not touched. A gate that passes a
mutant has no power against that fault.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import reference  # noqa: E402  perfbench's independent statistics
from benchstat import banova  # noqa: E402
from benchstat.data import AggregatedMatrix  # noqa: E402

N_ALGORITHMS, N_DATASETS = 4, 10
BURN_IN = 1000
BOUND = 4.5  # |z| of every statistic, in the tier-1 test
PATHS = {"balanced": ("normal", False), "general": ("normal", True), "robust": ("robust", False)}

# name -> (paths it touches, the statement as banova has it, the mutant's, occurrences)
MUTANTS = {
    "sigma0 Gamma shape n/2": (
        ("balanced", "general"),
        "_truncated_gamma(rng, (n - 1) / 2.0,", "_truncated_gamma(rng, n / 2.0,", 1,
    ),
    "balanced centred noise without - mean(z)": (
        ("balanced",),
        "z_bar = z_sum / size", "z_bar = 0.0", 1,
    ),
    "translation move without its beta-prior term": (
        ("general",),
        " + (beta_mean - beta) * beta_prec0) / t_prec", ") / t_prec", 2,
    ),
}


def geweke_spec(variant: str) -> banova.ModelSpec:
    return banova.ModelSpec(variant, y_mean=0.5, y_sd=0.1)


def prior_moments(spec: banova.ModelSpec) -> dict:
    """Prior mean of every scored statistic."""
    shape, rate = spec.sigma_effect_shape, spec.sigma_effect_rate
    moments = {
        "beta": spec.beta_mean,
        "alpha_1": 0.0,
        "sigma0": (spec.sigma0_low + spec.sigma0_high) / 2.0,
        "sigma_a": shape / rate,
        "sigma_d": shape / rate,
        "(beta - 0.5)^2": spec.beta_sd**2,
        "alpha_1^2": shape * (shape + 1.0) / rate**2,  # E[sigma_a^2]
    }
    if spec.variant == "robust":
        moments["df"] = 1.0 / spec.df_rate
    return moments


def redraw_cells(rng, y, lam, beta, alpha, delta, sigma0):
    """The ``after_sweep`` hook: present cells from the model at the current state."""
    present = lam > 0.0
    noise = sigma0 * rng.standard_normal(y.shape) / np.sqrt(np.where(present, lam, 1.0))
    y[present] = (beta + alpha + delta[:, None] + noise)[present]


def table(missing: bool) -> AggregatedMatrix:
    """A start table drawn once from a fixed stream; the chains redraw it."""
    values = 0.5 + 0.1 * np.random.default_rng(0).standard_normal((N_DATASETS, N_ALGORITHMS))
    mask = np.ones(values.shape, dtype=bool)
    if missing:
        mask[3, 2] = False
        values[3, 2] = np.nan
    return AggregatedMatrix([f"a{i}" for i in range(N_ALGORITHMS)], [f"d{i}" for i in range(N_DATASETS)],
                            values, mask)


def run_path(path: str, kept: int, seed: int, module=banova) -> dict:
    """Statistic -> z of one path's Geweke run, with ``module``'s sampler."""
    variant, missing = PATHS[path]
    spec = geweke_spec(variant)
    cfg = banova.McmcConfig(chains=4, burn_in=BURN_IN, adaptation=0, kept=kept, n_jobs=2)
    draws = module.run_chains(spec, table(missing), cfg, seed=seed, after_sweep=redraw_cells)
    named = dict(draws.scalar_chains())
    beta, alpha_1 = named["beta"], draws.alpha[:, 0]
    values = {"beta": beta, "alpha_1": alpha_1, **{k: named[k] for k in ("sigma0", "sigma_a", "sigma_d")},
              "(beta - 0.5)^2": (beta - spec.beta_mean) ** 2, "alpha_1^2": alpha_1**2}
    if variant == "robust":
        values["df"] = named["df"]
    prior = prior_moments(spec)
    scores = {}
    for name, x in values.items():
        ess = reference.convergence(np.asarray(x))[1]
        scores[name] = (x.mean() - prior[name]) / (x.std() / math.sqrt(ess))
    return scores


def mutant(old: str, new: str, count: int) -> types.ModuleType:
    """``banova`` with ``old`` replaced by ``new``, as the module ``benchstat._mutant``."""
    source = Path(banova.__file__).read_text(encoding="utf-8")
    if source.count(old) != count:
        raise SystemExit(f"mutant statement found {source.count(old)} times, want {count}: {old!r}")
    module = types.ModuleType("benchstat._mutant")
    module.__package__ = "benchstat"
    sys.modules[module.__name__] = module  # dataclasses and forked workers look it up there
    exec(compile(source.replace(old, new), banova.__file__, "exec"), module.__dict__)
    return module


def show(label: str, scores: dict, seconds: float):
    worst = max(abs(z) for z in scores.values())
    cells = ", ".join(f"{name} {z:+.2f}" for name, z in scores.items())
    print(f"{label}: max|z| {worst:.2f} ({'pass' if worst <= BOUND else 'FAIL'}, {seconds:.1f} s): {cells}",
          flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kept", type=int, default=100_000, help="kept sweeps per chain (4 chains)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--paths", default=",".join(PATHS), help="comma-separated paths to run")
    parser.add_argument("--no-mutants", action="store_true", help="skip the mutants")
    args = parser.parse_args(argv)
    paths = args.paths.split(",")
    print(f"4 chains x ({BURN_IN} burn-in + {args.kept} kept) per path, seed {args.seed}, bound |z| <= {BOUND}")
    for path in paths:
        start = time.perf_counter()
        show(path, run_path(path, args.kept, args.seed), time.perf_counter() - start)
    if args.no_mutants:
        return
    for name, (touched, old, new, count) in MUTANTS.items():
        module = mutant(old, new, count)
        for path in (p for p in touched if p in paths):
            start = time.perf_counter()
            show(f"mutant '{name}' on {path}", run_path(path, args.kept, args.seed, module),
                 time.perf_counter() - start)


if __name__ == "__main__":
    main()

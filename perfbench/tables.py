"""Seeded input tables for the benchmark workloads.

Every table is generated here from the workload seed and handed to the
program only as CSV bytes. ``planted_effects`` gives the planted truth the
bayes property checks need; the frequentist checks recompute everything
from the CSV text itself.
"""
from __future__ import annotations

import numpy as np

N_ALGORITHMS = 14
N_DATASETS = 115
ALGORITHMS = tuple(f"alg{i:02d}" for i in range(1, N_ALGORITHMS + 1))
DATASETS = tuple(f"ds{i:03d}" for i in range(1, N_DATASETS + 1))

ERROR_HEADER = "dataset,algorithm,subset,test_error,cv_error"
TIMING_HEADER = (
    "dataset,algorithm,subset,train_test_seconds,hyper_search_seconds,n_hyper_combos"
)
# The comment block is the same for every table and every seed, so the
# malformed-row probe below fails or passes independently of the seed.
COMMENTS = (
    "# benchmark error table: 14 algorithms x 115 datasets x 2 subsets",
    "# empty cv_error = no inner cross-validation estimate recorded",
)
PROBE_LINE = 10  # 1-based file line of the malformed row in a probe copy
PROBE_ROW = "dsbad,alg01,1"  # three fields where five are required

# ROPE half-width the bayes workloads pass to the CLI (its default).
ROPE = 0.0112
# Planted algorithm effects of the bayes tables: groups of equal effect,
# neighbouring groups 0.04 apart (more than three ROPE half-widths), except
# the last, one half-width above the fourth, so that those pairs have ROPE
# probabilities between 0 and 1.
GROUP_SIZES = (3, 3, 3, 3, 2)
GROUP_LEVELS = (0.0, 0.04, 0.08, 0.12, 0.12 + ROPE)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def error_table(seed: int, index: int) -> str:
    """One desk-scale error table of the freq-sweep workload.

    Values sit on the 3-decimal grid, so aggregated means tie under the dense
    scheme. About 5% of cv_error fields are empty; four cells lose both
    subset rows and two lose one, so a few datasets are incomplete.
    """
    rng = _rng(seed, 1, index)
    alpha = rng.normal(0.0, 0.03, N_ALGORITHMS)
    delta = rng.uniform(-0.1, 0.25, N_DATASETS)
    mu = 0.2 + alpha[None, :] + delta[:, None] + rng.normal(0.0, 0.015, (N_DATASETS, N_ALGORITHMS))
    test = np.clip(mu[:, :, None] + rng.normal(0.0, 0.01, (N_DATASETS, N_ALGORITHMS, 2)), 0.0, 1.0)
    cv = np.clip(test + rng.normal(0.0, 0.01, test.shape), 0.0, 1.0)
    cv_empty = rng.random(test.shape) < 0.05
    cells = rng.choice(N_DATASETS * N_ALGORITHMS, size=6, replace=False)
    drop = {}
    for n, cell in enumerate(cells):
        d, a = divmod(int(cell), N_ALGORITHMS)
        drop[d, a] = (1, 2) if n < 4 else (int(rng.integers(1, 3)),)
    lines = list(COMMENTS) + [ERROR_HEADER]
    for d, dataset in enumerate(DATASETS):
        for a, algorithm in enumerate(ALGORITHMS):
            for s in (1, 2):
                if s in drop.get((d, a), ()):
                    continue
                cv_text = "" if cv_empty[d, a, s - 1] else f"{cv[d, a, s - 1]:.3f}"
                lines.append(f"{dataset},{algorithm},{s},{test[d, a, s - 1]:.3f},{cv_text}")
    return "\n".join(lines) + "\n"


def timing_table(seed: int, index: int) -> str:
    """The timing table matching ``error_table(seed, index)``.

    Lognormal run times with planted per-algorithm speed factors, one row per
    (dataset, algorithm, subset), so every (dataset, subset) subject is
    complete.
    """
    rng = _rng(seed, 2, index)
    speed = rng.normal(0.0, 1.0, N_ALGORITHMS)
    size = rng.normal(0.0, 1.5, N_DATASETS)
    log_t = speed[None, :, None] + size[:, None, None] + rng.normal(
        0.0, 0.4, (N_DATASETS, N_ALGORITHMS, 2)
    )
    train = np.exp(log_t)
    combos = rng.integers(1, 50, train.shape)
    hyper = train * combos * rng.uniform(0.8, 1.2, train.shape)
    lines = ["# benchmark timing table", TIMING_HEADER]
    for d, dataset in enumerate(DATASETS):
        for a, algorithm in enumerate(ALGORITHMS):
            for s in (1, 2):
                i = (d, a, s - 1)
                lines.append(
                    f"{dataset},{algorithm},{s},{train[i]:.4f},{hyper[i]:.4f},{combos[i]}"
                )
    return "\n".join(lines) + "\n"


def probe_copy(table: str) -> str:
    """``table`` with a malformed row placed at file line ``PROBE_LINE``.

    The row lands after the comment block and the header, so a parser that
    numbers lines correctly names line ``PROBE_LINE`` in its error.
    """
    lines = table.split("\n")
    return "\n".join(lines[: PROBE_LINE - 1] + [PROBE_ROW] + lines[PROBE_LINE - 1 :])


def planted_effects(seed: int) -> np.ndarray:
    """Per-algorithm planted effects of the bayes tables, in ALGORITHMS order."""
    levels = np.repeat(GROUP_LEVELS, GROUP_SIZES)
    return _rng(seed, 3).permutation(levels)


def bayes_table(seed: int, robust: bool) -> str:
    """Desk-scale error table with planted algorithm effects.

    Normal: complete, cell noise N(0, 0.01). Robust: cell noise 0.006 * t(2),
    heavy-tailed, and five cells missing. Each subset adds N(0, 0.005).
    """
    rng = _rng(seed, 4 if robust else 5)
    alpha = planted_effects(seed)
    delta = rng.uniform(-0.15, 0.15, N_DATASETS)
    if robust:
        noise = 0.006 * rng.standard_t(2.0, (N_DATASETS, N_ALGORITHMS))
    else:
        noise = rng.normal(0.0, 0.01, (N_DATASETS, N_ALGORITHMS))
    mu = 0.3 + alpha[None, :] + delta[:, None] + noise
    test = np.clip(mu[:, :, None] + rng.normal(0.0, 0.005, (N_DATASETS, N_ALGORITHMS, 2)), 0.0, 1.0)
    cv = np.clip(test + rng.normal(0.0, 0.01, test.shape), 0.0, 1.0)
    missing = set()
    if robust:
        for cell in rng.choice(N_DATASETS * N_ALGORITHMS, size=5, replace=False):
            missing.add(divmod(int(cell), N_ALGORITHMS))
    lines = list(COMMENTS) + [ERROR_HEADER]
    for d, dataset in enumerate(DATASETS):
        for a, algorithm in enumerate(ALGORITHMS):
            if (d, a) in missing:
                continue
            for s in (1, 2):
                lines.append(
                    f"{dataset},{algorithm},{s},{test[d, a, s - 1]:.6f},{cv[d, a, s - 1]:.6f}"
                )
    return "\n".join(lines) + "\n"

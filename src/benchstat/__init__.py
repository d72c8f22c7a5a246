"""Statistical comparison of many algorithms across many benchmark datasets.

Rank summaries, the Friedman/Nemenyi procedure, an empirically derived
irrelevance threshold, and a hierarchical Bayesian ANOVA with ROPE
equivalence probabilities, MCMC diagnostics, and posterior predictive
model checking.
"""
from .banova import (
    McmcConfig,
    ModelSpec,
    PosteriorDraws,
    build_model,
    gamma_shape_rate_from_mode_sd,
    load_draws,
    pairwise_difference_draws,
    rope_probability_matrix,
    run_chains,
    save_draws,
)
from .data import (
    AggregatedMatrix,
    ErrorRecord,
    ErrorTable,
    SynthSpec,
    TimingRecord,
    TimingTable,
    aggregate_errors,
    generate_synthetic,
    ingest_error_table,
    ingest_timing_table,
    matrix_from_timings,
)
from .diagnostics import (
    diagnostic_report,
    effective_sample_size,
    posterior_predictive_check,
    psrf,
)
from .errors import BenchstatError, ComputationError, InputError
from .nhst import (
    FriedmanResult,
    PairwiseMatrix,
    chi_square_sf,
    friedman_test,
    nemenyi_pairwise,
    studentized_range_sf,
)
from .ranks import (
    RankMatrix,
    average_ranks,
    dense_ranks,
    mean_rank_summary,
    rank_histogram,
)
from .threshold import (
    ThresholdReport,
    cv_deltas,
    irrelevance_threshold,
    resample_deltas,
    top_k_algorithms,
)

__version__ = "0.1.0"

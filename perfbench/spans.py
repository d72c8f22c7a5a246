"""Per-layer spans recorded from outside the program.

The CLI calls every layer through its module attribute
(``data.ingest_error_table(...)``, ``banova.run_chains(...)``), so replacing
those attributes with timing wrappers gives a span at each layer boundary
without touching the program. Only calls made while a command span is open
are recorded, and only the outermost wrapped call: a wrapped function that
another wrapped function calls belongs to its caller's span. A call made
inside a module through its own global name (``threshold`` calling
``aggregate_errors``) is not wrapped and counts towards its caller too.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# module -> {function -> per-layer metric its time goes to}
LAYER_FUNCTIONS = {
    "data": {
        "ingest_error_table": "data.ingest_s",
        "ingest_timing_table": "data.ingest_s",
        "aggregate_errors": "data.aggregate_s",
        "matrix_from_timings": "data.aggregate_s",
    },
    "ranks": {
        "dense_ranks": "ranks.dense_s",
        "average_ranks": "ranks.average_s",
        "mean_rank_summary": "ranks.summary_s",
        "histogram_to_csv": "ranks.heatmap_s",
        "histogram_to_svg": "ranks.heatmap_s",
    },
    "nhst": {
        "friedman_test": "nhst.friedman_s",
        "nemenyi_pairwise": "nhst.nemenyi_s",
    },
    "threshold": {"irrelevance_threshold": "threshold.s"},
    "banova": {
        "build_model": "banova.build_model_s",
        "run_chains": "banova.run_chains_s",
        "save_draws": "banova.save_draws_s",
        "load_draws": "banova.load_draws_s",
        "rope_probability_matrix": "banova.rope_s",
    },
    "diagnostics": {
        "diagnostic_report": "diagnostics.report_s",
        "posterior_predictive_check": "diagnostics.ppc_s",
    },
    "render": {
        name: "render.s"
        for name in (
            "render_rank_summary",
            "render_friedman",
            "render_pairwise",
            "render_threshold",
            "render_diagnostics",
            "ppc_scatter_csv",
        )
    },
}
TIMED_METRICS = sorted({m for funcs in LAYER_FUNCTIONS.values() for m in funcs.values()})
# work counts taken from a wrapped call's result: function -> (metric, count)
COUNTS = {
    "data.ingest_error_table": ("data.ingest_rows", len),
    "data.ingest_timing_table": ("data.ingest_rows", len),
    "nhst.nemenyi_pairwise": ("nhst.nemenyi_pairs", lambda m: len(m.algorithms) * (len(m.algorithms) - 1) // 2),
    "banova.run_chains": ("banova.chain_iters", lambda d: d.meta["iterations"] * d.n_chains),
}


class Tracer:
    """Spans kept in memory: (id, parent id, name, start, end, request, count)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self._open = None  # id of the command span while a command runs
        self._depth = 0

    def install(self, package):
        """Replace every listed function of ``package`` with a timing wrapper."""
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = getattr(package, module_name)
            for name in functions:
                setattr(module, name, self._wrap(f"{module_name}.{name}", getattr(module, name)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open is None or self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                self._depth -= 1
                count = COUNTS[name][1](result) if name in COUNTS and result is not None else None
                self.spans.append((len(self.spans), self._open, name, start, end, self.request, count))

        return wrapper

    def command(self, name: str, call):
        """Run ``call()`` as one command span; its layer calls become children."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can name it
        self._open = span_id
        start = self.clock()
        try:
            return call()
        finally:
            end = self.clock()
            self._open = None
            self.spans[span_id] = (span_id, None, name, start, end, self.request, None)

    def totals(self, first: int, stop: int) -> dict:
        """Per-layer busy seconds, work counts and ``cli.self_s`` of spans[first:stop]."""
        totals = {metric: 0.0 for metric in TIMED_METRICS}
        totals.update({metric: 0 for metric, _ in COUNTS.values()})
        command_s = covered = 0.0
        for _id, parent, name, start, end, _req, count in self.spans[first:stop]:
            if parent is None:
                command_s += end - start
                continue
            module, function = name.split(".")
            totals[LAYER_FUNCTIONS[module][function]] += end - start
            covered += end - start
            if count is not None:
                totals[COUNTS[name][0]] += count
        totals["cli.self_s"] = command_s - covered
        return totals

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "request", "count")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")

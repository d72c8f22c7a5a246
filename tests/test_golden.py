"""Golden-bytes reports: each command's output must stay byte-identical.

The input tables and the expected reports are checked in under
``tests/golden/``.  The tables are small enough that every Nemenyi p-value
in these reports lies well above 1e-9: below that, the printed digits of a
studentized-range tail are rounding noise of 1 - cdf and would tie the
expected bytes to one numerical routine.

After an intended change of output, regenerate the expected files with
``python tests/test_golden.py``.
"""
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from benchstat.cli import main
from benchstat.diagnostics import DiagnosticRow
from benchstat.render import render_diagnostics, render_threshold
from benchstat.threshold import ThresholdReport

GOLDEN = Path(__file__).parent / "golden"
ERRORS = str(GOLDEN / "errors.csv")
TIMING = str(GOLDEN / "timing.csv")
SYNTH_SPEC = str(GOLDEN / "synth-spec.json")
EXT = {"csv": "csv", "markdown": "md", "json": "json"}
MCMC = ["--seed", "11", "--chains", "2", "--burn-in", "100", "--adaptation", "100", "--kept", "200"]


def _cases() -> dict:
    """Case name -> commands; ``{out}`` expands to the case's output prefix."""
    cases = {}
    for fmt, ext in EXT.items():
        report = ["--format", fmt, "--out", f"{{out}}.{ext}"]
        cases[f"rank-dense-{fmt}"] = [["rank", ERRORS, "--scheme", "dense"] + report]
        cases[f"rank-average-{fmt}"] = [["rank", ERRORS, "--scheme", "average"] + report]
        cases[f"nhst-{fmt}"] = [["nhst", ERRORS] + report]
        cases[f"nhst-dense-skipped-{fmt}"] = [
            ["nhst", ERRORS, "--rank-scheme", "dense", "--alpha", "1e-9"] + report
        ]
        cases[f"threshold-{fmt}"] = [["threshold", ERRORS] + report]
        cases[f"timing-{fmt}"] = [["timing", TIMING] + report]
        cases[f"timing-per-hyper-{fmt}"] = [["timing", TIMING, "--metric", "per_hyper"] + report]
        for variant in ("normal", "robust"):
            name = f"bayes-{fmt}" if variant == "normal" else f"bayes-robust-{fmt}"
            cases[name] = [
                ["bayes", ERRORS, "--variant", variant, "--save", "{out}.draws"] + MCMC + report,
                ["bayes", ERRORS, "--load", "{out}.draws", "--format", fmt, "--out", f"{{out}}.load.{ext}"],
            ]
    cases["rank-heatmap"] = [
        ["rank", ERRORS, "--out", "{out}.csv", "--heatmap-csv", "{out}.heat.csv",
         "--heatmap-svg", "{out}.heat.svg"]
    ]
    cases["ppc"] = [
        ["bayes", ERRORS, "--save", "{out}.draws", "--out", "{out}.bayes.csv"] + MCMC,
        ["ppc", "{out}.draws", ERRORS, "--seed", "5", "--n-draws", "200",
         "--scatter", "{out}.scatter.csv", "--out", "{out}.csv"],
    ]
    cases["synth"] = [["synth", SYNTH_SPEC, "--seed", "3", "--out", "{out}.csv"]]
    return cases


CASES = _cases()

# SHA-256 of the float64 block of the draws a case saves, so that a change in
# a draw that the printed digits hide still fails.  They pin the sweep's
# rounding, under numpy's random streams and BLAS kernels as much as under
# benchstat's code: a change that rounds the draws differently says so and
# updates them.  They were taken with numpy 2.4.6 on x86_64, its bundled
# scipy-openblas 0.3.31 (DYNAMIC_ARCH) dispatching to the SkylakeX kernels.
# Another BLAS kernel may round the sweep's dot products differently in the
# last bit; the report bytes and test_banova's TestReferenceSweep, which
# compare to printed digits and to 1e-10, still hold there.
BLOCK_SHA256 = {
    "bayes-csv": "7f9f7784ac8b2108841985bd45ccdd5848b065c1127022406d02ccaa48acf11e",
    "bayes-robust-csv": "0f9710d58d2dc2afa765251ee006ecd8a5f02f99dc0f7f435c46b31cf4056133",
}


def run_case(name: str, out_dir: Path) -> list:
    """Run one case's commands into ``out_dir``; return its report file names."""
    for argv in CASES[name]:
        assert main([a.format(out=out_dir / name) for a in argv]) == 0, argv
    return sorted(
        p.name
        for p in out_dir.iterdir()
        if p.name.startswith(name + ".") and p.suffix != ".draws"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, tmp_path):
    produced = run_case(name, tmp_path)
    expected = sorted(p.name for p in GOLDEN.glob(name + ".*"))
    assert produced == expected
    for fname in produced:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(BLOCK_SHA256))
def test_saved_draw_bytes_unchanged(name, tmp_path):
    run_case(name, tmp_path)
    _, _, block = (tmp_path / f"{name}.draws").read_bytes().partition(b"\n")
    assert hashlib.sha256(block).hexdigest() == BLOCK_SHA256[name]


def test_legacy_v1_draws_reproduce_load_report(tmp_path):
    """A v1 text draws file (the golden bayes case's draws, as first written)
    still loads to the report those draws gave when they were written."""
    out = tmp_path / "legacy.csv"
    argv = ["bayes", ERRORS, "--load", str(GOLDEN / "legacy-v1.draws"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "legacy-v1.load.csv").read_bytes()


def test_undefined_diagnostics_bytes():
    rows = [DiagnosticRow("beta", 1.0012345, 812.5), DiagnosticRow("sigma_a", None, None)]
    note = "multivariate PSRF not computed (single-parameter diagnostics only)"
    assert render_diagnostics(rows, "csv") == (
        "parameter,r_hat,ess\nbeta,1.00123,812.5\nsigma_a,undefined,undefined\n"
        f"# {note}\n"
    )
    assert render_diagnostics(rows, "markdown") == (
        "| parameter | r_hat | ess |\n| --- | --- | --- |\n| beta | 1.00123 | 812.5 |\n"
        f"| sigma_a | undefined | undefined |\n\n{note}\n"
    )
    assert render_diagnostics(rows, "json") == (
        '{\n  "parameters": [\n    {\n      "parameter": "beta",\n      "r_hat": "1.00123",\n'
        '      "ess": "812.5"\n    },\n    {\n      "parameter": "sigma_a",\n'
        '      "r_hat": null,\n      "ess": null\n    }\n  ],\n'
        f'  "note": "{note}"\n}}\n'
    )
    # a table without a cv_error column: its CV median is undefined too
    degraded = ThresholdReport(0.0123456789, None, 0.0123456789, 7, 0)
    assert render_threshold(degraded, "csv") == (
        "median_delta_resample,median_delta_cv,threshold,n_pairs_used,n_cv_values\n"
        "0.0123457,undefined,0.0123457,7,0\n"
    )
    assert render_threshold(degraded, "markdown") == (
        "| median_delta_resample | median_delta_cv | threshold | n_pairs_used | n_cv_values |\n"
        "| --- | --- | --- | --- | --- |\n| 0.0123457 | undefined | 0.0123457 | 7 | 0 |\n"
    )
    assert render_threshold(degraded, "json") == (
        '{\n  "median_delta_resample": "0.0123457",\n  "median_delta_cv": null,\n'
        '  "threshold": "0.0123457",\n  "n_pairs_used": 7,\n  "n_cv_values": 0\n}\n'
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for fname in run_case(case, Path(tmp)):
                shutil.copy(Path(tmp) / fname, GOLDEN / fname)

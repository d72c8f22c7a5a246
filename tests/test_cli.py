import csv
import errno
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from benchstat import SynthSpec, banova, generate_synthetic, load_draws
from benchstat.data import error_table_to_csv
from benchstat.cli import main
from benchstat.render import csv_table

HEADER = "dataset,algorithm,subset,test_error,cv_error\n"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def synth_csv(tmp_path):
    """Error table with a clearly best, middling, and worst algorithm."""
    spec = SynthSpec(
        beta=0.25,
        alpha={"good": 0.0, "mid": 0.05, "bad": 0.10},
        delta={f"d{i:02d}": 0.01 * i for i in range(12)},
        noise_sd=0.005,
        cv_noise_sd=0.005,
    )
    path = tmp_path / "errors.csv"
    path.write_text(error_table_to_csv(generate_synthetic(spec, seed=42)))
    return str(path)


class TestRankCommand:
    def test_csv_output_best_first(self, synth_csv, capsys):
        assert main(["rank", synth_csv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,mean_rank,top_count"
        assert lines[1].startswith("good,1,")
        assert [line.split(",")[0] for line in lines[1:]] == ["good", "mid", "bad"]

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        """A UTF-8 byte-order mark before the header, as spreadsheet CSV exports
        write it, and before a --config file or a synth spec."""
        text = (GOLDEN / "errors.csv").read_text(encoding="utf-8")
        header_first = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
        cases = [
            (["rank", "{}"], header_first),
            (["bayes", str(GOLDEN / "errors.csv"), "--seed", "1", "--config", "{}"], "chains=2\nkept=20\n"),
            (["synth", "{}", "--seed", "1"], (GOLDEN / "synth-spec.json").read_text(encoding="utf-8")),
        ]
        for argv, text in cases:
            plain, marked = tmp_path / "plain", tmp_path / "marked"
            plain.write_text(text, encoding="utf-8")
            marked.write_text(text, encoding="utf-8-sig")
            assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
            assert main([arg.format(plain) for arg in argv]) == 0
            expected = capsys.readouterr().out
            assert main([arg.format(marked) for arg in argv]) == 0
            assert capsys.readouterr().out == expected

    def test_json_output_parses(self, synth_csv, capsys):
        assert main(["rank", synth_csv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["algorithm"] == "good"
        assert list(rows[0]) == ["algorithm", "mean_rank", "top_count"]

    def test_markdown_output(self, synth_csv, capsys):
        assert main(["rank", synth_csv, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| algorithm |")

    def test_heatmap_exports(self, synth_csv, tmp_path, capsys):
        heat_csv = tmp_path / "heat.csv"
        heat_svg = tmp_path / "heat.svg"
        assert (
            main(
                [
                    "rank",
                    synth_csv,
                    "--heatmap-csv",
                    str(heat_csv),
                    "--heatmap-svg",
                    str(heat_svg),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert heat_csv.read_text().startswith("algorithm,rank,count")
        assert heat_svg.read_text().startswith("<svg")

    def test_heatmap_svg_escapes_names(self, tmp_path, capsys):
        names = {"a&b": 0.1, '"""<c>"""': 0.2}  # CSV fields: the second reads "<c>"
        rows = [f"d{i},{name},{s},{e}," for i in range(2) for name, e in names.items() for s in (1, 2)]
        path = tmp_path / "e.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        heat_svg = tmp_path / "heat.svg"
        assert main(["rank", str(path), "--heatmap-svg", str(heat_svg)]) == 0
        capsys.readouterr()
        texts = [node.text for node in ElementTree.parse(heat_svg).getroot() if node.tag.endswith("text")]
        assert texts == ["1", "2", '"<c>"', "a&b"]

    @pytest.mark.parametrize("command", ["rank", "nhst"])
    def test_markdown_cells_hold_pipes_and_line_breaks(self, command, tmp_path, capsys):
        names = ["a|b", '"x\ny"', '"p\r\nq"', '"r\rs"']
        rows = [
            f"d{i},{name},{s},{0.1 * (n + 1) + 0.01 * i},"
            for i in range(12)
            for n, name in enumerate(names)
            for s in (1, 2)
        ]
        path = tmp_path / "e.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        assert main([command, str(path), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert r"a\|b" in out and "x<br>y" in out and "p<br>q" in out and "r<br>s" in out
        tables = [block.splitlines() for block in out.split("\n\n") if block.startswith("|")]
        assert len(tables) == (1 if command == "rank" else 2)
        for lines in tables:
            cells = [len(re.split(r"(?<!\\)\|", line)) for line in lines]
            assert all(line.startswith("|") for line in lines) and cells == [cells[0]] * len(lines)

    def test_out_flag_writes_file(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["rank", synth_csv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("algorithm,")


class TestNhstCommand:
    def test_significant_case_includes_pairwise(self, synth_csv, capsys):
        assert main(["nhst", synth_csv]) == 0
        out = capsys.readouterr().out
        assert "friedman" in out.lower() or "statistic" in out.lower()
        assert "good" in out and "bad" in out

    def test_null_case_skips_pairwise(self, tmp_path, capsys):
        # two algorithms that trade wins evenly: Friedman cannot reject
        rows = []
        for i in range(10):
            lo, hi = (0.1, 0.2) if i % 2 == 0 else (0.2, 0.1)
            for s in (1, 2):
                rows.append(f"d{i},a,{s},{lo},")
                rows.append(f"d{i},b,{s},{hi},")
        path = tmp_path / "null.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        assert main(["nhst", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Nemenyi post-hoc skipped" in out

    def test_markdown_bolds_significant_pairs(self, synth_csv, capsys):
        assert main(["nhst", synth_csv, "--format", "markdown"]) == 0
        assert "**" in capsys.readouterr().out


class TestThresholdCommand:
    def test_zero_noise_gives_zero(self, tmp_path, capsys):
        spec = SynthSpec(
            beta=0.2,
            alpha={"a": 0.0, "b": 0.05},
            delta={f"d{i}": 0.0 for i in range(4)},
        )
        path = tmp_path / "e.csv"
        path.write_text(error_table_to_csv(generate_synthetic(spec, seed=0)))
        assert main(["threshold", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        values = lines[1].split(",")
        row = dict(zip(header, values))
        assert row["threshold"] == "0"
        assert row["median_delta_resample"] == "0"
        assert row["median_delta_cv"] == "0"


class TestBayesCommand:
    def test_rope_and_diagnostics(self, synth_csv, capsys):
        code = main(
            [
                "bayes",
                synth_csv,
                "--chains", "2",
                "--burn-in", "100",
                "--adaptation", "100",
                "--kept", "300",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# seed: 1" in out
        assert "good" in out and "sigma0" in out

    def test_entropy_seed_echoed(self, synth_csv, capsys):
        code = main(
            ["bayes", synth_csv, "--chains", "2", "--burn-in", "50",
             "--adaptation", "50", "--kept", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drawn from entropy" in out

    def test_save_then_load_identical_rope(self, synth_csv, tmp_path, capsys):
        draws_path = tmp_path / "draws.csv"
        args = [
            "bayes", synth_csv, "--chains", "2", "--burn-in", "100",
            "--adaptation", "100", "--kept", "200", "--seed", "3",
        ]
        assert main(args + ["--save", str(draws_path)]) == 0
        direct = capsys.readouterr().out
        assert main(["bayes", synth_csv, "--load", str(draws_path)]) == 0
        reloaded = capsys.readouterr().out
        # drop the seed header; the ROPE/diagnostic numbers must match exactly
        direct_body = "\n".join(l for l in direct.splitlines() if not l.startswith("# seed"))
        assert direct_body == reloaded.strip("\n")

    def test_load_with_unreadable_input_exit_2(self, capsys):
        draws = str(GOLDEN / "legacy-v1.draws")
        assert main(["bayes", "/nonexistent/other.csv", "--load", draws]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read /nonexistent/other.csv")

    def test_load_v1_header_overstating_its_draws_exit_2(self, tmp_path, capsys):
        header, body = (GOLDEN / "legacy-v1.draws").read_text().split("\n", 1)
        magic, meta = header.split(" {", 1)
        meta = json.loads("{" + meta) | {"n_chains": 10**12, "draws_per_chain": 10**12}
        path = tmp_path / "big.draws"
        path.write_text(f"{magic} {json.dumps(meta)}\n{body}")
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert "has 400 draws, header wants 1000000000000000000000000 " in err
        assert f"({10**12} chains x {10**12} draws)" in err

    @pytest.mark.parametrize("keep, message", [
        ((slice(0, 1), slice(None)), "psrf requires at least 2 chains"),
        ((slice(None), slice(0, 1)), "psrf requires chains of length >= 2"),
    ])
    def test_too_few_chains_or_draws_exit_2(self, tmp_path, keep, message, capsys):
        # the header allows 1 chain and 1 draw; R-hat needs 2 of each
        legacy = load_draws(GOLDEN / "legacy-v1.draws")
        block = legacy.block[keep[0], :, keep[1]].copy()
        path = tmp_path / "few.draws"
        banova.save_draws(banova.PosteriorDraws("normal", legacy.algorithms, legacy.datasets, block), path)
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_load_with_other_labels_exit_2(self, synth_csv, capsys):
        # the golden draws were sampled on the golden error table's labels
        assert main(["bayes", synth_csv, "--load", str(GOLDEN / "legacy-v1.draws")]) == 2
        assert capsys.readouterr().err == "error: draws and data matrix label mismatch\n"

    @pytest.mark.parametrize("rope", ["nan", "-1", "0"])
    def test_bad_rope_exit_2_before_sampling(self, tmp_path, rope, capsys):
        save = tmp_path / "x.draws"
        argv = ["bayes", str(GOLDEN / "errors.csv"), "--rope", rope, "--save", str(save), "--seed", "1",
                "--chains", "2", "--burn-in", "10", "--adaptation", "10", "--kept", "20"]
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []  # no x.draws
        argv = ["bayes", str(GOLDEN / "errors.csv"), "--load", str(GOLDEN / "legacy-v1.draws"), "--rope", rope]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --rope must be > 0, got {float(rope)}\n" * 2

    def test_load_and_ppc_with_other_values_exit_2(self, synth_csv, tmp_path, capsys):
        draws = str(tmp_path / "d.draws")
        argv = ["bayes", synth_csv, "--chains", "2", "--burn-in", "10", "--adaptation", "10",
                "--kept", "20", "--seed", "1", "--save", draws]
        assert main(argv) == 0
        lines = Path(synth_csv).read_text().splitlines(True)
        row = next(n for n, line in enumerate(lines) if line.startswith("d00,good,1,"))
        fields = lines[row].split(",")
        fields[3] = repr(float(fields[3]) + 0.001)
        lines[row] = ",".join(fields)
        other = tmp_path / "other.csv"
        other.write_text("".join(lines))
        capsys.readouterr()
        assert main(["bayes", str(other), "--load", draws]) == 2
        assert main(["ppc", draws, str(other), "--n-draws", "10", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: draws and data matrix value mismatch\n" * 2
        assert main(["ppc", draws, synth_csv, "--n-draws", "10", "--seed", "0"]) == 0

    def test_load_with_sampling_options_exit_2(self, tmp_path, capsys):
        save = tmp_path / "x.bin"
        argv = ["bayes", str(GOLDEN / "errors.csv"), "--load", str(GOLDEN / "legacy-v1.draws"),
                "--variant", "robust", "--save", str(save), "--kept", "3"]
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []  # no x.bin
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --load reuses saved draws; sampling options do not apply: --variant, --kept, --save\n"
        for option in (["--variant", "normal"], ["--chains", "4"], ["--burn-in", "0"], ["--adaptation", "0"],
                       ["--kept", "5"], ["--thinning", "1"], ["--paper-config"], ["--config", "c.txt"],
                       ["--seed", "1"], ["--save", str(save)], ["--threads", "1"]):
            assert main(argv[:4] + option) == 2
            assert capsys.readouterr().err.endswith(f"do not apply: {option[0]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_config_file(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "mcmc.cfg"
        cfg.write_text("# settings\nchains=3\nburn_in=50\nadaptation=50\nkept=80\n")
        draws_path = tmp_path / "draws.bin"
        args = ["bayes", synth_csv, "--config", str(cfg), "--chains", "2", "--seed", "4"]
        assert main(args + ["--save", str(draws_path)]) == 0
        capsys.readouterr()
        # the file sets every key; an option given on the command line wins
        meta = load_draws(draws_path).meta
        assert [meta[k] for k in ("chains", "burn_in", "adaptation", "kept")] == [2, 50, 50, 80]

    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_report_does_not_depend_on_threads(self, synth_csv, tmp_path, variant):
        args = [
            "bayes", synth_csv, "--variant", variant, "--chains", "4", "--burn-in", "30",
            "--adaptation", "30", "--kept", "60", "--seed", "6",
        ]
        assert main(args + ["--threads", "1", "--out", str(tmp_path / "serial.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "default.csv")]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_dead_worker_exit_1(self, synth_csv, monkeypatch, capsys):
        monkeypatch.setattr(banova, "_run_chain", lambda *args: os._exit(3))
        args = ["bayes", synth_csv, "--chains", "2", "--kept", "10", "--threads", "2", "--seed", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: a chain's worker process died")

    def test_one_kept_draw_exit_2(self, synth_csv, capsys):
        assert main(["bayes", synth_csv, "--kept", "1", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: diagnostics require at least 2 kept draws per chain\n"

    def test_ess_capped_at_s_log10_s(self, capsys):
        # 2 chains x 2 kept draws: no Geyer pair sum turns nonpositive, and
        # each chain alone would report n^2 = 4, summed to 8 from 4 draws
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--kept", "2", "--chains", "2",
                     "--seed", "0"]) == 0
        diagnostics = capsys.readouterr().out.split("parameter,r_hat,ess\n")[1]
        ess = [float(line.split(",")[2]) for line in diagnostics.splitlines() if not line.startswith("#")]
        assert len(ess) == 21
        assert ess == [pytest.approx(4 * math.log10(4), rel=1e-5)] * 21

    def test_bad_config_key_exit_2(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "mcmc.cfg"
        cfg.write_text("warmup=50\n")
        assert main(["bayes", synth_csv, "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chains=2\x0ckept=x\n", "config line 1: chains must be an integer"),
            ("# mcmc\nchains=2\nkept=20\nchains=3\n", "config line 4: duplicate key 'chains' (first seen at config line 2)"),
            ("chains=2\nkept 20\n", "config line 2: expected key=value"),
        ],
        ids=["form feed", "duplicate key", "no equals sign"],
    )
    def test_bad_config_line_exit_2(self, synth_csv, tmp_path, text, message, capsys):
        cfg = tmp_path / "mcmc.cfg"
        cfg.write_text(text)
        assert main(["bayes", synth_csv, "--config", str(cfg), "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, synth_csv, threads, capsys):
        assert main(["bayes", synth_csv, "--kept", "20", "--seed", "0", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --threads must be >= 1, got {threads}\n"


class TestInputChecks:
    """Checks of bad input that each exit 2 with their message."""

    @pytest.mark.parametrize("option, value, message", [
        ("--burn-in", "-1", "burn_in and adaptation must be >= 0"),
        ("--thinning", "0", "thinning must be >= 1"),
    ], ids=["burn-in -1", "thinning 0"])
    def test_bayes_setting_out_of_range_exit_2(self, option, value, message, capsys):
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--seed", "0", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("header, message", [
        (lambda fields: json.dumps(fields)[:-1], "malformed header (JSONDecodeError("),
        (lambda fields: json.dumps({k: v for k, v in fields.items() if k != "variant"}),
         "malformed header (KeyError('variant'))\n"),
        (lambda fields: json.dumps(fields | {"variant": "other"}),
         "header has variant 'other', 2 chains and 200 draws per chain; expected normal or robust and at least 1 each\n"),
        (lambda fields: json.dumps(fields | {"n_chains": 0}),
         "header has variant 'normal', 0 chains and 200 draws per chain; expected normal or robust and at least 1 each\n"),
    ], ids=["malformed json", "no variant", "other variant", "no chains"])
    def test_bad_v2_header_exit_2(self, header, message, tmp_path, capsys):
        path = tmp_path / "edited.draws"
        banova.save_draws(load_draws(GOLDEN / "legacy-v1.draws"), path)
        first, body = path.read_bytes().split(b"\n", 1)
        fields = json.loads(first.split(b" ", 2)[2])
        path.write_bytes(b"#benchstat-draws v2 " + header(fields).encode() + b"\n" + body)
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: draws file {path}: {message}")

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [row.rsplit(",", 1)[0] for row in rows], " has 21 columns, want 22"),
        (lambda rows: rows[:199] + ["1" + rows[199][1:]] + rows[200:], ": chain 0 has 199 draws, want 200"),
    ], ids=["a column short", "a chain short"])
    def test_bad_v1_rows_exit_2(self, edit, message, tmp_path, capsys):
        header, columns, *rows = (GOLDEN / "legacy-v1.draws").read_text().splitlines()
        assert rows[199].startswith("0,") and rows[200].startswith("1,")
        path = tmp_path / "edited.draws"
        path.write_text("\n".join([header, columns, *edit(rows)]) + "\n")
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", str(path)]) == 2
        assert capsys.readouterr().err == f"error: draws file {path}{message}\n"

    def test_bayes_with_one_complete_cell_exit_2(self, tmp_path, capsys):
        # 2 algorithms x 2 datasets, but only (d1, a) has both subsets
        path = tmp_path / "sparse.csv"
        path.write_text(HEADER + "d1,a,1,0.1,\nd1,a,2,0.2,\nd1,b,1,0.3,\nd2,b,1,0.4,\n")
        assert main(["bayes", str(path), "--seed", "0"]) == 2
        assert capsys.readouterr().err == "error: need at least 2 present cells\n"

    @pytest.mark.parametrize("spec, message", [
        ('{"beta": 0.2,', "malformed synth spec JSON: "),
        ({"alpha": {"a": 0.0}, "delta": {"d": 0.0}}, "invalid synth spec: 'beta'\n"),
        ({"beta": 0.2, "alpha": {"a": 0.0}, "delta": {"d": 0.0}, "cv_noise_sd": -0.1},
         "cv_noise_sd must be >= 0, got -0.1\n"),
        ({"beta": 0.2, "alpha": {}, "delta": {"d": 0.0}}, "alpha and delta must be nonempty\n"),
    ], ids=["malformed json", "no beta", "negative cv_noise_sd", "empty alpha"])
    def test_bad_synth_spec_exit_2(self, spec, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        assert main(["synth", str(path), "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_rank_leaves_out_an_algorithm_ranked_on_no_dataset(self, tmp_path, capsys):
        # "lone" is measured only on d3, where no other algorithm is, so d3 is skipped
        rows = [f"{d},{a},{s},{e}," for d in ("d1", "d2") for a, e in (("a", 0.1), ("b", 0.2)) for s in (1, 2)]
        path = tmp_path / "errors.csv"
        path.write_text(HEADER + "\n".join(rows + ["d3,lone,1,0.3,", "d3,lone,2,0.3,"]) + "\n")
        with pytest.warns(UserWarning, match="^skipping 1 datasets with <2 present algorithms: d3$"):
            assert main(["rank", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["algorithm,mean_rank,top_count", "a,1,2", "b,2,0"]


class TestPpcCommand:
    def test_ppc_after_save(self, synth_csv, tmp_path, capsys):
        draws_path = tmp_path / "draws.csv"
        assert (
            main(
                ["bayes", synth_csv, "--chains", "2", "--burn-in", "100",
                 "--adaptation", "100", "--kept", "300", "--seed", "5",
                 "--save", str(draws_path)]
            )
            == 0
        )
        capsys.readouterr()
        scatter = tmp_path / "scatter.csv"
        code = main(
            ["ppc", str(draws_path), synth_csv, "--n-draws", "200",
             "--seed", "0", "--scatter", str(scatter)]
        )
        assert code == 0
        out = capsys.readouterr().out
        p = float(out.split("bayesian_p_value,")[1].splitlines()[0])
        assert 0.0 <= p <= 1.0
        assert scatter.read_text().startswith("t_real,t_rep")

    def test_missing_draws_file_exit_2(self, synth_csv, capsys):
        assert main(["ppc", "/nonexistent/draws.csv", synth_csv]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bayes_load_missing_draws_file_exit_2(self, synth_csv, capsys):
        assert main(["bayes", synth_csv, "--load", "/nonexistent/draws.csv"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err and "Errno" not in err


class TestNonFiniteDraws:
    """A draws file that holds a NaN or an infinity is an input error (exit
    2) naming the file and the chain, draw and parameter of the first one;
    the golden table's labels put delta[ds02] in column 7 of 21."""

    @staticmethod
    def v2_draws(tmp_path, value, chain, draw, column):
        legacy = load_draws(GOLDEN / "legacy-v1.draws")
        # 6,400 draws per chain: more than one read of about 1 MB holds
        block = np.tile(legacy.block, 32)
        path = tmp_path / "bad.draws"
        banova.save_draws(banova.PosteriorDraws("normal", legacy.algorithms, legacy.datasets, block), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\n") + 1 + 8 * ((chain * block.shape[2] + draw) * block.shape[1] + column)
        raw[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(raw)
        return str(path)

    @staticmethod
    def message(path, chain, draw, parameter, value):
        return (f"error: draws file {path}: chain {chain}, draw {draw} (both counted from 0), "
                f"parameter {parameter} is {value!r}; every draw must be finite\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bayes_load_exit_2(self, tmp_path, value, capsys):
        path = self.v2_draws(tmp_path, value, 1, 17, 7)
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.message(path, 1, 17, "delta[ds02]", value)

    def test_in_a_later_read_exit_2(self, tmp_path, capsys):
        path = self.v2_draws(tmp_path, math.inf, 0, 6300, 20)
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", path]) == 2
        assert capsys.readouterr().err == self.message(path, 0, 6300, "sigma_d", math.inf)

    def test_ppc_exit_2(self, tmp_path, capsys):
        path = self.v2_draws(tmp_path, math.nan, 1, 17, 7)
        assert main(["ppc", path, str(GOLDEN / "errors.csv"), "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.message(path, 1, 17, "delta[ds02]", math.nan)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_v1_exit_2(self, tmp_path, value, capsys):
        header, columns, *rows = (GOLDEN / "legacy-v1.draws").read_text().splitlines(True)
        fields = rows[200 + 17].split(",")  # chain 1, draw 17; field 0 is the chain
        fields[1 + 7] = value
        rows[200 + 17] = ",".join(fields)
        path = tmp_path / "bad-v1.draws"
        path.write_text(header + columns + "".join(rows))
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--load", str(path)]) == 2
        assert capsys.readouterr().err == self.message(path, 1, 17, "delta[ds02]", float(value))


class TestTimingCommand:
    TIMING_HEADER = (
        "dataset,algorithm,subset,train_test_seconds,"
        "hyper_search_seconds,n_hyper_combos\n"
    )

    def _table(self, tmp_path):
        # "fast" beats "slow" on every dataset/subset
        rows = []
        for i in range(8):
            for s in (1, 2):
                rows.append(f"d{i},fast,{s},{1 + 0.1 * i},{10},{5}")
                rows.append(f"d{i},slow,{s},{5 + 0.1 * i},{200},{5}")
        path = tmp_path / "t.csv"
        path.write_text(self.TIMING_HEADER + "\n".join(rows) + "\n")
        return str(path)

    def test_k2_closed_form_p_value(self, tmp_path, capsys):
        assert main(["timing", self._table(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any(line.startswith("fast,1,") for line in lines)
        # unanimous ordering on 16 subjects: chi2 = 16, p = sf(16, 1)
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("statistic,"))
        row = dict(zip(lines[header_idx].split(","), lines[header_idx + 1].split(",")))
        from benchstat import chi_square_sf

        assert float(row["statistic"]) == pytest.approx(16.0)
        assert row["dof"] == "1"
        assert float(row["p_value"]) == pytest.approx(chi_square_sf(16, 1), rel=1e-5)

    def test_per_hyper_metric_accepted(self, tmp_path, capsys):
        assert main(["timing", self._table(tmp_path), "--metric", "per_hyper"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("combos", ["9223372036854775808", "1" + "0" * 400])
    def test_n_hyper_combos_past_int64_exit_2(self, tmp_path, capsys, combos):
        path = self._table(tmp_path)
        with open(path, "a") as fh:
            fh.write(f"d8,fast,1,1,10,{combos}\n")
        assert main(["timing", path, "--metric", "per_hyper"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 34: n_hyper_combos must be <= 9223372036854775807, got {combos}\n"


class TestSynthCommand:
    def _spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "beta": 0.2,
                    "alpha": {"a": 0.0, "b": 0.05},
                    "delta": {"d1": 0.0, "d2": 0.1},
                    "noise_sd": 0.01,
                    "cv_noise_sd": 0.01,
                }
            )
        )
        return str(path)

    def test_deterministic_per_seed(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        assert main(["synth", spec, "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["synth", spec, "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert "# seed: 9" in first

    def test_output_reingestible(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        out = tmp_path / "generated.csv"
        assert main(["synth", spec, "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["rank", str(out)]) == 0
        capsys.readouterr()


class TestErrorHandling:
    def test_empty_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER)
        assert main(["rank", str(path)]) == 2
        assert "empty input" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["rank", "/does/not/exist.csv"]) == 2
        capsys.readouterr()

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "d,a,1,two,\n")
        assert main(["rank", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unclosed_quote_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "d,a,1,0.1,\n" + 'd,"a,2,0.1,\n' + "x" * 140_000 + "\n")
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: field larger than field limit")

    @pytest.mark.parametrize("alpha", ["nan", "-1", "0", "1"])
    @pytest.mark.parametrize("command, table", [("nhst", "errors.csv"), ("timing", "timing.csv")])
    def test_alpha_outside_zero_one_exit_2(self, command, table, alpha, capsys):
        assert main([command, str(GOLDEN / table), "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --alpha must be in (0, 1), got {float(alpha)}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["rank", "IN", "--bogus"], "No such option"),
            (["rank", "IN", "--format", "xml"], "Invalid value for '--format'"),
            (["rank"], "Missing argument 'INPUT_PATH'"),
        ],
        ids=["unknown option", "bad --format choice", "missing argument"],
    )
    def test_usage_error_exit_2_with_click_error_line(self, synth_csv, argv, error, capsys):
        assert main([synth_csv if arg == "IN" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Usage: ")
        assert captured.err.splitlines()[-1].startswith(f"Error: {error}")

    def test_zero_variance_bayes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = [f"d{i},{a},{s},0.2," for i in range(3) for a in "ab" for s in (1, 2)]
        path.write_text(HEADER + "\n".join(rows) + "\n")
        assert main(["bayes", str(path), "--seed", "0"]) == 2
        assert "zero variance" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--kept", "--chains"])
    def test_draws_block_past_the_address_space_exit_2(self, option, capsys):
        argv = ["bayes", str(GOLDEN / "errors.csv"), "--seed", "0", option, str(10**19)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        chains, kept = (10**19, 5000) if option == "--chains" else (4, 10**19)
        assert captured.err == (
            f"error: {chains} chains x 21 columns x {kept} kept draws of 8 bytes is "
            f"{8 * 21 * chains * kept} bytes, more than the {sys.maxsize} a draws block can hold\n"
        )

    @pytest.mark.parametrize(
        "argv, raw, byte",
        [
            (["rank", "{bad}"], HEADER.encode() + b"d\xe9,a,1,0.1,\n", "0xe9"),
            (["bayes", str(GOLDEN / "errors.csv"), "--config", "{bad}"], b"chains=2\r\nkept=\xff\n", "0xff"),
            (["bayes", "{bad}", "--load", str(GOLDEN / "legacy-v1.draws")], (HEADER + "d\xe9").encode("latin-1"), "0xe9"),
            (["synth", "{bad}"], b'{\n"beta": "\xe9"}\n', "0xe9"),
        ],
        ids=["rank input", "bayes --config", "bayes --load input", "synth spec"],
    )
    def test_input_that_is_not_utf8_exit_2(self, argv, raw, byte, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(raw)
        assert main([arg.format(bad=bad) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: line 2: byte {byte} is not valid UTF-8\n"
        )

    def test_stdin_that_is_not_utf8_exit_2(self, monkeypatch, capsys):
        raw = HEADER.encode() + b"d,a,1,0.1,\nd,\xe9,1,0.1,\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        assert main(["rank", "-"]) == 2
        assert capsys.readouterr().err == "error: cannot read -: line 3: byte 0xe9 is not valid UTF-8\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bayes", str(GOLDEN / "errors.csv")],
            ["ppc", str(GOLDEN / "legacy-v1.draws"), str(GOLDEN / "errors.csv")],
            ["synth", str(GOLDEN / "synth-spec.json")],
        ],
        ids=["bayes", "ppc", "synth"],
    )
    def test_negative_seed_exit_2(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [["bayes", str(GOLDEN / "errors.csv"), "--load", "{draws}"], ["ppc", "{draws}", str(GOLDEN / "errors.csv")]],
        ids=["bayes", "ppc"],
    )
    def test_draws_whose_meta_is_not_an_object_exit_2(self, argv, tmp_path, capsys):
        header, body = (GOLDEN / "legacy-v1.draws").read_text().split("\n", 1)
        magic, fields = header.split(" {", 1)
        path = tmp_path / "listed.draws"
        path.write_text(f"{magic} {json.dumps(json.loads('{' + fields) | {'meta': [1, 2]})}\n{body}")
        assert main([arg.format(draws=path) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: draws file {path}: malformed header (meta [1, 2] is not an object)\n"
        )

    def test_refused_draws_mapping_exit_1(self, monkeypatch, capsys):
        def refuse(fileno, length):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(banova.mmap, "mmap", refuse)
        assert main(["bayes", str(GOLDEN / "errors.csv"), "--seed", "0"]) == 1
        assert os.strerror(errno.ENOMEM) in capsys.readouterr().err


class TestNumberFormatting:
    def test_six_significant_digits_everywhere(self, synth_csv, capsys):
        assert main(["nhst", synth_csv]) == 0
        out = capsys.readouterr().out
        for token in re.findall(r",(\d+\.\d+)", out):
            digits = token.replace(".", "").lstrip("0")
            assert len(digits) <= 6, token


def csv_blocks(text: str) -> list:
    """The rows of a CSV report as ``csv.reader`` reads them with its '#'
    lines dropped, split into blocks at blank lines."""
    rows = csv.reader(line for line in io.StringIO(text) if not line.startswith("#"))
    return [list(block) for blank, block in itertools.groupby(rows, lambda row: not row) if not blank]


class TestCsvQuoting:
    """Every CSV the program writes reads back, '#' lines dropped, with each
    name intact: a name that starts with '#' is no comment line, and a '\r'
    in a name ends no row."""

    ALGORITHMS = {"#nb": 0.0, "a\rb": 0.05, "knn 5": 0.1, "q\"t": 0.15}
    DATASETS = {"#iris": 0.0, "w\rine": 0.01, "a,b": 0.02, **{f"d{i:02d}": 0.01 * i for i in range(3, 12)}}

    def test_every_command_keeps_the_names(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"beta": 0.2, "alpha": self.ALGORITHMS, "delta": self.DATASETS,
                                    "noise_sd": 0.005, "cv_noise_sd": 0.005}))
        table, heat = tmp_path / "errors.csv", tmp_path / "heat.csv"
        assert main(["synth", str(spec), "--seed", "4", "--out", str(table)]) == 0
        mcmc = ["--seed", "1", "--chains", "2", "--burn-in", "50", "--adaptation", "50", "--kept", "100",
                "--threads", "1"]
        outputs = {}
        for argv in (["rank", str(table), "--heatmap-csv", str(heat)], ["nhst", str(table)],
                     ["bayes", str(table), *mcmc]):
            assert main(argv) == 0
            outputs[argv[0]] = csv_blocks(capsys.readouterr().out)
        names = sorted(self.ALGORITHMS)
        pairs = set(itertools.combinations(names, 2))
        [synth] = csv_blocks(table.read_bytes().decode("utf-8"))
        assert {tuple(row[:2]) for row in synth[1:]} == set(itertools.product(self.DATASETS, names))
        assert len(synth) == 1 + 2 * len(self.DATASETS) * len(names)
        [rank] = outputs["rank"]
        assert sorted(row[0] for row in rank[1:]) == names
        [heatmap] = csv_blocks(heat.read_bytes().decode("utf-8"))
        assert {row[0] for row in heatmap[1:]} == set(names) and {len(row) for row in heatmap} == {3}
        friedman, nemenyi = outputs["nhst"]
        assert len(friedman) == 2 and {tuple(row[:2]) for row in nemenyi[1:]} == pairs
        rope, diagnostics = outputs["bayes"]
        assert {tuple(row[:2]) for row in rope[1:]} == pairs
        parameters = {row[0] for row in diagnostics[1:]}
        assert {f"alpha[{a}]" for a in names} | {f"delta[{d}]" for d in self.DATASETS} <= parameters
        for block in [synth, rank, heatmap, friedman, nemenyi, rope, diagnostics]:
            assert {len(row) for row in block} == {len(block[0])}

    def test_writer_quotes_by_the_reader_rule(self):
        fields = ["plain", " #lead", "#x", "a,b", 'q"t', "r\rs", "n\ny", "p#q", 1, 2.5, True]
        text = csv_table(["h"] * len(fields), [fields])
        assert text.split("\n", 1)[1] == (
            'plain," #lead","#x","a,b","q""t","r\rs","n\ny",p#q,1,2.5,True\n'
        )
        assert csv_blocks(text) == [[["h"] * len(fields), list(map(str, fields))]]


def run_fresh(body: str, *args) -> list:
    """Run ``body`` in a new interpreter after ``from benchstat.cli import main``;
    ``argv`` holds ``args`` as strings.  Returns the stdout lines."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv.pop(1))\n"
        "from benchstat.cli import main\n"
        "argv = sys.argv[1:]\n"
        "def loaded(*prefixes):\n"
        "    return ' '.join(sorted(m for m in sys.modules if m.startswith(prefixes)))\n"
    ) + body
    src = os.path.dirname(os.path.dirname(banova.__file__))
    run = subprocess.run(
        [sys.executable, "-c", code, src, *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return run.stdout.splitlines()


class TestColdStart:
    """Commands import scipy and the process pool only where they use them."""

    def test_commands_without_scipy_never_load_it(self, tmp_path):
        body = (
            "errors, draws, out = argv\n"
            "for cmd in (['rank', errors], ['threshold', errors],\n"
            "            ['bayes', errors, '--load', draws],\n"
            "            ['ppc', draws, errors, '--seed', '5', '--n-draws', '50']):\n"
            "    assert main(cmd + ['--out', out]) == 0, cmd\n"
            "print(loaded('scipy'))\n"
            "assert main(['bayes', errors, '--threads', '1', '--seed', '3', '--chains', '2',\n"
            "             '--burn-in', '50', '--adaptation', '50', '--kept', '50', '--out', out]) == 0\n"
            "print(loaded('multiprocessing', 'concurrent.futures'))\n"
        )
        lines = run_fresh(body, GOLDEN / "errors.csv", GOLDEN / "legacy-v1.draws", tmp_path / "out")
        assert lines == ["", ""]

    def test_robust_bayes_never_loads_scipy(self, tmp_path):
        # the exact df draw takes digamma and trigamma from its own series
        body = (
            "errors, out = argv\n"
            "assert main(['bayes', errors, '--variant', 'robust', '--threads', '1', '--seed', '3',\n"
            "             '--chains', '2', '--burn-in', '50', '--adaptation', '50', '--kept', '50',\n"
            "             '--out', out]) == 0\n"
            "print(loaded('scipy'))\n"
        )
        assert run_fresh(body, GOLDEN / "errors.csv", tmp_path / "out") == [""]

    def test_cold_nhst_reproduces_golden_bytes(self, tmp_path):
        # the Friedman chi-square tail imports scipy.special at the call
        out = tmp_path / "nhst.csv"
        body = (
            "errors, out = argv\n"
            "print(loaded('scipy.special'))\n"
            "assert main(['nhst', errors, '--rank-scheme', 'dense', '--alpha', '1e-9', '--out', out]) == 0\n"
            "print(loaded('scipy.special'))\n"
        )
        before, after = run_fresh(body, GOLDEN / "errors.csv", out)
        assert (before, after.split()[0]) == ("", "scipy.special")
        assert out.read_bytes() == (GOLDEN / "nhst-dense-skipped-csv.csv").read_bytes()

    def test_cold_nhst_with_nemenyi_loads_no_scipy_stats(self, tmp_path):
        # the Nemenyi tail takes ndtr from scipy.special, as the Friedman tail
        # takes gammaincc; scipy.stats would cost most of a second to import
        out = tmp_path / "nhst.csv"
        body = (
            "errors, out = argv\n"
            "assert main(['nhst', errors, '--format', 'csv', '--out', out]) == 0\n"
            "print(loaded('scipy.special'))\n"
            "print(loaded('scipy.stats'))\n"
        )
        special, stats = run_fresh(body, GOLDEN / "errors.csv", out)
        assert (special.split()[0], stats) == ("scipy.special", "")
        assert out.read_bytes() == (GOLDEN / "nhst-csv.csv").read_bytes()

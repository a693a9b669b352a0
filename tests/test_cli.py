import csv
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pubtfp
from pubtfp.cli import PLOT_COLUMNS, REPORT_COLUMNS, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PARADOX_FILE = SCENARIO_DIR / "paradoxes.yaml"
SIMULATION_FILE = SCENARIO_DIR / "simulate_tech_progress.yaml"

GOOD_P1 = """\
  - name: progress
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.25
"""

PANEL_HEADER = (
    "year,country,industry,va_nominal,va_deflator,capital_services,labor_input,"
    "labor_share,capital_share\n"
)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def run_cli(*args):
    """Run the CLI in a fresh interpreter on the package under test."""
    package_root = str(Path(pubtfp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pubtfp.cli", *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


class TestParadoxCommand:
    def test_shipped_scenarios_confirm_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(PARADOX_FILE), "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "5 scenario(s): 5 confirmed, 0 not confirmed, 0 failed" in stdout
        rows = read_rows(out)
        assert len(rows) == 5
        assert list(rows[0]) == list(REPORT_COLUMNS)
        assert all(row["confirmed"] == "true" and row["error"] == "" for row in rows)
        assert [row["scenario"] for row in rows] == [
            "technical-progress", "allocative-gain", "scale-to-best",
            "cheaper-inputs", "markup-cut",
        ]
        first = rows[0]
        assert float(first["measured_before"]) == 2.0
        assert float(first["measured_after"]) == pytest.approx(1.6, rel=1e-12)

    def test_precondition_failures_keep_their_row_and_exit_one(self, tmp_path, capsys):
        text = "scenarios:\n" + GOOD_P1 + """\
  - name: already-there
    paradox: 2
    technology: {family: cobb-douglas, alpha_capital: 0.5, alpha_labor: 0.5}
    bundle: {capital: 2, labor: 2}
    prices: {capital_price: 1, wage: 1}
"""
        scenario_file = tmp_path / "scenarios.yaml"
        scenario_file.write_text(text, encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(scenario_file), "--output", str(out)]) == 1
        rows = read_rows(out)
        assert len(rows) == 2
        errors = {row["scenario"]: row["error"] for row in rows}
        assert errors["progress"] == ""
        assert "cost-minimizing" in errors["already-there"]
        assert "1 failed" in capsys.readouterr().out

    def test_solver_failures_exit_two(self, tmp_path, capsys):
        text = """\
scenarios:
  - name: unbracketable
    paradox: 2
    technology: {family: ces, capital_weight: 0.4, substitution: -1.0}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1.0e+40, wage: 1.0e-05}
"""
        scenario_file = tmp_path / "scenarios.yaml"
        scenario_file.write_text(text, encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(scenario_file), "--output", str(out)]) == 2
        rows = read_rows(out)
        assert rows[0]["error"] != ""
        capsys.readouterr()

    def test_retired_tolerance_flag_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "paradox", "--input", str(PARADOX_FILE), "--output", str(out),
                "--tolerance", "identity_check=1e-6",
            ])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: pubtfp")
        assert "unrecognized arguments: --tolerance identity_check=1e-6" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main([
            "paradox", "--input", str(tmp_path / "nope.yaml"),
            "--output", str(tmp_path / "report.csv"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["paradox", "--input", str(PARADOX_FILE), "--output", str(first)])
        main(["paradox", "--input", str(PARADOX_FILE), "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["paradox", "--input", "x.yaml"])
        assert excinfo.value.code == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1
        capsys.readouterr()


class TestSimulateAndAccounting:
    def run_pipeline(self, tmp_path, extra=()):
        panel = tmp_path / "panel.csv"
        indices = tmp_path / "indices.csv"
        assert main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)]) == 0
        code = main(
            ["accounting", "--input", str(panel), "--output", str(indices), *extra]
        )
        assert code == 0
        return panel, indices

    def test_simulated_panel_feeds_the_accounting_pipeline(self, tmp_path, capsys):
        panel, indices = self.run_pipeline(tmp_path)
        panel_rows = read_rows(panel)
        assert len(panel_rows) == 26
        assert panel_rows[0]["va_nominal"] == "2.0"
        rows = read_rows(indices)
        assert len(rows) == 26
        by_year = {int(r["year"]): float(r["tfp_index"]) for r in rows}
        assert by_year[1995] == 100.0
        assert by_year[2020] == pytest.approx(100.0 * 1.01**-25, abs=1e-6)
        assert all(r["country"] == "SIM" and r["industry"] == "education" for r in rows)
        capsys.readouterr()

    def test_plot_file_lands_next_to_the_output(self, tmp_path, capsys):
        _, indices = self.run_pipeline(tmp_path)
        plot = tmp_path / "indices_plot.csv"
        assert plot.exists()
        rows = read_rows(plot)
        assert list(rows[0]) == list(PLOT_COLUMNS)
        assert rows[0]["series"] == "SIM:education"
        assert len(rows) == 26
        capsys.readouterr()

    def test_explicit_plot_output_is_honored(self, tmp_path, capsys):
        custom = tmp_path / "chart_data.csv"
        self.run_pipeline(tmp_path, extra=["--plot-output", str(custom)])
        assert custom.exists()
        assert not (tmp_path / "indices_plot.csv").exists()
        capsys.readouterr()

    def test_base_year_flag(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        indices = tmp_path / "indices.csv"
        main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)])
        assert main([
            "accounting", "--input", str(panel), "--output", str(indices),
            "--base-year", "2000",
        ]) == 0
        by_year = {int(r["year"]): float(r["tfp_index"]) for r in read_rows(indices)}
        assert by_year[2000] == 100.0
        assert by_year[1995] == pytest.approx(100.0 * 1.01**5, rel=1e-9)
        capsys.readouterr()

    def test_base_year_outside_the_panel_is_an_input_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        indices = tmp_path / "indices.csv"
        main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)])
        code = main([
            "accounting", "--input", str(panel), "--output", str(indices),
            "--base-year", "1888",
        ])
        assert code == 1
        assert "1888" in capsys.readouterr().err

    def test_every_series_problem_names_the_panel(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text(PANEL_HEADER + "".join(
            f"{year},{country},{industry},1.0,1.0,1.0,1.0,0.6,0.4\n"
            for country, industry in (("UK", "ind0"), ("FI", "ind1"))
            for year in (1995, 1996, 1998)
        ), encoding="utf-8")
        out = tmp_path / "indices.csv"
        assert main(["accounting", "--input", str(panel), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "pubtfp: 2 series failed: "
            "gap in series ('FI', 'ind1'): year 1996 is followed by 1998; "
            f"gap in series ('UK', 'ind0'): year 1996 is followed by 1998 (panel {panel})\n"
        )
        assert not out.exists()

    def test_malformed_panel_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "panel.csv"
        bad.write_text("year,country\n1995,AA\n", encoding="utf-8")
        code = main(["accounting", "--input", str(bad), "--output", str(tmp_path / "i.csv")])
        assert code == 1
        capsys.readouterr()

    def test_outputs_are_byte_identical_across_runs(self, tmp_path, capsys):
        a_panel, a_idx = self.run_pipeline(tmp_path / "a")
        b_panel, b_idx = self.run_pipeline(tmp_path / "b")
        assert a_panel.read_bytes() == b_panel.read_bytes()
        assert a_idx.read_bytes() == b_idx.read_bytes()
        capsys.readouterr()

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)


class TestReportCommand:
    def test_summarizes_a_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        main(["paradox", "--input", str(PARADOX_FILE), "--output", str(out)])
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "5 scenario(s): 5 confirmed, 0 not confirmed, 0 failed" in stdout
        assert "paradox 1 technical-progress: confirmed" in stdout

    def test_rejects_files_with_the_wrong_columns(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)])
        capsys.readouterr()
        assert main(["report", "--input", str(panel)]) == 1
        assert "not a paradox report" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_execution(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pubtfp.cli", "paradox",
             "--input", str(PARADOX_FILE), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "5 confirmed" in proc.stdout
        assert out.exists()

    @pytest.mark.skipif(shutil.which("pubtfp") is None, reason="console script not on PATH")
    def test_console_script(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            ["pubtfp", "paradox", "--input", str(PARADOX_FILE), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestCrashBackstop:
    """Arithmetic failures become error rows and exit codes, never tracebacks."""

    @pytest.mark.parametrize(
        "technology, capital, code, message",
        [
            # zero capital zeroes Cobb-Douglas output, the measured-TFP denominator
            (
                "{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}",
                "0.0",
                1,
                "denominator must be strictly positive",
            ),
            # 1e-200 ** -3 overflows inside the CES sum
            (
                "{family: ces, capital_weight: 0.4, substitution: -3.0}",
                "1.0e-200",
                2,
                "out of range",
            ),
        ],
        ids=["zero-output", "overflow"],
    )
    def test_probe_keeps_its_row_next_to_a_valid_scenario(
        self, tmp_path, technology, capital, code, message
    ):
        text = "scenarios:\n" + GOOD_P1 + f"""\
  - name: probe
    paradox: 1
    technology: {technology}
    bundle: {{capital: {capital}, labor: 1}}
    prices: {{capital_price: 1, wage: 1}}
    shift_factor: 1.25
"""
        scenario_file = tmp_path / "scenarios.yaml"
        scenario_file.write_text(text, encoding="utf-8")
        out = tmp_path / "report.csv"
        proc = run_cli("paradox", "--input", scenario_file, "--output", out)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = {row["scenario"]: row for row in read_rows(out)}
        assert rows["progress"]["confirmed"] == "true"
        assert message in rows["probe"]["error"]

    def test_overflow_outside_the_batch_exits_two(self, tmp_path):
        config = tmp_path / "sim.yaml"
        config.write_text(
            """\
simulation:
  convention: market
  start_year: 1995
  years: 2
  level_growth: 0.0
  technology: {family: ces, capital_weight: 0.4, substitution: -3.0}
  bundle: {capital: 1.0e-200, labor: 1.0}
  prices: {capital_price: 1.0, wage: 1.0}
""",
            encoding="utf-8",
        )
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "panel.csv")
        assert proc.returncode == 2
        assert "pubtfp: internal error" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUnreadableInputs:
    """Undecodable bytes and unusable rows exit 1 with a message, not a traceback."""

    @pytest.mark.parametrize(
        "command, content",
        [
            ("paradox", b"scenarios:\n  - name: \xc4\n"),
            ("simulate", b"simulation:\n  country: \xc4\n"),
            ("accounting", PANEL_HEADER.encode() + b"1995,\xc4,edu,1.0,1.0,1.0,1.0,0.6,0.4\n"),
            ("report", ",".join(REPORT_COLUMNS).encode() + b"\n\xc4,1,,,,,,,,x\n"),
        ],
        ids=["paradox", "simulate", "accounting", "report"],
    )
    def test_non_utf8_byte_names_the_file_and_offset(self, tmp_path, command, content):
        # 0xc4 is a Latin-1 capital A with diaeresis
        source = tmp_path / f"latin1-{command}"
        source.write_bytes(content)
        output = [] if command == "report" else ["--output", tmp_path / "out.csv"]
        proc = run_cli(command, "--input", source, *output)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        offset = content.index(b"\xc4")
        assert f"{source} is not valid UTF-8: byte 0xc4 at offset {offset}" in proc.stderr

    @pytest.mark.parametrize("nominal, deflator", [("1e-300", "1e300"), ("1e300", "1e-300")])
    def test_unrepresentable_real_value_added_names_the_row(self, tmp_path, nominal, deflator):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            PANEL_HEADER + "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4\n"
            f"1996,AA,edu,{nominal},{deflator},1.0,1.0,0.6,0.4\n",
            encoding="utf-8",
        )
        proc = run_cli("accounting", "--input", panel, "--output", tmp_path / "indices.csv")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "row 3: real value added" in proc.stderr

    def test_report_row_with_missing_fields_is_rejected(self, tmp_path):
        report = tmp_path / "report.csv"
        report.write_text(",".join(REPORT_COLUMNS) + "\nx,1\n", encoding="utf-8")
        proc = run_cli("report", "--input", report)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{report} is not a paradox report: row 2 is missing fields" in proc.stderr
        assert proc.stdout == ""


class TestShippedOutputs:
    """Pinned bytes of the CLI's outputs on the shipped input files."""

    def test_paradox_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(PARADOX_FILE), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "scenario,paradox_id,convention,measured_before,measured_after,"
            "true_before,true_after,confirmed,welfare_direction,error\n"
            "technical-progress,1,CostBasedVA,2.0,1.6,1.0,1.25,true,improved,\n"
            "allocative-gain,2,CostBasedVA,2.5,1.9999999999999996,1.0,1.0,true,improved,\n"
            "scale-to-best,3,CostBasedVA,2.0,1.809674836071919,1.0,1.0,true,improved,\n"
            "cheaper-inputs,4,CostBasedVA,2.0,1.7000000000000002,1.0,1.0,true,"
            "unchanged-productivity,\n"
            "markup-cut,5,DistortedRevenue,6.2,5.8500000000000005,2.0,2.0,true,"
            "unchanged-productivity,\n"
        )
        capsys.readouterr()

    def test_simulate_then_accounting(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        indices = tmp_path / "indices.csv"
        assert main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)]) == 0
        assert main(["accounting", "--input", str(panel), "--output", str(indices)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (panel, indices, tmp_path / "indices_plot.csv")
        }
        assert digests == {
            "panel.csv": "03a5a44ec108cba85b1d7db22ce3795eaa465edc78f80d55a930ba2e409cec7f",
            "indices.csv": "2f4c2b40cb3d30e111652671c9de04d2f2dd6346faefb8d4ffb6a1e8d955ac2d",
            "indices_plot.csv": "b879acad70f545df639fe2c02621819da24622aa500980a07c4ec5bc7d889a73",
        }
        capsys.readouterr()


class TestMoreUnreadableInputs:
    """Oversized cells, a byte-order mark and out-of-range indices: exit 1, no traceback."""

    def test_oversized_panel_cell_names_the_file_and_line(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            PANEL_HEADER + "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4\n"
            f"1996,AA,{'x' * 200_000},1.0,1.0,1.0,1.0,0.6,0.4\n",
            encoding="utf-8",
        )
        proc = run_cli("accounting", "--input", panel, "--output", tmp_path / "indices.csv")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"pubtfp: panel {panel}, line 3: field larger than field limit" in proc.stderr

    def test_oversized_report_cell_names_the_file_and_line(self, tmp_path):
        report = tmp_path / "report.csv"
        report.write_text(
            ",".join(REPORT_COLUMNS) + f"\n{'x' * 200_000},1,,,,,,,,oops\n", encoding="utf-8"
        )
        proc = run_cli("report", "--input", report)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{report} is not a paradox report: line 2: field larger than" in proc.stderr

    def test_report_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        main(["paradox", "--input", str(PARADOX_FILE), "--output", str(report)])
        capsys.readouterr()
        report.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
        assert main(["report", "--input", str(report)]) == 0
        assert "5 scenario(s): 5 confirmed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "first, second, log_change",
        [("1e300", "1e-300", "-1381.55"), ("1e-300", "1e300", "1381.55")],
        ids=["underflow", "overflow"],
    )
    def test_index_out_of_float_range_names_the_series_and_year(
        self, tmp_path, first, second, log_change
    ):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            PANEL_HEADER + f"1995,AA,edu,{first},1.0,1.0,1.0,0.6,0.4\n"
            f"1996,AA,edu,{second},1.0,1.0,1.0,0.6,0.4\n",
            encoding="utf-8",
        )
        proc = run_cli("accounting", "--input", panel, "--output", tmp_path / "indices.csv")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert (
            "pubtfp: TFP index of AA/edu leaves the float range in 1996 "
            f"(log change {log_change} from base year 1995)"
        ) in proc.stderr


HUGE = "1" * 5000  # past int()'s default 4,300-digit limit


class TestValuesPastTheIntegerDigitLimit:
    """A 5,000-digit integer is an input error that names the file, not a traceback."""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads any integer"
    )
    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("paradox", f"scenarios:\n  - name: huge\n    paradox: {HUGE}\n", ", line 3"),
            (
                "simulate",
                SIMULATION_FILE.read_text(encoding="utf-8").replace("1995", HUGE),
                ", line 9",
            ),
            ("paradox", f"scenarios:\n  - name: huge\n    paradox: &id {HUGE}\n", ", line 3"),
        ],
        ids=["paradox", "simulate", "paradox-with-an-anchor"],
    )
    def test_exits_one_naming_the_file(self, tmp_path, command, text, where):
        source = tmp_path / "huge.yaml"
        source.write_text(text, encoding="utf-8")
        proc = run_cli(command, "--input", source, "--output", tmp_path / "out.csv")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"pubtfp: {source}{where}")
        assert "a value cannot be read: Exceeds the limit (4300 digits)" in proc.stderr

    def test_a_5000_digit_float_still_loads(self, tmp_path, capsys):
        source = tmp_path / "long-float.yaml"
        source.write_text(
            "scenarios:\n" + GOOD_P1.replace("1.25", "1.25" + "0" * 5000), encoding="utf-8"
        )
        assert main(["paradox", "--input", str(source), "--output", str(tmp_path / "r.csv")]) == 0
        assert "paradox 1 progress: confirmed" in capsys.readouterr().out


class TestReportVerdictRows:
    """A row without an error must carry a paradox id 1-5, confirmed true or false, a
    known convention and welfare direction, four finite positive numbers, and a
    confirmed cell that says whether measured TFP fell."""

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("x,9,a,abc,,,,yes,,", "row 3: paradox_id must be 1-5, got '9'"),
            ("x,0,,,,,,,,", "row 3: paradox_id must be 1-5, got '0'"),
            ("x,1,a,1.0,1.0,1.0,1.0,yes,,", "row 3: confirmed must be true or false, got 'yes'"),
            ("x,1,a,1.0,1.0,1.0,1.0,,,", "row 3: confirmed must be true or false, got ''"),
        ],
        ids=["paradox-9", "paradox-0", "confirmed-yes", "confirmed-empty"],
    )
    def test_malformed_verdict_row_is_rejected(self, tmp_path, capsys, row, problem):
        report = tmp_path / "report.csv"
        # the well-formed error row ahead of it passes
        report.write_text(f"{','.join(REPORT_COLUMNS)}\ny,0,,,,,,,,boom\n{row}\n", encoding="utf-8")
        assert main(["report", "--input", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{report} is not a paradox report: {problem}\n"

    def test_paradox_ids_match_the_runners(self):
        from pubtfp import cli
        from pubtfp.paradoxes import PARADOX_IDS

        assert cli._VERDICT_CELLS["paradox_id"][0] == {str(i) for i in PARADOX_IDS}

    @pytest.mark.parametrize(
        "row, problem",
        [
            (
                "x,1,Bogus,abc,2.0,,,true,whatever,",
                "convention must be CostBasedVA, CostWeightedIndex or DistortedRevenue, "
                "got 'Bogus'",
            ),
            (
                "x,1,CostBasedVA,2.0,1.0,1.0,1.0,true,better,",
                "welfare_direction must be improved or unchanged-productivity, got 'better'",
            ),
            (
                "x,1,CostBasedVA,abc,1.0,1.0,1.0,true,improved,",
                "measured_before must be a finite positive number, got 'abc'",
            ),
            (
                "x,1,CostBasedVA,2.0,1.0,1.0,nan,true,improved,",
                "true_after must be a finite positive number, got 'nan'",
            ),
            (
                "x,1,CostBasedVA,2.0,1e400,1.0,1.0,false,improved,",
                "measured_after must be a finite positive number, got '1e400'",
            ),
            (
                "x,1,CostBasedVA,2.0,1.0,0.0,1.0,true,improved,",
                "true_before must be a finite positive number, got '0.0'",
            ),
            (
                "x,1,CostBasedVA,1.0,2.0,1.0,1.0,true,improved,",
                "confirmed must be false for measured TFP 1.0 -> 2.0, got 'true'",
            ),
            (
                "x,4,CostBasedVA,2.0,1.0,1.0,1.0,false,unchanged-productivity,",
                "confirmed must be true for measured TFP 2.0 -> 1.0, got 'false'",
            ),
            (
                "x,3,CostBasedVA,2.0,2.0,1.0,1.0,true,unchanged-productivity,",
                "confirmed must be false for measured TFP 2.0 -> 2.0, got 'true'",
            ),
        ],
        ids=[
            "bogus-convention", "bogus-welfare", "number-abc", "number-nan", "number-inf",
            "number-zero", "rise-confirmed", "fall-unconfirmed", "flat-confirmed",
        ],
    )
    def test_verdict_row_must_be_consistent(self, tmp_path, capsys, row, problem):
        report = tmp_path / "report.csv"
        report.write_text(f"{','.join(REPORT_COLUMNS)}\n{row}\n", encoding="utf-8")
        assert main(["report", "--input", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{report} is not a paradox report: row 2: {problem}\n"

    def test_conventions_and_welfare_directions_match_the_library(self):
        from pubtfp import cli
        from pubtfp.measurement import CONVENTIONS
        from pubtfp.paradoxes import WELFARE_IMPROVED, WELFARE_UNCHANGED

        assert cli._VERDICT_CELLS["convention"][0] == set(CONVENTIONS)
        welfare = cli._VERDICT_CELLS["welfare_direction"][0]
        assert welfare == {WELFARE_IMPROVED, WELFARE_UNCHANGED}

    def test_error_rows_may_carry_paradox_id_zero(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text(f"{','.join(REPORT_COLUMNS)}\nx,0,,,,,,,,boom\n", encoding="utf-8")
        assert main(["report", "--input", str(report)]) == 0
        assert capsys.readouterr().out == (
            "paradox 0 x: ERROR boom\n1 scenario(s): 0 confirmed, 0 not confirmed, 1 failed\n"
        )


class TestReportErrorRows:
    """A row with an error must carry a paradox id 0-5 and nothing between it and
    the error, as ``paradox`` writes it."""

    @pytest.mark.parametrize("paradox_id", ["0", "1", "5"])
    def test_well_formed_error_row_is_accepted(self, tmp_path, capsys, paradox_id):
        report = tmp_path / "report.csv"
        report.write_text(
            f"{','.join(REPORT_COLUMNS)}\nx,{paradox_id},,,,,,,,boom\n", encoding="utf-8"
        )
        assert main(["report", "--input", str(report)]) == 0
        assert capsys.readouterr().out.startswith(f"paradox {paradox_id} x: ERROR boom\n")

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("broken,nan,,inf,,,,,,something failed",
             "paradox_id must be 0-5 in an error row, got 'nan'"),
            ("broken,6,,,,,,,,boom", "paradox_id must be 0-5 in an error row, got '6'"),
            ("broken,,,,,,,,,boom", "paradox_id must be 0-5 in an error row, got ''"),
            ("broken,2,CostBasedVA,,,,,,,boom",
             "convention must be empty in an error row, got 'CostBasedVA'"),
            ("broken,2,,inf,,,,,,boom", "measured_before must be empty in an error row, got 'inf'"),
            ("broken,2,,,,,1.0,,,boom", "true_after must be empty in an error row, got '1.0'"),
            ("broken,2,,,,,,false,,boom", "confirmed must be empty in an error row, got 'false'"),
            ("broken,2,,,,,,,improved,boom",
             "welfare_direction must be empty in an error row, got 'improved'"),
        ],
        ids=[
            "paradox-nan", "paradox-6", "paradox-empty", "convention", "measured-before",
            "true-after", "confirmed", "welfare",
        ],
    )
    def test_malformed_error_row_is_rejected(self, tmp_path, capsys, row, problem):
        report = tmp_path / "report.csv"
        report.write_text(f"{','.join(REPORT_COLUMNS)}\n{row}\n", encoding="utf-8")
        assert main(["report", "--input", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{report} is not a paradox report: row 2: {problem}\n"


class TestSimulationOutOfRange:
    """A simulation config that leaves the float range names its key or row and exits 1."""

    @pytest.mark.parametrize(
        "growth, year", [("0.01", 73328), ("-0.5", 3070)], ids=["overflow", "underflow"]
    )
    def test_level_growth_names_the_key_and_year(self, tmp_path, growth, year):
        config = tmp_path / "sim.yaml"
        config.write_text(
            SIMULATION_FILE.read_text(encoding="utf-8")
            .replace("years: 26", "years: 80000")
            .replace("level_growth: 0.01", f"level_growth: {growth}"),
            encoding="utf-8",
        )
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "panel.csv")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (
            f"pubtfp: {config}: simulation.level_growth {growth} takes the technology level "
            f"out of the float range in year {year}"
        ) in proc.stderr

    @pytest.mark.parametrize(
        "convention, levels, column",
        [
            ("market", "[1.0e+300, 1.0e+307]", "va_nominal"),
            ("sna-cost", "[1.0e-300, 1.0e+300]", "va_deflator"),
        ],
        ids=["market", "sna-cost"],
    )
    def test_out_of_range_row_names_the_series_and_year(
        self, tmp_path, convention, levels, column
    ):
        config = tmp_path / "sim.yaml"
        config.write_text(
            f"""\
simulation:
  convention: {convention}
  start_year: 1995
  levels: {levels}
  technology: {{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}}
  bundle: {{capital: 1000.0, labor: 1000.0}}
  prices: {{capital_price: 1.0, wage: 1.0}}
""",
            encoding="utf-8",
        )
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "panel.csv")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (
            f"pubtfp: simulated row SIM/public 1996: {column} must be strictly positive, got inf"
        ) in proc.stderr


class TestSimulationErrorsNameTheConfig:
    """A row rejected while simulating ends with the config file it came from, exit 1."""

    @pytest.mark.parametrize(
        "convention, levels, column",
        [
            ("market", "[1.0e+300, 1.0e+307]", "va_nominal"),
            ("sna-cost", "[1.0e-300, 1.0e+300]", "va_deflator"),
        ],
        ids=["market", "sna-cost"],
    )
    def test_rejected_row_names_the_config_file(self, tmp_path, convention, levels, column):
        config = tmp_path / "sim.yaml"
        config.write_text(
            f"""\
simulation:
  convention: {convention}
  start_year: 1995
  levels: {levels}
  technology: {{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}}
  bundle: {{capital: 1000.0, labor: 1000.0}}
  prices: {{capital_price: 1.0, wage: 1.0}}
""",
            encoding="utf-8",
        )
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "panel.csv")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"pubtfp: simulated row SIM/public 1996: {column} must be strictly positive, "
            f"got inf (simulation config {config})\n"
        )
        assert not (tmp_path / "panel.csv").exists()


class TestSimulationLoadErrorsNameTheConfig:
    """A record or spec rejected while reading the config ends with the config file, exit 1."""

    @pytest.mark.parametrize(
        "edits, problem",
        [
            (
                [("bundle: {capital: 1.0", "bundle: {capital: -1.0")],
                "capital must be nonnegative, got -1.0",
            ),
            (
                [("{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}",
                  "{family: ces, capital_weight: 1.5, substitution: 0.5}")],
                "capital_weight must lie in (0, 1), got 1.5",
            ),
            (
                [("  years: 26\n", ""),
                 ("bundle: {capital: 1.0, labor: 1.0}",
                  "capital: [1.0, -2.0, 1.0]\n  labor: [1.0, 1.0, 1.0]")],
                "capital path must be strictly positive throughout",
            ),
            (
                [("convention: sna-cost", "convention: bogus")],
                "convention must be one of ('sna-cost', 'market'), got 'bogus'",
            ),
        ],
        ids=["bundle", "technology", "capital-path", "convention"],
    )
    def test_rejected_record_names_the_config_file(self, tmp_path, capsys, edits, problem):
        text = SIMULATION_FILE.read_text(encoding="utf-8")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "sim.yaml"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["simulate", "--input", str(config), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"pubtfp: {problem} (simulation config {config})\n"
        assert not out.exists()

    def test_scenario_errors_keep_only_their_path_prefix(self, tmp_path, capsys):
        config = tmp_path / "sim.yaml"
        config.write_text("simulation: {convention: sna-cost, start_year: 1995}\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["simulate", "--input", str(config), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"pubtfp: {config}: simulation is missing keys ['technology']\n"
        )


class TestLogLevel:
    """PUBTFP_LOG_LEVEL sets the root level; the package logs only renormalization warnings."""

    @pytest.fixture
    def config(self, tmp_path):
        # nu = 0.9 under market: the simulated shares sum to 0.9 and each year warns
        config = tmp_path / "sim.yaml"
        config.write_text(
            SIMULATION_FILE.read_text(encoding="utf-8")
            .replace("sna-cost", "market")
            .replace("years: 26", "years: 3")
            .replace(
                "{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}",
                "{family: ces, capital_weight: 0.4, substitution: -1.0, returns_to_scale: 0.9}",
            ),
            encoding="utf-8",
        )
        return config

    @pytest.mark.parametrize("level", [None, "no-such-level", "info"])
    def test_the_warning_shows_at_warning_and_below(self, tmp_path, monkeypatch, config, level):
        if level is None:
            monkeypatch.delenv("PUBTFP_LOG_LEVEL", raising=False)
        else:
            monkeypatch.setenv("PUBTFP_LOG_LEVEL", level)
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "p.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"WARNING pubtfp.accounting: factor shares for SIM/education/{year} sum to "
            "0.900000000; renormalizing to 1"
            for year in (1995, 1996, 1997)
        ]

    def test_error_silences_the_warning(self, tmp_path, monkeypatch, config):
        monkeypatch.setenv("PUBTFP_LOG_LEVEL", "ERROR")
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "p.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestEverySimulatedRowFailureNamesItsRow:
    """Any failure while simulating one year, not only a rejected panel row, names
    the series, the year and the config file; its exit code is unchanged."""

    @pytest.mark.parametrize(
        "technology, capital, code, problem",
        [
            (
                "{family: ces, capital_weight: 0.4, substitution: -1.0}", "1.0e-320", 2,
                "internal error: simulated row SIM/public 1996: "
                "(34, 'Numerical result out of range')",
            ),
            (
                "{family: homothetic-translog, inner_alpha_capital: 0.5, slope: 1.0, "
                "curvature: -0.1}", "1.0e+200", 1,
                "simulated row SIM/public 1996: bundle lies beyond the monotone region of the "
                "translog (scale elasticity -45.05170185988092 at log core index "
                "230.25850929940458)",
            ),
            (
                "{family: homothetic-translog, inner_alpha_capital: 0.5, slope: 1.0, "
                "curvature: -0.1}", "1.0e-200", 1,
                "simulated row SIM/public 1996: va_nominal must be strictly positive, got 0.0",
            ),
        ],
        ids=[
            "ces-subnormal-capital-overflows", "translog-beyond-the-monotone-region",
            "translog-output-underflows",
        ],
    )
    def test_market_row_failure_names_series_year_and_config(
        self, tmp_path, capsys, technology, capital, code, problem
    ):
        config = tmp_path / "sim.yaml"
        config.write_text(
            f"""\
simulation:
  convention: market
  start_year: 1995
  level_growth: 0.0
  technology: {technology}
  capital: [1.0, {capital}, 1.0]
  labor: [1.0, 1.0, 1.0]
  prices: {{capital_price: 1.0, wage: 1.0}}
""",
            encoding="utf-8",
        )
        out = tmp_path / "p.csv"
        assert main(["simulate", "--input", str(config), "--output", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"pubtfp: {problem} (simulation config {config})\n"
        assert not out.exists()


class TestOddKeysAndFamilies:
    """Unknown keys of mixed types and an unhashable family exit 1 with the
    file named, as an error row for ``paradox``; no TypeError escapes."""

    PARADOX = """\
scenarios:
  - name: probe
    paradox: 1
    technology: {technology}
    bundle: {{capital: 1, labor: 1}}
    shift_factor: 1.25
"""
    SIMULATION = """\
simulation:
  convention: market
  start_year: 1995
  years: 2
  level_growth: 0.0
  technology: {technology}
  bundle: {{capital: 1, labor: 1}}
  prices: {{capital_price: 1, wage: 1}}
"""
    FAMILIES = "['ces', 'cobb-douglas', 'homothetic-translog', 'two-level-ces']"

    @pytest.mark.parametrize(
        "technology, error",
        [
            ("{family: ces, capital_weight: 0.4, substitution: -1, 1: 2, x: 3}",
             "scenario 1.technology has unknown keys ['x', 1]"),
            ("{family: [1], capital_weight: 0.4, substitution: -1}",
             f"scenario 1.technology: family must be one of {FAMILIES}, got [1]"),
        ],
        ids=["mixed-keys", "list-family"],
    )
    def test_paradox_error_row(self, tmp_path, capsys, technology, error):
        source = tmp_path / "scenarios.yaml"
        source.write_text(self.PARADOX.format(technology=technology), encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(source), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"paradox 1 probe: ERROR {source}: {error}\n" in captured.out
        assert "Traceback" not in captured.out + captured.err
        (row,) = read_rows(out)
        assert row["error"] == f"{source}: {error}"

    @pytest.mark.parametrize(
        "technology, extra, error",
        [
            ("{family: ces, capital_weight: 0.4, substitution: -1}", "  1: 2\n  x: 3\n",
             "simulation has unknown keys ['x', 1]"),
            ("{family: [1], capital_weight: 0.4, substitution: -1}", "",
             f"simulation.technology: family must be one of {FAMILIES}, got [1]"),
        ],
        ids=["mixed-keys", "list-family"],
    )
    def test_simulate_exits_one(self, tmp_path, capsys, technology, extra, error):
        config = tmp_path / "sim.yaml"
        config.write_text(self.SIMULATION.format(technology=technology) + extra, encoding="utf-8")
        code = main(["simulate", "--input", str(config), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"pubtfp: {config}: {error}\n"
        assert not (tmp_path / "p.csv").exists()


NINES = "9" * 400  # an integer past the float range but within int()'s digit limit


class TestIntegersPastTheFloatRange:
    """An integer too large for a float is an input error naming its key, not a traceback."""

    MARKUP_CUT = """\
  - name: probe
    paradox: 5
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.4,
                 alpha_intermediates: 0.3}
    bundle: {capital: 1.0, labor: 1.0, intermediates: 1.0}
    outputs:
      - {quantity: 3.0, marginal_cost: 1.0, markup: 0.2}
    markups_after: [0.1]
"""

    @pytest.mark.parametrize(
        "entry, key, digits",
        [
            (GOOD_P1.replace("capital: 1,", f"capital: {NINES},"), "bundle.capital", 400),
            (GOOD_P1.replace("1.25", f"-{NINES}"), "shift_factor", 400),
            (GOOD_P1.replace("alpha_capital: 0.3", "alpha_capital: 1" + "0" * 4299),
             "technology.alpha_capital", 4300),
            (MARKUP_CUT.replace("quantity: 3.0", f"quantity: {NINES}"), "outputs[0].quantity", 400),
            (MARKUP_CUT.replace("[0.1]", f"[{NINES}]"), "markups_after[0]", 400),
        ],
        ids=["bundle", "shift-factor", "4300-digits", "outputs", "markups-after"],
    )
    def test_paradox_error_row_and_the_good_entry_still_runs(
        self, tmp_path, capsys, entry, key, digits
    ):
        source = tmp_path / "scenarios.yaml"
        good = GOOD_P1.replace("progress", "good")
        source.write_text("scenarios:\n" + entry.replace("progress", "probe") + good, "utf-8")
        out = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(source), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        error = (
            f"{source}: scenario 1.{key} is too large for a float: a {digits}-digit integer"
        )
        assert f"probe: ERROR {error}\n" in captured.out
        assert "paradox 1 good: confirmed" in captured.out
        assert "Traceback" not in captured.out + captured.err
        rows = {row["scenario"]: row for row in read_rows(out)}
        assert rows["probe"]["error"] == error
        assert rows["good"]["confirmed"] == "true"

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("capital: 1.0,", f"capital: {NINES},", "bundle.capital"),
            ("level_growth: 0.01", f"level_growth: {NINES}", "level_growth"),
            ("years: 26\n  level_growth: 0.01", f"levels: [1, {NINES}]", "levels[1]"),
        ],
        ids=["bundle", "level-growth", "levels"],
    )
    def test_simulate_exits_one_naming_the_file_and_key(self, tmp_path, old, new, key):
        config = tmp_path / "sim.yaml"
        text = SIMULATION_FILE.read_text(encoding="utf-8")
        assert old in text
        config.write_text(text.replace(old, new), encoding="utf-8")
        proc = run_cli("simulate", "--input", config, "--output", tmp_path / "panel.csv")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            f"pubtfp: {config}: simulation.{key} is too large for a float: "
            "a 400-digit integer\n"
        )
        assert not (tmp_path / "panel.csv").exists()

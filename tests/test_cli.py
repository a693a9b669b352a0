import csv
import hashlib
import math
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

    def test_tolerance_override_changes_the_verdict(self, tmp_path, capsys):
        near_peak = math.e * 1.2
        text = f"""\
scenarios:
  - name: tiny-scale-move
    paradox: 3
    technology: {{family: homothetic-translog, inner_alpha_capital: 0.5, slope: 1.2, curvature: -0.1}}
    bundle: {{capital: {near_peak!r}, labor: {near_peak!r}}}
    prices: {{capital_price: 1, wage: 1}}
"""
        scenario_file = tmp_path / "scenarios.yaml"
        scenario_file.write_text(text, encoding="utf-8")
        out = tmp_path / "report.csv"

        assert main(["paradox", "--input", str(scenario_file), "--output", str(out)]) == 0
        assert read_rows(out)[0]["confirmed"] == "true"

        assert main([
            "paradox", "--input", str(scenario_file), "--output", str(out),
            "--tolerance", "mpss_log_scale=0.5",
        ]) == 0
        row = read_rows(out)[0]
        assert row["confirmed"] == "false"
        assert row["welfare_direction"] == "unchanged-productivity"
        capsys.readouterr()

    def test_unknown_tolerance_name_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "paradox", "--input", str(PARADOX_FILE), "--output", str(out),
            "--tolerance", "spelling=0.5",
        ])
        assert code == 1
        assert "unknown tolerance" in capsys.readouterr().err

    def test_malformed_tolerance_flag_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "paradox", "--input", str(PARADOX_FILE), "--output", str(out),
                "--tolerance", "loose",
            ])
        assert excinfo.value.code == 1
        capsys.readouterr()

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

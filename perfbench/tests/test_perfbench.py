"""Tests of the benchmark itself: generator, oracle, and the metric names it prints."""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["paradox-batch", "panel-pipeline", "paradox-sweep"])
def test_generator_is_deterministic(workload, tmp_path):
    first = workloads.build_inputs(workload, 7)
    again = workloads.build_inputs(workload, 7)
    other = workloads.build_inputs(workload, 8)
    assert first["files"] == again["files"]
    if workload == "paradox-sweep":
        assert first["entries"] == again["entries"] != other["entries"]
        pool = inputs.sweep_pool(7)
        assert inputs.sweep_batch(pool, 7, 3, 50) == inputs.sweep_batch(pool, 7, 3, 50)
        return
    assert first["files"] != other["files"]
    for directory in (tmp_path / "a", tmp_path / "b"):
        directory.mkdir()
        workloads.plan(workload, 7, ROOT, directory)
    for name in first["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_batch_plants_every_error_kind():
    entries = inputs.batch_entries(3, 200)
    planted = [entry["planted"] for entry in entries if "planted" in entry]
    assert sorted(set(planted)) == sorted(inputs.PLANTED_KINDS)
    assert len(planted) == 10
    assert {entry["paradox"] for entry in entries} == {1, 2, 3, 4, 5}
    assert {entry["technology"]["family"] for entry in entries} >= set(inputs.FAMILIES)


def _run_main(argv: list[str]) -> int:
    from pubtfp.cli import main

    return main(argv)


def _edit(text: str, scenario: str, column: str, change) -> str:
    header, rows = oracle.parse_report(text)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if row["scenario"] == scenario:
            row[column] = change(row[column])
        writer.writerow([row[key] for key in header])
    return buffer.getvalue()


def _corrupt(text: str, scenario: str, column: str) -> str:
    return _edit(text, scenario, column, lambda value: repr(float(value) * (1.0 + 1e-6)))


def test_oracle_flags_a_corrupted_report_row(tmp_path):
    entries = inputs.batch_entries(5, 60)
    source = tmp_path / "batch.yaml"
    inputs.write_text(source, inputs.scenarios_yaml(entries))
    report = tmp_path / "report.csv"
    assert _run_main(["paradox", "--input", str(source), "--output", str(report)]) == 1
    text = report.read_text(encoding="utf-8")
    assert oracle.check_report(text, entries) == []

    valid = next(entry["name"] for entry in entries if entry["paradox"] == 2 and "planted" not in entry)
    problems = oracle.check_report(_corrupt(text, valid, "measured_after"), entries)
    assert problems and all(problem.startswith(valid) for problem in problems)

    lines = text.splitlines(keepends=True)
    assert oracle.check_report("".join(lines[:-1]), entries)

    planted = next(entry["name"] for entry in entries if "planted" in entry)
    wrong_error = _edit(text, planted, "error", lambda value: "some other failure")
    assert oracle.check_report(wrong_error, entries)


def test_oracle_flags_a_corrupted_sweep_outcome():
    from pubtfp.paradoxes import run_all

    pool = inputs.sweep_pool(4)
    entries = inputs.sweep_batch(pool, 4, 0, 40)
    text = worker.report_text(run_all(worker.build_scenarios(entries)))
    assert oracle.check_report(text, entries) == []
    translog = next(entry["name"] for entry in entries if entry["paradox"] == 3)
    assert oracle.check_report(_corrupt(text, translog, "measured_after"), entries)


def test_oracle_flags_a_corrupted_index_value(tmp_path):
    rows = inputs.panel_rows(9, 2, 3, 30)
    expected = oracle.tornqvist_indices(rows, inputs.PANEL_BASE_YEAR)
    panel = tmp_path / "panel.csv"
    inputs.write_text(panel, inputs.panel_csv(rows))
    output = tmp_path / "indices.csv"
    assert _run_main(["accounting", "--input", str(panel), "--output", str(output)]) == 0
    index_text = output.read_text(encoding="utf-8")
    plot_text = (tmp_path / "indices_plot.csv").read_text(encoding="utf-8")
    assert oracle.check_indices(index_text, plot_text, expected) == []

    lines = index_text.splitlines()
    year, country, industry, value = lines[7].split(",")
    lines[7] = ",".join([year, country, industry, repr(float(value) * (1.0 + 1e-7))])
    assert oracle.check_indices("\n".join(lines) + "\n", plot_text, expected)


def test_oracle_closed_forms_agree_with_direct_minimization():
    tech = {"family": "ces", "capital_weight": 0.3, "substitution": -0.5, "returns_to_scale": 0.9, "level": 1.5}
    prices = {"capital_price": 1.2, "wage": 0.8}
    target = 2.0
    # brute force over the capital-labor ratio on the isoquant
    best = math.inf
    for step in range(1, 20000):
        ratio = step / 2000.0
        scale = (target / oracle.frontier(tech, {"capital": ratio, "labor": 1.0})) ** (1.0 / 0.9)
        best = min(best, scale * (prices["capital_price"] * ratio + prices["wage"]))
    assert oracle.minimum_cost(tech, prices, target) == pytest.approx(best, rel=1e-6)


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-small", "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

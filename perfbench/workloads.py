"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. An operation is one or more CLI calls
(or, for ``paradox-sweep``, one in-process ``run_all``), and the loop
cycles through the workload's operations until the run's time is up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle

WORKLOADS = ("cli-small", "paradox-batch", "paradox-sweep", "panel-pipeline")

BATCH_SCENARIOS = 250
SWEEP_BATCH = 1000
PANEL_SHAPE = (30, 20, 50)  # countries, industries, years
SIMULATE_YEARS = 12000


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments after ``pubtfp``, expected exit code, and
    outputs (file names in the work directory; "stdout" is the printed text)."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    exit_code: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    calls: tuple[Call, ...]
    items: int  # work items one operation completes
    check: Callable[[dict[str, bytes]], list[str]] = field(compare=False)


def build_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs in memory: generated entries, rows and file texts."""
    if workload == "paradox-batch":
        entries = inputs.batch_entries(seed, BATCH_SCENARIOS)
        return {"entries": entries, "files": {"batch.yaml": inputs.scenarios_yaml(entries)}}
    if workload == "panel-pipeline":
        rows = inputs.panel_rows(seed, *PANEL_SHAPE)
        config = inputs.simulation_config(seed, SIMULATE_YEARS)
        return {
            "rows": rows,
            "config": config,
            "files": {
                "panel.csv": inputs.panel_csv(rows),
                "simulation.yaml": inputs.simulation_yaml(config),
            },
        }
    if workload == "paradox-sweep":
        pool = inputs.sweep_pool(seed)
        return {"pool": pool, "entries": inputs.sweep_batch(pool, seed, 0, SWEEP_BATCH), "files": {}}
    return {"files": {}}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text(outputs: dict[str, bytes], name: str) -> str:
    return outputs[name].decode("utf-8")


def plan(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """Write the workload's input files and return the operations to cycle."""
    built = build_inputs(workload, seed)
    for name, text in built["files"].items():
        inputs.write_text(workdir / name, text)

    def out(name: str) -> str:
        return str(workdir / name)

    if workload == "cli-small":
        shipped = root / "scenarios"
        return [
            Op(
                "paradox",
                (Call(("paradox", "--input", str(shipped / "paradoxes.yaml"), "--output", out("report.csv")), ("report.csv",)),),
                1,
                lambda o: oracle.check_shipped_report(_text(o, "report.csv")),
            ),
            Op(
                "simulate",
                (Call(("simulate", "--input", str(shipped / "simulate_tech_progress.yaml"), "--output", out("panel.csv")), ("panel.csv",)),),
                1,
                lambda o: [] if _text(o, "panel.csv").count("\n") == 27 else ["shipped panel is not 26 rows"],
            ),
            Op(
                "accounting",
                (Call(("accounting", "--input", out("panel.csv"), "--output", out("indices.csv")), ("indices.csv", "indices_plot.csv")),),
                1,
                lambda o: oracle.check_shipped_indices(_text(o, "indices.csv")),
            ),
            Op(
                "report",
                (Call(("report", "--input", out("report.csv")), ("stdout",)),),
                1,
                lambda o: []
                if oracle.SHIPPED_REPORT_SUMMARY in _text(o, "stdout")
                else ["report summary line missing"],
            ),
        ]
    if workload == "paradox-batch":
        entries = built["entries"]
        return [
            Op(
                "paradox",
                (
                    Call(
                        ("paradox", "--input", out("batch.yaml"), "--output", out("batch_report.csv")),
                        ("batch_report.csv",),
                        exit_code=oracle.batch_exit_code(entries),
                    ),
                ),
                len(entries),
                lambda o: oracle.check_report(_text(o, "batch_report.csv"), entries),
            )
        ]
    if workload == "panel-pipeline":
        rows, config = built["rows"], built["config"]
        expected = oracle.tornqvist_indices(rows, inputs.PANEL_BASE_YEAR)

        def check(o: dict[str, bytes]) -> list[str]:
            return oracle.check_simulated_panel(_text(o, "sim_panel.csv"), config) + oracle.check_indices(
                _text(o, "indices.csv"), _text(o, "indices_plot.csv"), expected
            )

        return [
            Op(
                "simulate+accounting",
                (
                    Call(("simulate", "--input", out("simulation.yaml"), "--output", out("sim_panel.csv")), ("sim_panel.csv",)),
                    Call(("accounting", "--input", out("panel.csv"), "--output", out("indices.csv")), ("indices.csv", "indices_plot.csv")),
                ),
                config["years"] + len(rows),
                check,
            )
        ]
    raise ValueError(f"{workload} has no CLI operations")

"""Command line front end: batch runs over scenario, panel, and config files.

Four subcommands:

* ``pubtfp paradox --input scenarios.yaml --output report.csv`` runs every
  paradox scenario in the file and writes one report row per scenario.
* ``pubtfp accounting --input panel.csv --output indices.csv`` turns a
  growth-accounting panel into TFP index series (plus a long-format plot
  data file for charting).
* ``pubtfp simulate --input config.yaml --output panel.csv`` generates a
  synthetic panel from a simulation config.
* ``pubtfp report --input report.csv`` summarizes a paradox report file.

Exit codes: 0 on success, 1 for input problems (bad flags, malformed
files, scenario preconditions), 2 for solver or internal failures.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _CONVENTIONS, _HOME, _PARADOX_IDS, _WELFARE_DIRECTIONS
from .errors import (
    NoConvergenceError, PubTfpError, ScenarioError, SeriesError, _csv_cells, _not_utf8, _write_csv,
)

if TYPE_CHECKING:
    from .accounting import TfpIndexSeries
    from .paradoxes import ScenarioOutcome

__all__ = ["build_parser", "main"]

# The names the handlers call. A subcommand imports only its names' home
# modules (pubtfp._HOME), so ``report`` loads neither PyYAML nor the solvers.
# Each handler binds its names into this module's globals first, keeping a
# value already set from outside (a tracing wrapper), then calls them as globals.
_DEFERRED = (
    "build_indices", "ingest_panel", "load_scenarios", "load_simulation", "run_all",
    "simulate_sna_panel", "write_indices", "write_panel",
)


def _bind(*names: str) -> None:
    # relative to __package__: under ``python -m pubtfp.cli`` __name__ is __main__
    for name in names:
        globals().setdefault(name, getattr(import_module(f".{_HOME[name]}", __package__), name))


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


REPORT_COLUMNS = (
    "scenario",
    "paradox_id",
    "convention",
    "measured_before",
    "measured_after",
    "true_before",
    "true_after",
    "confirmed",
    "welfare_direction",
    "error",
)
PLOT_COLUMNS = ("year", "series", "value")
# the cells a verdict row (one without an error) must hold and how to say so, in check order
_VERDICT_CELLS = {
    column: (frozenset(cells), wording or f"{', '.join(cells[:-1])} or {cells[-1]}")
    for column, cells, wording in (
        ("paradox_id", [*map(str, _PARADOX_IDS)], f"{_PARADOX_IDS[0]}-{_PARADOX_IDS[-1]}"),
        ("confirmed", ["true", "false"], None),
        ("convention", _CONVENTIONS, None),
        ("welfare_direction", _WELFARE_DIRECTIONS, None),
    )
}
_VERDICT_NUMBERS = ("measured_before", "measured_after", "true_before", "true_after")
# an error row's paradox id may also be 0, which a scenario entry that failed to
# build carries, and every cell between it and the error stays empty
_ERROR_ROW_IDS = frozenset(map(str, (0, *_PARADOX_IDS)))
_ERROR_ROW_EMPTY = REPORT_COLUMNS[REPORT_COLUMNS.index("convention"):-1]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for internal
    # failures, so usage problems are remapped to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pubtfp",
        description="Measured versus true TFP for nonmarket production.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    paradox = commands.add_parser("paradox", help="run paradox scenarios from a YAML file")
    paradox.add_argument("--input", required=True, type=Path, help="scenario YAML file")
    paradox.add_argument("--output", required=True, type=Path, help="report CSV to write")

    accounting = commands.add_parser(
        "accounting", help="build TFP index series from a panel CSV"
    )
    accounting.add_argument("--input", required=True, type=Path, help="panel CSV file")
    accounting.add_argument("--output", required=True, type=Path, help="index CSV to write")
    accounting.add_argument(
        "--base-year",
        type=int,
        default=1995,
        help="index base year (default: 1995)",
    )
    accounting.add_argument(
        "--plot-output",
        type=Path,
        default=None,
        help="long-format plot data CSV (default: next to the output file)",
    )

    simulate = commands.add_parser(
        "simulate", help="generate a synthetic panel from a simulation config"
    )
    simulate.add_argument("--input", required=True, type=Path, help="simulation YAML config")
    simulate.add_argument("--output", required=True, type=Path, help="panel CSV to write")

    report = commands.add_parser("report", help="summarize a paradox report CSV")
    report.add_argument("--input", required=True, type=Path, help="report CSV file")

    return parser


def _report_line(outcome: ScenarioOutcome) -> str:
    r = outcome.report
    if r is None:
        error = (outcome.error or "").replace("\n", "; ")
        cells = (outcome.name, outcome.paradox_id, "", "", "", "", "", "", "", error)
        return _csv_cells(*cells) + "\n"
    numbers = (r.measured_before, r.measured_after, r.true_tfp_before, r.true_tfp_after)
    return _csv_cells(
        outcome.name, outcome.paradox_id, r.convention, *(repr(float(v)) for v in numbers),
        "true" if r.paradox_confirmed else "false", r.welfare_direction, "",
    ) + "\n"


def _write_report(outcomes: Iterable[ScenarioOutcome], path: Path) -> None:
    _write_csv(path, REPORT_COLUMNS, map(_report_line, outcomes))


def _tally(verdicts: list[str]) -> str:
    return (
        f"{len(verdicts)} scenario(s): {verdicts.count('confirmed')} confirmed, "
        f"{verdicts.count('not confirmed')} not confirmed, {verdicts.count('failed')} failed"
    )


def _run_paradox(args: argparse.Namespace) -> int:
    _bind("load_scenarios", "run_all")
    scenarios = load_scenarios(args.input)
    outcomes = run_all(scenarios)
    _write_report(outcomes, args.output)

    verdicts = []
    for outcome in outcomes:
        r = outcome.report
        if r is None:
            verdicts.append("failed")
            print(f"paradox {outcome.paradox_id} {outcome.name}: ERROR {outcome.error}")
            continue
        verdict = "confirmed" if r.paradox_confirmed else "not confirmed"
        verdicts.append(verdict)
        print(
            f"paradox {outcome.paradox_id} {outcome.name}: {verdict} "
            f"(measured {r.measured_before:.6g} -> {r.measured_after:.6g}, "
            f"true {r.true_tfp_before:.6g} -> {r.true_tfp_after:.6g})"
        )
    print(f"{_tally(verdicts)}; report written to {args.output}")
    kinds = {outcome.error_kind for outcome in outcomes}
    if "internal" in kinds:
        return EXIT_INTERNAL_ERROR
    return EXIT_INPUT_ERROR if "input" in kinds else EXIT_OK


def _plot_series_name(series: TfpIndexSeries) -> str:
    return f"{series.country}:{series.industry}"


def _write_plot(series: Iterable[TfpIndexSeries], path: Path) -> None:
    def lines(one: TfpIndexSeries) -> str:
        name = _csv_cells(_plot_series_name(one))
        return "".join([
            f"{year!s},{name},{float(value)!r}\n" for year, value in zip(one.years, one.values)
        ])

    _write_csv(path, PLOT_COLUMNS, map(lines, sorted(series, key=_plot_series_name)))


def _default_plot_path(output_path: Path) -> Path:
    return output_path.with_name(output_path.stem + "_plot" + (output_path.suffix or ".csv"))


def _run_accounting(args: argparse.Namespace) -> int:
    _configure_logging()
    _bind("ingest_panel", "build_indices", "write_indices")
    observations = ingest_panel(args.input)
    try:
        indices = build_indices(observations, args.base_year)
    except SeriesError as exc:  # same type, so a MissingBaseYearError stays one
        raise type(exc)(f"{exc} (panel {args.input})") from None
    write_indices(indices.values(), args.output)
    plot_path = args.plot_output or _default_plot_path(args.output)
    _write_plot(indices.values(), plot_path)
    print(
        f"wrote {len(indices)} TFP index series (base year {args.base_year}) to "
        f"{args.output}; plot data in {plot_path}"
    )
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    _configure_logging()
    _bind("load_simulation", "simulate_sna_panel", "write_panel")
    try:
        spec = load_simulation(args.input)
        observations = simulate_sna_panel(spec)
    except ScenarioError:  # its text already starts with the path
        raise
    except (PubTfpError, ArithmeticError) as exc:  # same type, so the exit code holds
        raise type(exc)(f"{exc} (simulation config {args.input})") from None
    write_panel(observations, args.output)
    print(
        f"wrote {len(observations)} panel rows ({spec.convention}, "
        f"{spec.country}/{spec.industry}) to {args.output}"
    )
    return EXIT_OK


def _not_a_report(path: Path, problem: str) -> int:
    print(f"{path} is not a paradox report: {problem}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _error_row_problem(row: dict[str, str]) -> str | None:
    """Why a row with an error is not as ``paradox`` writes one, or None when it is."""
    if row["paradox_id"] not in _ERROR_ROW_IDS:
        return f"paradox_id must be 0-{_PARADOX_IDS[-1]} in an error row, got {row['paradox_id']!r}"
    for column in _ERROR_ROW_EMPTY:
        if row[column]:
            return f"{column} must be empty in an error row, got {row[column]!r}"
    return None


def _verdict_problem(row: dict[str, str]) -> str | None:
    """Why a verdict row is not well-formed, or None when it is."""
    for column, (allowed, wording) in _VERDICT_CELLS.items():
        if row[column] not in allowed:
            return f"{column} must be {wording}, got {row[column]!r}"
    for column in _VERDICT_NUMBERS:
        try:
            number = float(row[column])
        except ValueError:
            number = math.nan
        if not 0.0 < number < math.inf:  # nan fails too
            return f"{column} must be a finite positive number, got {row[column]!r}"
    fell = float(row["measured_after"]) < float(row["measured_before"])
    confirmed = "true" if fell else "false"
    if row["confirmed"] != confirmed:
        return (
            f"confirmed must be {confirmed} for measured TFP {row['measured_before']} -> "
            f"{row['measured_after']}, got {row['confirmed']!r}"
        )
    return None


def _run_report(args: argparse.Namespace) -> int:
    try:
        # utf-8-sig drops a byte-order mark, as the panel reader does
        with args.input.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            missing = [name for name in REPORT_COLUMNS if name not in header]
            if missing:
                return _not_a_report(args.input, f"missing columns {missing!r}")
            rows = list(reader)
    except UnicodeDecodeError:
        print(_not_utf8(args.input), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except csv.Error as exc:
        # DictReader.line_num is set only after a row parses; its reader's is current
        return _not_a_report(args.input, f"line {reader.reader.line_num}: {exc}")
    # csv.DictReader fills the fields a short row lacks with None
    short = next((line for line, row in enumerate(rows, start=2) if None in row.values()), None)
    if short is not None:
        return _not_a_report(args.input, f"row {short} is missing fields")
    for line, row in enumerate(rows, start=2):
        problem = _error_row_problem(row) if row["error"] else _verdict_problem(row)
        if problem:
            return _not_a_report(args.input, f"row {line}: {problem}")
    verdicts = []
    for row in rows:
        name, paradox_id = row["scenario"], row["paradox_id"]
        if row["error"]:
            verdicts.append("failed")
            print(f"paradox {paradox_id} {name}: ERROR {row['error']}")
        elif row["confirmed"] == "true":
            verdicts.append("confirmed")
            print(
                f"paradox {paradox_id} {name}: confirmed, measured TFP "
                f"{row['measured_before']} -> {row['measured_after']} "
                f"({row['welfare_direction']})"
            )
        else:
            verdicts.append("not confirmed")
            print(f"paradox {paradox_id} {name}: not confirmed")
    print(_tally(verdicts))
    return EXIT_OK


_HANDLERS = {
    "paradox": _run_paradox,
    "accounting": _run_accounting,
    "simulate": _run_simulate,
    "report": _run_report,
}


def _configure_logging() -> None:
    import logging  # only the accounting module logs, so paradox and report never load this
    name = os.environ.get("PUBTFP_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NoConvergenceError, ArithmeticError) as exc:
        print(f"pubtfp: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (PubTfpError, OSError) as exc:
        print(f"pubtfp: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

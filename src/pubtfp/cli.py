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
import os
import sys
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvalidParameterError, NoConvergenceError, PubTfpError, _csv_cells, _not_utf8

if TYPE_CHECKING:
    from .accounting import TfpIndexSeries
    from .paradoxes import ScenarioOutcome

__all__ = ["RunConfig", "build_parser", "main"]

# The names the handlers call, by home module. A subcommand imports only its
# own modules, so ``report`` loads neither PyYAML nor the solvers. Each
# handler binds its names into this module's globals first, keeping a value
# already set from outside (a tracing wrapper), then calls them as globals.
_DEFERRED = {
    "accounting": (
        "build_indices", "ingest_panel", "simulate_sna_panel", "write_indices", "write_panel",
    ),
    "paradoxes": ("Tolerances", "run_all"),
    "scenario_io": ("load_scenarios", "load_simulation"),
}
_DEFERRED_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def _bind(*modules: str) -> None:
    # relative to __package__: under ``python -m pubtfp.cli`` __name__ is __main__
    for module in modules:
        loaded = import_module(f".{module}", __package__)
        for name in _DEFERRED[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = _DEFERRED_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]

COMMANDS = ("paradox", "accounting", "simulate", "report")

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

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, resolved from the parsed arguments."""

    command: str
    input_path: Path
    output_path: Path | None = None
    base_year: int | None = None
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    plot_output: Path | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for internal
    # failures, so usage problems are remapped to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance_pair(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r} (example: allocative_efficiency=1e-6)"
        )
    try:
        return name, float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance value {raw!r} is not a number") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pubtfp",
        description="Measured versus true TFP for nonmarket production.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    paradox = commands.add_parser("paradox", help="run paradox scenarios from a YAML file")
    paradox.add_argument("--input", required=True, type=Path, help="scenario YAML file")
    paradox.add_argument("--output", required=True, type=Path, help="report CSV to write")
    paradox.add_argument(
        "--tolerance",
        action="append",
        type=_tolerance_pair,
        default=[],
        metavar="NAME=VALUE",
        help="override a numerical guard (repeatable)",
    )

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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=getattr(args, "output", None),
        base_year=getattr(args, "base_year", None),
        tolerance_overrides=dict(getattr(args, "tolerance", []) or []),
        plot_output=getattr(args, "plot_output", None),
    )


def _format_number(value: float) -> str:
    return repr(float(value))


def _write_report(outcomes: Iterable[ScenarioOutcome], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for outcome in outcomes:
            if outcome.report is None:
                message = (outcome.error or "").replace("\n", "; ")
                writer.writerow(
                    [outcome.name, outcome.paradox_id, "", "", "", "", "", "", "", message]
                )
            else:
                r = outcome.report
                writer.writerow(
                    [
                        outcome.name,
                        outcome.paradox_id,
                        r.convention,
                        _format_number(r.measured_before),
                        _format_number(r.measured_after),
                        _format_number(r.true_tfp_before),
                        _format_number(r.true_tfp_after),
                        "true" if r.paradox_confirmed else "false",
                        r.welfare_direction,
                        "",
                    ]
                )


def _run_paradox(config: RunConfig) -> int:
    _bind("scenario_io", "paradoxes")
    scenarios = load_scenarios(config.input_path)
    tolerances = Tolerances().replaced(config.tolerance_overrides)
    outcomes = run_all(scenarios, tolerances)
    _write_report(outcomes, config.output_path)

    confirmed = disproved = failed = 0
    saw_internal = saw_input = False
    for outcome in outcomes:
        if outcome.report is None:
            failed += 1
            saw_internal = saw_internal or outcome.error_kind == "internal"
            saw_input = saw_input or outcome.error_kind == "input"
            print(f"paradox {outcome.paradox_id} {outcome.name}: ERROR {outcome.error}")
            continue
        r = outcome.report
        verdict = "confirmed" if r.paradox_confirmed else "not confirmed"
        if r.paradox_confirmed:
            confirmed += 1
        else:
            disproved += 1
        print(
            f"paradox {outcome.paradox_id} {outcome.name}: {verdict} "
            f"(measured {r.measured_before:.6g} -> {r.measured_after:.6g}, "
            f"true {r.true_tfp_before:.6g} -> {r.true_tfp_after:.6g})"
        )
    print(
        f"{len(outcomes)} scenario(s): {confirmed} confirmed, "
        f"{disproved} not confirmed, {failed} failed; report written to {config.output_path}"
    )
    if saw_internal:
        return EXIT_INTERNAL_ERROR
    if saw_input:
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _plot_series_name(series: TfpIndexSeries) -> str:
    return f"{series.country}:{series.industry}"


def _write_plot(series: Iterable[TfpIndexSeries], path: Path) -> None:
    ordered = sorted(series, key=_plot_series_name)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(_csv_cells(*PLOT_COLUMNS) + "\n")
        for one in ordered:
            name = _csv_cells(_plot_series_name(one))
            handle.write("".join([
                f"{year!s},{name},{float(value)!r}\n" for year, value in zip(one.years, one.values)
            ]))


def _default_plot_path(output_path: Path) -> Path:
    return output_path.with_name(output_path.stem + "_plot" + (output_path.suffix or ".csv"))


def _run_accounting(config: RunConfig) -> int:
    _configure_logging()
    _bind("accounting")
    observations = ingest_panel(config.input_path)
    base_year = 1995 if config.base_year is None else config.base_year
    indices = build_indices(observations, base_year)
    write_indices(indices.values(), config.output_path)
    plot_path = config.plot_output or _default_plot_path(config.output_path)
    _write_plot(indices.values(), plot_path)
    print(
        f"wrote {len(indices)} TFP index series (base year {base_year}) to "
        f"{config.output_path}; plot data in {plot_path}"
    )
    return EXIT_OK


def _run_simulate(config: RunConfig) -> int:
    _configure_logging()
    _bind("scenario_io", "accounting")
    spec = load_simulation(config.input_path)
    try:
        observations = simulate_sna_panel(spec)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{exc} (simulation config {config.input_path})") from None
    write_panel(observations, config.output_path)
    print(
        f"wrote {len(observations)} panel rows ({spec.convention}, "
        f"{spec.country}/{spec.industry}) to {config.output_path}"
    )
    return EXIT_OK


def _run_report(config: RunConfig) -> int:
    try:
        # utf-8-sig drops a byte-order mark, as the panel reader does
        with config.input_path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            missing = [name for name in REPORT_COLUMNS if name not in header]
            if missing:
                print(
                    f"{config.input_path} is not a paradox report: missing columns {missing!r}",
                    file=sys.stderr,
                )
                return EXIT_INPUT_ERROR
            rows = list(reader)
    except UnicodeDecodeError:
        print(_not_utf8(config.input_path), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except csv.Error as exc:
        print(
            # DictReader.line_num is set only after a row parses; its reader's is current
            f"{config.input_path} is not a paradox report: line {reader.reader.line_num}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    # csv.DictReader fills the fields a short row lacks with None
    short = next((line for line, row in enumerate(rows, start=2) if None in row.values()), None)
    if short is not None:
        print(
            f"{config.input_path} is not a paradox report: row {short} is missing fields",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    confirmed = disproved = failed = 0
    for row in rows:
        name, paradox_id = row["scenario"], row["paradox_id"]
        if row["error"]:
            failed += 1
            print(f"paradox {paradox_id} {name}: ERROR {row['error']}")
        elif row["confirmed"] == "true":
            confirmed += 1
            print(
                f"paradox {paradox_id} {name}: confirmed, measured TFP "
                f"{row['measured_before']} -> {row['measured_after']} "
                f"({row['welfare_direction']})"
            )
        else:
            disproved += 1
            print(f"paradox {paradox_id} {name}: not confirmed")
    print(f"{len(rows)} scenario(s): {confirmed} confirmed, {disproved} not confirmed, {failed} failed")
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
    config = _config_from_args(args)
    try:
        return _HANDLERS[config.command](config)
    except (NoConvergenceError, ArithmeticError) as exc:
        print(f"pubtfp: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except PubTfpError as exc:
        print(f"pubtfp: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"pubtfp: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

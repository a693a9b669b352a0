"""Golden error corpus: one-fault inputs through ``pubtfp.cli.main``, pinned exactly.

A fixed corpus is built here from base scenario entries covering every
technology family and paradox, the shipped simulation config plus a
per-year-lists variant, a small panel and a small paradox report. Each
case applies one fault to one node (a leaf, a record or a whole section)
or to one cell: NaN, +-inf, 0, -0.0, a negative, 5e-324, 1e308, a
400-digit integer, a string, a list, a missing key or an unknown key. A
record-wide fault puts one value in every number field of a record, so
the order of its checks shows. Where one row of a panel or report takes
a cell fault, ``random.Random(SEED)`` picks it.

Every case runs ``cli.main`` in process. Its exit code, stdout and stderr
(one list entry per line, the temporary directory written as ``<tmp>``)
and the sha256 of each file it writes are compared with
``tests/data/error_corpus.json``. Scenario entries go 100 to a file.

Error texts are part of the command line's contract, so rewriting the
recording is a behaviour change: every changed case is listed as an
intended change. To rewrite it, run from the repository root:

    PYTHONPATH=src python tests/test_error_corpus.py
"""

from __future__ import annotations

import contextlib
import copy
import csv
import difflib
import hashlib
import io
import json
import logging
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest

from pubtfp import cli

CORPUS = Path(__file__).with_name("data") / "error_corpus.json"
REGENERATE = "PYTHONPATH=src python tests/test_error_corpus.py"
SEED = 20_250_412
ENTRIES_PER_FILE = 100

MISSING = object()
UNKNOWN_KEY = "unknown_key"
# fault name -> the value put in a YAML document
FAULTS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0,
    "negative-zero": -0.0,
    "negative": -1.5,
    "subnormal": 5e-324,
    "huge": 1e308,
    "400-digits": int("9" * 400),
    "string": "1.5",
    "list": [1.0],
    "missing": MISSING,
}
# the number-like faults, which a record-wide fault puts in every number field
VALUE_FAULTS = ("nan", "inf", "-inf", "zero", "negative-zero", "negative", "subnormal", "huge",
                "400-digits", "string")
# fault name -> the text put in a CSV cell
CELL_FAULTS = {
    "nan": "nan",
    "inf": "inf",
    "-inf": "-inf",
    "zero": "0",
    "negative-zero": "-0.0",
    "negative": "-1.5",
    "subnormal": "5e-324",
    "huge": "1e308",
    "400-digits": "9" * 400,
    "string": "abc",
    "list": "[1.0]",
    "missing": "",
}

COBB_DOUGLAS = {"family": "cobb-douglas", "alpha_capital": 0.3, "alpha_labor": 0.7}
CES = {"family": "ces", "capital_weight": 0.4, "substitution": -1.0, "returns_to_scale": 1.0,
       "level": 1.0}
TRANSLOG = {"family": "homothetic-translog", "inner_alpha_capital": 0.5, "slope": 1.2,
            "curvature": -0.1}
TWO_LEVEL_CES = {"family": "two-level-ces", "capital_weight": 0.4, "inner_substitution": -1.0,
                 "value_added_weight": 0.7, "outer_substitution": 0.5}
GROSS_COBB_DOUGLAS = {"family": "cobb-douglas", "alpha_capital": 0.3, "alpha_labor": 0.4,
                      "alpha_intermediates": 0.3, "level": 2.0}
UNIT = {"capital": 1.0, "labor": 1.0}
UNIT_PRICES = {"capital_price": 1.0, "wage": 1.0}

# base scenario entries: every family, every paradox, every optional key
SCENARIOS = [
    {"name": "p1-cobb-douglas", "paradox": 1, "technology": COBB_DOUGLAS, "bundle": UNIT,
     "prices": UNIT_PRICES, "shift_factor": 1.25, "description": "technical progress"},
    {"name": "p1-ces", "paradox": 1, "technology": CES, "bundle": UNIT, "prices": UNIT_PRICES,
     "shift_factor": 1.25},
    {"name": "p2-cobb-douglas", "paradox": 2, "technology": COBB_DOUGLAS,
     "bundle": {"capital": 4.0, "labor": 1.0}, "prices": UNIT_PRICES},
    {"name": "p2-ces", "paradox": 2, "technology": {**CES, "substitution": 0.5},
     "bundle": {"capital": 4.0, "labor": 1.0}, "prices": UNIT_PRICES},
    {"name": "p3-translog", "paradox": 3, "technology": TRANSLOG, "bundle": UNIT,
     "prices": UNIT_PRICES},
    {"name": "p3-ces", "paradox": 3, "technology": CES, "bundle": UNIT, "prices": UNIT_PRICES},
    {"name": "p4-cobb-douglas", "paradox": 4, "technology": COBB_DOUGLAS, "bundle": UNIT,
     "prices": UNIT_PRICES, "prices_after": {"capital_price": 0.8, "wage": 0.9}},
    {"name": "p4-two-level-ces", "paradox": 4, "technology": TWO_LEVEL_CES,
     "bundle": {**UNIT, "intermediates": 1.0}, "prices": UNIT_PRICES,
     "prices_after": {"capital_price": 0.8, "wage": 0.9}},
    {"name": "p5-cobb-douglas", "paradox": 5, "technology": GROSS_COBB_DOUGLAS,
     "bundle": {**UNIT, "intermediates": 1.0},
     "outputs": [{"quantity": 3.0, "marginal_cost": 1.0, "markup": 0.2},
                 {"quantity": 4.0, "marginal_cost": 2.0, "markup": 0.1}],
     "markups_after": [0.1, 0.05]},
]
# whole files: faults on the document's top level, and an entry Python's arithmetic fails
SCENARIO_FILES = {
    "scenarios/internal-error": {"scenarios": [
        {"name": "p1-underflow", "paradox": 1,
         "technology": {**TWO_LEVEL_CES, "outer_substitution": -3.0},
         "bundle": {**UNIT, "intermediates": 1e-200}, "prices": UNIT_PRICES,
         "shift_factor": 1.25},
    ]},
    "scenarios/duplicate-names": {"scenarios": [SCENARIOS[0], SCENARIOS[0]]},
    "scenarios/empty-list": {"scenarios": []},
    "scenarios/empty-file": None,
}

SIMULATIONS = {
    "shipped": {"simulation": {
        "country": "SIM", "industry": "education", "convention": "sna-cost", "start_year": 1995,
        "years": 26, "level_growth": 0.01, "technology": COBB_DOUGLAS, "bundle": UNIT,
        "prices": UNIT_PRICES,
    }},
    "lists": {"simulation": {
        "convention": "market", "start_year": 1995, "technology": TRANSLOG,
        "levels": [1.0, 1.1], "capital": [1.0, 2.0], "labor": [1.0, 1.5],
        "capital_price": [1.0, 1.2], "wage": [1.0, 0.9],
    }},
}

PANEL_HEADER = ("year", "country", "industry", "va_nominal", "va_deflator", "capital_services",
                "labor_input", "labor_share", "capital_share")
PANEL_ROWS = [
    ["1995", "UK", "health", "100.0", "1.0", "50.0", "80.0", "0.6", "0.4"],
    ["1996", "UK", "health", "104.0", "1.02", "51.0", "80.5", "0.61", "0.39"],
    ["1997", "UK", "health", "107.5", "1.03", "52.5", "81.0", "0.6", "0.4"],
]
REPORT_HEADER = cli.REPORT_COLUMNS
REPORT_ROWS = [
    ["technical-progress", "1", "CostBasedVA", "2.0", "1.6", "1.0", "1.25", "true", "improved", ""],
    ["cheaper-inputs", "4", "CostBasedVA", "2.0", "1.7", "1.0", "1.0", "true",
     "unchanged-productivity", ""],
    ["markup-cut", "5", "DistortedRevenue", "1.5", "1.5", "1.0", "1.0", "false",
     "unchanged-productivity", ""],
    ["broken", "2", "", "", "", "", "", "", "", "allocative gap is defined for value-added "
     "technologies only"],
]


def to_yaml(value) -> str:
    """``value`` in YAML 1.1 flow style, each number written as PyYAML's safe dumper writes it."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {to_yaml(item)}" for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_yaml, value)) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()  # YAML 1.1 reads 5e-324 as a string and 5.0e-324 as a float
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    return str(value)


def yaml_document(document) -> str:
    """A scenario file or simulation config: one top-level key per line, a list item per line."""
    if document is None:
        return ""
    if not isinstance(document, dict) or not document:
        return to_yaml(document) + "\n"
    lines = []
    for key, value in document.items():
        if isinstance(value, list) and value:
            lines += [f"{key}:", *(f"  - {to_yaml(item)}" for item in value)]
        else:
            lines.append(f"{key}: {to_yaml(value)}")
    return "".join(line + "\n" for line in lines)


def numbers(value) -> bool:
    return type(value) in (int, float)


def nodes(document, path=()):
    """Every node below ``document``, parents first; a list of numbers counts as one node."""
    children = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in children:
        yield (*path, key), value
        if isinstance(value, dict) or isinstance(value, list) and not all(map(numbers, value)):
            yield from nodes(value, (*path, key))


def spelled(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def with_fault(document, path, fault):
    """A copy of ``document`` with ``fault``'s value at ``path`` (or the key removed)."""
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if FAULTS[fault] is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(FAULTS[fault])
    return document


def faulted(document):
    """(label, copy) for every one-fault variant of a YAML document."""
    rng = random.Random(SEED)
    for path, value in nodes(document):
        for fault in FAULTS:
            if fault == "string" and isinstance(value, str) and path[-1] != "family":
                continue  # a string is a valid name, description, country or convention
            yield f"{spelled(path)}={fault}", with_fault(document, path, fault)
        if isinstance(value, list) and value and all(map(numbers, value)):
            for fault in FAULTS:  # in one item, picked by the seed
                item = (*path, rng.randrange(len(value)))
                yield f"{spelled(item)}={fault}", with_fault(document, item, fault)
        if isinstance(value, dict):
            unknown = copy.deepcopy(document)
            parent = unknown
            for key in path:
                parent = parent[key]
            parent[UNKNOWN_KEY] = 1.0
            yield f"{spelled(path)}+{UNKNOWN_KEY}", unknown
            fields = [key for key, item in value.items() if numbers(item)]
            if len(fields) > 1:
                for fault in VALUE_FAULTS:
                    variant = document
                    for key in fields:
                        variant = with_fault(variant, (*path, key), fault)
                    yield f"{spelled(path)}.*={fault}", variant
    for fault in ("list", "string", "nan"):
        yield f"document={fault}", copy.deepcopy(FAULTS[fault])
    yield f"document+{UNKNOWN_KEY}", {**document, UNKNOWN_KEY: 1.0}


def scenario_entries():
    """Every base entry with one fault, each named after its base, node and fault."""
    for base in SCENARIOS:
        for label, entry in faulted(base):
            if label.startswith("document="):
                continue  # an entry that is not a mapping is one of the whole-file faults
            if isinstance(entry.get("name"), str):
                entry["name"] = f"{base['name']}/{label}"
            yield entry


def scenario_files():
    entries = list(scenario_entries())
    files = {
        f"scenarios/entries-{start // ENTRIES_PER_FILE + 1:02d}":
            {"scenarios": entries[start:start + ENTRIES_PER_FILE]}
        for start in range(0, len(entries), ENTRIES_PER_FILE)
    }
    for label, document in faulted({"scenarios": [SCENARIOS[0]]}):
        if "scenarios[0]." not in label:  # the entry's own nodes are in the files above
            files[f"scenarios/{label}"] = document
    return {**files, **SCENARIO_FILES}


def csv_text(header, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


def table_cases(kind, header, rows, numbers):
    """(label, text) for a CSV table with one fault in one cell, row, or column."""
    rng = random.Random(SEED)
    for column, name in enumerate(header):
        for fault, cell in CELL_FAULTS.items():
            row = rng.randrange(len(rows))
            faulty = copy.deepcopy(rows)
            faulty[row][column] = cell
            yield f"{kind}/row {row + 2}.{name}={fault}", csv_text(header, faulty)
        kept = [index for index in range(len(header)) if index != column]
        yield f"{kind}/{name}=missing-column", csv_text(
            [header[index] for index in kept], [[row[index] for index in kept] for row in rows]
        )
    for fault in VALUE_FAULTS:
        row = rng.randrange(len(rows))
        faulty = copy.deepcopy(rows)
        faulty[row][numbers] = [CELL_FAULTS[fault]] * len(faulty[row][numbers])
        yield f"{kind}/row {row + 2}.*={fault}", csv_text(header, faulty)
    yield f"{kind}/+{UNKNOWN_KEY}", csv_text(
        (*header, UNKNOWN_KEY), [[*row, "1.0"] for row in rows]
    )
    yield f"{kind}/short-row", csv_text(header, [*rows[:-1], rows[-1][:-1]])
    yield f"{kind}/long-row", csv_text(header, [*rows[:-1], [*rows[-1], "1.0"]])
    yield f"{kind}/header-only", csv_text(header, [])
    yield f"{kind}/empty-file", ""


def cases(kind):
    """Case label -> (input file name, its text, the argv after the input path is known)."""
    if kind == "scenarios":
        return {
            label: ("scenarios.yaml", yaml_document(document),
                    ["paradox", "--output", "report.csv"])
            for label, document in scenario_files().items()
        }
    if kind == "simulations":
        return {
            f"simulation/{base}/{label}": (
                "config.yaml", yaml_document(document),
                ["simulate", "--output", "panel.csv"],
            )
            for base, config in SIMULATIONS.items()
            for label, document in [("base", config), *faulted(config)]
        }
    if kind == "panels":
        return {
            label: ("panel.csv", text, ["accounting", "--output", "indices.csv"])
            for label, text in [
                ("panel/base", csv_text(PANEL_HEADER, PANEL_ROWS)),
                *table_cases("panel", PANEL_HEADER, PANEL_ROWS, slice(3, None)),
            ]
        }
    return {
        label: ("report.csv", text, ["report"])
        for label, text in [
            ("report/base", csv_text(REPORT_HEADER, REPORT_ROWS)),
            *table_cases("report", REPORT_HEADER, REPORT_ROWS, slice(3, 7)),
        ]
    }


KINDS = ("scenarios", "simulations", "panels", "reports")


def run_case(directory: Path, name: str, text: str, argv: list[str]) -> dict:
    """Run one case in an empty ``directory``: exit code, output lines and output digests."""
    source = directory / name
    source.write_text(text, encoding="utf-8")
    command, *rest = argv
    if rest:
        rest[-1] = str(directory / rest[-1])
    out, err = io.StringIO(), io.StringIO()
    # the accounting warnings go to stderr in the CLI's format, as a user sees them
    logger = logging.getLogger("pubtfp.accounting")
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.propagate, logger.level
    logger.addHandler(handler)
    logger.propagate = False
    logger.setLevel(logging.WARNING)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", str(source), *rest])
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved[0]
        logger.setLevel(saved[1])
    source.unlink()
    home = str(directory)
    outputs = {}
    for path in sorted(directory.iterdir()):  # a report's error cells name the input file
        text = path.read_text(encoding="utf-8").replace(home, "<tmp>")
        outputs[path.name] = hashlib.sha256(text.encode()).hexdigest()
        path.unlink()
    return {
        "exit": code,
        "stdout": out.getvalue().replace(home, "<tmp>").splitlines(),
        "stderr": err.getvalue().replace(home, "<tmp>").splitlines(),
        "outputs": outputs,
    }


def run_kind(kind: str, directory: Path) -> dict:
    return {
        label: run_case(directory, *case) for label, case in cases(kind).items()
    }


def recorded(kind: str) -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))[kind]


def as_lines(label: str, result: dict | None) -> list[str]:
    return json.dumps({label: result}, indent=1).splitlines()


@pytest.mark.parametrize("kind", KINDS)
def test_corpus_matches_the_recording(kind, tmp_path):
    expected = recorded(kind)
    actual = run_kind(kind, tmp_path)
    changed = sorted(
        label for label in {*expected, *actual} if expected.get(label) != actual.get(label)
    )
    diff = [
        line
        for label in changed[:20]
        for line in difflib.unified_diff(
            as_lines(label, expected.get(label)), as_lines(label, actual.get(label)),
            "recorded", "now", lineterm="", n=1,
        )
    ]
    assert not changed, (
        f"{len(changed)} {kind} case(s) changed; if intended, rerun `{REGENERATE}` and "
        "list them in CHANGES.md\n" + "\n".join(diff)
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        results = {kind: run_kind(kind, Path(directory)) for kind in KINDS}
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as handle:
        json.dump({"regenerate": REGENERATE, **results}, handle, indent=1)
        handle.write("\n")
    count = sum(map(len, results.values()))
    print(f"wrote {count} cases to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()

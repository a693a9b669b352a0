"""Pinned bytes of the accounting and paradox paths at scale.

Every digest below was taken from the code before the path it pins was
reworked for speed, and any change to these stages must keep them. The
inputs are built here from fixed formulas and ``random.Random(seed)``
(``random()`` only, whose sequence is stable across Python versions), so
nothing is read from the benchmark's own generator.
"""

import hashlib
import logging
import math
import random
from pathlib import Path

import pytest

from pubtfp.accounting import (
    PANEL_COLUMNS,
    SimulationSpec,
    build_indices,
    ingest_panel,
    simulate_sna_panel,
    write_indices,
    write_panel,
)
from pubtfp.cli import _write_report, main
from pubtfp.paradoxes import run_all
from pubtfp.technology import Ces, CobbDouglas, HomotheticTranslog

YEARS = 2_000


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def paths(seed):
    """Level, capital, labor, capital price and wage paths: random walks in logs."""
    rng = random.Random(seed)
    logs = [0.0, 1.0, 1.5, -0.2, 0.1]
    walks = ([], [], [], [], [])
    for _ in range(YEARS):
        for index, walk in enumerate(walks):
            logs[index] += 0.02 * (rng.random() - 0.5) + (0.002 if index == 0 else 0.0)
            walk.append(math.exp(logs[index]))
    return walks


def spec(technology, convention, seed):
    levels, capital, labor, capital_price, wage = paths(seed)
    return SimulationSpec(
        technology=technology,
        levels=levels,
        capital=capital,
        labor=labor,
        capital_price=capital_price,
        wage=wage,
        start_year=1001,
        convention=convention,
    )


SIMULATIONS = {
    "market-cobb-douglas": (
        CobbDouglas(alpha_capital=0.35, alpha_labor=0.6),
        "market",
        1,
        "7c87d485bac1081f8dd166eb053a23ba9d2cd5915675de029369646d1e19e986",
        "ab589934bd74d32e7ef9c1499c74bc10c31751163c37136ec03675a93f2d76b5",
    ),
    "market-ces": (
        Ces(capital_weight=0.4, substitution=-0.7, returns_to_scale=0.9),
        "market",
        2,
        "720b71420a3a2a74e9d7a3b17693bf689bf020a63f8cf7ec9da674df5889de77",
        "fa874ee15f5e2a3930e7accc74daeffec01e8664cbd20454a684d134e804a642",
    ),
    "market-translog": (
        HomotheticTranslog(inner_alpha_capital=0.3, slope=1.05, curvature=-0.02),
        "market",
        3,
        "ed0d89b624baaf104460fa3007d705ba1ac8ece140d9cdc00d642625b0aa6a35",
        "69ae6ed8c1143ca4c68b74da684b84971b03b2f241c70decd3b5adb4d6855cde",
    ),
    "sna-cost-ces": (
        Ces(capital_weight=0.4, substitution=-0.7, returns_to_scale=0.9),
        "sna-cost",
        4,
        "e0c2344c2852d07d2050b2a7a8201bcf690e6a7e839a156d90662ad68336cfef",
        "60119e945df33e7577e736fcdfadd3173af31f177b066267251d52a865b675c1",
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulated_panel_and_its_indices(tmp_path, name):
    technology, convention, seed, panel_digest, index_digest = SIMULATIONS[name]
    observations = simulate_sna_panel(spec(technology, convention, seed))
    assert len(observations) == YEARS
    panel = tmp_path / "panel.csv"
    indices = tmp_path / "indices.csv"
    write_panel(observations, panel)
    write_indices(build_indices(ingest_panel(panel), 1995).values(), indices)
    assert (sha256(panel), sha256(indices)) == (panel_digest, index_digest)


SERIES = [(f"C{c:02d}", f"ind{i}") for c in range(6) for i in range(4)]  # 24 series
PANEL_YEARS = range(1980, 2016)  # 36 years, base year 1995 inside


def random_panel(path, seed=15):
    """A shuffled EU KLEMS-shaped panel; about 5% of rows carry shares that need renormalizing."""
    rng = random.Random(seed)
    rows = []
    renormalized = 0
    for country, industry in SERIES:
        va, deflator, capital, labor = 100.0, 1.0, 50.0, 80.0
        for year in PANEL_YEARS:
            va *= math.exp(0.08 * (rng.random() - 0.4))
            deflator *= math.exp(0.03 * rng.random())
            capital *= math.exp(0.06 * (rng.random() - 0.4))
            labor *= math.exp(0.04 * (rng.random() - 0.5))
            labor_share = 0.45 + 0.3 * rng.random()
            capital_share = 1.0 - labor_share
            if rng.random() < 0.05:
                scale = 0.97 + 0.02 * rng.random()  # sums 0.97..0.99, far beyond 1e-6
                labor_share *= scale
                capital_share *= scale
                renormalized += 1
            rows.append(
                [str(year), country, industry]
                + [repr(v) for v in (va, deflator, capital, labor, labor_share, capital_share)]
            )
    order = [rng.random() for _ in rows]
    rows = [row for _, row in sorted(zip(order, rows))]
    text = ",".join(PANEL_COLUMNS) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    return renormalized


def test_random_panel_through_the_accounting_command(tmp_path, caplog, capsys):
    panel = tmp_path / "panel.csv"
    renormalized = random_panel(panel)
    rows = len(SERIES) * len(PANEL_YEARS)
    assert renormalized >= rows // 100
    indices = tmp_path / "indices.csv"
    with caplog.at_level(logging.WARNING, logger="pubtfp.accounting"):
        assert main(["accounting", "--input", str(panel), "--output", str(indices)]) == 0
    warnings = [r for r in caplog.records if "renormalizing" in r.getMessage()]
    assert len(warnings) == renormalized
    capsys.readouterr()
    assert {
        name: sha256(tmp_path / name) for name in ("panel.csv", "indices.csv", "indices_plot.csv")
    } == {
        "panel.csv": "0d3dc6f3b19f056cba91d72f9c80e12ff308bbcb345149feac0d3766511310f2",
        "indices.csv": "6e1374c3d9e8a066bbfd453cfb4ccd7f3768e8d7bdbac7b526b0f0fe9a6e3df4",
        "indices_plot.csv": "99e72c99c17672316795f27ae911e1cb44b810cc5ca0ff7bc5bd16c0f6ca372f",
    }


# --------------------------------------------------------------- paradox path
#
# A 2,500-scenario batch through the ``paradox`` command: all five paradoxes
# on every value-added family, plus entries that trip each guard. The file is
# read by relative path from its own directory, so no absolute path enters
# the report or the summary line.

VALUE_ADDED_FAMILIES = ("cobb-douglas", "ces", "homothetic-translog")
PARADOX_BLOCKS = 100


def draw(rng, low, high):
    return low + (high - low) * rng.random()


def technology_entry(rng, family):
    level = math.exp(draw(rng, -1.0, 1.0))
    if family == "cobb-douglas":
        return {
            "family": family,
            "alpha_capital": draw(rng, 0.2, 0.5),
            "alpha_labor": draw(rng, 0.4, 0.7),
            "level": level,
        }
    if family == "ces":
        substitution = draw(rng, -2.0, -0.1) if rng.random() < 0.6 else draw(rng, 0.1, 0.8)
        return {
            "family": family,
            "capital_weight": draw(rng, 0.2, 0.8),
            "substitution": substitution,
            "returns_to_scale": draw(rng, 0.7, 1.2),
            "level": level,
        }
    return {
        "family": family,
        "inner_alpha_capital": draw(rng, 0.2, 0.8),
        "slope": draw(rng, 0.9, 1.5),
        "curvature": draw(rng, -0.3, -0.02),
        "level": level,
    }


def prices_entry(rng):
    return {"capital_price": math.exp(draw(rng, -1.0, 1.0)), "wage": math.exp(draw(rng, -1.0, 1.0))}


def bundle_entry(rng):
    return {"capital": math.exp(draw(rng, -2.0, 2.0)), "labor": math.exp(draw(rng, -2.0, 2.0))}


def outputs_entry(rng, count):
    return [
        {
            "quantity": math.exp(draw(rng, -1.0, 2.0)),
            "marginal_cost": math.exp(draw(rng, -1.0, 1.0)),
            "markup": draw(rng, 0.0, 0.5),
        }
        for _ in range(count)
    ]


def paradox_block(rng):
    """One block: every paradox on every value-added family, then one entry per guard."""
    entries = []
    for family in VALUE_ADDED_FAMILIES:
        tech, prices = technology_entry(rng, family), prices_entry(rng)
        entries.append(
            {"paradox": 1, "technology": tech, "bundle": bundle_entry(rng), "prices": prices,
             "shift_factor": draw(rng, 1.01, 1.5)}
        )
        entries.append(
            {"paradox": 2, "technology": technology_entry(rng, family),
             "bundle": bundle_entry(rng), "prices": prices_entry(rng)}
        )
        entries.append(
            {"paradox": 3, "technology": technology_entry(rng, family),
             "bundle": bundle_entry(rng), "prices": prices_entry(rng)}
        )
        entries.append(
            {"paradox": 4, "technology": technology_entry(rng, family), "bundle": bundle_entry(rng),
             "prices": prices, "prices_after": {key: value * draw(rng, 0.5, 0.99)
                                                for key, value in prices.items()}}
        )
        outputs = outputs_entry(rng, 1 + int(3 * rng.random()))
        entries.append(
            {"paradox": 5, "technology": technology_entry(rng, family),
             "bundle": bundle_entry(rng), "outputs": outputs,
             "markups_after": [o["markup"] - draw(rng, 0.01, 1.0) for o in outputs]}
        )
    # already efficient: a Cobb-Douglas bundle on its cost-minimizing ray, x_i = t * alpha_i / p_i
    tech, prices, t = technology_entry(rng, "cobb-douglas"), prices_entry(rng), draw(rng, 0.5, 2.0)
    entries.append(
        {"paradox": 2, "technology": tech, "prices": prices,
         "bundle": {"capital": t * tech["alpha_capital"] / prices["capital_price"],
                    "labor": t * tech["alpha_labor"] / prices["wage"]}}
    )
    # no interior most-productive scale: a constant-elasticity family
    constant = ("cobb-douglas", "ces")[int(2 * rng.random())]
    entries.append(
        {"paradox": 3, "technology": technology_entry(rng, constant),
         "bundle": bundle_entry(rng), "prices": prices_entry(rng)}
    )
    # already at the most productive scale: K = L = exp((1 - slope) / (2 * curvature))
    tech = technology_entry(rng, "homothetic-translog")
    at_peak = math.exp((1.0 - tech["slope"]) / (2.0 * tech["curvature"]))
    entries.append(
        {"paradox": 3, "technology": tech, "bundle": {"capital": at_peak, "labor": at_peak},
         "prices": prices_entry(rng)}
    )
    # prices not dominated: the wage rises
    prices = prices_entry(rng)
    entries.append(
        {"paradox": 4, "technology": technology_entry(rng, "ces"), "bundle": bundle_entry(rng),
         "prices": prices, "prices_after": {"capital_price": prices["capital_price"] * 0.9,
                                            "wage": prices["wage"] * draw(rng, 1.0, 1.5)}}
    )
    # markup not cut: the last markup holds
    outputs = outputs_entry(rng, 2)
    entries.append(
        {"paradox": 5, "technology": technology_entry(rng, "homothetic-translog"),
         "bundle": bundle_entry(rng), "outputs": outputs,
         "markups_after": [outputs[0]["markup"] - 0.01, outputs[1]["markup"]]}
    )
    # zero output: no labor under Cobb-Douglas
    entries.append(
        {"paradox": 1, "technology": technology_entry(rng, "cobb-douglas"),
         "bundle": {"capital": 1.0, "labor": 0.0}, "prices": prices_entry(rng),
         "shift_factor": 1.1}
    )
    # out of the float range: CES output at capital 1e-200 with substitution -2
    entries.append(
        {"paradox": 1, "technology": technology_entry(rng, "ces") | {"substitution": -2.0},
         "bundle": {"capital": 1e-200, "labor": 1.0}, "prices": prices_entry(rng),
         "shift_factor": 1.2}
    )
    # rejected while parsing: a negative, a non-finite and a non-numeric input
    entries.append(
        {"paradox": 1, "technology": technology_entry(rng, "cobb-douglas"),
         "bundle": {"capital": -draw(rng, 0.1, 2.0), "labor": 1.0}, "prices": prices_entry(rng),
         "shift_factor": 1.1}
    )
    entries.append(
        {"paradox": 4, "technology": technology_entry(rng, "ces"), "bundle": bundle_entry(rng),
         "prices": {"capital_price": math.inf, "wage": 1.0},
         "prices_after": {"capital_price": 0.5, "wage": 0.5}}
    )
    entries.append(
        {"paradox": 2, "technology": technology_entry(rng, "cobb-douglas"),
         "bundle": {"capital": "much", "labor": 1.0}, "prices": prices_entry(rng)}
    )
    return entries


def paradox_batch(seed=16):
    rng = random.Random(seed)
    entries = [entry for _ in range(PARADOX_BLOCKS) for entry in paradox_block(rng)]
    for position, entry in enumerate(entries):
        entry["name"] = f"case-{position + 1:05d}-p{entry['paradox']}"
    return entries


@pytest.fixture
def paradox_batch_file(tmp_path, monkeypatch):
    import yaml  # here, so the accounting pins above also run where PyYAML is missing

    entries = paradox_batch()
    assert len(entries) >= 2_000
    (tmp_path / "batch.yaml").write_text(
        yaml.dump(
            {"scenarios": entries},
            Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper),
            sort_keys=False,
        ),
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    return len(entries)


def test_paradox_batch_through_the_paradox_command(paradox_batch_file, capsys):
    assert main(["paradox", "--input", "batch.yaml", "--output", "report.csv"]) == 2
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[-1] == (
        "2500 scenario(s): 1300 confirmed, 100 not confirmed, 1100 failed; "
        "report written to report.csv"
    )
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "f6e37e1f5780c263efefa0aedb08d572fb0fa78c5e0326e9de01e019406d4c1a"
    )
    assert sha256(Path("report.csv")) == (
        "8c9474bbf9a44fa4f3fa94ff554d4cc0cde268d9b1ab608321a5cdcfd54de094"
    )

    outcomes = run_all("batch.yaml")
    kinds = [outcome.error_kind or "" for outcome in outcomes]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "": 1400, "input": 1000, "internal": 100
    }
    assert hashlib.sha256("\n".join(kinds).encode("utf-8")).hexdigest() == (
        "e86964a47dd16bf4a74584b3d474ec38be2fc037dbb4afc2eb0880f2e434ef93"
    )
    _write_report(outcomes, Path("again.csv"))
    assert sha256(Path("again.csv")) == sha256(Path("report.csv"))


def test_report_command_on_a_mixed_report(paradox_batch_file, capsys):
    # the batch holds confirmed, not confirmed and failed rows, so every branch of the tally runs
    main(["paradox", "--input", "batch.yaml", "--output", "report.csv"])
    capsys.readouterr()
    assert main(["report", "--input", "report.csv"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[-1] == (
        "2500 scenario(s): 1300 confirmed, 100 not confirmed, 1100 failed"
    )
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "e32b6da55123d1889711406bf193352af9ff41d736c1366efe5f885075843d2a"
    )

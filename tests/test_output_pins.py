"""Pinned bytes of the accounting path at scale.

Every digest below was taken from the code before the accounting path was
reworked for speed, and any change to these stages must keep them. The
inputs are built here from fixed formulas and ``random.Random(seed)``
(``random()`` only, whose sequence is stable across Python versions), so
nothing is read from the benchmark's own generator.
"""

import hashlib
import logging
import math
import random

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
from pubtfp.cli import main
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

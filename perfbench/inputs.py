"""Seeded, stdlib-only input generator for the pubtfp benchmark.

Every input is a pure function of (workload, seed, size): the same seed
gives byte-identical files. Values are drawn from the valid parameter
region documented in the README. The only invalid inputs are the planted
error entries of the paradox batch, each tagged with the error it must
produce. Inputs that crash the seed code (non-finite CES output, a zero
input under measurement, byte-order marks in panels) are deliberately not
generated; they belong to the robustness work, not to a speed benchmark.

Scenario numbers are rounded through short decimal text and panel numbers
are written with ``repr``, so the generator's in-memory values equal what
the program parses from the files.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

FAMILIES = ("cobb-douglas", "ces", "homothetic-translog", "two-level-ces")
PLANTED_KINDS = (
    "unknown-family",
    "missing-key",
    "prices-not-falling",
    "p2-two-level-ces",
    "p3-cobb-douglas",
)

# One block of the paradox batch: nineteen valid (paradox, family) pairs and
# one planted error, so about 5% of entries must come back as error rows.
# Paradox 2 has closed forms only for value-added families, and paradox 3
# has an interior best scale only for the translog.
BATCH_BLOCK = (
    (1, "cobb-douglas"),
    (1, "ces"),
    (1, "homothetic-translog"),
    (1, "two-level-ces"),
    (2, "cobb-douglas"),
    (2, "ces"),
    (2, "ces"),
    (2, "homothetic-translog"),
    (3, "homothetic-translog"),
    (3, "homothetic-translog"),
    (3, "homothetic-translog"),
    (4, "cobb-douglas"),
    (4, "ces"),
    (4, "homothetic-translog"),
    (4, "two-level-ces"),
    (5, "cobb-douglas"),
    (5, "ces"),
    (5, "homothetic-translog"),
    (5, "two-level-ces"),
)
# The in-process sweep mixes the two solver-bound paradoxes.
SWEEP_MIX = (
    (2, "cobb-douglas"),
    (2, "ces"),
    (2, "homothetic-translog"),
    (3, "homothetic-translog"),
)
SWEEP_POOL_TECHS = 6  # per family
SWEEP_POOL_PRICES = 5

PANEL_COLUMNS = (
    "year",
    "country",
    "industry",
    "va_nominal",
    "va_deflator",
    "capital_services",
    "labor_input",
    "labor_share",
    "capital_share",
)
PANEL_FIRST_YEAR = 1970
PANEL_BASE_YEAR = 1995
RENORMALIZED_EVERY = 97  # about 1% of panel rows carry two-decimal shares

_BLURBS = {
    1: "A Hicks-neutral improvement lifts the frontier while spending stays put",
    2: "A wasteful input mix is replaced by the cost-minimizing mix for the same output",
    3: "The sector moves along its input ray to the most productive scale size",
    4: "Real input prices fall while production is left untouched",
    5: "A regulator trims the markups on priced outputs with quantities unchanged",
}


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(part) for part in ("pubtfp-bench",) + parts))


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return float(f"{rng.uniform(lo, hi):.{digits}f}")


def _round(value: float, digits: int = 4) -> float:
    return float(f"{value:.{digits}f}")


# ---------------------------------------------------------------- scenarios


def _technology(rng: random.Random, family: str) -> dict:
    level = _draw(rng, 0.5, 2.0)
    if family == "cobb-douglas":
        alpha_capital = _draw(rng, 0.2, 0.5)
        return {
            "family": family,
            "alpha_capital": alpha_capital,
            "alpha_labor": _round(_draw(rng, 0.85, 1.05) - alpha_capital),
            "level": level,
        }
    if family == "ces":
        substitution = _draw(rng, 0.15, 0.7) * rng.choice((-2.0, 1.0))
        return {
            "family": family,
            "capital_weight": _draw(rng, 0.2, 0.8),
            "substitution": _round(substitution),
            "returns_to_scale": _draw(rng, 0.85, 1.05),
            "level": level,
        }
    if family == "homothetic-translog":
        return {
            "family": family,
            "inner_alpha_capital": _draw(rng, 0.2, 0.8),
            "slope": _draw(rng, 1.05, 1.5),
            "curvature": -_draw(rng, 0.05, 0.2),
            "level": level,
        }
    return {
        "family": family,
        "capital_weight": _draw(rng, 0.2, 0.8),
        "inner_substitution": _round(_draw(rng, 0.15, 0.7) * rng.choice((-2.0, 1.0))),
        "value_added_weight": _draw(rng, 0.3, 0.8),
        "outer_substitution": _round(_draw(rng, 0.15, 0.7) * rng.choice((-2.0, 1.0))),
        "returns_to_scale": _draw(rng, 0.85, 1.05),
        "level": level,
    }


def _prices(rng: random.Random) -> dict:
    return {"capital_price": _draw(rng, 0.5, 2.0), "wage": _draw(rng, 0.5, 2.0)}


def _bundle(rng: random.Random, family: str) -> dict:
    bundle = {"capital": _draw(rng, 0.5, 3.0), "labor": _draw(rng, 0.5, 3.0)}
    if family == "two-level-ces":
        bundle["intermediates"] = _draw(rng, 0.5, 3.0)
    return bundle


def _cost_min_log_ratio(technology: dict, prices: dict) -> float:
    """ln(K/L) of the cost-minimizing mix, from the first-order condition."""
    log_price_ratio = math.log(prices["capital_price"] / prices["wage"])
    if technology["family"] == "cobb-douglas":
        a, b = technology["alpha_capital"], technology["alpha_labor"]
        return math.log(a / b) - log_price_ratio
    if technology["family"] == "ces":
        w, rho = technology["capital_weight"], technology["substitution"]
        return (log_price_ratio - math.log(w / (1.0 - w))) / (rho - 1.0)
    a = technology["inner_alpha_capital"]
    return math.log(a / (1.0 - a)) - log_price_ratio


def _wasteful_bundle(rng: random.Random, technology: dict, prices: dict) -> dict:
    """A bundle whose mix sits clearly off the cost-minimizing ray."""
    offset = _draw(rng, 0.4, 1.2) * rng.choice((-1.0, 1.0))
    log_ratio = _cost_min_log_ratio(technology, prices) + offset
    labor = _draw(rng, 0.6, 2.0)
    capital = labor * math.exp(max(-2.0, min(2.0, log_ratio)))
    return {"capital": _round(max(capital, 0.05)), "labor": labor}


def _outputs(rng: random.Random) -> tuple[list[dict], list[float]]:
    outputs, after = [], []
    for _ in range(rng.randint(1, 3)):
        markup = _draw(rng, 0.05, 0.4)
        outputs.append(
            {
                "quantity": _draw(rng, 1.0, 5.0),
                "marginal_cost": _draw(rng, 0.5, 2.0),
                "markup": markup,
            }
        )
        after.append(_round(markup * _draw(rng, 0.3, 0.9)))
    return outputs, after


def _scenario(rng: random.Random, paradox: int, family: str) -> dict:
    technology = _technology(rng, family)
    entry: dict = {"paradox": paradox, "technology": technology}
    if paradox == 2:
        prices = _prices(rng)
        entry["bundle"] = _wasteful_bundle(rng, technology, prices)
        entry["prices"] = prices
        return entry
    entry["bundle"] = _bundle(rng, family)
    if paradox == 5:
        if family == "cobb-douglas":
            technology["alpha_intermediates"] = _draw(rng, 0.1, 0.3)
            entry["bundle"]["intermediates"] = _draw(rng, 0.5, 3.0)
        entry["outputs"], entry["markups_after"] = _outputs(rng)
        return entry
    entry["prices"] = _prices(rng)
    if paradox == 1:
        entry["shift_factor"] = _draw(rng, 1.01, 1.5)
    elif paradox == 4:
        entry["prices_after"] = {
            key: _round(value * _draw(rng, 0.6, 0.98)) for key, value in entry["prices"].items()
        }
    return entry


def _planted(rng: random.Random, kind: str) -> dict:
    if kind == "unknown-family":
        entry = _scenario(rng, 1, "cobb-douglas")
        entry["technology"] = {"family": "leontief", "capital_coef": 0.5, "labor_coef": 0.5}
    elif kind == "missing-key":
        entry = _scenario(rng, 4, "ces")
        del entry["bundle"]
    elif kind == "prices-not-falling":
        entry = _scenario(rng, 4, "cobb-douglas")
        entry["prices_after"]["wage"] = _round(entry["prices"]["wage"] * _draw(rng, 1.0, 1.3))
    elif kind == "p2-two-level-ces":
        entry = _scenario(rng, 1, "two-level-ces")
        del entry["shift_factor"]
        entry["paradox"] = 2
    else:
        entry = _scenario(rng, 3, "cobb-douglas")
    entry["planted"] = kind
    return entry


def _describe(rng: random.Random, entry: dict) -> str:
    family = entry["technology"]["family"]
    return (
        f"{_BLURBS.get(entry['paradox'], 'A scenario')} under a {family} frontier. "
        f"Case {entry['name']} draws its parameters from the documented valid region "
        f"(variant {rng.randint(1, 999)})."
    )


def batch_entries(seed: int, count: int) -> list[dict]:
    """Scenario entries for the paradox batch, in file order.

    Each entry has its own freshly drawn technology, so no two scenarios
    share solver work. Planted entries carry a ``planted`` key naming the
    error they must produce; that key is never written to the file.
    """
    rng = _rng("paradox-batch", seed)
    entries = []
    block = 0
    while len(entries) < count:
        cell = []
        for paradox, family in BATCH_BLOCK:
            cell.append(_scenario(rng, paradox, family))
        cell.append(_planted(rng, PLANTED_KINDS[block % len(PLANTED_KINDS)]))
        rng.shuffle(cell)
        entries.extend(cell)
        block += 1
    entries = entries[:count]
    for position, entry in enumerate(entries):
        entry["name"] = f"case-{position + 1:05d}-p{entry['paradox']}"
        entry["description"] = _describe(rng, entry)
    return entries


def sweep_pool(seed: int) -> dict:
    """Technologies and prices that every sweep batch draws from."""
    rng = _rng("paradox-sweep-pool", seed)
    return {
        "technologies": {
            family: [_technology(rng, family) for _ in range(SWEEP_POOL_TECHS)]
            for family in ("cobb-douglas", "ces", "homothetic-translog")
        },
        "prices": [_prices(rng) for _ in range(SWEEP_POOL_PRICES)],
    }


def sweep_batch(pool: dict, seed: int, index: int, count: int) -> list[dict]:
    """One sweep batch: pooled technologies and prices, fresh bundles."""
    rng = _rng("paradox-sweep", seed, index)
    entries = []
    for position in range(count):
        paradox, family = SWEEP_MIX[position % len(SWEEP_MIX)]
        technology = rng.choice(pool["technologies"][family])
        prices = rng.choice(pool["prices"])
        if paradox == 2:
            bundle = _wasteful_bundle(rng, technology, prices)
        else:
            bundle = _bundle(rng, family)
        entries.append(
            {
                "name": f"sweep-{index}-{position + 1:05d}",
                "paradox": paradox,
                "technology": technology,
                "bundle": bundle,
                "prices": prices,
            }
        )
    return entries


def _number(value: float) -> str:
    text = repr(float(value))
    if "e" in text or "inf" in text or "nan" in text:
        raise ValueError(f"generated number {value!r} has no plain decimal form")
    return text


def _flow(mapping: dict) -> str:
    return "{" + ", ".join(f"{key}: {_text(value)}" for key, value in mapping.items()) + "}"


def _text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans never appear in generated scenarios")
    if isinstance(value, int):
        return str(value)
    return _number(value)


def scenarios_yaml(entries: list[dict]) -> str:
    """Scenario file text in the layout of the shipped ``paradoxes.yaml``."""
    lines = ["# Generated paradox scenarios.", "scenarios:"]
    for entry in entries:
        lines.append(f"  - name: {entry['name']}")
        if "description" in entry:
            lines.append("    description: >")
            words = entry["description"].split()
            row: list[str] = []
            for word in words:
                if row and len(" ".join(row + [word])) > 70:
                    lines.append("      " + " ".join(row))
                    row = []
                row.append(word)
            lines.append("      " + " ".join(row))
        lines.append(f"    paradox: {entry['paradox']}")
        for key in ("technology", "bundle", "prices"):
            if key in entry:
                lines.append(f"    {key}: {_flow(entry[key])}")
        if "shift_factor" in entry:
            lines.append(f"    shift_factor: {_number(entry['shift_factor'])}")
        if "prices_after" in entry:
            lines.append(f"    prices_after: {_flow(entry['prices_after'])}")
        if "outputs" in entry:
            lines.append("    outputs:")
            lines.extend(f"      - {_flow(item)}" for item in entry["outputs"])
            lines.append(
                "    markups_after: ["
                + ", ".join(_number(value) for value in entry["markups_after"])
                + "]"
            )
        lines.append("")
    return "\n".join(lines)


# -------------------------------------------------------------------- panel


def panel_rows(seed: int, countries: int, industries: int, years: int) -> list[tuple]:
    """An EU KLEMS-shaped panel: countries x industries x consecutive years.

    Rows are tuples in ``PANEL_COLUMNS`` order; floats are written with
    ``repr``, so the file holds exactly these values. Shares sum to 1 up to
    rounding, except on about 1% of rows, whose two-decimal shares miss 1
    and trigger the program's renormalization.
    """
    rng = _rng("panel", seed)
    gauss = rng.gauss
    rows = []
    counter = 0
    for c in range(countries):
        country = f"C{c:02d}"
        for i in range(industries):
            industry = f"IND{i:02d}"
            va = rng.uniform(500.0, 50000.0)
            deflator = rng.uniform(0.4, 0.7)
            capital = rng.uniform(100.0, 20000.0)
            labor = rng.uniform(50.0, 5000.0)
            labor_share = rng.uniform(0.5, 0.75)
            for t in range(years):
                if t:
                    va *= 1.0 + gauss(0.02, 0.03)
                    deflator *= 1.0 + gauss(0.015, 0.01)
                    capital *= 1.0 + gauss(0.025, 0.02)
                    labor *= 1.0 + gauss(0.005, 0.015)
                    labor_share = min(0.85, max(0.35, labor_share + gauss(0.0, 0.01)))
                counter += 1
                if counter % RENORMALIZED_EVERY == 0:
                    shares = (round(labor_share, 2), round(1.01 - labor_share, 2))
                else:
                    shares = (labor_share, 1.0 - labor_share)
                rows.append(
                    (PANEL_FIRST_YEAR + t, country, industry, va, deflator, capital, labor) + shares
                )
    return rows


def panel_csv(rows: list[tuple]) -> str:
    lines = [",".join(PANEL_COLUMNS)]
    lines.extend("%d,%s,%s,%r,%r,%r,%r,%r,%r" % row for row in rows)
    return "\n".join(lines) + "\n"


def simulation_config(seed: int, years: int) -> dict:
    """A long market-convention config with constant inputs; ``years`` pins its length."""
    rng = _rng("simulation", seed)
    alpha_capital = _draw(rng, 0.25, 0.45)
    return {
        "country": "SIM",
        "industry": "health",
        "convention": "market",
        "start_year": 1000,
        "years": years,
        "level_growth": _draw(rng, 0.0001, 0.0004, 6),
        "technology": {
            "family": "cobb-douglas",
            "alpha_capital": alpha_capital,
            "alpha_labor": _round(1.0 - alpha_capital),
            "level": _draw(rng, 0.5, 2.0),
        },
        "bundle": {"capital": _draw(rng, 0.5, 3.0), "labor": _draw(rng, 0.5, 3.0)},
        "prices": {"capital_price": _draw(rng, 0.5, 2.0), "wage": _draw(rng, 0.5, 2.0)},
    }


def simulation_yaml(config: dict) -> str:
    lines = ["# Generated simulation config.", "simulation:"]
    for key, value in config.items():
        rendered = _flow(value) if isinstance(value, dict) else _text(value)
        lines.append(f"  {key}: {rendered}")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))

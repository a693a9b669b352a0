"""Independent correctness checks for every benchmark workload.

Nothing here imports pubtfp. Expected values come from the generator's
own inputs and textbook closed forms: the production functions written out
directly, the Cobb-Douglas and CES cost functions from duality, the
translog's most productive scale u* = (1 - slope) / (2 * curvature), and a
Tornqvist recomputation of the panel indices. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

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

# Tolerances the seed code meets with margin. Closed-form runners agree to
# rounding; the iterative solvers (bisection on the mix, golden section on
# the scale) sit at a flat optimum, so their cost and average-product
# errors are second order in the solver's resolution.
REL_EXACT = 1e-11
REL_SOLVER = 1e-9
REL_INDEX = 1e-9

# Marker each planted error's message must contain.
PLANTED_MARKERS = {
    "unknown-family": "family must be one of",
    "missing-key": "missing keys",
    "prices-not-falling": "prices must fall",
    "p2-two-level-ces": "value-added",
    "p3-cobb-douglas": "no interior most-productive scale",
}

_IMPROVED = "improved"
_UNCHANGED = "unchanged-productivity"


def _close(actual: float, expected: float, rel: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= rel * abs(expected)


# --------------------------------------------------------- production side


def frontier(tech: dict, bundle: dict) -> float:
    """Output of the technology at the bundle, level included."""
    family, level = tech["family"], tech.get("level", 1.0)
    k, l = bundle["capital"], bundle["labor"]
    if family == "cobb-douglas":
        out = k ** tech["alpha_capital"] * l ** tech["alpha_labor"]
        if "alpha_intermediates" in tech:
            out *= bundle["intermediates"] ** tech["alpha_intermediates"]
        return level * out
    if family == "ces":
        w, rho = tech["capital_weight"], tech["substitution"]
        nu = tech.get("returns_to_scale", 1.0)
        return level * (w * k**rho + (1.0 - w) * l**rho) ** (nu / rho)
    if family == "homothetic-translog":
        u = _log_index(tech, bundle)
        return level * math.exp(tech["slope"] * u + tech["curvature"] * u * u)
    w1, rho1 = tech["capital_weight"], tech["inner_substitution"]
    w2, rho2 = tech["value_added_weight"], tech["outer_substitution"]
    nu = tech.get("returns_to_scale", 1.0)
    h = (w1 * k**rho1 + (1.0 - w1) * l**rho1) ** (1.0 / rho1)
    m = bundle["intermediates"]
    return level * (w2 * h**rho2 + (1.0 - w2) * m**rho2) ** (nu / rho2)


def _log_index(tech: dict, bundle: dict) -> float:
    a = tech["inner_alpha_capital"]
    return a * math.log(bundle["capital"]) + (1.0 - a) * math.log(bundle["labor"])


def _bill(prices: dict, bundle: dict) -> float:
    return prices["capital_price"] * bundle["capital"] + prices["wage"] * bundle["labor"]


def minimum_cost(tech: dict, prices: dict, output: float) -> float:
    """Cheapest factor bill producing ``output``, from each family's cost function."""
    r, w = prices["capital_price"], prices["wage"]
    level = tech.get("level", 1.0)
    family = tech["family"]
    if family == "cobb-douglas":
        a, b = tech["alpha_capital"], tech["alpha_labor"]
        s = a + b
        return s * (output / level) ** (1.0 / s) * (r / a) ** (a / s) * (w / b) ** (b / s)
    if family == "ces":
        d, rho = tech["capital_weight"], tech["substitution"]
        nu = tech.get("returns_to_scale", 1.0)
        sigma = 1.0 / (1.0 - rho)
        unit = (d**sigma * r ** (1.0 - sigma) + (1.0 - d) ** sigma * w ** (1.0 - sigma)) ** (
            1.0 / (1.0 - sigma)
        )
        return (output / level) ** (1.0 / nu) * unit
    # homothetic translog: reach the core index u on the increasing branch,
    # then buy the Cobb-Douglas index exp(u) at its unit cost
    a, slope, curv = tech["inner_alpha_capital"], tech["slope"], tech["curvature"]
    log_target = math.log(output / level)
    if curv == 0.0:
        u = log_target / slope
    else:
        u = (-slope + math.sqrt(slope * slope + 4.0 * curv * log_target)) / (2.0 * curv)
    return math.exp(u) * (r / a) ** a * (w / (1.0 - a)) ** (1.0 - a)


def expected_row(entry: dict) -> dict:
    """The report values a valid scenario entry must produce."""
    tech, bundle, paradox = entry["technology"], entry["bundle"], entry["paradox"]
    level = tech.get("level", 1.0)
    out = frontier(tech, bundle)
    row = {"convention": "CostBasedVA", "true_before": level, "true_after": level}
    if paradox == 5:
        before = sum(o["quantity"] * o["marginal_cost"] * (1.0 + o["markup"]) for o in entry["outputs"])
        after = sum(
            o["quantity"] * o["marginal_cost"] * (1.0 + m)
            for o, m in zip(entry["outputs"], entry["markups_after"])
        )
        row.update(convention="DistortedRevenue", welfare_direction=_UNCHANGED)
        row.update(measured_before=before / out, measured_after=after / out, rel=REL_EXACT)
        return row
    bill = _bill(entry["prices"], bundle)
    row["measured_before"] = bill / out
    if paradox == 1:
        shift = entry["shift_factor"]
        row.update(measured_after=bill / (out * shift), true_after=level * shift, rel=REL_EXACT)
        row["welfare_direction"] = _IMPROVED
    elif paradox == 2:
        row.update(
            measured_after=minimum_cost(tech, entry["prices"], out) / out,
            welfare_direction=_IMPROVED,
            rel=REL_SOLVER,
        )
    elif paradox == 3:
        u_star = (1.0 - tech["slope"]) / (2.0 * tech["curvature"])
        scale = math.exp(u_star - _log_index(tech, bundle))
        scaled = {"capital": scale * bundle["capital"], "labor": scale * bundle["labor"]}
        row.update(
            measured_after=scale * bill / frontier(tech, scaled),
            welfare_direction=_IMPROVED,
            rel=REL_SOLVER,
        )
    else:
        row.update(
            measured_after=_bill(entry["prices_after"], bundle) / out,
            welfare_direction=_UNCHANGED,
            rel=REL_EXACT,
        )
    return row


def _check_valid_row(entry: dict, row: dict) -> list[str]:
    name = entry["name"]
    if row["error"]:
        return [f"{name}: unexpected error {row['error']!r}"]
    want = expected_row(entry)
    problems = []
    if row["convention"] != want["convention"]:
        problems.append(f"{name}: convention {row['convention']!r}, want {want['convention']!r}")
    if row["welfare_direction"] != want["welfare_direction"]:
        problems.append(f"{name}: welfare {row['welfare_direction']!r}")
    try:
        got = {key: float(row[key]) for key in ("measured_before", "measured_after", "true_before", "true_after")}
    except ValueError:
        return problems + [f"{name}: non-numeric report values {row!r}"]
    for key, rel in (
        ("measured_before", REL_EXACT),
        ("measured_after", want["rel"]),
        ("true_before", REL_EXACT),
        ("true_after", REL_EXACT),
    ):
        if not _close(got[key], want[key], rel):
            problems.append(f"{name}: {key} {got[key]!r}, want {want[key]!r}")
    # the headline ratios, checked on their own so a compensating pair of
    # errors in before and after cannot pass
    ratio = got["measured_after"] / got["measured_before"]
    want_ratio = want["measured_after"] / want["measured_before"]
    if not _close(ratio, want_ratio, want["rel"]):
        problems.append(f"{name}: measured ratio {ratio!r}, want {want_ratio!r}")
    confirmed = "true" if got["measured_after"] < got["measured_before"] else "false"
    if row["confirmed"] != confirmed or confirmed != "true":
        problems.append(f"{name}: confirmed {row['confirmed']!r}")
    return problems


def _check_planted_row(entry: dict, row: dict) -> list[str]:
    marker = PLANTED_MARKERS[entry["planted"]]
    name = entry["name"]
    if marker not in row["error"]:
        return [f"{name}: planted {entry['planted']} gave error {row['error']!r}"]
    if any(row[key] for key in REPORT_COLUMNS[2:9]):
        return [f"{name}: planted error row carries values {row!r}"]
    return []


def parse_report(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def check_report(text: str, entries: list[dict]) -> list[str]:
    """Check a paradox report CSV against the scenario entries that produced it.

    Exactly one row per entry, ordered by paradox id and then file order;
    valid entries match their closed forms, planted ones carry their error.
    """
    header, rows = parse_report(text)
    if tuple(header) != REPORT_COLUMNS:
        return [f"report header {header!r}"]
    order = sorted(range(len(entries)), key=lambda i: entries[i]["paradox"])
    if [row["scenario"] for row in rows] != [entries[i]["name"] for i in order]:
        return [f"report has {len(rows)} rows for {len(entries)} entries, or is out of order"]
    problems = []
    for i, row in zip(order, rows):
        entry = entries[i]
        if row["paradox_id"] != str(entry["paradox"]):
            problems.append(f"{entry['name']}: paradox_id {row['paradox_id']!r}")
        elif "planted" in entry:
            problems.extend(_check_planted_row(entry, row))
        else:
            problems.extend(_check_valid_row(entry, row))
    return problems


def batch_exit_code(entries: list[dict]) -> int:
    """Planted errors are input problems, so the batch must exit 1; else 0."""
    return 1 if any("planted" in entry for entry in entries) else 0


# ------------------------------------------------------------ shipped files

# Acceptance criteria 1-5 on scenarios/paradoxes.yaml:
# (measured_before, measured_after, true_before, true_after, rel)
SHIPPED_REPORT = {
    "technical-progress": ("1", 2.0, 1.6, 1.0, 1.25, REL_EXACT),
    "allocative-gain": ("2", 2.5, 2.0, 1.0, 1.0, 1e-8),
    "scale-to-best": ("3", 2.0, 2.0 * math.exp(-0.1), 1.0, 1.0, 1e-7),
    "cheaper-inputs": ("4", 2.0, 1.7, 1.0, 1.0, REL_EXACT),
    "markup-cut": ("5", 6.2, 5.85, 2.0, 2.0, REL_EXACT),
}
SHIPPED_REPORT_SUMMARY = "5 scenario(s): 5 confirmed, 0 not confirmed, 0 failed"


def check_shipped_report(text: str) -> list[str]:
    header, rows = parse_report(text)
    if tuple(header) != REPORT_COLUMNS:
        return [f"report header {header!r}"]
    if [row["scenario"] for row in rows] != list(SHIPPED_REPORT):
        return [f"shipped report rows {[row['scenario'] for row in rows]!r}"]
    problems = []
    for row in rows:
        paradox, *values, rel = SHIPPED_REPORT[row["scenario"]]
        keys = ("measured_before", "measured_after", "true_before", "true_after")
        if row["paradox_id"] != paradox or row["confirmed"] != "true" or row["error"]:
            problems.append(f"{row['scenario']}: {row!r}")
            continue
        for key, want in zip(keys, values):
            if not _close(float(row[key]), want, rel):
                problems.append(f"{row['scenario']}: {key} {row[key]}, want {want!r}")
    return problems


def check_shipped_indices(text: str) -> list[str]:
    """Criterion 8: flat spending with 1%/year progress gives 100 * 1.01^-(t - 1995)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 26:
        return [f"shipped index has {len(rows)} rows, want 26"]
    problems = []
    for row in rows:
        year = int(row["year"])
        want = 100.0 * 1.01 ** -(year - 1995)
        if (row["country"], row["industry"]) != ("SIM", "education"):
            problems.append(f"shipped index series {row['country']}:{row['industry']}")
        if not _close(float(row["tfp_index"]), want, REL_INDEX):
            problems.append(f"shipped index {year}: {row['tfp_index']}, want {want!r}")
    return problems


# -------------------------------------------------------------------- panel


def tornqvist_indices(rows: list[tuple], base_year: int) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """TFP index per (country, industry), base year = 100, from raw panel rows.

    Rows are (year, country, industry, va_nominal, va_deflator, capital,
    labor, labor_share, capital_share). Shares missing 1 by more than 1e-6
    are renormalized, as the README specifies.
    """
    groups: dict[tuple[str, str], list[tuple]] = {}
    for row in rows:
        groups.setdefault((row[1], row[2]), []).append(row)
    result = {}
    for key in sorted(groups):
        series = sorted(groups[key])
        logs = [0.0]
        previous = None
        for year, _, _, va, deflator, capital, labor, s_l, s_k in series:
            total = s_l + s_k
            if abs(total - 1.0) > 1e-6:
                s_l, s_k = s_l / total, s_k / total
            current = (math.log(va / deflator), math.log(capital), math.log(labor), s_l, s_k)
            if previous is not None:
                growth = (
                    current[0]
                    - previous[0]
                    - 0.5 * (previous[4] + current[4]) * (current[1] - previous[1])
                    - 0.5 * (previous[3] + current[3]) * (current[2] - previous[2])
                )
                logs.append(logs[-1] + growth)
            previous = current
        years = [row[0] for row in series]
        base = logs[years.index(base_year)]
        result[key] = [(year, 100.0 * math.exp(value - base)) for year, value in zip(years, logs)]
    return result


def check_indices(index_text: str, plot_text: str, expected: dict) -> list[str]:
    """Check the index and plot CSVs against a Tornqvist recomputation."""
    want = [
        (str(year), country, industry, value)
        for (country, industry), points in expected.items()
        for year, value in points
    ]
    got = list(csv.reader(io.StringIO(index_text)))
    if not got or got[0] != ["year", "country", "industry", "tfp_index"]:
        return ["index header"]
    if len(got) - 1 != len(want):
        return [f"index has {len(got) - 1} rows, want {len(want)}"]
    problems = []
    for row, (year, country, industry, value) in zip(got[1:], want):
        if row[:3] != [year, country, industry] or not _close(float(row[3]), value, REL_INDEX):
            problems.append(f"index row {row!r}, want {value!r} for {country}:{industry}:{year}")
            if len(problems) > 5:
                break
    plot = list(csv.reader(io.StringIO(plot_text)))
    plotted = sorted((row[1], int(row[0]), row[2]) for row in plot[1:])
    indexed = sorted((f"{row[1]}:{row[2]}", int(row[0]), row[3]) for row in got[1:])
    if plot[:1] != [["year", "series", "value"]] or plotted != indexed:
        problems.append("plot data does not match the index series")
    return problems


def check_simulated_panel(text: str, config: dict) -> list[str]:
    """Market convention: output at price 1, marginal-product shares, deflator 1."""
    tech, bundle = config["technology"], config["bundle"]
    core = frontier(dict(tech, level=1.0), bundle)
    a_k, a_l = tech["alpha_capital"], tech["alpha_labor"]
    lines = text.splitlines()
    if len(lines) - 1 != config["years"]:
        return [f"simulated panel has {len(lines) - 1} rows, want {config['years']}"]
    problems = []
    level = tech["level"]
    growth = config["level_growth"]
    for t, line in enumerate(lines[1:]):
        fields = line.split(",")
        want_va = level * (1.0 + growth) ** t * core
        values = [float(field) for field in fields[3:]]
        want = [want_va, 1.0, bundle["capital"], bundle["labor"], a_l / (a_k + a_l), a_k / (a_k + a_l)]
        if int(fields[0]) != config["start_year"] + t or not all(
            _close(g, w, REL_INDEX) for g, w in zip(values, want)
        ):
            problems.append(f"simulated row {t + 2}: {line!r}")
            if len(problems) > 5:
                break
    return problems

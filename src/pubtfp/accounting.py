"""Growth accounting on industry panels and index-number simulation.

The pipeline mirrors how statistical offices turn national-accounts panels
into TFP index series: deflate nominal value added, apply a Tornqvist
decomposition (log output growth minus share-weighted log input growth,
with two-period average factor shares), cumulate the growth rates in logs,
and rebase so the base year equals 100.

:func:`simulate_sna_panel` manufactures synthetic panels from year-by-year
paths of the technology level, the input bundle, and factor prices. Under
the ``market`` convention nominal value added is frontier output at price
1 with marginal-product factor shares, so the pipeline recovers the true
TFP path. Under the ``sna-cost`` convention nominal value added is the
factor bill (the national-accounts income approach for non-market
producers), shares are cost shares, and the deflator column carries the
frontier-output volume index level_t / level_base, so deflated spending
is cost per unit of frontier output. The resulting index is the
cost-based TFP level convention in index form: it falls at exactly the
rate of technical progress when spending is flat.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
from dataclasses import dataclass, fields
from itertools import groupby, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import (
    InvalidParameterError,
    MissingBaseYearError,
    PanelSchemaError,
    PubTfpError,
    SeriesError,
    _csv_cells,
    _not_utf8,
    _write_csv,
)

if TYPE_CHECKING:
    from .technology import Technology

__all__ = [
    "PANEL_COLUMNS",
    "INDEX_COLUMNS",
    "SIMULATION_CONVENTIONS",
    "PanelObservation",
    "TfpIndexSeries",
    "SimulationSpec",
    "deflate",
    "tornqvist_tfp_growth",
    "build_index",
    "build_indices",
    "ingest_panel",
    "write_panel",
    "write_indices",
    "simulate_sna_panel",
]

logger = logging.getLogger(__name__)

INDEX_COLUMNS = ("year", "country", "industry", "tfp_index")

SIMULATION_CONVENTIONS = ("sna-cost", "market")

_SHARE_SUM_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class PanelObservation:
    """One industry-year row of a growth-accounting panel.

    Factor shares must each lie in [0, 1]. When their sum strays from 1
    by more than 1e-6 they are renormalized, with a warning, since
    published shares are often rounded.
    """

    year: int
    country: str
    industry: str
    va_nominal: float
    va_deflator: float
    capital_services: float
    labor_input: float
    labor_share: float
    capital_share: float

    def __post_init__(self) -> None:
        if isinstance(self.year, bool) or not isinstance(self.year, int):
            raise InvalidParameterError(f"year must be an integer, got {self.year!r}")
        if not self.country or not self.industry:
            raise InvalidParameterError("country and industry must be nonempty strings")
        # floats already in range pass in one test; anything else is converted and checked by name
        va, deflator = self.va_nominal, self.va_deflator
        capital, labor = self.capital_services, self.labor_input
        if not (
            type(va) is type(deflator) is type(capital) is type(labor) is float
            and 0.0 < va < math.inf and 0.0 < deflator < math.inf
            and 0.0 < capital < math.inf and 0.0 < labor < math.inf
        ):
            for name in ("va_nominal", "va_deflator", "capital_services", "labor_input"):
                value = getattr(self, name)
                if type(value) is not float:
                    value = float(value)
                    object.__setattr__(self, name, value)
                if not 0.0 < value < math.inf:
                    raise InvalidParameterError(f"{name} must be strictly positive, got {value!r}")
        if not 0.0 < self.va_nominal / self.va_deflator < math.inf:
            raise InvalidParameterError(
                f"real value added va_nominal / va_deflator must be finite and positive, "
                f"got {self.va_nominal!r} / {self.va_deflator!r}"
            )
        labor_share, capital_share = self.labor_share, self.capital_share
        if not (
            type(labor_share) is type(capital_share) is float
            and 0.0 <= labor_share <= 1.0 and 0.0 <= capital_share <= 1.0
        ):
            for name in ("labor_share", "capital_share"):
                value = getattr(self, name)
                if type(value) is not float:
                    value = float(value)
                    object.__setattr__(self, name, value)
                if not 0.0 <= value <= 1.0:
                    raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
        total = self.labor_share + self.capital_share
        if total <= 0.0:
            raise InvalidParameterError("factor shares cannot both be zero")
        if abs(total - 1.0) > _SHARE_SUM_TOL:
            logger.warning(
                "factor shares for %s/%s/%d sum to %.9f; renormalizing to 1",
                self.country,
                self.industry,
                self.year,
                total,
            )
            object.__setattr__(self, "labor_share", self.labor_share / total)
            object.__setattr__(self, "capital_share", self.capital_share / total)

    @property
    def real_value_added(self) -> float:
        return deflate(self.va_nominal, self.va_deflator)

    @property
    def key(self) -> tuple[str, str]:
        return (self.country, self.industry)


# a panel CSV's header: PanelObservation's fields, in order
PANEL_COLUMNS = tuple(f.name for f in fields(PanelObservation))


def deflate(nominal: float, deflator: float) -> float:
    """Real value: nominal divided by a strictly positive deflator."""
    if not math.isfinite(deflator) or deflator <= 0.0:
        raise InvalidParameterError(f"deflator must be strictly positive, got {deflator!r}")
    return nominal / deflator


def tornqvist_tfp_growth(previous: PanelObservation, current: PanelObservation) -> float:
    """Log TFP growth between two adjacent observations of one industry.

    Real value added growth minus share-weighted input growth, where each
    factor's weight is the mean of its shares in the two periods.
    """
    if previous.key != current.key:
        raise SeriesError(
            f"observations belong to different series: {previous.key!r} vs {current.key!r}"
        )
    if current.year <= previous.year:
        raise SeriesError(
            f"observations out of order: year {previous.year} then {current.year}"
        )
    return _log_growth(_log_point(previous), _log_point(current))


_LogPoint = tuple[float, float, float, float, float]


def _log_point(row: PanelObservation) -> _LogPoint:
    """A row's logs of real value added, capital and labor, then its capital and labor shares."""
    return (
        math.log(row.real_value_added),
        math.log(row.capital_services),
        math.log(row.labor_input),
        row.capital_share,
        row.labor_share,
    )


def _log_growth(previous: _LogPoint, current: _LogPoint) -> float:
    """The Tornqvist log TFP growth between two rows' log points."""
    log_va_0, log_k_0, log_l_0, capital_share_0, labor_share_0 = previous
    log_va_1, log_k_1, log_l_1, capital_share_1, labor_share_1 = current
    dlog_va = log_va_1 - log_va_0
    dlog_k = log_k_1 - log_k_0
    dlog_l = log_l_1 - log_l_0
    mean_capital_share = 0.5 * (capital_share_0 + capital_share_1)
    mean_labor_share = 0.5 * (labor_share_0 + labor_share_1)
    return dlog_va - mean_capital_share * dlog_k - mean_labor_share * dlog_l


@dataclass(frozen=True)
class TfpIndexSeries:
    """A cumulated TFP index for one industry, equal to 100 in the base year."""

    country: str
    industry: str
    base_year: int
    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.years or len(self.years) != len(self.values):
            raise SeriesError(
                f"series needs matching years and values, got {len(self.years)} "
                f"and {len(self.values)}"
            )
        for value in self.values:  # the index writers print each value with repr()
            if not isinstance(value, (int, float)):
                raise SeriesError(f"index values must be int or float, got {value!r}")
        if any(not math.isfinite(v) or v <= 0.0 for v in self.values):
            raise SeriesError("index values must all be positive")
        if self.base_year not in self.years:
            raise MissingBaseYearError(
                f"base year {self.base_year} is not in the series "
                f"({self.years[0]}..{self.years[-1]})"
            )
        if self.values[self.years.index(self.base_year)] != 100.0:
            raise SeriesError("index must equal 100 exactly in the base year")

    @property
    def points(self) -> tuple[tuple[int, float], ...]:
        """(year, value) pairs in year order."""
        return tuple(zip(self.years, self.values))

    def value_at(self, year: int) -> float:
        try:
            return self.values[self.years.index(year)]
        except ValueError:
            raise SeriesError(
                f"year {year} is not in the series ({self.years[0]}..{self.years[-1]})"
            ) from None

    def rebased(self, base_year: int) -> "TfpIndexSeries":
        """Same trajectory expressed relative to a different base year."""
        pivot = self.value_at(base_year)
        values = tuple(
            100.0 if year == base_year else 100.0 * value / pivot
            for year, value in zip(self.years, self.values)
        )
        return TfpIndexSeries(
            country=self.country,
            industry=self.industry,
            base_year=base_year,
            years=self.years,
            values=values,
        )


def build_index(observations: Iterable[PanelObservation], base_year: int) -> TfpIndexSeries:
    """Cumulate Tornqvist growth into a level index with base year = 100.

    The observations must all belong to one (country, industry) series and
    must cover consecutive years with no duplicates; the base year must be
    one of them.
    """
    rows = sorted(observations, key=operator.attrgetter("year"))
    if not rows:
        raise SeriesError("cannot build an index from an empty series")
    keys = {row.key for row in rows}
    if len(keys) != 1:
        raise SeriesError(f"observations span multiple series: {sorted(keys)!r}")
    for earlier, later in zip(rows, rows[1:]):
        if later.year == earlier.year:
            raise SeriesError(f"duplicate observation for year {later.year} in {later.key!r}")
        if later.year != earlier.year + 1:
            raise SeriesError(
                f"gap in series {later.key!r}: year {earlier.year} is followed by {later.year}"
            )
    years = tuple(row.year for row in rows)
    if base_year not in years:
        raise MissingBaseYearError(
            f"base year {base_year} is outside the series range {years[0]}..{years[-1]} "
            f"in {rows[0].key!r}"
        )
    # the checks above are the ones tornqvist_tfp_growth makes per pair
    points = list(map(_log_point, rows))
    log_levels = [0.0]
    for earlier, later in zip(points, points[1:]):
        log_levels.append(log_levels[-1] + _log_growth(earlier, later))
    base_log = log_levels[years.index(base_year)]
    country, industry = rows[0].key
    values = []
    for year, level in zip(years, log_levels):
        try:
            value = 100.0 * math.exp(level - base_log)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise SeriesError(
                f"TFP index of {country}/{industry} leaves the float range in {year} "
                f"(log change {level - base_log:.6g} from base year {base_year})"
            )
        values.append(value)
    return TfpIndexSeries(
        country=country, industry=industry, base_year=base_year, years=years, values=tuple(values)
    )


def build_indices(
    observations: Iterable[PanelObservation], base_year: int
) -> dict[tuple[str, str], TfpIndexSeries]:
    """One index per (country, industry) series found in the observations.

    Every series is built; when more than one fails, a single
    :class:`SeriesError` lists their problems in key order.
    """
    groups: dict[tuple[str, str], list[PanelObservation]] = {}
    for row in observations:
        groups.setdefault(row.key, []).append(row)
    indices, problems = {}, []
    for key, rows in sorted(groups.items()):
        try:
            indices[key] = build_index(rows, base_year)
        except SeriesError as exc:
            problems.append(exc)
    if len(problems) == 1:
        raise problems[0]
    if problems:
        raise SeriesError(f"{len(problems)} series failed: " + "; ".join(map(str, problems)))
    return indices


def _non_number(raw_numbers: Iterable[str]) -> str:
    """Name the first of a row's number fields that float() rejects."""
    for name, raw in zip(PANEL_COLUMNS[3:], raw_numbers):
        try:
            float(raw)
        except ValueError:
            return f"{name} {raw!r} is not a number"
    raise AssertionError("called on a row whose numbers all parse")


def ingest_panel(path: str | Path) -> list[PanelObservation]:
    """Read a panel CSV, validating the schema and every row.

    The header must contain all panel columns (extras are ignored). Rows
    with missing fields, unparsable numbers, or out-of-range values are
    reported together with their line numbers; duplicated
    (year, country, industry) keys are rejected. Observations come back
    sorted by country, industry, and year.
    """
    path = Path(path)
    observations: list[PanelObservation] = []
    problems: list[str] = []
    seen: dict[tuple[int, str, str], int] = {}
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often carry
        with path.open(newline="", encoding="utf-8-sig") as handle:
            records = csv.reader(handle)
            header = next(records, [])
            missing = [name for name in PANEL_COLUMNS if name not in header]
            if missing:
                raise PanelSchemaError(f"panel {path} is missing columns {missing!r}")
            # a repeated column name is read from its last position
            position = {name: index for index, name in enumerate(header)}
            pick = operator.itemgetter(*(position[name] for name in PANEL_COLUMNS))
            line = 1
            for record in records:
                if not record:  # blank lines are skipped and not counted
                    continue
                line += 1
                try:
                    fields = pick(record)
                except IndexError:  # a row shorter than the header lacks fields
                    fields = ("",)
                if "" in fields:
                    problems.append(f"row {line}: empty or missing fields")
                    continue
                try:
                    year = int(fields[0])
                except ValueError:
                    problems.append(f"row {line}: year {fields[0]!r} is not an integer")
                    continue
                try:
                    numbers = (
                        float(fields[3]),
                        float(fields[4]),
                        float(fields[5]),
                        float(fields[6]),
                        float(fields[7]),
                        float(fields[8]),
                    )
                except ValueError:
                    problems.append(f"row {line}: {_non_number(fields[3:])}")
                    continue
                try:
                    obs = PanelObservation(year, fields[1], fields[2], *numbers)
                except InvalidParameterError as exc:
                    problems.append(f"row {line}: {exc}")
                    continue
                key = (year, fields[1], fields[2])
                if key in seen:
                    problems.append(f"row {line}: duplicate of row {seen[key]} for {key!r}")
                    continue
                seen[key] = line
                observations.append(obs)
    except UnicodeDecodeError:
        raise PanelSchemaError(_not_utf8(path)) from None
    except csv.Error as exc:  # for example a field over csv.field_size_limit()
        raise PanelSchemaError(f"panel {path}, line {records.line_num}: {exc}") from None
    if problems:
        raise PanelSchemaError(
            f"panel {path} has {len(problems)} bad row(s):\n" + "\n".join(problems)
        )
    if not observations:
        raise PanelSchemaError(f"panel {path} contains no data rows")
    observations.sort(key=operator.attrgetter("country", "industry", "year"))
    return observations


def write_panel(observations: Iterable[PanelObservation], path: str | Path) -> None:
    """Write observations as a panel CSV with the canonical column order."""
    def lines(key: tuple[str, str], series: Iterable[PanelObservation]) -> str:
        # one chunk per series, names quoted once; str() for years, repr() for numbers, as csv does
        names = _csv_cells(*key)
        return "".join([
            f"{o.year!s},{names},{o.va_nominal!r},{o.va_deflator!r},{o.capital_services!r},"
            f"{o.labor_input!r},{o.labor_share!r},{o.capital_share!r}\n"
            for o in series
        ])

    rows = sorted(observations, key=lambda o: (o.country, o.industry, o.year))
    by_series = groupby(rows, key=operator.attrgetter("country", "industry"))
    _write_csv(path, PANEL_COLUMNS, starmap(lines, by_series))


def write_indices(series: Iterable[TfpIndexSeries], path: str | Path) -> None:
    """Write index series as CSV rows (year, country, industry, tfp_index)."""
    def lines(one: TfpIndexSeries) -> str:
        names = _csv_cells(one.country, one.industry)
        return "".join([
            f"{year!s},{names},{value!r}\n" for year, value in zip(one.years, one.values)
        ])

    ordered = sorted(series, key=lambda s: (s.country, s.industry))
    _write_csv(path, INDEX_COLUMNS, map(lines, ordered))


@dataclass(frozen=True)
class SimulationSpec:
    """Year-by-year paths for a simulated sector.

    The five paths (technology level, capital, labor, capital price,
    wage) must have the same length, one entry per year starting at
    ``start_year``. The technology argument supplies the functional form;
    its own level is overridden by the ``levels`` path each year.
    """

    technology: Technology
    levels: tuple[float, ...]
    capital: tuple[float, ...]
    labor: tuple[float, ...]
    capital_price: tuple[float, ...]
    wage: tuple[float, ...]
    start_year: int
    convention: str
    country: str = "SIM"
    industry: str = "public"

    def __post_init__(self) -> None:
        if self.technology.uses_intermediates:
            raise InvalidParameterError(
                "panel simulation works with value-added technologies only"
            )
        if isinstance(self.start_year, bool) or not isinstance(self.start_year, int):
            raise InvalidParameterError(f"start_year must be an integer, got {self.start_year!r}")
        if self.convention not in SIMULATION_CONVENTIONS:
            raise InvalidParameterError(
                f"convention must be one of {SIMULATION_CONVENTIONS}, got {self.convention!r}"
            )
        paths = ("levels", "capital", "labor", "capital_price", "wage")
        for name in paths:
            values = tuple(map(float, getattr(self, name)))
            if any(not math.isfinite(v) or v <= 0.0 for v in values):
                raise InvalidParameterError(f"{name} path must be strictly positive throughout")
            object.__setattr__(self, name, values)
        lengths = {name: len(getattr(self, name)) for name in paths}
        if len(set(lengths.values())) != 1:
            raise InvalidParameterError(f"per-year paths differ in length: {lengths!r}")
        if len(self.levels) < 2:
            raise InvalidParameterError("a simulation needs at least 2 years")

    @property
    def years(self) -> int:
        return len(self.levels)


def simulate_sna_panel(spec: SimulationSpec) -> list[PanelObservation]:
    """Panel rows for a sector measured under one of two conventions.

    ``market``: nominal value added is frontier output at price 1, the
    deflator is 1, and factor shares are marginal-product payments over
    output; the accounting pipeline then recovers the true TFP path.
    ``sna-cost``: nominal value added is the factor bill, shares are cost
    shares, and the deflator is the frontier-output volume index
    level_t / level_base, so deflated spending tracks cost per unit of
    frontier output; the pipeline then mirrors frontier growth, falling
    at the rate of technical progress when spending is flat.
    """
    from .technology import FactorPrices, InputBundle
    technology, country, industry = spec.technology, spec.country, spec.industry
    market = spec.convention == "market"
    if not market:  # sna-cost
        from .measurement import cost_based_value_added
        base_level = spec.levels[0]
    observations: list[PanelObservation] = []
    paths = zip(spec.levels, spec.capital, spec.labor, spec.capital_price, spec.wage)
    for year, (level, capital, labor, capital_price, wage) in enumerate(paths, spec.start_year):
        try:
            bundle = InputBundle(capital, labor)
            if market:
                current = technology.with_level(level)
                va_nominal, va_deflator = current.output(bundle), 1.0
                mp_capital, mp_labor = current.marginal_products(bundle)
                if va_nominal == 0.0:  # underflowed; the shares divide by it
                    raise InvalidParameterError("va_nominal must be strictly positive, got 0.0")
                capital_share = mp_capital * capital / va_nominal
                labor_share = mp_labor * labor / va_nominal
            else:  # nominal value added is the factor bill
                va_nominal = cost_based_value_added(FactorPrices(capital_price, wage), bundle)
                va_deflator = level / base_level
                capital_share = capital_price * capital / va_nominal
                labor_share = wage * labor / va_nominal
            observations.append(PanelObservation(
                year, country, industry, va_nominal, va_deflator, capital, labor, labor_share,
                capital_share,
            ))
        except (PubTfpError, ArithmeticError) as exc:  # same type, so the exit code holds
            raise type(exc)(f"simulated row {country}/{industry} {year}: {exc}") from None
    return observations

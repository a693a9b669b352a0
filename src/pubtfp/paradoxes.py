"""Five measurement paradoxes, run as numerically checked scenarios.

Each paradox starts from an economy in which nothing real deteriorates,
changes exactly one thing for the better (or for nothing at all), and
shows that measured TFP under the relevant cost-based convention falls:

1. Hicks-neutral technical progress with unchanged spending.
2. A move from a wasteful input mix to the cost-minimizing one.
3. A move along a ray to the most productive scale size.
4. A drop in real input prices with production unchanged.
5. A cut in regulated markups with production unchanged.

The runners compute measured and true TFP before and after, guard the
preconditions that make each comparison meaningful, and return a
:class:`ParadoxReport` whose ``paradox_confirmed`` property states the
paradox: measured TFP fell. Each run evaluates the level-free frontier
core(x) once per bundle it measures: measured TFP divides by
f(x) = level * core(x) and true TFP is f(x) / core(x), the same floats
that :func:`~pubtfp.measurement.measured_tfp_cost_based` and
:func:`~pubtfp.technology.true_tfp` compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from os import PathLike
from typing import Callable, Iterable, NamedTuple, Union

from . import _EXPORTS, _PARADOX_IDS as PARADOX_IDS, _WELFARE_DIRECTIONS
from .efficiency import _check_gap_domain, apply_technical_progress, find_mpss, min_cost_bundle
from .efficiency import allocative_gap  # unused here; perfbench's tracer patches it on this module
from .errors import (
    AlreadyEfficientError,
    DomainError,
    InvalidParameterError,
    MarkupNotReducedError,
    NoConvergenceError,
    PricesNotDominatedError,
    PubTfpError,
    ScenarioError,
)
from .measurement import (
    COST_BASED_VA,
    DISTORTED_REVENUE,
    MeasuredTfp,
    PricingScheme,
    _ratio,
    cost_based_value_added,
    revenue,
)
# unused here; perfbench's tracer patches them on this module
from .measurement import measured_tfp_cost_based, measured_tfp_revenue
from .technology import FactorPrices, InputBundle, Technology, TechnologyShift

__all__ = [*_EXPORTS["paradoxes"], "PARADOX_IDS", "WELFARE_IMPROVED", "WELFARE_UNCHANGED"]

WELFARE_IMPROVED, WELFARE_UNCHANGED = _WELFARE_DIRECTIONS


# a bundle whose allocative gap is within this of 1 is already cost-minimizing
_ALREADY_EFFICIENT = 1e-9
# the relative tolerance of the isoquant and ray-average-product self-checks
_IDENTITY_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class EconomyState:
    """Snapshot of everything a convention can see at one point in time."""

    technology: Technology
    bundle: InputBundle
    prices: FactorPrices | None = None
    pricing: PricingScheme | None = None


@dataclass(frozen=True, slots=True)
class ParadoxReport:
    """Before and after measurement for one paradox run."""

    paradox_id: int
    convention: str
    measured_before: float
    measured_after: float
    true_tfp_before: float
    true_tfp_after: float
    welfare_direction: str
    before: EconomyState
    after: EconomyState
    details: dict[str, float] = field(default_factory=dict)

    @property
    def paradox_confirmed(self) -> bool:
        """True when measured TFP fell."""
        return self.measured_after < self.measured_before


@dataclass(frozen=True)
class Scenario:
    """Declarative input to one paradox run.

    Which optional fields must be set depends on ``paradox_id``; a field
    that the paradox does not use must stay unset, so the before and after
    economies can only differ in the one dimension the paradox varies.
    """

    name: str
    paradox_id: int
    technology: Technology
    bundle: InputBundle
    prices: FactorPrices | None = None
    shift: TechnologyShift | None = None
    prices_after: FactorPrices | None = None
    pricing: PricingScheme | None = None
    markups_after: tuple[float, ...] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be a nonempty string")
        if self.paradox_id not in PARADOX_IDS:
            raise ScenarioError(
                f"scenario {self.name!r}: paradox_id must be one of {PARADOX_IDS}, "
                f"got {self.paradox_id!r}"
            )


@dataclass(frozen=True)
class FailedScenario:
    """Placeholder for a scenario entry that could not even be constructed."""

    name: str
    error: str
    paradox_id: int = 0


@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """Result of running one scenario, with any failure captured in place."""

    name: str
    paradox_id: int
    report: ParadoxReport | None = None
    error: str | None = None
    error_kind: str | None = None  # "input" or "internal" when error is set


class _Measured(NamedTuple):
    """An economy state, its frontier's core at its bundle, and its measured TFP."""

    state: EconomyState
    core: float
    tfp: MeasuredTfp


def _measure(state: EconomyState, core: float, bill: float | None = None) -> _Measured:
    """Measured TFP over frontier output level * core, with ``core`` = core(state.bundle).

    Distorted revenue for a state that carries pricing, cost-based value added
    otherwise: the factor ``bill``, computed here unless the caller has it.
    """
    output = state.technology.level * core
    if state.pricing is not None:
        return _Measured(state, core, _ratio(revenue(state.pricing), output, DISTORTED_REVENUE))
    if bill is None:
        bill = cost_based_value_added(state.prices, state.bundle)
    return _Measured(state, core, _ratio(bill, output, COST_BASED_VA))


def _compare(
    paradox_id: int,
    before: _Measured,
    after: _Measured,
    welfare_direction: str,
    details: dict[str, float],
) -> ParadoxReport:
    """Report one before/after pair; true TFP is frontier output f(bundle) over core(bundle)."""
    return ParadoxReport(
        paradox_id=paradox_id,
        convention=before.tfp.convention,
        measured_before=before.tfp.value,
        measured_after=after.tfp.value,
        true_tfp_before=before.tfp.denominator / before.core,
        true_tfp_after=after.tfp.denominator / after.core,
        welfare_direction=welfare_direction,
        before=before.state,
        after=after.state,
        details=details,
    )


def run_paradox_1(
    tech: Technology,
    bundle: InputBundle,
    prices: FactorPrices,
    shift: TechnologyShift,
) -> ParadoxReport:
    """Technical progress: the frontier rises, spending does not, measured TFP falls."""
    core = tech.core_output(bundle)  # the shift moves only the level
    before = _measure(EconomyState(tech, bundle, prices=prices), core)
    progressed = apply_technical_progress(tech, shift)
    after = _measure(EconomyState(progressed, bundle, prices=prices), core)
    return _compare(1, before, after, WELFARE_IMPROVED, {"shift_factor": shift.factor})


def run_paradox_2(
    tech: Technology,
    prices: FactorPrices,
    initial_bundle: InputBundle,
) -> ParadoxReport:
    """Allocative improvement: same output from the cost-minimizing mix, found by one solve."""
    _check_gap_domain(tech, initial_bundle)
    core_before = tech.core_output(initial_bundle)
    target = tech.level * core_before  # a zero target fails the solver's own check first
    best = min_cost_bundle(tech, prices, target)
    bill = cost_based_value_added(prices, initial_bundle)
    gap = min(best.cost / bill, 1.0)
    if gap >= 1.0 - _ALREADY_EFFICIENT:
        raise AlreadyEfficientError(
            f"bundle is already cost-minimizing at these prices (allocative gap {gap!r})"
        )
    core_after = tech.core_output(best.bundle)
    reached = tech.level * core_after
    if not math.isclose(reached, target, rel_tol=_IDENTITY_REL_TOL, abs_tol=0.0):
        raise NoConvergenceError(
            f"cost minimizer left the isoquant: output {reached!r} for target {target!r}"
        )

    before = _measure(EconomyState(tech, initial_bundle, prices=prices), core_before, bill)
    after = _measure(EconomyState(tech, best.bundle, prices=prices), core_after)
    details = {"allocative_gap": gap, "cost_before": before.tfp.numerator, "cost_after": best.cost}
    return _compare(2, before, after, WELFARE_IMPROVED, details)


def run_paradox_3(
    tech: Technology,
    prices: FactorPrices,
    bundle: InputBundle,
) -> ParadoxReport:
    """Scale improvement: move along the ray to the most productive scale size.

    Measured after/before is exp(curvature * ln(s)^2), so a move whose gain is
    within 64 ulps (64 * 2^-52), too small for the checks below to resolve, is
    an unconfirmed fixed point (scale factor 1, measurement unchanged).
    """
    mpss = find_mpss(tech, bundle)  # raises unless tech is a translog with curvature < 0
    before = _measure(EconomyState(tech, bundle, prices=prices), tech.core_output(bundle))
    if -tech.curvature * math.log(mpss.scale_factor) ** 2 <= 64 * 2.0**-52:
        return _compare(3, before, before, WELFARE_UNCHANGED, {"mpss_scale_factor": 1.0})

    bill = cost_based_value_added(prices, mpss.bundle_at_mpss)
    # the bill and the measured TFP there, bill / output, must both be positive floats
    if not (0.0 < bill < math.inf and 0.0 < bill / mpss.output < math.inf):
        raise DomainError(
            "most productive scale size is out of float range: "
            f"ln scale {math.log(mpss.scale_factor)!r} (factor bill {bill!r})"
        )
    moved = mpss.bundle_at_mpss
    after = _measure(EconomyState(tech, moved, prices=prices), tech.core_output(moved), bill)

    # the proofs' intermediate inequality: when scaling up, output grows more
    # than proportionally; when scaling down, it shrinks less than
    # proportionally. Both read f(s*b)/f(b) > s.
    rap_before = before.tfp.denominator  # f(bundle) = level * core(bundle)
    output_ratio = mpss.output / rap_before
    if output_ratio <= mpss.scale_factor:
        raise NoConvergenceError(
            f"scale move is not productivity-improving: output ratio {output_ratio!r} "
            f"at scale factor {mpss.scale_factor!r}"
        )
    # cost is linear along the ray, so the measured ratio must collapse to
    # the ray average product ratio
    measured_ratio = after.tfp.value / before.tfp.value
    predicted_ratio = rap_before / mpss.ray_average_product
    if not math.isclose(measured_ratio, predicted_ratio, rel_tol=_IDENTITY_REL_TOL, abs_tol=0.0):
        raise NoConvergenceError(
            f"scale run failed its identity check: measured ratio {measured_ratio!r} "
            f"vs ray average product ratio {predicted_ratio!r}"
        )

    details = {
        "mpss_scale_factor": mpss.scale_factor,
        "output_ratio": output_ratio,
        "ray_average_product_before": rap_before,
        "ray_average_product_after": mpss.ray_average_product,
        "measured_ratio": measured_ratio,
    }
    return _compare(3, before, after, WELFARE_IMPROVED, details)


def run_paradox_4(
    tech: Technology,
    bundle: InputBundle,
    prices_before: FactorPrices,
    prices_after: FactorPrices,
) -> ParadoxReport:
    """Cheaper inputs: production is untouched, the factor bill shrinks."""
    if not (
        prices_after.capital_price < prices_before.capital_price
        and prices_after.wage < prices_before.wage
    ):
        raise PricesNotDominatedError(
            "both prices must fall strictly: "
            f"capital {prices_before.capital_price!r} -> {prices_after.capital_price!r}, "
            f"wage {prices_before.wage!r} -> {prices_after.wage!r}"
        )

    core = tech.core_output(bundle)
    before = _measure(EconomyState(tech, bundle, prices=prices_before), core)
    after = _measure(EconomyState(tech, bundle, prices=prices_after), core)
    details = {"cost_before": before.tfp.numerator, "cost_after": after.tfp.numerator}
    return _compare(4, before, after, WELFARE_UNCHANGED, details)


def run_paradox_5(
    pricing_before: PricingScheme,
    pricing_after: PricingScheme,
    tech: Technology,
    bundle: InputBundle,
) -> ParadoxReport:
    """Markup regulation: revenue falls with quantities and costs untouched."""
    if len(pricing_after.items) != len(pricing_before.items):
        raise InvalidParameterError(
            f"pricing schemes differ in length: {len(pricing_before.items)} before, "
            f"{len(pricing_after.items)} after"
        )
    for position, (old, new) in enumerate(zip(pricing_before.items, pricing_after.items)):
        if new.marginal_cost != old.marginal_cost or new.quantity != old.quantity:
            raise InvalidParameterError(
                f"output {position}: marginal cost and quantity must be unchanged, "
                f"got ({old.marginal_cost!r}, {old.quantity!r}) -> "
                f"({new.marginal_cost!r}, {new.quantity!r})"
            )
        if new.markup >= old.markup:
            raise MarkupNotReducedError(
                f"output {position}: markup must fall strictly, "
                f"got {old.markup!r} -> {new.markup!r}"
            )

    core = tech.core_output(bundle)
    before = _measure(EconomyState(tech, bundle, pricing=pricing_before), core)
    after = _measure(EconomyState(tech, bundle, pricing=pricing_after), core)
    details = {"revenue_before": before.tfp.numerator, "revenue_after": after.tfp.numerator}
    return _compare(5, before, after, WELFARE_UNCHANGED, details)


# paradox id -> (scenario fields it requires, call into its runner). The
# adapters look each runner up by name when called, so a wrapper installed
# at the module attribute sees every call.
_RUNNERS: dict[int, tuple[frozenset[str], Callable[[Scenario], ParadoxReport]]] = {
    1: (
        frozenset({"prices", "shift"}),
        lambda s: run_paradox_1(s.technology, s.bundle, s.prices, s.shift),
    ),
    2: (frozenset({"prices"}), lambda s: run_paradox_2(s.technology, s.prices, s.bundle)),
    3: (frozenset({"prices"}), lambda s: run_paradox_3(s.technology, s.prices, s.bundle)),
    4: (
        frozenset({"prices", "prices_after"}),
        lambda s: run_paradox_4(s.technology, s.bundle, s.prices, s.prices_after),
    ),
    5: (
        frozenset({"pricing", "markups_after"}),
        lambda s: run_paradox_5(
            s.pricing, s.pricing.with_markups(s.markups_after), s.technology, s.bundle
        ),
    ),
}
_OPTIONAL_FIELD_NAMES = frozenset().union(*(required for required, _ in _RUNNERS.values()))


def run_scenario(scenario: Scenario) -> ParadoxReport:
    """Validate a scenario's field set against its paradox and run it."""
    required, run = _RUNNERS[scenario.paradox_id]
    present = {name for name in _OPTIONAL_FIELD_NAMES if getattr(scenario, name) is not None}
    if present != required:
        parts = [
            f"{kind} {sorted(names)!r}"
            for kind, names in (("missing", required - present), ("unexpected", present - required))
            if names
        ]
        raise ScenarioError(
            f"scenario {scenario.name!r} (paradox {scenario.paradox_id}): " + ", ".join(parts)
        )
    return run(scenario)


def _where(scenario: Scenario) -> str:
    """The paradox, technology family and bundle a scenario runs at."""
    bundle = scenario.bundle
    inputs = f"capital={bundle.capital!r} labor={bundle.labor!r}"
    if bundle.intermediates is not None:
        inputs += f" intermediates={bundle.intermediates!r}"
    family = scenario.technology.family
    return f"paradox {scenario.paradox_id}, {family} technology at bundle {inputs}"


def run_all(
    scenarios: Union[str, "PathLike[str]", Iterable[Union[Scenario, FailedScenario]]],
) -> list[ScenarioOutcome]:
    """Run every scenario, isolating failures so one bad entry cannot stop the rest.

    Accepts a scenario file path or already-built scenarios. Outcomes are
    ordered by paradox id, then by the scenarios' original order. Entries
    that failed to parse pass through as input errors.
    """
    if isinstance(scenarios, (str, PathLike)):
        from .scenario_io import load_scenarios

        scenarios = load_scenarios(scenarios)
    outcomes: list[ScenarioOutcome] = []
    for scenario in sorted(scenarios, key=lambda s: s.paradox_id):
        report = error = error_kind = None
        if isinstance(scenario, FailedScenario):
            error, error_kind = scenario.error, "input"
        else:
            try:
                report = run_scenario(scenario)
            except NoConvergenceError as exc:
                error, error_kind = str(exc), "internal"
            except ArithmeticError as exc:  # Python's own text names no input
                error, error_kind = f"{_where(scenario)}: {exc}", "internal"
            except PubTfpError as exc:
                error, error_kind = str(exc), "input"
        outcomes.append(
            ScenarioOutcome(scenario.name, scenario.paradox_id, report, error, error_kind)
        )
    return outcomes

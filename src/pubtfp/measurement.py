"""Cost-based measurement conventions for nonmarket output and their TFP.

Nonmarket output has no market price, so statistical offices value it at
cost. Three conventions are covered:

* cost-based value added: output is the factor bill r*K + w*L;
* cost-weighted output index: individual outputs y_i are weighted by unit
  costs c_i = share_i * C / y_i imputed from a total-cost allocation, which
  forces the index to equal coverage * C identically;
* distorted revenue: outputs are priced at marginal cost times one plus a
  regulated markup, so revenue moves with the markups.

Measured TFP under each convention divides the convention's output value
by physical frontier output f(inputs). Because the denominator carries the
Hicks-neutral technology level while the numerator tracks spending, these
ratios fall when technology improves and input spending does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _CONVENTIONS as CONVENTIONS, _EXPORTS
from .errors import InvalidParameterError, _positive
from .technology import FactorPrices, InputBundle, Technology

__all__ = [*_EXPORTS["measurement"], "CONVENTIONS"]

COST_BASED_VA, COST_WEIGHTED_INDEX, DISTORTED_REVENUE = CONVENTIONS

_SHARE_SUM_TOL = 1e-9  # absolute, on sum(cost shares) - coverage
_PROP1_REL_TOL = 1e-12


@dataclass(frozen=True)
class OutputShare:
    """One output: its quantity and its share of total cost."""

    quantity: float
    cost_share: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "quantity", _positive("quantity", self.quantity))
        object.__setattr__(self, "cost_share", _positive("cost_share", self.cost_share))


@dataclass(frozen=True)
class OutputMix:
    """Observed output quantities with a cost-share allocation over them.

    ``coverage`` below 1 means only that fraction of total cost is
    attributed to the listed outputs; the shares must sum to it.
    """

    outputs: tuple[OutputShare, ...]
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if not self.outputs:
            raise InvalidParameterError("an output mix needs at least one output")
        coverage = float(self.coverage)
        if not math.isfinite(coverage) or not 0.0 < coverage <= 1.0:
            raise InvalidParameterError(f"coverage must lie in (0, 1], got {self.coverage!r}")
        object.__setattr__(self, "coverage", coverage)
        total = sum(o.cost_share for o in self.outputs)
        if abs(total - coverage) > _SHARE_SUM_TOL:
            raise InvalidParameterError(
                f"cost shares sum to {total!r} but coverage is {coverage!r}"
            )

    @property
    def quantities(self) -> tuple[float, ...]:
        return tuple(o.quantity for o in self.outputs)


@dataclass(frozen=True)
class PricedOutput:
    """One output priced at marginal cost times (1 + regulated markup)."""

    marginal_cost: float
    markup: float
    quantity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "marginal_cost", _positive("marginal_cost", self.marginal_cost))
        object.__setattr__(self, "quantity", _positive("quantity", self.quantity))
        markup = float(self.markup)
        # any markup above -1 keeps the price positive; regulators may price
        # below marginal cost
        if not math.isfinite(markup) or markup <= -1.0:
            raise InvalidParameterError(f"markup must exceed -1, got {self.markup!r}")
        object.__setattr__(self, "markup", markup)

    @property
    def price(self) -> float:
        return (1.0 + self.markup) * self.marginal_cost


@dataclass(frozen=True)
class PricingScheme:
    """Regulated prices for a list of outputs."""

    items: tuple[PricedOutput, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise InvalidParameterError("a pricing scheme needs at least one output")

    def with_markups(self, markups: Sequence[float]) -> "PricingScheme":
        """Same marginal costs and quantities under different markups."""
        if len(markups) != len(self.items):
            raise InvalidParameterError(
                f"expected {len(self.items)} markups, got {len(markups)}"
            )
        return PricingScheme(
            tuple(
                PricedOutput(item.marginal_cost, markup, item.quantity)
                for item, markup in zip(self.items, markups)
            )
        )


@dataclass(frozen=True, slots=True)
class MeasuredTfp:
    """A measured-TFP level, its convention, and the ratio's two components."""

    value: float
    convention: str
    numerator: float
    denominator: float

    def __post_init__(self) -> None:
        if self.convention not in CONVENTIONS:
            raise InvalidParameterError(
                f"unknown convention {self.convention!r}; expected one of {CONVENTIONS}"
            )
        # a float already in (0, inf) is kept as given; anything else goes through the validator
        for name in ("numerator", "denominator", "value"):
            v = getattr(self, name)
            if not (type(v) is float and 0.0 < v < math.inf):
                object.__setattr__(self, name, _positive(name, v))


def _ratio(numerator: float, denominator: float, convention: str) -> MeasuredTfp:
    # MeasuredTfp checks the numerator before the denominator, so a zero
    # frontier output fails as an invalid denominator, not a ZeroDivisionError
    return MeasuredTfp(
        value=numerator / denominator if denominator else math.nan,
        convention=convention,
        numerator=numerator,
        denominator=denominator,
    )


@dataclass(frozen=True)
class Proposition1Report:
    """Both sides of the cost-weighted index identity and whether they agree."""

    lhs: float
    rhs: float
    equal: bool


def cost_based_value_added(prices: FactorPrices, bundle: InputBundle) -> float:
    """Nominal value added imputed as the factor bill r*K + w*L."""
    return prices.capital_price * bundle.capital + prices.wage * bundle.labor


def measured_tfp_cost_based(
    prices: FactorPrices, bundle: InputBundle, tech: Technology
) -> MeasuredTfp:
    """Factor bill divided by frontier output, the cost-based convention."""
    return _ratio(cost_based_value_added(prices, bundle), tech.output(bundle), COST_BASED_VA)


def unit_costs_from_allocation(total_cost: float, mix: OutputMix) -> list[float]:
    """Imputed unit costs c_i = share_i * total_cost / y_i, in mix order."""
    total_cost = _positive("total_cost", total_cost)
    return [o.cost_share * total_cost / o.quantity for o in mix.outputs]


def cost_weighted_output(mix: OutputMix, unit_costs: Sequence[float]) -> float:
    """Output index sum of c_i * y_i over the mix."""
    if len(unit_costs) != len(mix.outputs):
        raise InvalidParameterError(
            f"expected {len(mix.outputs)} unit costs, got {len(unit_costs)}"
        )
    for c in unit_costs:
        _positive("unit cost", c)
    return sum(c * o.quantity for c, o in zip(unit_costs, mix.outputs))


def measured_tfp_cost_weighted(
    prices: FactorPrices, bundle: InputBundle, mix: OutputMix, tech: Technology
) -> MeasuredTfp:
    """Cost-weighted output index divided by frontier output.

    Composition helper: by the index identity the numerator always equals
    coverage times the factor bill, so this convention only rescales the
    cost-based one.
    """
    total_cost = cost_based_value_added(prices, bundle)
    index = cost_weighted_output(mix, unit_costs_from_allocation(total_cost, mix))
    return _ratio(index, tech.output(bundle), COST_WEIGHTED_INDEX)


def verify_proposition1(
    prices: FactorPrices, bundle: InputBundle, mix: OutputMix
) -> Proposition1Report:
    """Check that the cost-weighted index collapses to coverage * factor bill.

    The identity holds for every mix and quantity vector because the
    quantities cancel out of c_i * y_i. With full coverage the index is
    exactly the factor bill, whatever was actually produced.
    """
    total_cost = cost_based_value_added(prices, bundle)
    lhs = cost_weighted_output(mix, unit_costs_from_allocation(total_cost, mix))
    rhs = mix.coverage * total_cost
    equal = math.isclose(lhs, rhs, rel_tol=_PROP1_REL_TOL, abs_tol=0.0)
    return Proposition1Report(lhs=lhs, rhs=rhs, equal=equal)


def revenue(pricing: PricingScheme) -> float:
    """Total revenue sum of (1 + markup_i) * marginal_cost_i * y_i."""
    return sum(item.price * item.quantity for item in pricing.items)


def measured_tfp_revenue(
    pricing: PricingScheme, tech: Technology, bundle: InputBundle
) -> MeasuredTfp:
    """Revenue at regulated prices divided by gross frontier output."""
    return _ratio(revenue(pricing), tech.output(bundle), DISTORTED_REVENUE)

"""Cost minimization, allocative efficiency, and most-productive scale size.

Everything here works on the technologies from :mod:`pubtfp.technology`,
and every answer is a closed form. Cobb-Douglas cost minimization solves
for all inputs at once. CES and homothetic translog cost minimization take
the capital-labor ratio from the first-order condition MRTS = r/w, which
is linear in ln(K/L) for both, then scale along that ray to the target
isoquant. The most-productive scale size of a translog with curvature < 0
is where its scale elasticity, linear in the log core index, equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .errors import DomainError, InvalidParameterError, NoConvergenceError, NoInteriorMpssError
from .measurement import cost_based_value_added
from .technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    Technology,
    TechnologyShift,
)

__all__ = [*_EXPORTS["efficiency"]]

# representable ranges
_LOG_RATIO_BRACKET = 40.0  # cost-minimizing ln(K/L) must lie in [-40, 40]
_NORMAL_MIN = 2.0**-1022  # smallest normal float: the MPSS bundle and output keep full precision


@dataclass(frozen=True, slots=True)
class CostMinResult:
    """Cheapest bundle producing a target output, and its cost."""

    bundle: InputBundle
    cost: float
    target_output: float


@dataclass(frozen=True, slots=True)
class MpssResult:
    """Scale that maximizes output per unit of a reference bundle.

    ``scale_factor`` multiplies the reference bundle to reach
    ``bundle_at_mpss``; ``ray_average_product`` is output there divided by
    the scale factor. ``scale_elasticity`` at the optimum equals 1 up to
    rounding.
    """

    scale_factor: float
    bundle_at_mpss: InputBundle
    output: float
    ray_average_product: float
    scale_elasticity: float


def _cobb_douglas_min_cost(
    tech: CobbDouglas, prices: FactorPrices, target_output: float
) -> CostMinResult:
    # With p_i x_i proportional to alpha_i at the optimum, x_i = (alpha_i / p_i) T
    # and T follows from the production constraint.
    terms: list[tuple[float, float]] = [
        (tech.alpha_capital, prices.capital_price),
        (tech.alpha_labor, prices.wage),
    ]
    if tech.alpha_intermediates is not None:
        if prices.intermediates_price is None:
            raise DomainError(
                "cost minimization over a gross-output technology needs an intermediates price"
            )
        terms.append((tech.alpha_intermediates, prices.intermediates_price))
    total_alpha = sum(alpha for alpha, _ in terms)
    log_t = (
        math.log(target_output)
        - math.log(tech.level)
        - sum(alpha * (math.log(alpha) - math.log(p)) for alpha, p in terms)
    ) / total_alpha
    t = math.exp(log_t)
    quantities = [alpha / p * t for alpha, p in terms]
    bundle = InputBundle(
        quantities[0], quantities[1], quantities[2] if len(quantities) == 3 else None
    )
    return CostMinResult(bundle=bundle, cost=t * total_alpha, target_output=target_output)


def _cost_min_log_ratio(tech: Ces | HomotheticTranslog, prices: FactorPrices) -> float:
    """x = ln(K/L) at which the MRTS equals capital_price / wage.

    Both families share the first-order condition
    ln(d/(1-d)) + (rho - 1) x = ln(r/w); the translog's core is a
    Cobb-Douglas index, so it has d = inner_alpha_capital and rho = 0.
    """
    if isinstance(tech, Ces):
        d, rho = tech.capital_weight, tech.substitution
    else:
        d, rho = tech.inner_alpha_capital, 0.0
    log_price_ratio = math.log(prices.capital_price) - math.log(prices.wage)
    x = (math.log(d / (1.0 - d)) - log_price_ratio) / (1.0 - rho)
    if abs(x) > _LOG_RATIO_BRACKET:
        raise NoConvergenceError(
            "factor price ratio lies outside the bracketed range of capital-labor ratios"
        )
    return x


def _scale_to_isoquant(
    tech: Ces | HomotheticTranslog, direction: InputBundle, target_output: float
) -> float:
    """Scale s with output(s * direction) = target_output, along a fixed ray."""
    if isinstance(tech, Ces):
        base = tech.output(direction)
        return math.exp((math.log(target_output) - math.log(base)) / tech.returns_to_scale)
    b, c = tech.slope, tech.curvature
    log_target = math.log(target_output) - math.log(tech.level)
    u0 = tech._log_core_index(direction)
    if c == 0.0:
        return math.exp(log_target / b - u0)
    disc = b * b + 4.0 * c * log_target
    if disc < 0.0:
        max_output = tech.level * math.exp(-b * b / (4.0 * c))
        raise DomainError(
            f"target output {target_output!r} exceeds the frontier maximum "
            f"{max_output!r} for this technology"
        )
    # root on the increasing branch: scale elasticity there is +sqrt(disc)
    u_star = (-b + math.sqrt(disc)) / (2.0 * c)
    return math.exp(u_star - u0)


def min_cost_bundle(
    tech: Technology, prices: FactorPrices, target_output: float
) -> CostMinResult:
    """Cheapest input bundle on the ``target_output`` isoquant at given prices."""
    if not math.isfinite(target_output) or target_output <= 0.0:
        raise DomainError(f"target output must be strictly positive, got {target_output!r}")
    if isinstance(tech, CobbDouglas):
        return _cobb_douglas_min_cost(tech, prices, target_output)
    if isinstance(tech, (Ces, HomotheticTranslog)):
        direction = InputBundle(math.exp(_cost_min_log_ratio(tech, prices)), 1.0)
        bundle = direction.scaled(_scale_to_isoquant(tech, direction, target_output))
        return CostMinResult(
            bundle=bundle,
            cost=cost_based_value_added(prices, bundle),
            target_output=target_output,
        )
    raise DomainError(f"cost minimization is not implemented for family {tech.family!r}")


def _check_gap_domain(tech: Technology, bundle: InputBundle) -> None:
    """The allocative gap's two domain checks, in the order they raise."""
    if tech.uses_intermediates:
        raise DomainError("allocative gap is defined for value-added technologies only")
    if bundle.capital <= 0.0 or bundle.labor <= 0.0:
        raise DomainError("allocative gap requires strictly positive capital and labor")


def allocative_gap(tech: Technology, prices: FactorPrices, bundle: InputBundle) -> float:
    """Minimum cost of the bundle's own output divided by its actual cost.

    Lies in (0, 1]; equals 1 exactly when the bundle is cost-minimizing at
    these prices. Only capital and labor are priced, so the technology must
    be a value-added one. Paradox 2 runs the same checks and ratio on its one solve.
    """
    _check_gap_domain(tech, bundle)
    best = min_cost_bundle(tech, prices, tech.output(bundle))
    # guard against ratios such as 1 + 1e-16 when the bundle is already optimal
    return min(best.cost / cost_based_value_added(prices, bundle), 1.0)


def find_mpss(tech: Technology, ray_bundle: InputBundle) -> MpssResult:
    """Most productive scale size along the ray through ``ray_bundle``.

    The optimum is interior only when the scale elasticity crosses 1 from
    above, which rules out every constant-elasticity family (they raise
    :class:`NoInteriorMpssError`). A translog with curvature < 0 has elasticity
    slope + 2*curvature*(u0 + ln s), equal to 1 at one ln s; a :class:`DomainError`
    names that ln s when the bundle or output there is not a normal float.
    """
    if ray_bundle.capital <= 0.0 or ray_bundle.labor <= 0.0:
        raise DomainError("scale search requires strictly positive capital and labor")
    m = ray_bundle.intermediates
    if tech.uses_intermediates and (m is None or m <= 0.0):
        raise DomainError("scale search requires strictly positive intermediates")
    if not (isinstance(tech, HomotheticTranslog) and tech.curvature < 0.0):
        # every other family's elasticity is constant along a ray
        raise NoInteriorMpssError(
            "no interior most-productive scale: scale elasticity is "
            f"{tech.scale_elasticity(ray_bundle)!r} all along this ray"
        )
    x_star = (1.0 - tech.slope) / (2.0 * tech.curvature) - tech._log_core_index(ray_bundle)
    try:
        scale_factor = math.exp(x_star)
        scaled = ray_bundle.scaled(scale_factor)
        output = tech.output(scaled) if min(scaled.capital, scaled.labor) >= _NORMAL_MIN else 0.0
    except (OverflowError, InvalidParameterError):  # e^x* or an input left the float range
        output = 0.0
    if not _NORMAL_MIN <= output < math.inf:
        raise DomainError(f"most productive scale size is out of float range: ln scale {x_star!r}")
    return MpssResult(
        scale_factor=scale_factor,
        bundle_at_mpss=scaled,
        output=output,
        ray_average_product=output / scale_factor,
        scale_elasticity=tech.scale_elasticity(scaled),
    )


def apply_technical_progress(tech: Technology, shift: TechnologyShift) -> Technology:
    """Return the same technology with its Hicks-neutral level raised by ``shift``.

    Isoquant shapes, hence every marginal rate of technical substitution,
    are unchanged; only the output attached to each isoquant grows.
    """
    return tech.with_level(tech.level * shift.factor)

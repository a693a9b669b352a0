"""Parametric production technologies and primitive productivity quantities.

A technology maps an input bundle (capital K, labor L, optionally
intermediates M) to the maximum attainable output

    f(K, L) = level * core(K, L),

where ``level`` is a Hicks-neutral scale parameter and ``core`` is the
family-specific functional form. Three value-added families are provided:

* :class:`CobbDouglas` -- K^aK * L^aL, closed forms for everything; with a
  third exponent it doubles as a gross-output technology over (K, L, M).
* :class:`Ces` -- (d*K^rho + (1-d)*L^rho)^(nu/rho), constant elasticity of
  substitution 1/(1-rho), degree-nu homogeneous.
* :class:`HomotheticTranslog` -- exp(b*ln h + c*(ln h)^2) over a degree-1
  Cobb-Douglas core index h; the only family whose returns to scale vary
  with scale, hence the only one with an interior most-productive scale
  size when c < 0.

:class:`TwoLevelCes` nests a CES capital-labor aggregate with intermediates
for the gross-output setting.

All values are real (deflated) magnitudes. Every object here is an
immutable value; the module-level operations are pure functions and safe
to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import _EXPORTS
from .errors import DomainError, InvalidParameterError

__all__ = [*_EXPORTS["technology"]]


def _require_finite(name: str, value: float) -> float:
    if type(value) is not float:
        value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be strictly positive, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise InvalidParameterError(f"{name} must be nonnegative, got {value!r}")
    return value


def _require_weight(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 < value < 1.0:
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _require_substitution(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value == 0.0 or value >= 1.0:
        raise InvalidParameterError(
            f"{name} must lie in (-inf, 1) and differ from 0, got {value!r}"
        )
    return value


def _keep(record: object, name: str, check: Callable[[str, float], float]) -> float:
    """Validate a frozen record's field with ``check`` and store the float it returns."""
    value = check(name, getattr(record, name))
    object.__setattr__(record, name, value)
    return value


def _ces_sum(weight: float, a: float, b: float, rho: float) -> float:
    """The CES aggregator's inner sum weight*a^rho + (1-weight)*b^rho."""
    return weight * a ** rho + (1.0 - weight) * b ** rho


def _ces(weight: float, a: float, b: float, rho: float, degree: float) -> float:
    """The degree-``degree`` CES aggregate of a and b; under rho < 0 both are essential."""
    if rho < 0.0 and (a == 0.0 or b == 0.0):
        return 0.0
    return _ces_sum(weight, a, b, rho) ** (degree / rho)


@dataclass(frozen=True, slots=True)
class InputBundle:
    """Real input quantities: capital services, labor, optional intermediates."""

    capital: float
    labor: float
    intermediates: float | None = None

    def __post_init__(self) -> None:
        # a float already in [0, inf) is kept as given; anything else goes through the validator
        capital, labor, m = self.capital, self.labor, self.intermediates
        if not (type(capital) is float and 0.0 <= capital < math.inf):
            object.__setattr__(self, "capital", _require_nonnegative("capital", capital))
        if not (type(labor) is float and 0.0 <= labor < math.inf):
            object.__setattr__(self, "labor", _require_nonnegative("labor", labor))
        if m is not None and not (type(m) is float and 0.0 <= m < math.inf):
            object.__setattr__(self, "intermediates", _require_nonnegative("intermediates", m))

    def scaled(self, factor: float) -> "InputBundle":
        """Scale every input (including intermediates, when present) by ``factor``."""
        factor = _require_positive("scale factor", factor)
        m = None if self.intermediates is None else factor * self.intermediates
        return InputBundle(factor * self.capital, factor * self.labor, m)


@dataclass(frozen=True)
class FactorPrices:
    """Real factor prices: rental price of capital, wage, optional intermediates price."""

    capital_price: float
    wage: float
    intermediates_price: float | None = None

    def __post_init__(self) -> None:
        _keep(self, "capital_price", _require_positive)
        _keep(self, "wage", _require_positive)
        if self.intermediates_price is not None:
            _keep(self, "intermediates_price", _require_positive)


@dataclass(frozen=True)
class TechnologyShift:
    """Multiplicative Hicks-neutral improvement; ``factor`` must exceed 1."""

    factor: float

    def __post_init__(self) -> None:
        factor = _require_finite("shift factor", self.factor)
        if factor <= 1.0:
            raise InvalidParameterError(
                f"a technology shift must have factor > 1, got {factor!r}"
            )
        object.__setattr__(self, "factor", factor)


class Technology:
    """Base class for production technologies. Subclasses are frozen dataclasses."""

    family: str = "abstract"
    level: float

    # family-specific pieces -------------------------------------------------

    def core_output(self, bundle: InputBundle) -> float:
        """Output with the Hicks-neutral level divided out."""
        raise NotImplementedError

    def marginal_products(self, bundle: InputBundle) -> tuple[float, float]:
        """Analytic (df/dK, df/dL) at a strictly positive bundle."""
        raise NotImplementedError

    def scale_elasticity(self, bundle: InputBundle) -> float:
        """d ln f(s*K, s*L, [s*M]) / d ln s at s = 1."""
        raise NotImplementedError

    @property
    def uses_intermediates(self) -> bool:
        return False

    # shared machinery -------------------------------------------------------

    def output(self, bundle: InputBundle) -> float:
        return self.level * self.core_output(bundle)

    def with_level(self, level: float) -> "Technology":
        # every other field was validated when self was built, so only the level is checked
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        object.__setattr__(twin, "level", _require_positive("level", level))
        return twin

    def _check_bundle(self, bundle: InputBundle) -> None:
        if bundle.capital == 0.0 and bundle.labor == 0.0:
            raise DomainError("at least one of capital and labor must be strictly positive")
        if self.uses_intermediates and bundle.intermediates is None:
            raise DomainError(f"{self.family} technology requires an intermediates quantity")

    def _check_interior(self, bundle: InputBundle) -> None:
        if bundle.capital <= 0.0 or bundle.labor <= 0.0:
            raise DomainError("marginal products require strictly positive capital and labor")
        if self.uses_intermediates:
            if bundle.intermediates is None or bundle.intermediates <= 0.0:
                raise DomainError("marginal products require strictly positive intermediates")


@dataclass(frozen=True)
class CobbDouglas(Technology):
    """K^aK * L^aL (optionally * M^aM) scaled by the Hicks-neutral level."""

    alpha_capital: float
    alpha_labor: float
    level: float = 1.0
    alpha_intermediates: float | None = None

    family = "cobb-douglas"

    def __post_init__(self) -> None:
        for name in ("alpha_capital", "alpha_labor", "level"):
            _keep(self, name, _require_positive)
        if self.alpha_intermediates is not None:
            _keep(self, "alpha_intermediates", _require_positive)

    @property
    def uses_intermediates(self) -> bool:
        return self.alpha_intermediates is not None

    def core_output(self, bundle: InputBundle) -> float:
        self._check_bundle(bundle)
        out = bundle.capital ** self.alpha_capital * bundle.labor ** self.alpha_labor
        if self.alpha_intermediates is not None:
            out *= bundle.intermediates ** self.alpha_intermediates
        return out

    def marginal_products(self, bundle: InputBundle) -> tuple[float, float]:
        self._check_interior(bundle)
        f = self.output(bundle)
        return (self.alpha_capital * f / bundle.capital, self.alpha_labor * f / bundle.labor)

    def marginal_product_intermediates(self, bundle: InputBundle) -> float:
        if self.alpha_intermediates is None:
            raise DomainError("technology has no intermediates exponent")
        self._check_interior(bundle)
        return self.alpha_intermediates * self.output(bundle) / bundle.intermediates

    def scale_elasticity(self, bundle: InputBundle) -> float:
        self._check_interior(bundle)
        total = self.alpha_capital + self.alpha_labor
        if self.alpha_intermediates is not None:
            total += self.alpha_intermediates
        return total


@dataclass(frozen=True)
class Ces(Technology):
    """(d*K^rho + (1-d)*L^rho)^(nu/rho) scaled by the Hicks-neutral level.

    ``substitution`` (rho) lies in (-inf, 1) excluding 0; the unit-elastic
    rho = 0 limit is deliberately not implemented. ``returns_to_scale`` is
    the homogeneity degree nu.
    """

    capital_weight: float
    substitution: float
    returns_to_scale: float = 1.0
    level: float = 1.0

    family = "ces"

    def __post_init__(self) -> None:
        _keep(self, "capital_weight", _require_weight)
        _keep(self, "substitution", _require_substitution)
        _keep(self, "returns_to_scale", _require_positive)
        _keep(self, "level", _require_positive)

    def core_output(self, bundle: InputBundle) -> float:
        self._check_bundle(bundle)
        rho, degree = self.substitution, self.returns_to_scale
        return _ces(self.capital_weight, bundle.capital, bundle.labor, rho, degree)

    def marginal_products(self, bundle: InputBundle) -> tuple[float, float]:
        self._check_interior(bundle)
        rho = self.substitution
        inner = _ces_sum(self.capital_weight, bundle.capital, bundle.labor, rho)
        common = self.level * self.returns_to_scale * inner ** (self.returns_to_scale / rho - 1.0)
        mp_k = common * self.capital_weight * bundle.capital ** (rho - 1.0)
        mp_l = common * (1.0 - self.capital_weight) * bundle.labor ** (rho - 1.0)
        return (mp_k, mp_l)

    def scale_elasticity(self, bundle: InputBundle) -> float:
        self._check_interior(bundle)
        return self.returns_to_scale


@dataclass(frozen=True)
class HomotheticTranslog(Technology):
    """exp(slope*ln h + curvature*(ln h)^2) over the core index h = K^a * L^(1-a).

    Returns to scale along any ray equal slope + 2*curvature*ln h, so they
    decline with scale when curvature < 0 and the ray average product peaks
    at an interior scale. Output is increasing in each input only while
    slope + 2*curvature*ln h > 0; derivative operations refuse bundles
    beyond that region.
    """

    inner_alpha_capital: float
    slope: float
    curvature: float
    level: float = 1.0

    family = "homothetic-translog"

    def __post_init__(self) -> None:
        _keep(self, "inner_alpha_capital", _require_weight)
        _keep(self, "slope", _require_positive)
        c = _keep(self, "curvature", _require_finite)
        if c > 0.0:
            raise InvalidParameterError(
                f"curvature must be <= 0 (scale elasticity nonincreasing in scale), got {c!r}"
            )
        _keep(self, "level", _require_positive)

    def _log_core_index(self, bundle: InputBundle) -> float:
        a = self.inner_alpha_capital
        return a * math.log(bundle.capital) + (1.0 - a) * math.log(bundle.labor)

    def core_output(self, bundle: InputBundle) -> float:
        self._check_bundle(bundle)
        if bundle.capital == 0.0 or bundle.labor == 0.0:
            return 0.0
        u = self._log_core_index(bundle)
        return math.exp(self.slope * u + self.curvature * u * u)

    def marginal_products(self, bundle: InputBundle) -> tuple[float, float]:
        self._check_interior(bundle)
        u = self._log_core_index(bundle)
        eps = self.slope + 2.0 * self.curvature * u
        if eps <= 0.0:
            raise DomainError(
                "bundle lies beyond the monotone region of the translog "
                f"(scale elasticity {eps!r} at log core index {u!r})"
            )
        f = self.level * math.exp(self.slope * u + self.curvature * u * u)
        a = self.inner_alpha_capital
        return (f * eps * a / bundle.capital, f * eps * (1.0 - a) / bundle.labor)

    def scale_elasticity(self, bundle: InputBundle) -> float:
        self._check_interior(bundle)
        return self.slope + 2.0 * self.curvature * self._log_core_index(bundle)


@dataclass(frozen=True)
class TwoLevelCes(Technology):
    """Gross-output CES: a CES capital-labor aggregate combined with intermediates.

    h = (d1*K^rho1 + (1-d1)*L^rho1)^(1/rho1) is nested into
    (d2*h^rho2 + (1-d2)*M^rho2)^(nu/rho2).
    """

    capital_weight: float
    inner_substitution: float
    value_added_weight: float
    outer_substitution: float
    returns_to_scale: float = 1.0
    level: float = 1.0

    family = "two-level-ces"

    def __post_init__(self) -> None:
        for name in ("capital_weight", "value_added_weight"):
            _keep(self, name, _require_weight)
        for name in ("inner_substitution", "outer_substitution"):
            _keep(self, name, _require_substitution)
        _keep(self, "returns_to_scale", _require_positive)
        _keep(self, "level", _require_positive)

    @property
    def uses_intermediates(self) -> bool:
        return True

    def _aggregate(self, bundle: InputBundle) -> float:
        return _ces(self.capital_weight, bundle.capital, bundle.labor, self.inner_substitution, 1.0)

    def core_output(self, bundle: InputBundle) -> float:
        self._check_bundle(bundle)
        h, rho, degree = self._aggregate(bundle), self.outer_substitution, self.returns_to_scale
        return _ces(self.value_added_weight, h, bundle.intermediates, rho, degree)

    def marginal_products(self, bundle: InputBundle) -> tuple[float, float]:
        self._check_interior(bundle)
        h = self._aggregate(bundle)
        rho1, rho2 = self.inner_substitution, self.outer_substitution
        outer = _ces_sum(self.value_added_weight, h, bundle.intermediates, rho2)
        common = (
            self.level
            * self.returns_to_scale
            * self.value_added_weight
            * h ** (rho2 - rho1)
            * outer ** (self.returns_to_scale / rho2 - 1.0)
        )
        mp_k = common * self.capital_weight * bundle.capital ** (rho1 - 1.0)
        mp_l = common * (1.0 - self.capital_weight) * bundle.labor ** (rho1 - 1.0)
        return (mp_k, mp_l)

    def marginal_product_intermediates(self, bundle: InputBundle) -> float:
        self._check_interior(bundle)
        h = self._aggregate(bundle)
        rho2 = self.outer_substitution
        outer = _ces_sum(self.value_added_weight, h, bundle.intermediates, rho2)
        return (
            self.level
            * self.returns_to_scale
            * (1.0 - self.value_added_weight)
            * bundle.intermediates ** (rho2 - 1.0)
            * outer ** (self.returns_to_scale / rho2 - 1.0)
        )

    def scale_elasticity(self, bundle: InputBundle) -> float:
        self._check_interior(bundle)
        return self.returns_to_scale


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def evaluate(tech: Technology, bundle: InputBundle) -> float:
    """Maximum attainable output of ``tech`` at ``bundle`` (level included)."""
    return tech.output(bundle)


def marginal_products(tech: Technology, bundle: InputBundle) -> tuple[float, float]:
    """Analytic marginal products (df/dK, df/dL); requires an interior bundle."""
    return tech.marginal_products(bundle)


def mrts(tech: Technology, bundle: InputBundle) -> float:
    """Marginal rate of technical substitution df/dK divided by df/dL."""
    mp_k, mp_l = tech.marginal_products(bundle)
    return mp_k / mp_l


def scale_elasticity(tech: Technology, bundle: InputBundle) -> float:
    """Local returns to scale along the ray through ``bundle``."""
    return tech.scale_elasticity(bundle)


def true_tfp(observed_output: float, tech: Technology, bundle: InputBundle) -> float:
    """Residual productivity: observed output over the level-free frontier.

    The denominator is evaluated with the Hicks-neutral level forced to 1,
    so a technology's own level is recovered rather than double-counted:
    ``true_tfp(evaluate(tech, b), tech, b) == tech.level``.
    """
    observed_output = _require_positive("observed_output", observed_output)
    denominator = tech.core_output(bundle)
    if denominator == 0.0:
        raise DomainError("frontier output is zero at this bundle")
    return observed_output / denominator

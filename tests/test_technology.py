import dataclasses
import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubtfp.errors import DomainError, InvalidParameterError
from pubtfp.technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    TwoLevelCes,
    mrts,
    true_tfp,
)


class TestInputBundle:
    def test_scaled_multiplies_every_input(self):
        b = InputBundle(2.0, 3.0, 4.0).scaled(0.5)
        assert (b.capital, b.labor, b.intermediates) == (1.0, 1.5, 2.0)

    def test_scaled_keeps_missing_intermediates_missing(self):
        assert InputBundle(2.0, 3.0).scaled(2.0).intermediates is None

    def test_rejects_negative_quantities(self):
        with pytest.raises(InvalidParameterError):
            InputBundle(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            InputBundle(1.0, 1.0, -0.5)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvalidParameterError):
            InputBundle(1.0, 1.0).scaled(0.0)


class TestFactorPrices:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(InvalidParameterError):
            FactorPrices(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            FactorPrices(1.0, 1.0, intermediates_price=-2.0)


class TestTechnologyShift:
    @pytest.mark.parametrize("factor", [1.0, 0.9, 0.0, -2.0])
    def test_rejects_factor_at_or_below_one(self, factor):
        with pytest.raises(InvalidParameterError):
            TechnologyShift(factor)

    def test_accepts_barely_improving_factor(self):
        assert TechnologyShift(1.0 + 1e-9).factor > 1.0


class TestCobbDouglas:
    def test_output_closed_form(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=2.0)
        b = InputBundle(8.0, 1.0)
        assert tech.output(b) == 2.0 * 8.0**0.3

    def test_level_one_at_unit_bundle(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        assert tech.output(InputBundle(1.0, 1.0)) == 1.0

    def test_marginal_products_match_share_formula(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=1.5)
        b = InputBundle(2.0, 5.0)
        f = tech.output(b)
        mp_k, mp_l = tech.marginal_products(b)
        assert mp_k == pytest.approx(0.3 * f / 2.0, rel=1e-15)
        assert mp_l == pytest.approx(0.7 * f / 5.0, rel=1e-15)

    def test_scale_elasticity_is_exponent_sum(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.9)
        assert tech.scale_elasticity(InputBundle(1.0, 2.0)) == 1.2

    def test_one_zero_input_gives_zero_output(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        assert tech.output(InputBundle(0.0, 5.0)) == 0.0

    def test_both_zero_inputs_rejected(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        with pytest.raises(DomainError):
            tech.output(InputBundle(0.0, 0.0))

    def test_marginal_products_need_interior_bundle(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        with pytest.raises(DomainError):
            tech.marginal_products(InputBundle(0.0, 1.0))

    def test_gross_output_needs_intermediates_quantity(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.4, alpha_intermediates=0.3)
        assert tech.uses_intermediates
        with pytest.raises(DomainError):
            tech.output(InputBundle(1.0, 1.0))
        assert tech.output(InputBundle(1.0, 1.0, 1.0)) == 1.0

    def test_intermediates_marginal_product(self):
        tech = CobbDouglas(
            alpha_capital=0.3, alpha_labor=0.4, level=2.0, alpha_intermediates=0.3
        )
        b = InputBundle(1.0, 1.0, 4.0)
        f = tech.output(b)
        assert tech.marginal_product_intermediates(b) == pytest.approx(
            0.3 * f / 4.0, rel=1e-15
        )
        value_added = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        with pytest.raises(DomainError):
            value_added.marginal_product_intermediates(b)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InvalidParameterError):
            CobbDouglas(alpha_capital=0.0, alpha_labor=0.7)
        with pytest.raises(InvalidParameterError):
            CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=0.0)


class TestCes:
    def test_harmonic_mean_instance(self):
        # rho = -1 with weight 0.4: core(2, 3) = (0.4/2 + 0.6/3)^-1 = 2.5
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        assert tech.output(InputBundle(2.0, 3.0)) == pytest.approx(2.5, rel=1e-15)

    def test_marginal_products_instance(self):
        # same instance: inner = 0.4, mp_K = 0.4^-2 * 0.4 * 2^-2 = 0.625,
        # mp_L = 0.4^-2 * 0.6 * 3^-2 = 5/12
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        mp_k, mp_l = tech.marginal_products(InputBundle(2.0, 3.0))
        assert mp_k == pytest.approx(0.625, rel=1e-15)
        assert mp_l == pytest.approx(0.41666666666666663, rel=1e-14)

    def test_euler_identity_under_constant_returns(self):
        tech = Ces(capital_weight=0.35, substitution=0.5, level=1.3)
        b = InputBundle(1.7, 0.6)
        mp_k, mp_l = tech.marginal_products(b)
        assert mp_k * b.capital + mp_l * b.labor == pytest.approx(
            tech.output(b), rel=1e-12
        )

    def test_homogeneity_of_degree_nu(self):
        tech = Ces(capital_weight=0.4, substitution=-2.0, returns_to_scale=0.8)
        b = InputBundle(2.0, 3.0)
        for lam in (0.5, 2.0, 10.0):
            assert tech.output(b.scaled(lam)) == pytest.approx(
                lam**0.8 * tech.output(b), rel=1e-12
            )

    def test_zero_input_is_fatal_only_with_poor_substitutes(self):
        complements = Ces(capital_weight=0.4, substitution=-1.0)
        substitutes = Ces(capital_weight=0.4, substitution=0.5)
        assert complements.output(InputBundle(0.0, 3.0)) == 0.0
        # rho > 0: the remaining input still produces
        assert substitutes.output(InputBundle(0.0, 4.0)) == pytest.approx(
            (0.6 * 2.0) ** 2.0, rel=1e-15
        )

    def test_scale_elasticity_is_degree(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0, returns_to_scale=1.1)
        assert tech.scale_elasticity(InputBundle(1.0, 1.0)) == 1.1

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5])
    def test_rejects_out_of_range_substitution(self, rho):
        with pytest.raises(InvalidParameterError):
            Ces(capital_weight=0.4, substitution=rho)

    @pytest.mark.parametrize("weight", [0.0, 1.0, -0.2])
    def test_rejects_out_of_range_weight(self, weight):
        with pytest.raises(InvalidParameterError):
            Ces(capital_weight=weight, substitution=-1.0)


class TestHomotheticTranslog:
    tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1)

    def test_output_along_the_diagonal(self):
        # K = L = e^2 puts the log core index at 2
        b = InputBundle(math.e**2, math.e**2)
        assert self.tech.output(b) == pytest.approx(
            math.exp(1.2 * 2.0 - 0.1 * 4.0), rel=1e-14
        )

    def test_scale_elasticity_declines_with_scale(self):
        assert self.tech.scale_elasticity(InputBundle(1.0, 1.0)) == 1.2
        b = InputBundle(math.e**2, math.e**2)
        assert self.tech.scale_elasticity(b) == pytest.approx(0.8, rel=1e-14)

    def test_marginal_products_euler_identity(self):
        # K mp_K + L mp_L = f * local scale elasticity for a homothetic form
        b = InputBundle(2.0, 0.7)
        mp_k, mp_l = self.tech.marginal_products(b)
        f = self.tech.output(b)
        eps = self.tech.scale_elasticity(b)
        assert mp_k * b.capital + mp_l * b.labor == pytest.approx(f * eps, rel=1e-12)

    def test_derivatives_refused_beyond_monotone_region(self):
        # elasticity hits zero at log core index 6; beyond it f decreases
        far = InputBundle(math.e**7, math.e**7)
        with pytest.raises(DomainError):
            self.tech.marginal_products(far)
        # output itself is still defined there
        assert self.tech.output(far) > 0.0

    def test_zero_input_gives_zero_output(self):
        assert self.tech.output(InputBundle(0.0, 2.0)) == 0.0

    def test_rejects_positive_curvature(self):
        with pytest.raises(InvalidParameterError):
            HomotheticTranslog(inner_alpha_capital=0.5, slope=0.8, curvature=0.1)

    def test_zero_curvature_collapses_to_fixed_elasticity(self):
        flat = HomotheticTranslog(inner_alpha_capital=0.5, slope=0.8, curvature=0.0)
        assert flat.scale_elasticity(InputBundle(3.0, 0.2)) == 0.8


class TestTwoLevelCes:
    tech = TwoLevelCes(
        capital_weight=0.4,
        inner_substitution=-1.0,
        value_added_weight=0.7,
        outer_substitution=0.5,
        returns_to_scale=0.95,
        level=1.2,
    )

    def test_requires_intermediates(self):
        assert self.tech.uses_intermediates
        with pytest.raises(DomainError):
            self.tech.output(InputBundle(1.0, 1.0))

    def test_matches_nested_formula(self):
        b = InputBundle(2.0, 3.0, 1.4)
        h = (0.4 / 2.0 + 0.6 / 3.0) ** -1.0  # inner harmonic aggregate = 2.5
        expected = 1.2 * (0.7 * h**0.5 + 0.3 * 1.4**0.5) ** (0.95 / 0.5)
        assert self.tech.output(b) == pytest.approx(expected, rel=1e-14)

    def test_homogeneity_of_degree_nu(self):
        b = InputBundle(2.0, 3.0, 1.4)
        for lam in (0.5, 2.0, 10.0):
            assert self.tech.output(b.scaled(lam)) == pytest.approx(
                lam**0.95 * self.tech.output(b), rel=1e-12
            )

    def test_euler_identity_with_intermediates(self):
        b = InputBundle(2.0, 3.0, 1.4)
        mp_k, mp_l = self.tech.marginal_products(b)
        mp_m = self.tech.marginal_product_intermediates(b)
        total = mp_k * b.capital + mp_l * b.labor + mp_m * b.intermediates
        assert total == pytest.approx(0.95 * self.tech.output(b), rel=1e-12)

    def test_scale_elasticity_is_degree(self):
        assert self.tech.scale_elasticity(InputBundle(1.0, 1.0, 1.0)) == 0.95

    def test_zero_input_is_fatal_only_with_poor_substitutes(self):
        # rho1 < 0: no capital zeroes the aggregate h, but rho2 > 0 lets M still produce
        assert self.tech.output(InputBundle(0.0, 3.0, 1.4)) == pytest.approx(
            1.2 * (0.3 * 1.4**0.5) ** (0.95 / 0.5), rel=1e-14
        )
        # rho2 < 0: a zero h or a zero M zeroes output
        complements = TwoLevelCes(
            capital_weight=0.4,
            inner_substitution=-1.0,
            value_added_weight=0.7,
            outer_substitution=-0.5,
        )
        assert complements.output(InputBundle(0.0, 3.0, 1.4)) == 0.0
        assert complements.output(InputBundle(2.0, 3.0, 0.0)) == 0.0

    def test_marginal_products_need_positive_intermediates(self):
        with pytest.raises(DomainError):
            self.tech.marginal_products(InputBundle(1.0, 1.0))


class TestShiftAndTrueTfp:
    def test_with_level_returns_new_object(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        raised = tech.with_level(1.25)
        assert raised.level == 1.25 and tech.level == 1.0
        assert isinstance(raised, CobbDouglas)

    def test_hicks_shift_leaves_mrts_unchanged(self):
        b = InputBundle(2.0, 5.0)
        for tech in (
            CobbDouglas(alpha_capital=0.3, alpha_labor=0.7),
            Ces(capital_weight=0.4, substitution=-1.0),
            HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1),
        ):
            before = mrts(tech, b)
            after = mrts(tech.with_level(tech.level * 3.0), b)
            assert after == pytest.approx(before, rel=1e-14)

    def test_true_tfp_recovers_the_level(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=1.7)
        b = InputBundle(4.0, 9.0)
        assert true_tfp(tech.output(b), tech, b) == pytest.approx(1.7, rel=1e-15)

    def test_true_tfp_scales_with_observed_output(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0, level=2.0)
        b = InputBundle(2.0, 3.0)
        y = tech.output(b)
        assert true_tfp(0.5 * y, tech, b) == pytest.approx(1.0, rel=1e-14)

    def test_true_tfp_rejects_degenerate_inputs(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        with pytest.raises(InvalidParameterError):
            true_tfp(0.0, tech, InputBundle(1.0, 1.0))
        with pytest.raises(DomainError):
            true_tfp(1.0, tech, InputBundle(0.0, 1.0))

    def test_mrts_equals_marginal_product_ratio(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        b = InputBundle(2.0, 5.0)
        mp_k, mp_l = tech.marginal_products(b)
        assert mrts(tech, b) == mp_k / mp_l


FAMILIES = (
    CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=1.5),
    Ces(capital_weight=0.4, substitution=-0.7, returns_to_scale=0.9, level=2.0),
    HomotheticTranslog(inner_alpha_capital=0.3, slope=1.05, curvature=-0.02),
    TwoLevelCes(
        capital_weight=0.4,
        inner_substitution=-0.5,
        value_added_weight=0.6,
        outer_substitution=0.3,
        returns_to_scale=0.95,
    ),
)


class TestWithLevel:
    """with_level checks only the new level and must equal a full dataclasses.replace."""

    @pytest.mark.parametrize("tech", FAMILIES, ids=lambda t: t.family)
    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_equals_replace(self, tech, level):
        twin = tech.with_level(level)
        expected = dataclasses.replace(tech, level=level)
        assert twin == expected and hash(twin) == hash(expected)
        assert type(twin) is type(tech) and twin is not tech

    @pytest.mark.parametrize("tech", FAMILIES, ids=lambda t: t.family)
    @pytest.mark.parametrize("level", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_what_replace_rejects(self, tech, level):
        with pytest.raises(InvalidParameterError) as replaced:
            dataclasses.replace(tech, level=level)
        with pytest.raises(InvalidParameterError) as leveled:
            tech.with_level(level)
        assert str(leveled.value) == str(replaced.value)


# each family built from the numeric strings, bools and ints its validators accept
LOOSE_PARAMETERS = (
    (CobbDouglas, dict(alpha_capital="0.3", alpha_labor=True, level=2, alpha_intermediates="0.2")),
    (Ces, dict(capital_weight="0.4", substitution="-0.5", returns_to_scale=1, level="2")),
    (HomotheticTranslog, dict(inner_alpha_capital="0.3", slope=1, curvature="-0.02", level=True)),
    (
        TwoLevelCes,
        dict(
            capital_weight="0.4",
            inner_substitution="-0.5",
            value_added_weight="0.6",
            outer_substitution="0.3",
            returns_to_scale=1,
            level="1.5",
        ),
    ),
)
LOOSE_IDS = [cls.family for cls, _ in LOOSE_PARAMETERS]

# the first bad field, in each family's check order, names the error
FIRST_BAD_FIELD = [
    (
        CobbDouglas,
        dict(alpha_capital="-1", alpha_labor=math.nan),
        "alpha_capital must be strictly positive, got -1.0",
    ),
    (CobbDouglas, dict(alpha_capital=1, alpha_labor="nan"), "alpha_labor must be finite, got nan"),
    (
        CobbDouglas,
        dict(alpha_capital=1, alpha_labor=1, level=0, alpha_intermediates=-1),
        "level must be strictly positive, got 0.0",
    ),
    (Ces, dict(capital_weight="1", substitution=2), "capital_weight must lie in (0, 1), got 1.0"),
    (
        Ces,
        dict(capital_weight=0.5, substitution=False),
        "substitution must lie in (-inf, 1) and differ from 0, got 0.0",
    ),
    (
        Ces,
        dict(capital_weight=0.5, substitution=0.5, returns_to_scale="inf"),
        "returns_to_scale must be finite, got inf",
    ),
    (
        HomotheticTranslog,
        dict(inner_alpha_capital=0.3, slope="0", curvature=1),
        "slope must be strictly positive, got 0.0",
    ),
    (
        HomotheticTranslog,
        dict(inner_alpha_capital=0.3, slope=1, curvature="0.1"),
        "curvature must be <= 0 (scale elasticity nonincreasing in scale), got 0.1",
    ),
    (
        TwoLevelCes,
        dict(capital_weight=0.4, inner_substitution=1, value_added_weight=2, outer_substitution=0),
        "value_added_weight must lie in (0, 1), got 2.0",
    ),
    (
        TwoLevelCes,
        dict(
            capital_weight=0.4,
            inner_substitution="0.5",
            value_added_weight=0.5,
            outer_substitution=True,
        ),
        "outer_substitution must lie in (-inf, 1) and differ from 0, got 1.0",
    ),
]


class TestFamiliesStoreValidatedFloats:
    """A family keeps the float its validator returns, as InputBundle and FactorPrices do."""

    @pytest.mark.parametrize("cls, params", LOOSE_PARAMETERS, ids=LOOSE_IDS)
    def test_fields_hold_plain_floats(self, cls, params):
        tech = cls(**params)
        exact = cls(**{name: float(value) for name, value in params.items()})
        for name, value in params.items():
            stored = getattr(tech, name)
            assert type(stored) is float and stored == float(value), name
        assert tech == exact and hash(tech) == hash(exact) and repr(tech) == repr(exact)

    @pytest.mark.parametrize("cls, params", LOOSE_PARAMETERS, ids=LOOSE_IDS)
    def test_output_and_marginal_products_work(self, cls, params):
        tech = cls(**params)
        exact = cls(**{name: float(value) for name, value in params.items()})
        bundle = InputBundle(2.0, 3.0, 1.5)
        assert tech.output(bundle) == exact.output(bundle)
        assert tech.marginal_products(bundle) == exact.marginal_products(bundle)
        assert tech.scale_elasticity(bundle) == exact.scale_elasticity(bundle)

    @pytest.mark.parametrize("cls, params, message", FIRST_BAD_FIELD)
    def test_the_first_bad_field_names_the_error(self, cls, params, message):
        with pytest.raises(InvalidParameterError) as error:
            cls(**params)
        assert str(error.value) == message


# A 50-digit decimal reference for the CES gradient, derived in share form:
# df/da = nu * f * (weight * a^rho / S) / a with S the inner sum, so it shares no
# expression with the float code beyond the inner sum. Near-Cobb-Douglas rho is
# left out: there S^(nu/rho) needs its own treatment.
ORACLE = decimal.Context(prec=50)
SUBSTITUTION = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 1.0, exclude_max=True))
QUANTITY = st.floats(-3.0, 3.0).map(math.exp)
WEIGHT = st.floats(0.05, 0.95)
DEGREE = st.floats(0.5, 1.5)
LEVEL = st.floats(0.5, 2.0)
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def ces_shares(weight, a, b, rho):
    """The inner sum S = weight*a^rho + (1-weight)*b^rho and each term's share of it."""
    w, a, b, rho = map(decimal.Decimal, (weight, a, b, rho))  # exact: a float is a decimal
    terms = (w * a**rho, (1 - w) * b**rho)
    total = terms[0] + terms[1]
    return total, terms[0] / total, terms[1] / total


def assert_matches_oracle(value, reference):
    assert abs(decimal.Decimal(value) - reference) <= reference * decimal.Decimal("1e-12")


class TestCesGradientOracle:
    @ORACLE_SETTINGS
    @given(w=WEIGHT, rho=SUBSTITUTION, nu=DEGREE, level=LEVEL, k=QUANTITY, l=QUANTITY)
    def test_ces(self, w, rho, nu, level, k, l):
        tech = Ces(capital_weight=w, substitution=rho, returns_to_scale=nu, level=level)
        with decimal.localcontext(ORACLE):
            total, share_k, share_l = ces_shares(w, k, l, rho)
            f = decimal.Decimal(level) * total ** (decimal.Decimal(nu) / decimal.Decimal(rho))
            scale = decimal.Decimal(nu) * f
            expected = (scale * share_k / decimal.Decimal(k), scale * share_l / decimal.Decimal(l))
            for value, reference in zip(tech.marginal_products(InputBundle(k, l)), expected):
                assert_matches_oracle(value, reference)

    @ORACLE_SETTINGS
    @given(
        w1=WEIGHT, rho1=SUBSTITUTION, w2=WEIGHT, rho2=SUBSTITUTION, nu=DEGREE, level=LEVEL,
        k=QUANTITY, l=QUANTITY, m=QUANTITY,
    )
    def test_two_level_ces(self, w1, rho1, w2, rho2, nu, level, k, l, m):
        tech = TwoLevelCes(w1, rho1, w2, rho2, returns_to_scale=nu, level=level)
        b = InputBundle(k, l, m)
        with decimal.localcontext(ORACLE):
            inner, share_k, share_l = ces_shares(w1, k, l, rho1)
            h = inner ** (1 / decimal.Decimal(rho1))
            outer, share_h, share_m = ces_shares(w2, h, m, rho2)
            f = decimal.Decimal(level) * outer ** (decimal.Decimal(nu) / decimal.Decimal(rho2))
            scale = decimal.Decimal(nu) * f
            expected = (
                scale * share_h * share_k / decimal.Decimal(k),
                scale * share_h * share_l / decimal.Decimal(l),
                scale * share_m / decimal.Decimal(m),
            )
            mp_k, mp_l = tech.marginal_products(b)
            actual = (mp_k, mp_l, tech.marginal_product_intermediates(b))
            for value, reference in zip(actual, expected):
                assert_matches_oracle(value, reference)

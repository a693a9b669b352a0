import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubtfp.efficiency import (
    allocative_gap,
    apply_technical_progress,
    find_mpss,
    min_cost_bundle,
)
from pubtfp.errors import DomainError, NoConvergenceError, NoInteriorMpssError
from pubtfp.technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    TwoLevelCes,
    evaluate,
    mrts,
)

UNIT_PRICES = FactorPrices(1.0, 1.0)
UNIT_BUNDLE = InputBundle(1.0, 1.0)

# Parameter draws for the closed-form property tests. With 1 - rho >= 0.2
# and prices within a factor of 100 of each other, the cost-minimizing
# |ln(K/L)| stays below 38, inside the solver's representable bracket.
weights = st.floats(0.05, 0.95)
factor_prices = st.builds(FactorPrices, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
ces_technologies = st.builds(
    Ces,
    capital_weight=weights,
    substitution=st.one_of(st.floats(-5.0, -0.05), st.floats(0.05, 0.8)),
    returns_to_scale=st.floats(0.5, 1.5),
    level=st.floats(0.5, 3.0),
)
curved_translogs = st.builds(
    HomotheticTranslog,
    inner_alpha_capital=weights,
    slope=st.floats(0.3, 3.0),
    curvature=st.floats(-0.5, -0.1),
    level=st.floats(0.5, 3.0),
)


class TestCobbDouglasMinCost:
    def test_unit_price_instance(self):
        # closed form: K = 0.3^0.3 0.7^-0.3 ... cost = (0.3^0.3 * 0.7^0.7)^-1
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        result = min_cost_bundle(tech, UNIT_PRICES, 1.0)
        assert result.cost == pytest.approx(1.8420227750373133, rel=1e-12)
        assert result.bundle.capital == pytest.approx(0.5526068325111939, rel=1e-12)
        assert result.bundle.labor == pytest.approx(1.2894159425261191, rel=1e-12)
        assert result.target_output == 1.0

    def test_expensive_capital_instance(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        result = min_cost_bundle(tech, FactorPrices(2.0, 1.0), 1.0)
        assert result.cost == pytest.approx(2.267796048741288, rel=1e-12)
        assert result.bundle.capital == pytest.approx(0.3401694073111932, rel=1e-12)
        assert result.bundle.labor == pytest.approx(1.5874572341189015, rel=1e-12)

    def test_optimum_is_on_the_isoquant_with_mrts_at_price_ratio(self):
        tech = CobbDouglas(alpha_capital=0.4, alpha_labor=0.8, level=1.5)
        prices = FactorPrices(1.7, 0.6)
        result = min_cost_bundle(tech, prices, 3.0)
        assert evaluate(tech, result.bundle) == pytest.approx(3.0, rel=1e-12)
        assert mrts(tech, result.bundle) == pytest.approx(1.7 / 0.6, rel=1e-12)

    def test_cost_scales_linearly_under_constant_returns(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        one = min_cost_bundle(tech, UNIT_PRICES, 1.0)
        two = min_cost_bundle(tech, UNIT_PRICES, 2.0)
        assert two.cost == pytest.approx(2.0 * one.cost, rel=1e-12)

    def test_gross_output_three_input_instance(self):
        tech = CobbDouglas(
            alpha_capital=0.3, alpha_labor=0.4, level=2.0, alpha_intermediates=0.3
        )
        prices = FactorPrices(1.0, 1.0, intermediates_price=1.0)
        result = min_cost_bundle(tech, prices, 2.0)
        assert result.cost == pytest.approx(2.9710040966100055, rel=1e-12)
        assert result.bundle.capital == pytest.approx(0.8913012289830017, rel=1e-12)
        assert result.bundle.labor == pytest.approx(1.1884016386440022, rel=1e-12)
        assert result.bundle.intermediates == pytest.approx(0.8913012289830017, rel=1e-12)
        assert evaluate(tech, result.bundle) == pytest.approx(2.0, rel=1e-12)

    def test_gross_output_requires_an_intermediates_price(self):
        tech = CobbDouglas(
            alpha_capital=0.3, alpha_labor=0.4, alpha_intermediates=0.3
        )
        with pytest.raises(DomainError):
            min_cost_bundle(tech, UNIT_PRICES, 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_targets(self, target):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        with pytest.raises(DomainError):
            min_cost_bundle(tech, UNIT_PRICES, target)


class TestCesMinCost:
    def test_matches_the_ces_cost_function(self):
        # independent oracle: C = y^(1/nu) (d^s r^(1-s) + (1-d)^s w^(1-s))^(1/(1-s))
        # with s = 1/(1-rho); for d=0.4, rho=-1, nu=1, r=2, w=1, y=3 this is
        # 8.356921938165307 and the optimal K/L is (dw/((1-d)r))^s = 3^-0.5
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        result = min_cost_bundle(tech, FactorPrices(2.0, 1.0), 3.0)
        assert result.cost == pytest.approx(8.356921938165307, rel=1e-9)
        ratio = result.bundle.capital / result.bundle.labor
        assert ratio == pytest.approx(0.5773502691896258, rel=1e-9)
        assert evaluate(tech, result.bundle) == pytest.approx(3.0, rel=1e-9)

    def test_decreasing_returns_instance(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0, returns_to_scale=0.8)
        result = min_cost_bundle(tech, FactorPrices(2.0, 1.0), 3.0)
        assert result.cost == pytest.approx(10.998327791091937, rel=1e-9)

    def test_first_order_condition_holds_at_the_optimum(self):
        tech = Ces(capital_weight=0.3, substitution=0.4, level=1.3)
        prices = FactorPrices(0.8, 1.9)
        result = min_cost_bundle(tech, prices, 2.5)
        assert mrts(tech, result.bundle) == pytest.approx(0.8 / 1.9, rel=1e-9)

    def test_extreme_price_ratio_fails_loudly(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        with pytest.raises(NoConvergenceError):
            min_cost_bundle(tech, FactorPrices(1e40, 1e-5), 1.0)

    # with d = 1/2 and rho = -1 the optimal ln(K/L) is -ln(r/w)/2, so these
    # price ratios put it 0.05 inside and 0.05 outside the |ln(K/L)| <= 40 bracket
    @pytest.mark.parametrize("log_price_ratio", [79.9, -79.9])
    def test_ratio_just_inside_the_bracket_solves(self, log_price_ratio):
        tech = Ces(capital_weight=0.5, substitution=-1.0)
        result = min_cost_bundle(tech, FactorPrices(math.exp(log_price_ratio), 1.0), 1.0)
        log_ratio = math.log(result.bundle.capital / result.bundle.labor)
        assert log_ratio == pytest.approx(-log_price_ratio / 2.0, rel=1e-12)
        assert evaluate(tech, result.bundle) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("log_price_ratio", [80.1, -80.1])
    def test_ratio_just_outside_the_bracket_fails_loudly(self, log_price_ratio):
        tech = Ces(capital_weight=0.5, substitution=-1.0)
        with pytest.raises(NoConvergenceError, match="outside the bracketed range"):
            min_cost_bundle(tech, FactorPrices(math.exp(log_price_ratio), 1.0), 1.0)


class TestTranslogMinCost:
    tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1)

    def test_reaches_the_isoquant(self):
        result = min_cost_bundle(self.tech, FactorPrices(1.0, 2.0), 1.5)
        assert evaluate(self.tech, result.bundle) == pytest.approx(1.5, rel=1e-9)
        assert mrts(self.tech, result.bundle) == pytest.approx(0.5, rel=1e-9)

    def test_unattainable_target_names_the_frontier_maximum(self):
        # output along any ray tops out at exp(-b^2/(4c)) = e^3.6
        ceiling = math.exp(3.6)
        with pytest.raises(DomainError, match="frontier maximum"):
            min_cost_bundle(self.tech, UNIT_PRICES, ceiling * 1.01)
        result = min_cost_bundle(self.tech, UNIT_PRICES, ceiling * 0.99)
        assert evaluate(self.tech, result.bundle) == pytest.approx(
            ceiling * 0.99, rel=1e-9
        )

    def test_flat_translog_reaches_the_isoquant_exactly(self):
        # curvature 0: the isoquant's log core index is ln(target)/slope, no quadratic root
        flat = HomotheticTranslog(inner_alpha_capital=0.3, slope=1.1, curvature=0.0)
        target = evaluate(flat, InputBundle(3.0, 1.0))
        result = min_cost_bundle(flat, FactorPrices(1.0, 2.0), target)
        assert evaluate(flat, result.bundle) == target
        assert mrts(flat, result.bundle) == pytest.approx(0.5, rel=1e-15)

    def test_unsupported_family_is_refused(self):
        nested = TwoLevelCes(
            capital_weight=0.4,
            inner_substitution=-1.0,
            value_added_weight=0.7,
            outer_substitution=0.5,
        )
        with pytest.raises(DomainError):
            min_cost_bundle(nested, UNIT_PRICES, 1.0)


class TestClosedFormProperties:
    @settings(max_examples=300, deadline=None)
    @given(tech=ces_technologies, prices=factor_prices, target=st.floats(0.1, 10.0))
    def test_ces_optimum_is_on_the_isoquant_with_mrts_at_price_ratio(self, tech, prices, target):
        result = min_cost_bundle(tech, prices, target)
        assert evaluate(tech, result.bundle) == pytest.approx(target, rel=1e-12)
        ratio = prices.capital_price / prices.wage
        assert mrts(tech, result.bundle) == pytest.approx(ratio, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(tech=curved_translogs, prices=factor_prices, share=st.floats(-2.0, 0.99))
    def test_translog_optimum_is_on_the_isoquant_with_mrts_at_price_ratio(
        self, tech, prices, share
    ):
        # log targets up to 99% of the frontier maximum -slope^2/(4 curvature)
        target = tech.level * math.exp(-share * tech.slope**2 / (4.0 * tech.curvature))
        result = min_cost_bundle(tech, prices, target)
        assert evaluate(tech, result.bundle) == pytest.approx(target, rel=1e-12)
        ratio = prices.capital_price / prices.wage
        assert mrts(tech, result.bundle) == pytest.approx(ratio, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        tech=curved_translogs,
        capital=st.floats(0.1, 10.0),
        labor=st.floats(0.1, 10.0),
    )
    def test_translog_mpss_has_unit_scale_elasticity(self, tech, capital, labor):
        result = find_mpss(tech, InputBundle(capital, labor))
        assert result.scale_elasticity == pytest.approx(1.0, rel=0.0, abs=1e-12)


class TestAllocativeGap:
    def test_symmetric_technology_with_lopsided_bundle(self):
        tech = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5)
        assert allocative_gap(tech, UNIT_PRICES, InputBundle(4.0, 1.0)) == 0.8

    def test_expensive_capital_instance(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        gap = allocative_gap(tech, FactorPrices(2.0, 1.0), InputBundle(1.0, 1.0))
        assert gap == pytest.approx(0.755932016247096, rel=1e-12)

    def test_optimal_bundle_scores_exactly_one(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
        best = min_cost_bundle(tech, UNIT_PRICES, 1.0).bundle
        assert allocative_gap(tech, UNIT_PRICES, best) == 1.0

    def test_never_exceeds_one(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        for k in (0.2, 0.5, 1.0, 2.0, 7.0):
            gap = allocative_gap(tech, FactorPrices(2.0, 1.0), InputBundle(k, 1.0))
            assert 0.0 < gap <= 1.0

    def test_requires_value_added_technology_and_interior_bundle(self):
        nested = TwoLevelCes(
            capital_weight=0.4,
            inner_substitution=-1.0,
            value_added_weight=0.7,
            outer_substitution=0.5,
        )
        with pytest.raises(DomainError):
            allocative_gap(nested, UNIT_PRICES, InputBundle(1.0, 1.0, 1.0))
        tech = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5)
        with pytest.raises(DomainError):
            allocative_gap(tech, UNIT_PRICES, InputBundle(0.0, 1.0))


class TestFindMpss:
    tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1)

    def test_scales_up_to_the_peak_from_below(self):
        # ray average product peaks where the log core index hits
        # (1 - slope)/(2 curvature) = 1, so from K = L = 1 the factor is e
        result = find_mpss(self.tech, InputBundle(1.0, 1.0))
        assert result.scale_factor == pytest.approx(math.e, rel=1e-12)
        assert result.scale_elasticity == pytest.approx(1.0, rel=1e-12)
        assert result.output == pytest.approx(math.exp(1.1), rel=1e-12)
        assert result.ray_average_product == pytest.approx(math.exp(0.1), rel=1e-12)

    def test_scales_down_to_the_peak_from_above(self):
        start = InputBundle(math.e**2, math.e**2)
        result = find_mpss(self.tech, start)
        assert result.scale_factor == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert result.bundle_at_mpss.capital == pytest.approx(math.e, rel=1e-12)

    def test_peak_beats_nearby_scales(self):
        result = find_mpss(self.tech, InputBundle(2.0, 0.5))
        base = InputBundle(2.0, 0.5)
        for factor in (0.9, 0.999, 1.001, 1.1):
            s = result.scale_factor * factor
            rap = evaluate(self.tech, base.scaled(s)) / s
            assert rap <= result.ray_average_product * (1.0 + 1e-12)

    def test_constant_elasticity_families_have_no_interior_peak(self):
        with pytest.raises(NoInteriorMpssError):
            find_mpss(CobbDouglas(alpha_capital=0.3, alpha_labor=0.7), InputBundle(1.0, 1.0))
        with pytest.raises(NoInteriorMpssError):
            find_mpss(
                Ces(capital_weight=0.4, substitution=-1.0, returns_to_scale=0.9),
                InputBundle(1.0, 1.0),
            )
        flat = HomotheticTranslog(inner_alpha_capital=0.5, slope=0.8, curvature=0.0)
        with pytest.raises(NoInteriorMpssError):
            find_mpss(flat, InputBundle(1.0, 1.0))

    def test_requires_interior_ray_bundle(self):
        with pytest.raises(DomainError):
            find_mpss(self.tech, InputBundle(0.0, 1.0))

    def test_missing_optimum_is_worded_by_the_constant_elasticity(self):
        with pytest.raises(NoInteriorMpssError) as info:
            find_mpss(Ces(capital_weight=0.4, substitution=-1.0, returns_to_scale=0.9), UNIT_BUNDLE)
        assert str(info.value) == (
            "no interior most-productive scale: scale elasticity is 0.9 all along this ray"
        )

    def test_optimum_far_beyond_e_to_the_20_is_found(self):
        # x* = (1 - 1.2)/(2 * -0.004) = 25: the elasticity is 1.36 at e^-20 and 1.04 at e^20
        tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.004)
        result = find_mpss(tech, UNIT_BUNDLE)
        assert math.log(result.scale_factor) == pytest.approx(25.0, rel=1e-12)
        assert result.scale_elasticity == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "tech, bundle, log_scale",
        [
            (HomotheticTranslog(0.5, 1.2, -0.0001), UNIT_BUNDLE, 999.9999999999998),
            (HomotheticTranslog(0.5, 1.2, -0.00015), UNIT_BUNDLE, 666.6666666666666),
            (HomotheticTranslog(0.5, 0.4, -0.005), InputBundle(1e300, 1e300), -750.7755278982137),
            (HomotheticTranslog(0.5, 1.2, -0.004), InputBundle(1e300, 1e-300), 24.999999999999993),
            (HomotheticTranslog(0.5, 0.4, -0.01), InputBundle(1e-300, 1e300), -30.0),
            (HomotheticTranslog(0.5, 1.2, -0.1, level=1e-310), UNIT_BUNDLE, 0.9999999999999998),
        ],
        ids=[
            "scale-overflows", "output-overflows", "scale-underflows", "capital-overflows",
            "capital-subnormal", "output-subnormal",
        ],
    )
    def test_optimum_outside_the_normal_floats_is_an_input_error(self, tech, bundle, log_scale):
        with pytest.raises(DomainError) as info:
            find_mpss(tech, bundle)
        assert str(info.value) == (
            f"most productive scale size is out of float range: ln scale {log_scale!r}"
        )


class TestApplyTechnicalProgress:
    def test_multiplies_accumulated_levels(self):
        tech = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7, level=2.0)
        better = apply_technical_progress(tech, TechnologyShift(1.25))
        assert better.level == 2.5
        assert tech.level == 2.0

    def test_leaves_substitution_untouched(self):
        tech = Ces(capital_weight=0.4, substitution=-1.0)
        better = apply_technical_progress(tech, TechnologyShift(3.0))
        b = InputBundle(2.0, 3.0)
        assert mrts(better, b) == pytest.approx(mrts(tech, b), rel=1e-14)
        assert evaluate(better, b) == pytest.approx(3.0 * evaluate(tech, b), rel=1e-14)

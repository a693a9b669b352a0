import math

import pytest

import pubtfp.efficiency
import pubtfp.paradoxes
from pubtfp.errors import (
    AlreadyEfficientError,
    DomainError,
    InvalidParameterError,
    MarkupNotReducedError,
    NoConvergenceError,
    NoInteriorMpssError,
    PricesNotDominatedError,
    ScenarioError,
)
from pubtfp.measurement import COST_BASED_VA, DISTORTED_REVENUE, PricedOutput, PricingScheme
from pubtfp.paradoxes import (
    PARADOX_IDS,
    WELFARE_IMPROVED,
    WELFARE_UNCHANGED,
    FailedScenario,
    Scenario,
    run_all,
    run_paradox_1,
    run_paradox_2,
    run_paradox_3,
    run_paradox_4,
    run_paradox_5,
    run_scenario,
)
from pubtfp.technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    TwoLevelCes,
)

UNIT_PRICES = FactorPrices(1.0, 1.0)
UNIT_BUNDLE = InputBundle(1.0, 1.0)
CD37 = CobbDouglas(alpha_capital=0.3, alpha_labor=0.7)
TRANSLOG = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1)
SCHEME = PricingScheme((PricedOutput(1.0, 0.2, 3.0), PricedOutput(2.0, 0.1, 4.0)))
GROSS_CD = CobbDouglas(
    alpha_capital=0.3, alpha_labor=0.4, level=2.0, alpha_intermediates=0.3
)
GROSS_BUNDLE = InputBundle(1.0, 1.0, 1.0)


class TestTechnicalProgressParadox:
    def test_canonical_quarter_improvement(self):
        report = run_paradox_1(CD37, UNIT_BUNDLE, UNIT_PRICES, TechnologyShift(1.25))
        assert report.paradox_id == 1
        assert report.convention == COST_BASED_VA
        assert report.measured_before == 2.0
        assert report.measured_after == pytest.approx(1.6, rel=1e-12)
        assert report.true_tfp_before == pytest.approx(1.0, rel=1e-12)
        assert report.true_tfp_after == pytest.approx(1.25, rel=1e-12)
        assert report.welfare_direction == WELFARE_IMPROVED
        assert report.paradox_confirmed
        assert report.details["shift_factor"] == 1.25
        assert report.after.technology.level == 1.25
        assert report.before.technology.level == 1.0

    def test_measured_falls_by_exactly_the_shift_factor(self):
        for factor in (1.0 + 1e-9, 1.5, 2.0, 10.0):
            report = run_paradox_1(CD37, InputBundle(2.0, 3.0), FactorPrices(1.1, 0.4), TechnologyShift(factor))
            assert report.measured_after / report.measured_before == pytest.approx(
                1.0 / factor, rel=1e-12
            )
            assert report.paradox_confirmed

    def test_spending_is_held_fixed(self):
        report = run_paradox_1(CD37, UNIT_BUNDLE, UNIT_PRICES, TechnologyShift(2.0))
        assert report.before.bundle == report.after.bundle
        assert report.before.prices == report.after.prices


    # a frontier out of float range fails as the measurement's denominator,
    # before the shift (level 1e300 at core 1e10) or only after it (core 1e7)
    @pytest.mark.parametrize(
        "bundle, text",
        [
            (InputBundle(1e10, 1e10), "denominator must be strictly positive, got inf"),
            (InputBundle(1e7, 1e7), "denominator must be strictly positive, got inf"),
            (InputBundle(0.0, 1.0), "denominator must be strictly positive, got 0.0"),
        ],
        ids=["overflow-before", "overflow-after-the-shift", "zero-output"],
    )
    def test_frontier_out_of_range_is_an_invalid_denominator(self, bundle, text):
        tech = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5, level=1e300)
        with pytest.raises(InvalidParameterError) as info:
            run_paradox_1(tech, bundle, UNIT_PRICES, TechnologyShift(100.0))
        assert type(info.value) is InvalidParameterError
        assert str(info.value) == text


class TestAllocativeParadox:
    symmetric = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5)

    def test_canonical_lopsided_bundle(self):
        report = run_paradox_2(self.symmetric, UNIT_PRICES, InputBundle(4.0, 1.0))
        assert report.paradox_id == 2
        assert report.measured_before == pytest.approx(2.5, rel=1e-12)
        assert report.measured_after == pytest.approx(2.0, rel=1e-8)
        assert report.details["allocative_gap"] == pytest.approx(0.8, rel=1e-12)
        assert report.details["cost_before"] == pytest.approx(5.0, rel=1e-12)
        assert report.details["cost_after"] == pytest.approx(4.0, rel=1e-8)
        assert report.welfare_direction == WELFARE_IMPROVED
        assert report.paradox_confirmed

    def test_flat_translog_is_confirmed(self):
        flat = HomotheticTranslog(inner_alpha_capital=0.3, slope=1.1, curvature=0.0)
        report = run_paradox_2(flat, FactorPrices(1.0, 2.0), InputBundle(3.0, 1.0))
        assert report.paradox_confirmed
        assert report.details["allocative_gap"] == pytest.approx(0.8321131104120489, rel=1e-12)

    def test_measured_ratio_equals_the_allocative_gap(self):
        report = run_paradox_2(CD37, FactorPrices(2.0, 1.0), UNIT_BUNDLE)
        ratio = report.measured_after / report.measured_before
        assert ratio == pytest.approx(report.details["allocative_gap"], rel=1e-8)
        assert ratio == pytest.approx(0.755932016247096, rel=1e-8)

    def test_output_stays_on_the_isoquant(self):
        report = run_paradox_2(self.symmetric, UNIT_PRICES, InputBundle(4.0, 1.0))
        before_out = self.symmetric.output(report.before.bundle)
        after_out = self.symmetric.output(report.after.bundle)
        assert after_out == pytest.approx(before_out, rel=1e-8)
        assert report.true_tfp_after == pytest.approx(report.true_tfp_before, rel=1e-8)

    def test_already_efficient_bundle_is_refused(self):
        with pytest.raises(AlreadyEfficientError):
            run_paradox_2(self.symmetric, UNIT_PRICES, InputBundle(2.0, 2.0))

    def test_both_guards_are_fixed_at_one_in_a_billion(self):
        assert pubtfp.paradoxes._ALREADY_EFFICIENT == 1e-9
        assert pubtfp.paradoxes._IDENTITY_REL_TOL == 1e-9

    # at unit prices the symmetric Cobb-Douglas gap at (3, 3 - d) is
    # 2 sqrt(3 (3 - d)) / (6 - d), about 1 - d**2 / 72: it crosses the
    # guard's 1 - 1e-9 near d = 2.68e-4
    @pytest.mark.parametrize(
        "shortfall", [1e-6, 1e-5, 1e-4, 2e-4, 2.5e-4, 2.8e-4, 3e-4, 1e-3, 1e-1]
    )
    def test_efficiency_guard_refuses_exactly_the_gaps_within_it(self, shortfall):
        bundle = InputBundle(3.0, 3.0 - shortfall)
        gap = 2.0 * math.sqrt(bundle.capital * bundle.labor) / (bundle.capital + bundle.labor)
        if 1.0 - gap <= 1e-9:
            with pytest.raises(AlreadyEfficientError):
                run_paradox_2(self.symmetric, UNIT_PRICES, bundle)
        else:
            report = run_paradox_2(self.symmetric, UNIT_PRICES, bundle)
            assert report.details["allocative_gap"] == pytest.approx(gap, rel=1e-12)
            assert report.paradox_confirmed

    # each failure path in the order the runner checks it: the gap's domain
    # (value-added technology first, then positive inputs), the solver's target
    # and bracket checks, the efficiency guard, the isoquant check
    @pytest.mark.parametrize(
        "tech, prices, bundle, error, text",
        [
            pytest.param(
                GROSS_CD, FactorPrices(1.0, 1.0, 1.0), InputBundle(0.0, 1.0, 1.0),
                DomainError, "allocative gap is defined for value-added technologies only",
                id="intermediates",
            ),
            pytest.param(
                CD37, UNIT_PRICES, InputBundle(0.0, 1.0),
                DomainError, "allocative gap requires strictly positive capital and labor",
                id="zero-capital",
            ),
            pytest.param(
                CobbDouglas(alpha_capital=2.0, alpha_labor=2.0), UNIT_PRICES,
                InputBundle(1e-200, 1e-200),
                DomainError, "target output must be strictly positive, got 0.0",
                id="output-underflow",
            ),
            pytest.param(
                HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-1.0),
                UNIT_PRICES, InputBundle(1e-30, 1e-30),
                DomainError, "target output must be strictly positive, got 0.0",
                id="translog-output-underflow",
            ),
            pytest.param(
                Ces(capital_weight=0.4, substitution=-1.0), FactorPrices(1e40, 1e-5),
                UNIT_BUNDLE,
                NoConvergenceError,
                "factor price ratio lies outside the bracketed range of capital-labor ratios",
                id="outside-bracket",
            ),
            pytest.param(
                symmetric, UNIT_PRICES, InputBundle(3.0, 2.9999),
                AlreadyEfficientError,
                "bundle is already cost-minimizing at these prices "
                "(allocative gap 0.9999999998611062)",
                id="already-efficient",
            ),
            pytest.param(
                # a CES this close to Cobb-Douglas loses the isoquant to rounding
                Ces(capital_weight=0.3, substitution=1e-10), FactorPrices(1.0, 2.0),
                InputBundle(5.0, 0.5),
                NoConvergenceError,
                "cost minimizer left the isoquant: "
                "output 0.9976313732532592 for target 0.9976302656605534",
                id="tight-identity-check",
            ),
            pytest.param(
                # every guard passes; the factor bill over a tiny frontier overflows
                CobbDouglas(alpha_capital=0.5, alpha_labor=0.5, level=1e-300),
                FactorPrices(1e300, 1.0), InputBundle(4.0, 1.0),
                InvalidParameterError, "value must be strictly positive, got inf",
                id="measured-tfp-overflow",
            ),
        ],
    )
    def test_error_type_and_text(self, tech, prices, bundle, error, text):
        with pytest.raises(error) as info:
            run_paradox_2(tech, prices, bundle)
        assert type(info.value) is error
        assert str(info.value) == text


class TestSolverCalls:
    """Paradox 2 solves its cost minimization once; no other paradox solves one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = pubtfp.efficiency.min_cost_bundle

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pubtfp.paradoxes, "min_cost_bundle", counting)
        monkeypatch.setattr(pubtfp.efficiency, "min_cost_bundle", counting)
        return calls

    @pytest.mark.parametrize(
        "tech",
        [CD37, Ces(capital_weight=0.4, substitution=-0.5), TRANSLOG],
        ids=["cobb-douglas", "ces", "translog"],
    )
    def test_paradox_2_solves_once(self, calls, tech):
        report = run_paradox_2(tech, FactorPrices(2.0, 1.0), InputBundle(4.0, 1.0))
        assert report.paradox_confirmed
        assert len(calls) == 1

    def test_other_paradoxes_never_solve(self, calls):
        run_paradox_1(CD37, UNIT_BUNDLE, UNIT_PRICES, TechnologyShift(1.25))
        run_paradox_3(TRANSLOG, UNIT_PRICES, UNIT_BUNDLE)
        run_paradox_4(CD37, UNIT_BUNDLE, UNIT_PRICES, FactorPrices(0.8, 0.9))
        run_paradox_5(SCHEME, SCHEME.with_markups([0.1, 0.05]), GROSS_CD, GROSS_BUNDLE)
        assert calls == []


FAMILIES = [
    pytest.param(CD37, UNIT_BUNDLE, id="cobb-douglas"),
    pytest.param(Ces(capital_weight=0.4, substitution=-0.5), UNIT_BUNDLE, id="ces"),
    pytest.param(TRANSLOG, UNIT_BUNDLE, id="translog"),
    pytest.param(TwoLevelCes(0.4, -1.0, 0.7, 0.5), GROSS_BUNDLE, id="two-level-ces"),
]


class TestFrontierEvaluations:
    """Each run evaluates the level-free frontier core(x) once per bundle it measures.

    Measured TFP divides by level * core(x) and true TFP is that output over
    core(x), so one evaluation serves both; only the solvers add their own.
    """

    @pytest.fixture
    def cores(self, monkeypatch):
        bundles = []
        for family in (CobbDouglas, Ces, HomotheticTranslog, TwoLevelCes):

            def counting(tech, bundle, original=family.core_output):
                bundles.append(bundle)
                return original(tech, bundle)

            monkeypatch.setattr(family, "core_output", counting)
        return bundles

    @pytest.mark.parametrize("tech, bundle", FAMILIES)
    def test_paradox_1_shares_one_core_across_the_shift(self, cores, tech, bundle):
        run_paradox_1(tech, bundle, UNIT_PRICES, TechnologyShift(1.25))
        assert cores == [bundle]

    # CES cost minimization also evaluates the frontier on its ray direction
    @pytest.mark.parametrize(
        "tech, count",
        [(CD37, 2), (Ces(capital_weight=0.4, substitution=-0.5), 3), (TRANSLOG, 2)],
        ids=["cobb-douglas", "ces", "translog"],
    )
    def test_paradox_2_evaluates_each_bundle_once(self, cores, tech, count):
        report = run_paradox_2(tech, FactorPrices(2.0, 1.0), InputBundle(4.0, 1.0))
        assert len(cores) == count
        assert cores[0] == report.before.bundle and cores[-1] == report.after.bundle

    def test_paradox_3_evaluates_the_bundle_the_scale_search_and_the_move(self, cores):
        report = run_paradox_3(TRANSLOG, UNIT_PRICES, UNIT_BUNDLE)
        moved = report.after.bundle
        assert cores == [moved, UNIT_BUNDLE, moved]

    def test_paradox_3_fixed_point_evaluates_the_bundle_once(self, cores):
        # sweep-297-00124: the move's gain is within 64 ulps
        tech = HomotheticTranslog(0.6381, 1.1025, -0.1133, 1.2444)
        bundle = InputBundle(1.4876, 1.7326)
        report = run_paradox_3(tech, FactorPrices(1.5502, 1.3202), bundle)
        assert report.details == {"mpss_scale_factor": 1.0}
        assert len(cores) == 2 and cores[1] == bundle

    @pytest.mark.parametrize("tech, bundle", FAMILIES)
    def test_paradox_4_shares_one_core_across_the_prices(self, cores, tech, bundle):
        run_paradox_4(tech, bundle, UNIT_PRICES, FactorPrices(0.8, 0.9, 1.0))
        assert cores == [bundle]

    @pytest.mark.parametrize("tech, bundle", FAMILIES)
    def test_paradox_5_shares_one_core_across_the_markups(self, cores, tech, bundle):
        run_paradox_5(SCHEME, SCHEME.with_markups([0.1, 0.05]), tech, bundle)
        assert cores == [bundle]


class TestScaleParadox:
    def test_canonical_scale_up(self):
        report = run_paradox_3(TRANSLOG, UNIT_PRICES, UNIT_BUNDLE)
        assert report.paradox_id == 3
        assert report.details["mpss_scale_factor"] == pytest.approx(math.e, rel=1e-12)
        ratio = report.measured_after / report.measured_before
        assert ratio == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert report.welfare_direction == WELFARE_IMPROVED
        assert report.paradox_confirmed
        assert report.details["output_ratio"] > report.details["mpss_scale_factor"]

    def test_scale_down_from_above_the_peak(self):
        start = InputBundle(math.e**2, math.e**2)
        report = run_paradox_3(TRANSLOG, UNIT_PRICES, start)
        assert report.details["mpss_scale_factor"] == pytest.approx(math.exp(-1.0), rel=1e-12)
        ratio = report.measured_after / report.measured_before
        assert ratio == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert report.paradox_confirmed

    def test_bundle_already_at_best_scale_is_a_fixed_point(self):
        at_peak = InputBundle(math.e, math.e)
        report = run_paradox_3(TRANSLOG, UNIT_PRICES, at_peak)
        assert report.details == {"mpss_scale_factor": 1.0}
        assert report.measured_after == report.measured_before
        assert report.welfare_direction == WELFARE_UNCHANGED
        assert not report.paradox_confirmed
        assert report.before is report.after

    def test_bundle_near_its_peak_is_confirmed(self):
        near_peak = InputBundle(math.e * 1.2, math.e * 1.2)
        assert run_paradox_3(TRANSLOG, UNIT_PRICES, near_peak).paradox_confirmed

    def test_factor_bill_out_of_float_range_is_an_input_error(self):
        # the best scale is e^10 times the bundle, where the factor bill exceeds 1.8e308
        tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.01)
        bundle, prices = InputBundle(1e300, 1e-300), FactorPrices(1e5, 1.0)
        text = (
            "most productive scale size is out of float range: "
            "ln scale 9.999999999999998 (factor bill inf)"
        )
        with pytest.raises(DomainError) as info:
            run_paradox_3(tech, prices, bundle)
        assert type(info.value) is DomainError and str(info.value) == text
        (outcome,) = run_all([Scenario("far", 3, tech, bundle, prices=prices)])
        assert (outcome.error, outcome.error_kind) == (text, "input")

    def test_measured_tfp_out_of_float_range_is_an_input_error(self):
        # x* = 10: the bill 4.4e-296 is a float, but bill / output = e^-100 of it is not
        tech = HomotheticTranslog(inner_alpha_capital=0.5, slope=21.0, curvature=-1.0)
        prices = FactorPrices(1e-300, 1e-300)
        text = (
            "most productive scale size is out of float range: "
            "ln scale 10.0 (factor bill 4.4052931589613437e-296)"
        )
        with pytest.raises(DomainError) as info:
            run_paradox_3(tech, prices, UNIT_BUNDLE)
        assert type(info.value) is DomainError and str(info.value) == text
        (outcome,) = run_all([Scenario("tiny", 3, tech, UNIT_BUNDLE, prices=prices)])
        assert (outcome.error, outcome.error_kind) == (text, "input")

    @pytest.mark.parametrize("capital", [1e-320, 1e300], ids=["subnormal", "huge"])
    def test_constant_elasticity_ray_at_the_float_edges_has_no_interior_scale(self, capital):
        bundle = InputBundle(capital, 1.0)
        text = "no interior most-productive scale: scale elasticity is 1.0 all along this ray"
        with pytest.raises(NoInteriorMpssError) as info:
            run_paradox_3(CD37, UNIT_PRICES, bundle)
        assert str(info.value) == text
        (outcome,) = run_all([Scenario("edge", 3, CD37, bundle, prices=UNIT_PRICES)])
        assert (outcome.error, outcome.error_kind) == (text, "input")

    @pytest.mark.parametrize(
        "tech", [TwoLevelCes(0.4, -1.0, 0.7, 0.5), GROSS_CD], ids=["two-level-ces", "cobb-douglas"]
    )
    @pytest.mark.parametrize("bundle", [UNIT_BUNDLE, InputBundle(1.0, 1.0, 0.0)], ids=["none", "0"])
    def test_gross_output_ray_without_intermediates_is_refused_by_the_scale_search(
        self, tech, bundle
    ):
        text = "scale search requires strictly positive intermediates"
        with pytest.raises(DomainError) as info:
            run_paradox_3(tech, UNIT_PRICES, bundle)
        assert str(info.value) == text
        (outcome,) = run_all([Scenario("no-m", 3, tech, bundle, prices=UNIT_PRICES)])
        assert (outcome.error, outcome.error_kind) == (text, "input")

    def test_constant_elasticity_technology_has_no_scale_move(self):
        flat = HomotheticTranslog(inner_alpha_capital=0.5, slope=0.8, curvature=0.0)
        with pytest.raises(NoInteriorMpssError):
            run_paradox_3(flat, UNIT_PRICES, UNIT_BUNDLE)


class TestSweepFixedPoints:
    """Generated sweep scenarios whose bundle lies within ~1e-6 of its most
    productive scale size in logs. Measured after/before is exp(c * ln(s)^2),
    and paradox 3 calls the move a fixed point only when that gain,
    -c * ln(s)^2, is within 64 ulps (64 * 2^-52 = 1.4e-14)."""

    @pytest.mark.parametrize(
        "technology, bundle, prices, log_scale",
        [
            ((0.5876, 1.0515, -0.1468, 1.8954), (1.9653, 0.5843), (1.5112, 1.8328), -9.1e-7),
            ((0.3809, 1.1771, -0.1839, 1.0583), (0.8542, 2.3982), (0.7201, 0.9574), -5.0e-7),
        ],
        ids=["sweep-275-00220", "sweep-250-00396"],
    )
    def test_resolvable_gain_is_confirmed(self, technology, bundle, prices, log_scale):
        tech = HomotheticTranslog(*technology)
        bundle, prices = InputBundle(*bundle), FactorPrices(*prices)
        x = math.log(pubtfp.efficiency.find_mpss(tech, bundle).scale_factor)
        assert x == pytest.approx(log_scale, rel=0.01)
        assert -tech.curvature * x * x > 64 * 2.0**-52
        moved = run_paradox_3(tech, prices, bundle)
        assert moved.paradox_confirmed
        assert moved.welfare_direction == WELFARE_IMPROVED
        assert moved.measured_after < moved.measured_before
        ratio = moved.measured_after / moved.measured_before
        assert math.log(ratio) == pytest.approx(tech.curvature * x * x, rel=0.01)

    def test_gain_within_64_ulps_is_the_fixed_point(self):
        # sweep-297-00124 (seed 37): ln s = -1.04e-7, gain 1.2e-15, about 5.5 ulps
        tech = HomotheticTranslog(0.6381, 1.1025, -0.1133, 1.2444)
        bundle, prices = InputBundle(1.4876, 1.7326), FactorPrices(1.5502, 1.3202)
        x = math.log(pubtfp.efficiency.find_mpss(tech, bundle).scale_factor)
        assert x == pytest.approx(-1.04e-7, rel=0.01)
        assert -tech.curvature * x * x <= 64 * 2.0**-52
        fixed = run_paradox_3(tech, prices, bundle)
        assert fixed.details == {"mpss_scale_factor": 1.0}
        assert not fixed.paradox_confirmed
        assert fixed.welfare_direction == WELFARE_UNCHANGED


class TestInputPriceParadox:
    def test_canonical_price_drop(self):
        report = run_paradox_4(CD37, UNIT_BUNDLE, UNIT_PRICES, FactorPrices(0.8, 0.9))
        assert report.paradox_id == 4
        assert report.measured_before == 2.0
        assert report.measured_after == 1.7000000000000002
        assert report.true_tfp_before == report.true_tfp_after
        assert report.welfare_direction == WELFARE_UNCHANGED
        assert report.paradox_confirmed
        assert report.details["cost_after"] == 1.7000000000000002

    def test_halving_both_prices_halves_measured(self):
        report = run_paradox_4(
            CD37, InputBundle(2.0, 5.0), FactorPrices(1.4, 0.6), FactorPrices(0.7, 0.3)
        )
        assert report.measured_after == pytest.approx(0.5 * report.measured_before, rel=1e-12)

    def test_both_prices_must_fall_strictly(self):
        with pytest.raises(PricesNotDominatedError):
            run_paradox_4(CD37, UNIT_BUNDLE, UNIT_PRICES, FactorPrices(1.0, 1.0))
        with pytest.raises(PricesNotDominatedError):
            run_paradox_4(CD37, UNIT_BUNDLE, UNIT_PRICES, FactorPrices(0.8, 1.0))
        with pytest.raises(PricesNotDominatedError):
            run_paradox_4(CD37, UNIT_BUNDLE, UNIT_PRICES, FactorPrices(0.5, 1.2))

    def test_measured_tfp_underflow_after_the_drop_is_an_input_error(self):
        tech = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5, level=1e300)
        with pytest.raises(InvalidParameterError) as info:
            run_paradox_4(
                tech, InputBundle(1e-10, 1e-10), FactorPrices(1e-300, 1e-300),
                FactorPrices(1e-310, 1e-310),
            )
        assert str(info.value) == "value must be strictly positive, got 0.0"


class TestMarkupParadox:
    def test_canonical_markup_cut(self):
        cut = SCHEME.with_markups([0.1, 0.05])
        report = run_paradox_5(SCHEME, cut, GROSS_CD, GROSS_BUNDLE)
        assert report.paradox_id == 5
        assert report.convention == DISTORTED_REVENUE
        assert report.measured_before == 6.2
        assert report.measured_after == 5.8500000000000005
        assert report.details["revenue_before"] == pytest.approx(12.4, rel=1e-15)
        assert report.details["revenue_after"] == pytest.approx(11.700000000000001, rel=1e-15)
        assert report.welfare_direction == WELFARE_UNCHANGED
        assert report.paradox_confirmed

    def test_marginal_cost_pricing_after_full_deregulation(self):
        cut = SCHEME.with_markups([0.0, 0.0])
        report = run_paradox_5(SCHEME, cut, GROSS_CD, GROSS_BUNDLE)
        assert report.measured_after == pytest.approx(5.5, rel=1e-12)

    def test_every_markup_must_fall_strictly(self):
        with pytest.raises(MarkupNotReducedError):
            run_paradox_5(SCHEME, SCHEME, GROSS_CD, GROSS_BUNDLE)
        partial = SCHEME.with_markups([0.1, 0.1])
        with pytest.raises(MarkupNotReducedError):
            run_paradox_5(SCHEME, partial, GROSS_CD, GROSS_BUNDLE)

    def test_frontier_overflow_is_an_invalid_denominator(self):
        tech = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5, level=1e300)
        with pytest.raises(InvalidParameterError) as info:
            run_paradox_5(SCHEME, SCHEME.with_markups([0.1, 0.05]), tech, InputBundle(1e10, 1e10))
        assert str(info.value) == "denominator must be strictly positive, got inf"

    def test_production_side_must_be_unchanged(self):
        other_cost = PricingScheme(
            (PricedOutput(1.5, 0.1, 3.0), PricedOutput(2.0, 0.05, 4.0))
        )
        with pytest.raises(InvalidParameterError):
            run_paradox_5(SCHEME, other_cost, GROSS_CD, GROSS_BUNDLE)
        other_quantity = PricingScheme(
            (PricedOutput(1.0, 0.1, 9.0), PricedOutput(2.0, 0.05, 4.0))
        )
        with pytest.raises(InvalidParameterError):
            run_paradox_5(SCHEME, other_quantity, GROSS_CD, GROSS_BUNDLE)
        shorter = PricingScheme((PricedOutput(1.0, 0.1, 3.0),))
        with pytest.raises(InvalidParameterError):
            run_paradox_5(SCHEME, shorter, GROSS_CD, GROSS_BUNDLE)

    def test_deeper_cuts_measure_lower(self):
        mild = run_paradox_5(SCHEME.with_markups([0.19, 0.09]), SCHEME.with_markups([0.15, 0.08]), GROSS_CD, GROSS_BUNDLE)
        deep = run_paradox_5(SCHEME.with_markups([0.19, 0.09]), SCHEME.with_markups([0.01, 0.01]), GROSS_CD, GROSS_BUNDLE)
        assert deep.measured_after < mild.measured_after < mild.measured_before


class TestScenarioValidation:
    def test_paradox_ids(self):
        assert PARADOX_IDS == (1, 2, 3, 4, 5)

    def test_name_and_id_checked_at_construction(self):
        with pytest.raises(ScenarioError):
            Scenario(name="", paradox_id=1, technology=CD37, bundle=UNIT_BUNDLE)
        with pytest.raises(ScenarioError):
            Scenario(name="x", paradox_id=6, technology=CD37, bundle=UNIT_BUNDLE)

    def test_missing_required_field(self):
        scenario = Scenario(
            name="no-shift", paradox_id=1, technology=CD37, bundle=UNIT_BUNDLE,
            prices=UNIT_PRICES,
        )
        with pytest.raises(ScenarioError, match="missing"):
            run_scenario(scenario)

    def test_field_from_another_paradox_is_rejected(self):
        scenario = Scenario(
            name="stray-shift", paradox_id=2, technology=CD37, bundle=InputBundle(4.0, 1.0),
            prices=UNIT_PRICES, shift=TechnologyShift(1.5),
        )
        with pytest.raises(ScenarioError, match="unexpected"):
            run_scenario(scenario)

    def test_markup_scenario_builds_its_after_scheme(self):
        scenario = Scenario(
            name="markup-cut", paradox_id=5, technology=GROSS_CD, bundle=GROSS_BUNDLE,
            pricing=SCHEME, markups_after=(0.1, 0.05),
        )
        report = run_scenario(scenario)
        assert report.measured_after == 5.8500000000000005


class TestRunAll:
    def make(self, name, paradox_id, **kwargs):
        base = dict(technology=CD37, bundle=UNIT_BUNDLE)
        base.update(kwargs)
        return Scenario(name=name, paradox_id=paradox_id, **base)

    def test_orders_by_paradox_then_declaration(self):
        scenarios = [
            self.make("late-prices", 4, prices=UNIT_PRICES, prices_after=FactorPrices(0.5, 0.5)),
            self.make("progress", 1, prices=UNIT_PRICES, shift=TechnologyShift(1.25)),
            self.make("early-prices", 4, prices=FactorPrices(2.0, 2.0), prices_after=UNIT_PRICES),
            self.make(
                "rebalance", 2,
                technology=CobbDouglas(alpha_capital=0.5, alpha_labor=0.5),
                bundle=InputBundle(4.0, 1.0), prices=UNIT_PRICES,
            ),
        ]
        outcomes = run_all(scenarios)
        assert [o.name for o in outcomes] == ["progress", "rebalance", "late-prices", "early-prices"]
        assert all(o.report is not None and o.error is None for o in outcomes)

    def test_empty_input_gives_empty_output(self):
        assert run_all([]) == []

    def test_parse_failures_pass_through_as_input_errors(self):
        outcomes = run_all([FailedScenario(name="broken", error="bad yaml", paradox_id=0)])
        assert outcomes[0].error_kind == "input"
        assert outcomes[0].error == "bad yaml"
        assert outcomes[0].report is None

    def test_precondition_failures_are_input_errors(self):
        efficient = self.make(
            "already-there", 2,
            technology=CobbDouglas(alpha_capital=0.5, alpha_labor=0.5),
            bundle=InputBundle(2.0, 2.0), prices=UNIT_PRICES,
        )
        outcomes = run_all([efficient])
        assert outcomes[0].error_kind == "input"
        assert "cost-minimizing" in outcomes[0].error

    def test_solver_failures_are_internal_errors(self):
        hopeless = self.make(
            "needs-a-wider-bracket", 2,
            technology=Ces(capital_weight=0.4, substitution=-1.0),
            bundle=UNIT_BUNDLE, prices=FactorPrices(1e40, 1e-5),
        )
        outcomes = run_all([hopeless])
        assert outcomes[0].error_kind == "internal"
        assert outcomes[0].report is None

    def test_overflow_rows_name_the_paradox_family_and_bundle(self):
        overflowing = self.make(
            "overflow", 1,
            technology=Ces(capital_weight=0.4, substitution=-3.0),
            bundle=InputBundle(1e-200, 1.0), prices=UNIT_PRICES, shift=TechnologyShift(1.25),
        )
        (outcome,) = run_all([overflowing])
        assert outcome.error_kind == "internal"
        assert outcome.error.startswith(
            "paradox 1, ces technology at bundle capital=1e-200 labor=1.0: "
        )
        assert "out of range" in outcome.error

    def test_one_bad_entry_does_not_stop_the_rest(self):
        scenarios = [
            self.make("bad", 1, prices=UNIT_PRICES),  # missing shift
            self.make("good", 1, prices=UNIT_PRICES, shift=TechnologyShift(2.0)),
        ]
        outcomes = run_all(scenarios)
        assert [o.name for o in outcomes] == ["bad", "good"]
        assert outcomes[0].error_kind == "input"
        assert outcomes[1].report.paradox_confirmed

"""Exact properties of the paradox runs over random technologies, bundles and prices.

* True TFP in every report is observed frontier output over the level-free
  frontier, ``true_tfp(tech.output(b), tech, b)``, compared with ``==``.
* The paper's second claim: the cost-weighted output index carries the
  cost-based paradoxes over unchanged. By Proposition 1 its value is
  coverage times the factor bill, so for paradoxes 1-4 and any output mix
  the measured level is coverage times the cost-based level and the
  before/after ratio is the cost-based ratio, both to rel 1e-12.
"""

import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pubtfp.errors import PubTfpError
from pubtfp.measurement import (
    OutputMix,
    OutputShare,
    PricedOutput,
    PricingScheme,
    measured_tfp_cost_based,
    measured_tfp_cost_weighted,
)
from pubtfp.paradoxes import (
    PARADOX_IDS,
    run_paradox_1,
    run_paradox_2,
    run_paradox_3,
    run_paradox_4,
    run_paradox_5,
)
from pubtfp.technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    true_tfp,
)

REL = 1e-12
FAMILIES = ("cobb-douglas", "ces", "homothetic-translog")


def log_uniform(bound):
    """exp(x) for x drawn from [-bound, bound]."""
    return st.floats(-bound, bound).map(math.exp)


@st.composite
def technologies(draw, family):
    level = draw(log_uniform(2.0))
    if family == "cobb-douglas":
        return CobbDouglas(
            alpha_capital=draw(st.floats(0.1, 0.9)),
            alpha_labor=draw(st.floats(0.1, 0.9)),
            level=level,
        )
    if family == "ces":
        return Ces(
            capital_weight=draw(st.floats(0.1, 0.9)),
            substitution=draw(st.floats(-3.0, 0.9).filter(lambda rho: abs(rho) > 0.05)),
            returns_to_scale=draw(st.floats(0.5, 1.5)),
            level=level,
        )
    return HomotheticTranslog(
        inner_alpha_capital=draw(st.floats(0.1, 0.9)),
        slope=draw(st.floats(0.5, 2.0)),
        curvature=draw(st.floats(-0.5, -0.01)),
        level=level,
    )


@st.composite
def paradox_reports(draw, paradox_ids=PARADOX_IDS):
    """A report from one runner; inputs that trip a runner's guard are rejected."""
    paradox_id = draw(st.sampled_from(paradox_ids))
    # paradox 3 needs an interior most-productive scale, which only a curved translog has
    families = ("homothetic-translog",) if paradox_id == 3 else FAMILIES
    tech = draw(technologies(draw(st.sampled_from(families))))
    bundle = InputBundle(draw(log_uniform(3.0)), draw(log_uniform(3.0)))
    prices = FactorPrices(draw(log_uniform(2.0)), draw(log_uniform(2.0)))
    try:
        if paradox_id == 1:
            shift = TechnologyShift(draw(st.floats(1.001, 3.0)))
            return run_paradox_1(tech, bundle, prices, shift)
        if paradox_id == 2:
            return run_paradox_2(tech, prices, bundle)
        if paradox_id == 3:
            return run_paradox_3(tech, prices, bundle)
        if paradox_id == 4:
            cheaper = FactorPrices(
                prices.capital_price * draw(st.floats(0.1, 0.99)),
                prices.wage * draw(st.floats(0.1, 0.99)),
            )
            return run_paradox_4(tech, bundle, prices, cheaper)
        items = tuple(
            PricedOutput(
                draw(log_uniform(1.0)), draw(st.floats(0.0, 1.0)), draw(log_uniform(2.0))
            )
            for _ in range(draw(st.integers(1, 4)))
        )
        pricing = PricingScheme(items)
        cut = pricing.with_markups([item.markup - draw(st.floats(0.01, 0.9)) for item in items])
        return run_paradox_5(pricing, cut, tech, bundle)
    except PubTfpError:
        reject()


@st.composite
def output_mixes(draw):
    """One to six outputs whose cost shares sum to a coverage in [0.2, 1]."""
    coverage = draw(st.floats(0.2, 1.0))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
    quantities = [draw(log_uniform(6.0)) for _ in weights]
    total = sum(weights)
    shares = (OutputShare(q, coverage * w / total) for q, w in zip(quantities, weights))
    return OutputMix(tuple(shares), coverage)


@settings(max_examples=400, deadline=None)
@given(report=paradox_reports())
def test_true_tfp_is_frontier_output_over_the_level_free_frontier(report):
    for state, level in (
        (report.before, report.true_tfp_before),
        (report.after, report.true_tfp_after),
    ):
        tech, bundle = state.technology, state.bundle
        assert level == true_tfp(tech.output(bundle), tech, bundle)


@settings(max_examples=400, deadline=None)
@given(report=paradox_reports((1, 2, 3, 4)), mix=output_mixes())
def test_cost_weighted_index_carries_the_cost_based_paradox_over(report, mix):
    levels = []
    for state, measured in (
        (report.before, report.measured_before),
        (report.after, report.measured_after),
    ):
        cost_based = measured_tfp_cost_based(state.prices, state.bundle, state.technology)
        weighted = measured_tfp_cost_weighted(state.prices, state.bundle, mix, state.technology)
        assert cost_based.value == measured
        assert weighted.denominator == cost_based.denominator
        assert weighted.numerator == pytest.approx(mix.coverage * cost_based.numerator, rel=REL)
        assert weighted.value == pytest.approx(mix.coverage * cost_based.value, rel=REL)
        levels.append(weighted.value)
    ratio = report.measured_after / report.measured_before
    assert levels[1] / levels[0] == pytest.approx(ratio, rel=REL)

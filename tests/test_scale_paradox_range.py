"""Paradox 3 on translogs whose most productive scale lies anywhere in the float range.

A homothetic translog with slope b and curvature c < 0 has scale elasticity
b + 2c(u0 + x) along the ray through a bundle with log core index u0, so the
most productive scale is x* = (1 - b)/(2c) - u0 in logs, and measured TFP
after/before is exp(c x*^2). The strategy draws c in [-e, -1e-3] and x* with
|x*| up to 700 (e^700 ~ 1e304), and sets b to match; bundles and prices are
log-uniform in e^+-3 and e^+-2. Every run ends in one of three ways:

* confirmed, with welfare improved and ln(after/before) = c x^2;
* the fixed point, only when the gain -c x^2 is within 64 * 2^-52;
* an input error naming x*, only when the bundle or output at the most
  productive scale is not a normal float.
"""

import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pubtfp.efficiency import find_mpss
from pubtfp.paradoxes import WELFARE_IMPROVED, WELFARE_UNCHANGED, Scenario, run_all
from pubtfp.technology import FactorPrices, HomotheticTranslog, InputBundle

EPS = 2.0**-52
FIXED_POINT_GAIN = 64 * EPS
LN_MAX = math.log(sys.float_info.max)  # 709.78
LN_NORMAL_MIN = math.log(sys.float_info.min)  # -708.40
BAND = 1e-6  # a log this close to a float-range edge may round either way


def log_uniform(bound):
    return st.floats(-bound, bound).map(math.exp)


@st.composite
def far_scale_runs(draw):
    curvature = -draw(st.floats(1e-3, math.e))
    alpha = draw(st.floats(0.1, 0.9))
    bundle = InputBundle(draw(log_uniform(3.0)), draw(log_uniform(3.0)))
    u0 = alpha * math.log(bundle.capital) + (1.0 - alpha) * math.log(bundle.labor)
    # |x*| in one decade from 1e-12 (bundles at their peak) to 700, or exactly 0
    decade = draw(st.sampled_from(range(-13, 3)))
    x_target = 0.0 if decade < -12 else draw(st.floats(1.0, 7.0)) * 10.0**decade
    x_target *= draw(st.sampled_from((-1.0, 1.0)))
    slope = 1.0 - 2.0 * curvature * (x_target + u0)
    assume(slope > 0.0)
    tech = HomotheticTranslog(alpha, slope, curvature, draw(log_uniform(2.0)))
    prices = FactorPrices(draw(log_uniform(2.0)), draw(log_uniform(2.0)))
    return tech, bundle, prices, u0


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(run=far_scale_runs())
def test_every_scale_run_is_confirmed_a_fixed_point_or_out_of_range(run):
    tech, bundle, prices, u0 = run
    b, c = tech.slope, tech.curvature
    x_star = (1.0 - b) / (2.0 * c) - u0
    u_star = x_star + u0
    # logs of the inputs and the output at the most productive scale
    logs = (
        math.log(bundle.capital) + x_star,
        math.log(bundle.labor) + x_star,
        math.log(tech.level) + b * u_star + c * u_star * u_star,
    )
    near_edge = any(
        abs(v - edge) <= BAND * (1.0 + abs(v)) for v in logs for edge in (LN_MAX, LN_NORMAL_MIN)
    )
    representable = all(LN_NORMAL_MIN < v < LN_MAX for v in logs)

    (outcome,) = run_all([Scenario("far", 3, tech, bundle, prices=prices)])
    if outcome.report is None:
        assert outcome.error_kind == "input", outcome.error
        assert outcome.error == (
            f"most productive scale size is out of float range: ln scale {x_star!r}"
        )
        assert not representable or near_edge
        return
    assert representable or near_edge
    report = outcome.report
    x = math.log(find_mpss(tech, bundle).scale_factor)
    gain = -c * x * x
    if report.welfare_direction == WELFARE_UNCHANGED:
        assert gain <= FIXED_POINT_GAIN
        assert report.details == {"mpss_scale_factor": 1.0}
        assert not report.paradox_confirmed
        return
    assert gain > FIXED_POINT_GAIN
    assert report.welfare_direction == WELFARE_IMPROVED
    assert report.paradox_confirmed
    # ln(after/before) = c x^2, up to the rounding of x and of ln f at both bundles
    scale = 1.0 + abs(b) * (abs(u_star) + abs(u0)) + abs(c) * (u_star**2 + u0**2)
    scale += abs(c * x) * (abs(u_star) + abs(u0) + abs(x) + 1.0)
    log_ratio = math.log(report.measured_after / report.measured_before)
    assert abs(log_ratio - c * x * x) <= 16 * EPS * scale

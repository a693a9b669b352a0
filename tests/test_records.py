"""What the numeric validators store or raise, and how the result records behave.

The validator table covers every validated number field of every record
and every kind of value a caller can hand over: ints, bools, numeric
strings, float subclasses, signed zero, subnormals, non-finite and negative
numbers. Each check either stores a plain ``float`` equal to the expected
value (the sign of zero included) or raises the exact text below. Further
tests pin the order in which each record checks its fields and, for floats
at and around every bound, that a kept value keeps its bits. The record
tests pin the value semantics of the frozen result records that every
paradox run builds: no per-instance ``__dict__``, and equality, hashing,
``repr``, ``dataclasses.replace``, pickling and deep copies as before. The
module needs neither PyYAML nor ``hypothesis`` (the property test runs only
when ``hypothesis`` is there), so it also runs by hand under an interpreter
that lacks them.
"""

import copy
import dataclasses
import hashlib
import math
import pickle
import re
import struct

import pytest

from pubtfp.accounting import PanelObservation, SimulationSpec
from pubtfp.efficiency import CostMinResult, MpssResult, find_mpss, min_cost_bundle
from pubtfp.errors import InvalidParameterError
from pubtfp.measurement import (
    MeasuredTfp,
    OutputMix,
    OutputShare,
    PricedOutput,
    PricingScheme,
    _positive,
    measured_tfp_cost_based,
    unit_costs_from_allocation,
)
from pubtfp.paradoxes import (
    EconomyState,
    ParadoxReport,
    Scenario,
    ScenarioOutcome,
    run_all,
    run_paradox_1,
)
from pubtfp.technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    TwoLevelCes,
    _require_finite,
    _require_nonnegative,
    _require_positive,
    true_tfp,
)


class Real(float):
    """A float subclass, as numpy.float64 is one."""


# check name -> (call with the value under test, the name its messages use, rule)
CHECKS = {
    "InputBundle.capital": (lambda v: InputBundle(v, 1.0).capital, "capital", "nonnegative"),
    "InputBundle.labor": (lambda v: InputBundle(1.0, v).labor, "labor", "nonnegative"),
    "InputBundle.intermediates": (
        lambda v: InputBundle(1.0, 1.0, v).intermediates, "intermediates", "nonnegative"
    ),
    "FactorPrices.capital_price": (
        lambda v: FactorPrices(v, 1.0).capital_price, "capital_price", "positive"
    ),
    "FactorPrices.wage": (lambda v: FactorPrices(1.0, v).wage, "wage", "positive"),
    "FactorPrices.intermediates_price": (
        lambda v: FactorPrices(1.0, 1.0, v).intermediates_price, "intermediates_price", "positive"
    ),
    "_require_finite": (lambda v: _require_finite("x", v), "x", "finite"),
    "_require_nonnegative": (lambda v: _require_nonnegative("x", v), "x", "nonnegative"),
    "_require_positive": (lambda v: _require_positive("x", v), "x", "positive"),
    "measurement._positive": (lambda v: _positive("x", v), "x", "measured"),
}


def _in_unit(value):
    """``value`` as a float when it lies in [0, 1], else None."""
    try:
        value = float(value)
    except (ValueError, OverflowError):
        return None
    return value if 0.0 <= value <= 1.0 else None


def _mix(coverage):
    """An output mix whose one share matches ``coverage`` when coverage is a valid float."""
    share = coverage if isinstance(coverage, float) and _in_unit(coverage) else 1.0
    return OutputMix((OutputShare(1.0, share),), coverage)


def _panel(**numbers):
    """A panel row with valid numbers except those given."""
    row = dict(va_nominal=1.0, va_deflator=1.0, capital_services=1.0, labor_input=1.0,
               labor_share=0.5, capital_share=0.5)
    return PanelObservation(2000, "X", "Y", **{**row, **numbers})


def _deflator(v):
    """A row whose nominal value added equals a valid deflator, so their ratio stays 1."""
    try:
        nominal = float(v) if 0.0 < float(v) < math.inf else 1.0
    except (ValueError, OverflowError):
        nominal = 1.0
    return _panel(va_nominal=nominal, va_deflator=v).va_deflator


def _share(name, other, v):
    """A row whose other share completes a valid share to 1, so nothing is renormalized."""
    share = _in_unit(v)
    return getattr(_panel(**{name: v, other: 0.5 if share is None else 1.0 - share}), name)


SIMULATION_PATHS = ("levels", "capital", "labor", "capital_price", "wage")


def _path(name, v):
    """The first value of a two-year simulation path that starts with ``v``."""
    paths = {path: (v, 1.0) if path == name else (1.0, 1.0) for path in SIMULATION_PATHS}
    spec = SimulationSpec(CobbDouglas(0.5, 0.5), **paths, start_year=2000, convention="market")
    return getattr(spec, name)[0]


MIX = OutputMix((OutputShare(1.0, 1.0),))
FAMILY_CHECKS = {
    CobbDouglas: (
        dict(alpha_capital=0.5, alpha_labor=0.5, level=1.0, alpha_intermediates=0.5),
        dict.fromkeys(("alpha_capital", "alpha_labor", "level", "alpha_intermediates"), "positive"),
    ),
    Ces: (
        dict(capital_weight=0.5, substitution=0.5, returns_to_scale=1.0, level=1.0),
        dict(capital_weight="weight", substitution="substitution", returns_to_scale="positive",
             level="positive"),
    ),
    HomotheticTranslog: (
        dict(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1, level=1.0),
        dict(inner_alpha_capital="weight", slope="positive", curvature="curvature",
             level="positive"),
    ),
    TwoLevelCes: (
        dict(capital_weight=0.5, inner_substitution=0.5, value_added_weight=0.5,
             outer_substitution=-0.5, returns_to_scale=1.0, level=1.0),
        dict(capital_weight="weight", inner_substitution="substitution",
             value_added_weight="weight", outer_substitution="substitution",
             returns_to_scale="positive", level="positive"),
    ),
}
for family, (valid, rules) in FAMILY_CHECKS.items():
    for name, rule in rules.items():
        CHECKS[f"{family.__name__}.{name}"] = (
            lambda v, family=family, valid=valid, name=name:
                getattr(family(**{**valid, name: v}), name),
            name,
            rule,
        )
CHECKS.update({
    "TechnologyShift.factor": (lambda v: TechnologyShift(v).factor, "shift factor", "shift"),
    "Technology.with_level": (
        lambda v: CobbDouglas(0.5, 0.5).with_level(v).level, "level", "positive"
    ),
    # paradox 3's family: its twin copies three more fields than Cobb-Douglas's
    "HomotheticTranslog.with_level": (
        lambda v: HomotheticTranslog(0.5, 1.2, -0.1).with_level(v).level, "level", "positive"
    ),
    "InputBundle.scaled": (
        lambda v: InputBundle(1.0, 1.0).scaled(v).capital, "scale factor", "positive"
    ),
    "true_tfp": (
        lambda v: true_tfp(v, CobbDouglas(0.5, 0.5), InputBundle(1.0, 1.0)),
        "observed_output",
        "positive",
    ),
    "OutputShare.quantity": (lambda v: OutputShare(v, 1.0).quantity, "quantity", "measured"),
    "OutputShare.cost_share": (
        lambda v: OutputShare(1.0, v).cost_share, "cost_share", "measured"
    ),
    "OutputMix.coverage": (lambda v: _mix(v).coverage, "coverage", "coverage"),
    "unit_costs_from_allocation": (
        lambda v: unit_costs_from_allocation(v, MIX)[0], "total_cost", "measured"
    ),
    "PricedOutput.marginal_cost": (
        lambda v: PricedOutput(v, 0.0, 1.0).marginal_cost, "marginal_cost", "measured"
    ),
    "PricedOutput.markup": (lambda v: PricedOutput(1.0, v, 1.0).markup, "markup", "markup"),
    "PricingScheme.with_markups": (
        lambda v: PricingScheme((PricedOutput(1.0, 0.0, 1.0),)).with_markups([v]).items[0].markup,
        "markup",
        "markup",
    ),
    "PricedOutput.quantity": (
        lambda v: PricedOutput(1.0, 0.0, v).quantity, "quantity", "measured"
    ),
    "MeasuredTfp.value": (
        lambda v: MeasuredTfp(v, "CostBasedVA", 1.0, 1.0).value, "value", "measured"
    ),
    "MeasuredTfp.numerator": (
        lambda v: MeasuredTfp(1.0, "CostBasedVA", v, 1.0).numerator, "numerator", "measured"
    ),
    "MeasuredTfp.denominator": (
        lambda v: MeasuredTfp(1.0, "CostBasedVA", 1.0, v).denominator, "denominator", "measured"
    ),
    "PanelObservation.va_nominal": (
        lambda v: _panel(va_nominal=v).va_nominal, "va_nominal", "measured"
    ),
    "PanelObservation.va_deflator": (_deflator, "va_deflator", "measured"),
    "PanelObservation.capital_services": (
        lambda v: _panel(capital_services=v).capital_services, "capital_services", "measured"
    ),
    "PanelObservation.labor_input": (
        lambda v: _panel(labor_input=v).labor_input, "labor_input", "measured"
    ),
    "PanelObservation.labor_share": (
        lambda v: _share("labor_share", "capital_share", v), "labor_share", "share"
    ),
    "PanelObservation.capital_share": (
        lambda v: _share("capital_share", "labor_share", v), "capital_share", "share"
    ),
})
for name in SIMULATION_PATHS:
    CHECKS[f"SimulationSpec.{name}"] = (lambda v, name=name: _path(name, v), name, "path")

NONNEGATIVE = "{name} must be nonnegative, got {value}"
POSITIVE = "{name} must be strictly positive, got {value}"
FINITE = "{name} must be finite, got {value}"
SHIFT = "a technology shift must have factor > 1, got {value}"
WEIGHT = "{name} must lie in (0, 1), got {value}"
SUBSTITUTION = "{name} must lie in (-inf, 1) and differ from 0, got {value}"
CURVATURE = "{name} must be <= 0 (scale elasticity nonincreasing in scale), got {value}"
SHARE = "{name} must lie in [0, 1], got {value}"
PATH = "{name} path must be strictly positive throughout"


# coverage and markup quote the value as the caller gave it, not as a float
def coverage(raw):
    return f"coverage must lie in (0, 1], got {raw}"


def markup(raw):
    return f"markup must exceed -1, got {raw}"


RULES = (
    "finite", "nonnegative", "positive", "measured", "shift", "weight", "substitution",
    "curvature", "coverage", "markup", "share", "path",
)

# case id -> (value, outcome under each rule). A float outcome is the stored
# value; a string is an InvalidParameterError text; a tuple is another
# exception type and its text.
CASES = {
    "int": (3, {
        "finite": 3.0,
        "nonnegative": 3.0, "positive": 3.0, "measured": 3.0, "shift": 3.0, "weight": WEIGHT,
        "substitution": SUBSTITUTION, "curvature": CURVATURE, "coverage": coverage("3"),
        "markup": 3.0, "share": SHARE, "path": 3.0,
    }),
    "bool-true": (True, {
        "finite": 1.0,
        "nonnegative": 1.0, "positive": 1.0, "measured": 1.0, "shift": SHIFT, "weight": WEIGHT,
        "substitution": SUBSTITUTION, "curvature": CURVATURE, "coverage": 1.0, "markup": 1.0,
        "share": 1.0, "path": 1.0,
    }),
    "bool-false": (False, {
        "finite": 0.0,
        "nonnegative": 0.0, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": SUBSTITUTION, "curvature": 0.0,
        "coverage": coverage("False"), "markup": 0.0, "share": 0.0, "path": PATH,
    }),
    "numeric-str": ("2.5", {
        "finite": 2.5,
        "nonnegative": 2.5, "positive": 2.5, "measured": 2.5, "shift": 2.5, "weight": WEIGHT,
        "substitution": SUBSTITUTION, "curvature": CURVATURE, "coverage": coverage("'2.5'"),
        "markup": 2.5, "share": SHARE, "path": 2.5,
    }),
    "word-str": (
        "abc",
        dict.fromkeys(RULES, (ValueError, "could not convert string to float: 'abc'")),
    ),
    "float-subclass": (Real(1.5), {
        "finite": 1.5,
        "nonnegative": 1.5, "positive": 1.5, "measured": 1.5, "shift": 1.5, "weight": WEIGHT,
        "substitution": SUBSTITUTION, "curvature": CURVATURE, "coverage": coverage("1.5"),
        "markup": 1.5, "share": SHARE, "path": 1.5,
    }),
    "negative-float-subclass": (Real(-1.5), {
        "finite": -1.5,
        "nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": -1.5, "curvature": -1.5, "coverage": coverage("-1.5"),
        "markup": markup("-1.5"), "share": SHARE, "path": PATH,
    }),
    "negative-zero": (-0.0, {
        "finite": -0.0,
        "nonnegative": -0.0, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": SUBSTITUTION, "curvature": -0.0,
        "coverage": coverage("-0.0"), "markup": -0.0, "share": -0.0, "path": PATH,
    }),
    "positive-zero": (0.0, {
        "finite": 0.0,
        "nonnegative": 0.0, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": SUBSTITUTION, "curvature": 0.0,
        "coverage": coverage("0.0"), "markup": 0.0, "share": 0.0, "path": PATH,
    }),
    "subnormal": (5e-324, {
        "finite": 5e-324,
        "nonnegative": 5e-324, "positive": 5e-324, "measured": 5e-324, "shift": SHIFT,
        "weight": 5e-324, "substitution": 5e-324, "curvature": CURVATURE, "coverage": 5e-324,
        "markup": 5e-324, "share": 5e-324, "path": 5e-324,
    }),
    "largest-float": (1.7976931348623157e308, {
        **dict.fromkeys(
            ("finite", "nonnegative", "positive", "measured", "shift", "markup", "path"),
            1.7976931348623157e308,
        ),
        "weight": WEIGHT, "substitution": SUBSTITUTION, "curvature": CURVATURE,
        "coverage": coverage("1.7976931348623157e+308"), "share": SHARE,
    }),
    "nan": (math.nan, {
        "finite": FINITE,
        "nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE, "shift": FINITE,
        "weight": FINITE, "substitution": FINITE, "curvature": FINITE, "coverage": coverage("nan"),
        "markup": markup("nan"), "share": SHARE, "path": PATH,
    }),
    "inf": (math.inf, {
        "finite": FINITE,
        "nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE, "shift": FINITE,
        "weight": FINITE, "substitution": FINITE, "curvature": FINITE, "coverage": coverage("inf"),
        "markup": markup("inf"), "share": SHARE, "path": PATH,
    }),
    "minus-inf": (-math.inf, {
        "finite": FINITE,
        "nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE, "shift": FINITE,
        "weight": FINITE, "substitution": FINITE, "curvature": FINITE,
        "coverage": coverage("-inf"), "markup": markup("-inf"), "share": SHARE, "path": PATH,
    }),
    "negative": (-1.0, {
        "finite": -1.0,
        "nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": -1.0, "curvature": -1.0, "coverage": coverage("-1.0"),
        "markup": markup("-1.0"), "share": SHARE, "path": PATH,
    }),
    "negative-int": (-2, {
        "finite": -2.0,
        "nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE, "shift": SHIFT,
        "weight": WEIGHT, "substitution": -2.0, "curvature": -2.0, "coverage": coverage("-2"),
        "markup": markup("-2"), "share": SHARE, "path": PATH,
    }),
    "huge-int": (
        10**400,
        dict.fromkeys(RULES, (OverflowError, "int too large to convert to float")),
    ),
    "half": (0.5, {
        **dict.fromkeys(RULES, 0.5), "shift": SHIFT, "curvature": CURVATURE,
    }),
    "one": (1.0, {
        **dict.fromkeys(RULES, 1.0), "shift": SHIFT, "weight": WEIGHT,
        "substitution": SUBSTITUTION, "curvature": CURVATURE,
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_validator_stores_or_raises_exactly(check, case):
    call, name, rule = CHECKS[check]
    value, outcomes = CASES[case]
    expected = outcomes[rule]
    if isinstance(expected, float):
        stored = call(value)
        assert type(stored) is float
        assert stored == expected
        assert math.copysign(1.0, stored) == math.copysign(1.0, expected)
        return
    if isinstance(expected, tuple):
        error, text = expected
    else:
        error, text = InvalidParameterError, expected.format(name=name, value=repr(float(value)))
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == text


def test_absent_intermediates_stay_none():
    assert InputBundle(1.0, 1.0).intermediates is None
    assert InputBundle(1.0, 1.0, None).intermediates is None
    assert FactorPrices(1.0, 1.0).intermediates_price is None
    assert CobbDouglas(0.5, 0.5).alpha_intermediates is None


def _fields_after(cls, valid, name):
    """Build ``cls`` with NaN in ``name`` and in every field its check order puts after it."""
    def build(order):
        later = order[order.index(name):]
        return cls(**{key: math.nan if key in later else value for key, value in valid.items()})
    return build


# record -> (valid keyword arguments, its ranged fields in the order they are checked)
CHECK_ORDERS = {
    InputBundle: (dict(capital=1.0, labor=1.0, intermediates=1.0), None),
    FactorPrices: (dict(capital_price=1.0, wage=1.0, intermediates_price=1.0), None),
    **{family: (valid, None) for family, (valid, _) in FAMILY_CHECKS.items()},
    # both weights before both substitutions
    TwoLevelCes: (FAMILY_CHECKS[TwoLevelCes][0], (
        "capital_weight", "value_added_weight", "inner_substitution", "outer_substitution",
        "returns_to_scale", "level",
    )),
    OutputShare: (dict(quantity=1.0, cost_share=1.0), None),
    PricedOutput: (
        dict(marginal_cost=1.0, markup=0.0, quantity=1.0), ("marginal_cost", "quantity", "markup")
    ),
    MeasuredTfp: (
        dict(value=1.0, convention="CostBasedVA", numerator=1.0, denominator=1.0),
        ("numerator", "denominator", "value"),
    ),
    PanelObservation: (
        dict(year=2000, country="X", industry="Y", va_nominal=1.0, va_deflator=1.0,
             capital_services=1.0, labor_input=1.0, labor_share=0.5, capital_share=0.5),
        ("va_nominal", "va_deflator", "capital_services", "labor_input", "labor_share",
         "capital_share"),
    ),
}


@pytest.mark.parametrize("cls", CHECK_ORDERS, ids=lambda cls: cls.__name__)
def test_ranged_fields_are_checked_in_a_fixed_order(cls):
    valid, order = CHECK_ORDERS[cls]
    order = order or tuple(valid)
    for name in order:
        with pytest.raises(InvalidParameterError) as info:
            _fields_after(cls, valid, name)(order)
        assert re.match(rf"{name} must ", str(info.value)), (name, str(info.value))


def test_simulation_paths_are_checked_in_field_order():
    for position, name in enumerate(SIMULATION_PATHS):
        later = SIMULATION_PATHS[position:]
        paths = {path: (math.nan, 1.0) if path in later else (1.0, 1.0)
                 for path in SIMULATION_PATHS}
        with pytest.raises(InvalidParameterError, match=rf"^{name} path must"):
            SimulationSpec(CobbDouglas(0.5, 0.5), **paths, start_year=2000, convention="market")


COBB_DOUGLAS = CobbDouglas(alpha_capital=0.5, alpha_labor=0.5)
TRANSLOG = HomotheticTranslog(inner_alpha_capital=0.5, slope=1.2, curvature=-0.1)
BUNDLE = InputBundle(4.0, 1.0)
PRICES = FactorPrices(1.0, 2.0)


def records():
    """One instance of each result record a paradox run builds."""
    failed = run_all([Scenario("s", 4, COBB_DOUGLAS, BUNDLE, prices=PRICES, prices_after=PRICES)])
    return {
        EconomyState: EconomyState(COBB_DOUGLAS, BUNDLE, prices=PRICES),
        ParadoxReport: run_paradox_1(COBB_DOUGLAS, BUNDLE, PRICES, TechnologyShift(1.25)),
        ScenarioOutcome: failed[0],
        MeasuredTfp: measured_tfp_cost_based(PRICES, BUNDLE, COBB_DOUGLAS),
        CostMinResult: min_cost_bundle(COBB_DOUGLAS, PRICES, 2.0),
        MpssResult: find_mpss(TRANSLOG, InputBundle(1.0, 1.0)),
    }


# taken from the records before they were slotted
REPRS = {
    EconomyState: (
        "EconomyState(technology=CobbDouglas(alpha_capital=0.5, alpha_labor=0.5, level=1.0, "
        "alpha_intermediates=None), bundle=InputBundle(capital=4.0, labor=1.0, "
        "intermediates=None), prices=FactorPrices(capital_price=1.0, wage=2.0, "
        "intermediates_price=None), pricing=None)"
    ),
    ScenarioOutcome: (
        "ScenarioOutcome(name='s', paradox_id=4, report=None, error='both prices must fall "
        "strictly: capital 1.0 -> 1.0, wage 2.0 -> 2.0', error_kind='input')"
    ),
    MeasuredTfp: (
        "MeasuredTfp(value=3.0, convention='CostBasedVA', numerator=6.0, denominator=2.0)"
    ),
    CostMinResult: (
        "CostMinResult(bundle=InputBundle(capital=2.8284271247461894, labor=1.4142135623730947, "
        "intermediates=None), cost=5.656854249492379, target_output=2.0)"
    ),
    MpssResult: (
        "MpssResult(scale_factor=2.7182818284590446, bundle_at_mpss=InputBundle("
        "capital=2.7182818284590446, labor=2.7182818284590446, intermediates=None), "
        "output=3.0041660239464325, ray_average_product=1.1051709180756477, "
        "scale_elasticity=1.0)"
    ),
}
# the report's repr nests both economy states; its sha256
REPORT_REPR_SHA256 = "df0983f8154520816406f26dc6710acbb17e74eea73f61cf01c23c22d190fe38"

RECORDS = sorted(records(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_slotted(cls):
    record = records()[cls]
    assert not hasattr(record, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    with pytest.raises(TypeError):
        vars(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(cls)[0].name, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    record = records()[cls]
    if cls is ParadoxReport:
        digest = hashlib.sha256(repr(record).encode("utf-8")).hexdigest()
        assert digest == REPORT_REPR_SHA256
    else:
        assert repr(record) == REPRS[cls]
    twins = [
        records()[cls],
        dataclasses.replace(record),
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ]
    for twin in twins:
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == repr(record)
        assert dataclasses.astuple(twin) == dataclasses.astuple(record)
        if cls is ParadoxReport:  # its details dict makes it unhashable
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(record)


# rule -> what the interval tests the validators were written with make of a float:
# None keeps it, a string is the exact error text
SPEC = {
    "finite": lambda v: FINITE if not math.isfinite(v) else None,
    "nonnegative": lambda v: FINITE if not math.isfinite(v) else NONNEGATIVE if v < 0.0 else None,
    "positive": lambda v: FINITE if not math.isfinite(v) else POSITIVE if v <= 0.0 else None,
    "measured": lambda v: POSITIVE if not (math.isfinite(v) and v > 0.0) else None,
    "shift": lambda v: FINITE if not math.isfinite(v) else SHIFT if v <= 1.0 else None,
    "weight": lambda v: FINITE if not math.isfinite(v) else None if 0.0 < v < 1.0 else WEIGHT,
    "substitution": lambda v: (
        FINITE if not math.isfinite(v) else SUBSTITUTION if v == 0.0 or v >= 1.0 else None
    ),
    "curvature": lambda v: FINITE if not math.isfinite(v) else CURVATURE if v > 0.0 else None,
    "coverage": lambda v: None if math.isfinite(v) and 0.0 < v <= 1.0 else coverage(repr(v)),
    "markup": lambda v: None if math.isfinite(v) and v > -1.0 else markup(repr(v)),
    "share": lambda v: None if 0.0 <= v <= 1.0 else SHARE,
    "path": lambda v: None if math.isfinite(v) and v > 0.0 else PATH,
}
# every bound the rules use, one ulp either side, and the values with a sign or no order
BOUNDS = (0.0, 1.0, -1.0, math.inf, -math.inf)
EDGES = [  # one of each repr, as a set of floats would hold 0.0 or -0.0, not both
    float(r)
    for r in sorted(
        {repr(math.nextafter(b, to)) for b in BOUNDS for to in (-math.inf, b, math.inf)}
        | {"-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308"}
    )
] + [math.nan]


def _outcome(call, value):
    try:
        stored = call(value)
    except InvalidParameterError as exc:
        return str(exc)
    assert type(stored) is float
    return stored


def check_every_rule_keeps_or_names(value):
    """Every check keeps ``value`` with the same bits or raises its rule's exact text."""
    for check in sorted(CHECKS):
        call, name, rule = CHECKS[check]
        expected = SPEC[rule](value)
        outcome = _outcome(call, value)
        if expected is None:
            assert isinstance(outcome, float), (check, value, outcome)
            assert struct.pack("<d", outcome) == struct.pack("<d", value), (check, value)
        else:
            assert outcome == expected.format(name=name, value=repr(value)), (check, value)


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_every_rule_at_its_bounds(value):
    check_every_rule_keeps_or_names(value)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the tables above need only the standard library
    given = None

if given is not None:

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.floats())  # the bounds one ulp either side are test_every_rule_at_its_bounds' job
    def test_every_rule_keeps_a_float_bit_for_bit_or_names_it(value):
        check_every_rule_keeps_or_names(value)

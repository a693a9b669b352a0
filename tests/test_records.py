"""What the numeric validators store or raise, and how the result records behave.

The validator table covers every kind of value a caller can hand over:
ints, bools, numeric strings, float subclasses, signed zero, subnormals,
non-finite and negative numbers. Each check either stores a plain ``float``
equal to the expected value (the sign of zero included) or raises the exact
text below. The record tests pin the value semantics of the frozen result
records that every paradox run builds: no per-instance ``__dict__``, and
equality, hashing, ``repr``, ``dataclasses.replace``, pickling and deep
copies as before. The module needs neither PyYAML nor ``hypothesis``, so it
also runs by hand under an interpreter that lacks them.
"""

import copy
import dataclasses
import hashlib
import math
import pickle

import pytest

from pubtfp.efficiency import CostMinResult, MpssResult, find_mpss, min_cost_bundle
from pubtfp.errors import InvalidParameterError
from pubtfp.measurement import MeasuredTfp, _positive, measured_tfp_cost_based
from pubtfp.paradoxes import (
    EconomyState,
    ParadoxReport,
    Scenario,
    ScenarioOutcome,
    run_all,
    run_paradox_1,
)
from pubtfp.technology import (
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    TechnologyShift,
    _require_nonnegative,
    _require_positive,
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
    "_require_nonnegative": (lambda v: _require_nonnegative("x", v), "x", "nonnegative"),
    "_require_positive": (lambda v: _require_positive("x", v), "x", "positive"),
    "measurement._positive": (lambda v: _positive("x", v), "x", "measured"),
}

NONNEGATIVE = "{name} must be nonnegative, got {value}"
POSITIVE = "{name} must be strictly positive, got {value}"
FINITE = "{name} must be finite, got {value}"

# case id -> (value, outcome under each rule). A float outcome is the stored
# value; a string is an InvalidParameterError text; a tuple is another
# exception type and its text.
CASES = {
    "int": (3, {"nonnegative": 3.0, "positive": 3.0, "measured": 3.0}),
    "bool-true": (True, {"nonnegative": 1.0, "positive": 1.0, "measured": 1.0}),
    "bool-false": (False, {"nonnegative": 0.0, "positive": POSITIVE, "measured": POSITIVE}),
    "numeric-str": ("2.5", {"nonnegative": 2.5, "positive": 2.5, "measured": 2.5}),
    "word-str": (
        "abc",
        dict.fromkeys(
            ("nonnegative", "positive", "measured"),
            (ValueError, "could not convert string to float: 'abc'"),
        ),
    ),
    "float-subclass": (Real(1.5), {"nonnegative": 1.5, "positive": 1.5, "measured": 1.5}),
    "negative-float-subclass": (
        Real(-1.5), {"nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE}
    ),
    "negative-zero": (-0.0, {"nonnegative": -0.0, "positive": POSITIVE, "measured": POSITIVE}),
    "positive-zero": (0.0, {"nonnegative": 0.0, "positive": POSITIVE, "measured": POSITIVE}),
    "subnormal": (5e-324, {"nonnegative": 5e-324, "positive": 5e-324, "measured": 5e-324}),
    "largest-float": (
        1.7976931348623157e308,
        dict.fromkeys(("nonnegative", "positive", "measured"), 1.7976931348623157e308),
    ),
    "nan": (math.nan, {"nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE}),
    "inf": (math.inf, {"nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE}),
    "minus-inf": (-math.inf, {"nonnegative": FINITE, "positive": FINITE, "measured": POSITIVE}),
    "negative": (-1.0, {"nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE}),
    "negative-int": (-2, {"nonnegative": NONNEGATIVE, "positive": POSITIVE, "measured": POSITIVE}),
    "huge-int": (
        10**400,
        dict.fromkeys(
            ("nonnegative", "positive", "measured"),
            (OverflowError, "int too large to convert to float"),
        ),
    ),
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

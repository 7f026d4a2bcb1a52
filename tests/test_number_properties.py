"""Property test: every number respfit takes in passes the one check, model.real.

Each numeric field of Constants, ModelParams, State and Dataset, each
argument of check_sampling, each component of a start point and each
coordinate of a history description is drawn from Python and NumPy numbers,
bools, strings, None and the float edges (non-finite, huge, subnormal,
negative). The call either holds the value as a Python float equal to it
bit for bit (a Python int for seeds and counts), or raises ConfigError whose
message opens with the field's name; no drawn value raises TypeError, which
README keeps for an object of the wrong type, such as a constants that is
not a Constants. The rule is written out here by type, independently of the
program: Python ints and floats and NumPy integer and floating scalars are
numbers; bools, NumPy bools, strings, None and sequences are not.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from respfit import (  # noqa: E402
    ConfigError,
    Constants,
    ModelParams,
    State,
    history_from_description,
)
from respfit.data import MAX_POINTS, Dataset, check_sampling  # noqa: E402
from respfit.fitting import start_point  # noqa: E402

EDGES = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, -1.0, 1, 0, -3,
    2**64 - 1, 2**64, 10**400, -(10**400),
    np.float16(0.1), np.float32(0.2), np.float32(np.inf), np.float64(np.nan), np.float64(-2.5),
    np.int64(7), np.int64(-7), np.uint64(2**64 - 1), np.float16(-0.0),
    True, False, np.bool_(True), "0.3", "", "nan", None, [1.0], (0.5,),
)
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),
    st.integers(),
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


REFUSED = "refused"  # what a rule returns for a value the call must refuse


def _as_float(value):
    """float(value) if value is a finite number by the rule above, else REFUSED."""
    if not (type(value) in (int, float) or isinstance(value, (np.integer, np.floating))):
        return REFUSED
    try:
        v = float(value)
    except OverflowError:
        return REFUSED
    return v if math.isfinite(v) else REFUSED


def _positive(value):
    v = _as_float(value)
    return v if v != REFUSED and v > 0.0 else REFUSED


def _nonnegative(value):
    v = _as_float(value)
    return v if v != REFUSED and v >= 0.0 else REFUSED


def _integer(lo, hi):
    def rule(value):
        integral = type(value) is int or isinstance(value, np.integer)
        return int(value) if integral and lo <= value <= hi else REFUSED

    return rule


_seed = _integer(0, 2**64 - 1)
_count = _integer(2, MAX_POINTS)


def _optional_seed(value):
    return None if value is None else _seed(value)


_T = np.array([0.0, 1.0, 2.0])
INTS = ("n_points", "seed")


def _constants(**kw) -> dict:
    return asdict(Constants(**kw))


def _params(**kw) -> dict:
    p = ModelParams(**{"alpha": 0.5, "beta": 0.8, **kw})
    return {"alpha": p.alpha, "beta": p.beta}


def _state(**kw) -> dict:
    return asdict(State(**{"x": 35.0, "y": 35.0, **kw}))


def _dataset(**kw) -> dict:
    ds = Dataset(_T, _T, _T, **{"noise_sigma": 0.1, "seed": 1, **kw})
    return {"noise_sigma": ds.noise_sigma, "seed": ds.seed}


def _sampling(**kw) -> dict:
    return dict(zip(("n_points", "sigma", "seed"), check_sampling(
        **{"n_points": 11, "sigma": 0.2, "seed": 1, **kw})))


def _start_point(p0_alpha=0.3, p0_beta=0.5) -> dict:
    p = start_point((p0_alpha, p0_beta))
    assert p.dtype == np.float64 and p.shape == (2,)
    return dict(zip(("p0_alpha", "p0_beta"), p.tolist()))


def _history(**kw) -> dict:
    return asdict(history_from_description({"kind": "constant", "x": 35.0, "y": 35.0, **kw}).state)


# (call, field, rule): call(**{field: value}) returns the numbers the result
# holds by name, and rule(value) the one it must hold, or REFUSED
TARGETS = [
    (_constants, "tau", _positive),
    (_constants, "vent_gain", _positive),
    (_constants, "vent_rate", _positive),
    (_constants, "vent_offset", _as_float),
    (_params, "alpha", _positive),
    (_params, "beta", _positive),
    (_state, "x", _as_float),
    (_state, "y", _as_float),
    (_dataset, "noise_sigma", _nonnegative),
    (_dataset, "seed", _optional_seed),
    (_sampling, "n_points", _count),
    (_sampling, "sigma", _nonnegative),
    (_sampling, "seed", _seed),
    (_start_point, "p0_alpha", _as_float),
    (_start_point, "p0_beta", _as_float),
    (_history, "x", _as_float),
    (_history, "y", _as_float),
]


def _prefix(call, field) -> str:
    """How the ConfigError for field opens."""
    if call is _start_point:
        return "p0_alpha, p0_beta: "
    return ("history." if call is _history else "") + f"{field}: "


def _same(held, expected) -> bool:
    """held is exactly a Python int equal to an int expected, or a float with expected's bits."""
    if expected is None:
        return held is None
    if type(expected) is int:
        return type(held) is int and held == expected
    return type(held) is float and struct.pack("<d", held) == struct.pack("<d", expected)


@pytest.mark.parametrize(
    "call,field,rule", TARGETS, ids=[f"{c.__name__[1:]}.{f}" for c, f, _ in TARGETS]
)
@settings(max_examples=100, deadline=None)
@given(value=VALUES)
def test_each_number_is_held_as_a_python_float_or_refused_by_name(call, field, rule, value):
    expected = rule(value)
    if expected == REFUSED:
        with pytest.raises(ConfigError) as err:
            call(**{field: value})
        assert str(err.value).startswith(_prefix(call, field)), str(err.value)
        return
    held = call(**{field: value})
    assert _same(held[field], expected), (held, expected)
    # and every other number it holds is a Python float, or an int for a count or seed
    assert all(
        type(v) is (int if k in INTS else float) for k, v in held.items() if v is not None
    ), held

"""Property test: every number respfit takes in passes its check, model.real or model.count.

Each numeric field of Constants, ModelParams, State and Dataset, each
argument of check_sampling, each component of a start point and each
coordinate of a history description, the window (t0, t_end,
steps_per_delay) of Grid and solve_dde and each trial gain of
ResidualProblem.residuals is drawn from Python and NumPy numbers, bools,
strings, None and the float edges (non-finite, huge, subnormal, negative).
The call either holds the value as a Python float equal to it bit for bit
(a Python int for seeds and counts), or raises ConfigError whose message
opens with the field's name; no drawn value raises TypeError, which README
keeps for an object of the wrong type, such as a constants that is not a
Constants. A trial gain is held by the kernel it is handed to, and one that
is not finite raises NonFiniteError there. The rule is written out here by
type, independently of the program: Python ints and floats and NumPy integer
and floating scalars are numbers; bools, NumPy bools, strings, None and
sequences are not.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from respfit import (  # noqa: E402
    ConfigError,
    ConstantHistory,
    Constants,
    Grid,
    ModelParams,
    NonFiniteError,
    State,
    backend,
    history_from_description,
    solve_dde,
)
from respfit.data import MAX_POINTS, Dataset, check_sampling  # noqa: E402
from respfit.fitting import ResidualProblem, start_point  # noqa: E402
from respfit.solver import MAX_STEPS  # noqa: E402

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
NONFINITE = "non-finite"  # and for a trial gain the kernel must report as a blow-up


def _number(value) -> bool:
    """Whether value is a number by the rule above."""
    return type(value) in (int, float) or isinstance(value, (np.integer, np.floating))


def _as_float(value):
    """float(value) if value is a finite number by the rule above, else REFUSED."""
    if not _number(value):
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


def _trial(value):
    """A trial gain: float(value) for a finite number, NONFINITE for any other number."""
    v = _as_float(value)
    return v if v != REFUSED else NONFINITE if _number(value) else REFUSED


def _last_node(value):
    """A grid's t_end, its last node t0 + n*h: the number, but +0.0 for a -0.0."""
    v = _as_float(value)
    return v if v == REFUSED else v + 0.0


_seed = _integer(0, 2**64 - 1)
_count = _integer(2, MAX_POINTS)
_steps = _integer(2, MAX_STEPS)


def _optional_seed(value):
    return None if value is None else _seed(value)


_T = np.array([0.0, 1.0, 2.0])
INTS = ("n_points", "seed", "steps_per_delay")
_HIST = ConstantHistory(State(35.0, 35.0))


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


def _window(**kw) -> dict:
    """Grid's tau and window for one drawn argument, the others set from it as the rules read it.

    A number the rules accept then makes a window of whole steps (256 of
    them, or 2 for a drawn steps_per_delay), whose last node is a drawn
    t_end exactly, unless its magnitude leaves no such window in the float
    range or no step that resolves its times.
    """
    [(field, value)] = kw.items()
    if field == "steps_per_delay":
        k = _steps(value)
        return {"tau": 1.0, "t0": 0.0, "t_end": 2.0 / (50 if k == REFUSED else k), field: value}
    v = _as_float(value)
    v = 1.0 if v == REFUSED else v
    if field == "t0":
        s = max(abs(v), 1.0)
        return {"tau": s / 4, "t0": value, "t_end": v + s, "steps_per_delay": 64}
    s = abs(v) or 1.0  # t0 + 256 * (s / 256) is v exactly
    return {"tau": s / 4, "t0": v - s, "t_end": value, "steps_per_delay": 64}


def _held_window(grid) -> dict:
    return {"t0": grid.t0, "t_end": grid.t_end, "steps_per_delay": grid.steps_per_delay}


def _grid(**kw) -> dict:
    w = _window(**kw)
    return _held_window(Grid(Constants(tau=w.pop("tau")), _HIST, **w))


def _solve(**kw) -> dict:
    w = _window(**kw)
    # gains so small that x' = y' = 1 to the last bit: no window makes the state overflow
    tiny = 5e-324
    params = ModelParams(tiny, tiny, Constants(w.pop("tau"), vent_gain=tiny, vent_rate=tiny))
    return _held_window(solve_dde(params, _HIST, **w).grid)


_PROBLEM = ResidualProblem(
    Dataset(_T + 1.0, _T + 35.0, _T + 35.0, 0.0), Grid(Constants(), _HIST, 0.0, 3.0, 10)
)


def _residuals(alpha=0.5, beta=0.8) -> dict:
    """The gains residuals hands the kernel, which may still find a finite trial blows up."""
    seen = {}
    kernel = backend.active

    def integrate(a, b, *args):
        seen.update(alpha=a, beta=b)
        return kernel.integrate(a, b, *args)

    with mock.patch.object(backend, "active", SimpleNamespace(integrate=integrate)):
        try:
            _PROBLEM.residuals((alpha, beta))
        except NonFiniteError:
            if not (seen and all(map(math.isfinite, seen.values()))):
                raise
    return seen


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
    (_grid, "t0", _as_float),
    (_grid, "t_end", _last_node),
    (_grid, "steps_per_delay", _steps),
    (_solve, "t0", _as_float),
    (_solve, "t_end", _last_node),
    (_solve, "steps_per_delay", _steps),
    (_residuals, "alpha", _trial),
    (_residuals, "beta", _trial),
]
# calls whose other arguments leave no window of whole steps for a drawn end
# of some magnitudes; they then raise a window error, never the number checks'
WINDOWS = (_grid, _solve)


def _prefix(call, field) -> str:
    """How the ConfigError for field opens."""
    if call is _start_point:
        return "p0_alpha, p0_beta: "
    if call is _residuals:
        return "p: "
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
    if expected == NONFINITE:
        with pytest.raises(NonFiniteError):
            call(**{field: value})
        return
    if expected == REFUSED:
        with pytest.raises(ConfigError) as err:
            call(**{field: value})
        assert str(err.value).startswith(_prefix(call, field)), str(err.value)
        return
    try:
        held = call(**{field: value})
    except ConfigError as exc:  # an off-grid window is one too
        assert call in WINDOWS and not str(exc).startswith(f"{field}: must be"), str(exc)
        return
    assert _same(held[field], expected), (held, expected)
    # and every other number it holds is a Python float, or an int for a count or seed
    assert all(
        type(v) is (int if k in INTS else float) for k, v in held.items() if v is not None
    ), held

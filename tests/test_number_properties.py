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

The second half draws whole calls of generate_dataset, equilibrium_solve,
solve_lm and solve_trust_region, objects of the wrong type among their
arguments (see the comment there).
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
    RespfitError,
    State,
    backend,
    equilibrium_solve,
    history_from_description,
    solve_dde,
    solve_lm,
    solve_trust_region,
)
from respfit.data import MAX_POINTS, Dataset, check_sampling, generate_dataset  # noqa: E402
from respfit.fitting import FitResult, ResidualProblem, Termination, start_point  # noqa: E402
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


# Item 2's calls: generate_dataset, equilibrium_solve, solve_lm and
# solve_trust_region, with drawn arguments, start points of the wrong length
# and windows off the step grid among them. Each test runs once with every
# argument of its type and once per argument drawn from OBJECTS instead. A
# call returns a result that holds what it says, or raises a RespfitError, or
# a TypeError naming the argument of another type. Windows span at most 12
# time units at 60 steps per delay and datasets hold at most 120 points, so a
# draw costs milliseconds; the sizes past the caps are drawn as edges, which
# the calls refuse before they allocate.

OBJECTS = st.sampled_from(
    (None, 0.5, (0.5, 0.8), [35.0, 35.0], "ex1", State(35.0, 35.0), Constants())
)


def _mostly(draw, ordinary, edges, one_in=10):
    """A draw from ordinary, or in about one draw of one_in from edges.

    The choice is a middle value of a range, since Hypothesis favours its ends.
    """
    return draw(edges) if draw(st.integers(1, one_in)) == one_in // 2 + 1 else draw(ordinary)


@st.composite
def _params(draw):
    """ModelParams of ordinary or extreme gains and constants."""
    def gain(lo, hi):
        return _mostly(draw, st.floats(lo, hi), st.sampled_from((5e-324, 1e-12, 1e12, 1e308)))

    c = Constants(draw(st.floats(0.05, 5.0)), gain(0.01, 1.0), gain(0.01, 0.2),
                  _mostly(draw, st.floats(0.0, 200.0), st.floats(-1e3, 1e3)))
    return ModelParams(gain(0.05, 5.0), gain(0.05, 5.0), c)


LEVELS = st.floats(-50.0, 150.0)
HISTORIES = st.builds(ConstantHistory, st.builds(State, LEVELS, LEVELS))


def _outcome(call, wrong):
    """call()'s result, or None for a RespfitError or a TypeError that names wrong.

    With an argument of another type, wrong, the call must raise.
    """
    try:
        result = call()
    except RespfitError:
        return None
    except TypeError as exc:
        assert wrong is not None and str(exc).startswith(f"{wrong} must "), exc
        return None
    assert wrong is None, result
    return result


@pytest.mark.parametrize("wrong", [None, "params"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equilibrium_holds_its_root_or_raises_a_named_error(wrong, data):
    params = data.draw(OBJECTS if wrong else _params())
    eq = _outcome(lambda: equilibrium_solve(params), wrong)
    if eq is not None:
        assert math.isfinite(eq.x_star) and math.isfinite(eq.y_star) and eq.x_star > 0.0
        assert eq.y_star == params.alpha / params.beta * eq.x_star
        assert eq.residual_norm <= 1e-12


@st.composite
def _sampling_call(draw, wrong):
    """generate_dataset's arguments: a window on the step grid or off it, and the sampling."""
    params = draw(OBJECTS if wrong == "params" else _params())
    tau = params.constants.tau if isinstance(params, ModelParams) else 1.0
    spd = _mostly(draw, st.integers(2, 60), st.sampled_from((0, 1, 2.5, None, "50", True)))
    t0 = draw(st.floats(-10.0, 10.0))
    h = tau / spd if isinstance(spd, int) and spd > 0 else 0.1
    steps = _mostly(draw, st.integers(1, int(12.0 / h)), st.integers(-2, 0))
    off_grid = st.one_of(
        st.just(t0 + (steps + 0.5) * h),
        st.floats(t0 - 1.0, t0 + 12.0),
        st.sampled_from((math.nan, 1e9)),
    )
    t_end = _mostly(draw, st.just(t0 + steps * h), off_grid, one_in=4)
    n_points = _mostly(draw, st.integers(2, 120), st.sampled_from((-1, 0, 1, MAX_POINTS + 1, 2.0)))
    sigma = _mostly(draw, st.floats(0.0, 10.0), st.one_of(st.floats(), st.just(1e200)))
    seed = _mostly(draw, st.integers(0, 2**64 - 1), st.sampled_from((-1, 2**64, None, 1.5)))
    history = draw(OBJECTS if wrong == "history" else HISTORIES)
    return params, history, t0, t_end, n_points, sigma, seed, spd


@pytest.mark.parametrize("wrong", [None, "params", "history"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_datasets_hold_their_arguments_or_raise_a_named_error(wrong, data):
    args = data.draw(_sampling_call(wrong))
    params, _, t0, t_end, n_points, sigma, seed, _ = args
    ds = _outcome(lambda: generate_dataset(*args), wrong)
    if ds is not None:
        assert isinstance(ds, Dataset) and len(ds) == n_points and ds.truth is params
        assert ds.times[0] == t0 and ds.times[-1] == t_end
        assert ds.noise_sigma == sigma and ds.seed == seed
        assert np.all(np.isfinite(ds.x_obs)) and np.all(np.isfinite(ds.y_obs))


_FIT_DATA = Dataset(_T + 1.0, np.array([20.0, 24.0, 26.0]), np.array([30.0, 31.0, 29.0]), 0.1)
_FIT_PROBLEM = ResidualProblem(_FIT_DATA, Grid(Constants(), _HIST, 0.0, 3.0, 10))


@st.composite
def _start_points(draw):
    """Two coordinates, as a tuple or an array, or a start point of another length or type."""
    def coord():
        return _mostly(draw, st.floats(-3.0, 3.0), st.one_of(st.floats(), st.just(1e150)))

    two = (coord(), coord())
    other = st.one_of(st.lists(st.floats(-3.0, 3.0), max_size=3), VALUES)
    return _mostly(draw, st.sampled_from((two, np.array(two))), other)


@pytest.mark.parametrize("wrong", [None, "problem"])
@pytest.mark.parametrize("solver", [solve_lm, solve_trust_region])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fits_report_their_optimum_or_raise_a_named_error(solver, wrong, data):
    problem = data.draw(st.one_of(OBJECTS, st.just(_FIT_DATA)) if wrong else st.just(_FIT_PROBLEM))
    p0 = data.draw(_start_points())
    fit = _outcome(lambda: solver(problem, p0), wrong)
    if fit is not None:
        assert isinstance(fit, FitResult) and isinstance(fit.termination, Termination)
        assert all(map(math.isfinite, (*fit.best_fit, fit.final_residual)))
        # the reported cost is the cost at the reported point, bit for bit
        r = problem.residuals(np.array(fit.best_fit))
        assert fit.final_residual == float(r @ r) == fit.trace[-1].residual
        assert [rec.iteration for rec in fit.trace] == list(range(len(fit.trace)))

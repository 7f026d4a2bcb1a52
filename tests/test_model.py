import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respfit import ConfigError, Constants, ModelParams, NoRootError, State, equilibrium_solve


def _vent(xd, yd, gain=0.14, rate=0.05, offset=100.0):
    return gain * math.exp(-rate * (offset - yd)) * xd


def _equilibrium_oracle(alpha, beta, gain=0.14, rate=0.05, offset=100.0):
    """Brute-force bisection on f(x) = 1 - alpha*V(x, (alpha/beta)x)*x.

    Independent of the package's root finder: scans a dense log grid for the
    sign change, then bisects to machine precision.
    """

    def f(x):
        yd = (alpha / beta) * x
        arg = -rate * (offset - yd)
        # avoid overflow on the scan grid; f is negative wherever V*x is huge
        if arg > 700.0:
            return -math.inf
        return 1.0 - alpha * _vent(x, yd, gain, rate, offset) * x

    grid = [10.0 ** (-6 + 9 * i / 4000) for i in range(4001)]
    lo = hi = None
    for a, b in zip(grid, grid[1:]):
        if f(a) > 0.0 >= f(b):
            lo, hi = a, b
            break
    assert lo is not None, "oracle found no sign change"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_ventilation_formula():
    assert Constants().ventilation(35.0, 35.0) == pytest.approx(_vent(35.0, 35.0), rel=1e-15)


def test_ventilation_honors_custom_constants():
    constants = Constants(vent_gain=0.2, vent_rate=0.07, vent_offset=90.0)
    got = constants.ventilation(20.0, 30.0)
    assert got == pytest.approx(_vent(20.0, 30.0, 0.2, 0.07, 90.0), rel=1e-15)


def test_ventilation_is_total_under_huge_delayed_oxygen():
    # the exponential saturates to inf instead of raising
    assert Constants().ventilation(1.0, 1e7) == math.inf


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.5, 0.8), (0.8, 0.5), (1.0, 1.0), (0.05, 2.0), (3.0, 0.07)],
)
def test_equilibrium_matches_bisection_oracle(alpha, beta):
    want_x = _equilibrium_oracle(alpha, beta)
    eq = equilibrium_solve(ModelParams(alpha=alpha, beta=beta))
    assert eq.x_star == pytest.approx(want_x, rel=1e-10)
    assert eq.y_star == pytest.approx((alpha / beta) * want_x, rel=1e-10)


def test_equilibrium_reference_point():
    # alpha=0.5, beta=0.8 with default ventilation constants
    eq = equilibrium_solve(ModelParams(alpha=0.5, beta=0.8))
    assert eq.x_star == pytest.approx(29.1842, abs=5e-5)
    assert eq.y_star == pytest.approx(18.2401, abs=5e-5)


def test_equilibrium_zeroes_the_vector_field():
    p = ModelParams(alpha=0.7, beta=1.3)
    eq = equilibrium_solve(p)
    v = _vent(eq.x_star, eq.y_star)
    dx = 1.0 - p.alpha * v * eq.x_star
    dy = 1.0 - p.beta * v * eq.y_star
    assert abs(dx) < 1e-10
    assert abs(dy) < 1e-10
    assert eq.residual_norm < 1e-10


def test_equilibrium_reports_no_root_for_bad_bracket():
    # with a vanishing alpha the root lies above the fixed bracket's upper end
    with pytest.raises(NoRootError):
        equilibrium_solve(ModelParams(alpha=1e-12, beta=1.0))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 5.0),
    beta=st.floats(0.05, 5.0),
)
def test_equilibrium_property(alpha, beta):
    p = ModelParams(alpha=alpha, beta=beta)
    eq = equilibrium_solve(p)
    v = _vent(eq.x_star, eq.y_star)
    assert abs(1.0 - alpha * v * eq.x_star) < 1e-9
    assert eq.y_star == pytest.approx((alpha / beta) * eq.x_star, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0, "beta": 1.0},
        {"alpha": -0.5, "beta": 1.0},
        {"alpha": 1.0, "beta": 0.0},
        {"alpha": 1.0, "beta": 1.0, "constants": {"tau": -1.0}},
        {"alpha": math.nan, "beta": 1.0},
        {"alpha": 1.0, "beta": math.inf},
        {"alpha": 1.0, "beta": 1.0, "constants": {"vent_gain": 0.0}},
        {"alpha": 1.0, "beta": 1.0, "constants": {"vent_rate": -0.05}},
        {"alpha": 1.0, "beta": 1.0, "constants": {"vent_offset": math.inf}},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(kwargs["alpha"], kwargs["beta"], Constants(**kwargs.get("constants", {})))


def test_params_take_the_constants_as_one_object():
    # a bare number where the Constants belong is rejected, not taken as tau
    with pytest.raises(TypeError):
        ModelParams(0.5, 0.8, 1.0)


def test_state_must_be_finite():
    with pytest.raises(ConfigError, match="^x: must be finite"):
        State(math.nan, 1.0)
    with pytest.raises(ConfigError, match="^y: must be finite"):
        State(1.0, math.inf)


def test_params_are_immutable():
    p = ModelParams(alpha=0.5, beta=0.8)
    with pytest.raises(AttributeError):
        p.alpha = 1.0

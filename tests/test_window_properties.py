"""Property test: any window runs, on the grid that ends at the first node at or past t_end.

Windows are drawn three ways: whole, built as t0 + n*h; within 1.5 time
slacks of a whole count, on either side; and of an arbitrary width. Steps
per delay reach past _BATCH_MIN_DELAY, from which the pure-Python kernel
steps a delay at a time, and a window holds at most 400 steps, so a draw
costs milliseconds, an LM fit on each backend included.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import needs_kernel  # noqa: E402

from respfit import (  # noqa: E402
    ConstantHistory,
    Constants,
    Grid,
    ModelParams,
    RespfitError,
    State,
    backend,
    generate_dataset,
    solve_dde,
    solve_lm,
)
from respfit._stepper_py import _BATCH_MIN_DELAY  # noqa: E402
from respfit.fitting import ResidualProblem  # noqa: E402
from respfit.solver import time_slack  # noqa: E402

HIST = ConstantHistory(State(35.0, 35.0))
MAX_WINDOW_STEPS = 400


@st.composite
def windows(draw):
    """(tau, steps_per_delay, t0, t_end, n), n the step count of a whole window, else None."""
    tau = draw(st.sampled_from([1.0, 0.5, 2.0, 0.25, 0.7]))
    spd = draw(st.one_of(st.integers(2, 60), st.integers(_BATCH_MIN_DELAY, _BATCH_MIN_DELAY + 64)))
    h = tau / spd
    t0 = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    kind = draw(st.sampled_from(["whole", "near", "any"]))
    if kind == "any":
        t_end = t0 + draw(st.floats(0.0, MAX_WINDOW_STEPS * h, exclude_min=True))
        assume(t_end > t0)
        return tau, spd, t0, t_end, None
    n = draw(st.integers(1, MAX_WINDOW_STEPS))
    t_end = t0 + n * h
    if kind == "near":
        return tau, spd, t0, t_end + draw(st.floats(-1.5, 1.5)) * time_slack(t0, t_end), None
    return tau, spd, t0, t_end, n


@settings(max_examples=1000, deadline=None)
@given(windows())
# t0 + h was stored as 0.5, so grid.t_end - h gives 0.0, past a subnormal
# negative t_end, although the stored node before it, t0, lies before t_end
@example(window=(1.0, 2, -2.2250738585e-313, -2.22507385847e-313, None))
# the float t_end - slack rounds down to the node 2.0, which exactly lies below it
@example(window=(1.0, 2, 1.0, 2.000000002, None))
# the grid's (t_end - t0 - slack) / h rounds to whole step counts, although the
# node 1.0 lies below t_end - slack, and the node 2.25 does reach it
@example(window=(1.0, 2, 0.0, 1.000000001, None))
@example(window=(0.7, 2, -3.0, 2.250000003, None))
def test_the_grid_ends_at_the_first_node_at_or_past_t_end(window):
    tau, spd, t0, t_end, n = window
    grid = Grid(Constants(tau=tau), HIST, t0, t_end, spd)
    h, slack = tau / spd, time_slack(t0, t_end)
    assert grid.t_end == grid.times[-1] == t0 + grid.n * h
    # t_end less the slack, exactly: the float t_end - slack rounds onto a node
    edge = Fraction(t_end) - Fraction(slack)
    # in [t_end - slack, t_end + h), the upper end read on the stored node
    # before the last, since grid.t_end - h rounds
    assert edge <= grid.t_end and grid.times[-2] < t_end
    # the node before it does not reach t_end less the slack
    assert grid.n == 1 or t0 + (grid.n - 1) * h < edge
    if n is not None:
        # a whole window keeps the step count that rounding gave it
        assert grid.n == n == round((t_end - t0) / h)


def _pipeline(truth, t0, t_end, spd, n_points, sigma, p0):
    """A dataset over linspace(t0, t_end), its residuals and an LM fit, or the named error."""
    try:
        ds = generate_dataset(truth, HIST, t0, t_end, n_points, sigma, 1, spd)
        problem = ResidualProblem(ds, Grid(truth.constants, HIST, t0, t_end, spd))
        r = problem.residuals(p0)
        fit = solve_lm(problem, p0)
    except RespfitError as exc:
        return type(exc).__name__
    if sigma == 0.0:
        # the samples are a solve on the whole window to the grid's last node
        whole = solve_dde(truth, HIST, t0, problem.grid.t_end, spd)
        assert np.array_equal(whole.eval_many(ds.times), np.stack([ds.x_obs, ds.y_obs]))
    return ds.x_obs.tobytes(), ds.y_obs.tobytes(), r.tobytes(), fit.best_fit, fit.trace


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    window=windows(),
    gains=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    p0=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    n_points=st.integers(2, 60),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_a_window_off_the_step_grid_fits_alike_on_both_backends(window, gains, p0, n_points, sigma):
    tau, spd, t0, t_end, _ = window
    truth = ModelParams(*gains, Constants(tau=tau))
    outcomes = []
    for name in ("python", "compiled"):
        backend.select(name)
        outcomes.append(_pipeline(truth, t0, t_end, spd, n_points, sigma, p0))
    assert outcomes[0] == outcomes[1]

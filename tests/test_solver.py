import math

import numpy as np
import pytest

from respfit import (
    ConfigError,
    ConstantHistory,
    Constants,
    Grid,
    InvalidGridError,
    ModelParams,
    NonFiniteError,
    NoRootError,
    OutOfDomainError,
    SingularNormalEquationsError,
    SolverError,
    State,
    Trajectory,
    history_from_description,
    solve_dde,
    solve_dde_raw,
)
from respfit.solver import MAX_STEPS, grid_steps

HIST = ConstantHistory(State(35.0, 35.0))


def _first_interval_exact(alpha, beta, x0, y0, t):
    """Closed-form solution on [0, tau] with a constant history.

    The delayed state is frozen there, so the ventilation term is a constant
    and each component solves u' = 1 - c*u.
    """
    v = 0.14 * math.exp(-0.05 * (100.0 - y0)) * x0
    cx = alpha * v
    cy = beta * v
    x = 1.0 / cx + (x0 - 1.0 / cx) * math.exp(-cx * t)
    y = 1.0 / cy + (y0 - 1.0 / cy) * math.exp(-cy * t)
    return x, y


def test_first_delay_interval_matches_closed_form():
    p = ModelParams(alpha=0.5, beta=0.8)
    traj = solve_dde(p, HIST, 0.0, 5.0)
    # 0.77 sits strictly between grid nodes, exercising the Hermite evaluator
    ts = (0.25, 0.5, 0.77, 1.0)
    for t, x, y in zip(ts, *traj.eval_many(np.array(ts))):
        want_x, want_y = _first_interval_exact(0.5, 0.8, 35.0, 35.0, t)
        assert x == pytest.approx(want_x, abs=1e-9)
        assert y == pytest.approx(want_y, abs=1e-9)


def test_grid_refinement_is_fourth_order():
    p = ModelParams(alpha=0.5, beta=0.8)
    ref = solve_dde(p, HIST, 0.0, 5.0, steps_per_delay=800)
    errs = []
    for spd in (10, 20, 40):
        t = solve_dde(p, HIST, 0.0, 5.0, steps_per_delay=spd)
        rx, ry = ref.eval_many(t.grid.times)
        errs.append(max(np.max(np.abs(t.x - rx)), np.max(np.abs(t.y - ry))))
    assert math.log2(errs[0] / errs[1]) > 3.5
    assert math.log2(errs[1] / errs[2]) > 3.5


def test_eval_is_exact_on_grid_nodes():
    p = ModelParams(alpha=0.5, beta=0.8)
    traj = solve_dde(p, HIST, 0.0, 5.0)
    ks = [0, 1, 37, 125, 250]
    xs, ys = traj.eval_many(traj.grid.times[ks])
    assert np.array_equal(xs, traj.x[ks])
    assert np.array_equal(ys, traj.y[ks])


def test_batched_eval_many_matches_one_time_calls():
    p = ModelParams(alpha=1.0, beta=0.4)
    traj = solve_dde(p, HIST, 0.0, 5.0)
    ts = np.linspace(-1.0, 5.0, 173)
    xs, ys = traj.eval_many(ts)
    for t, x, y in zip(ts, xs, ys):
        x1, y1 = traj.eval_many(np.array([t]))
        assert x1.shape == y1.shape == (1,)
        assert (x1[0], y1[0]) == (x, y)


def test_plan_refuses_times_that_are_not_1d():
    grid = Grid(Constants(), HIST, 0.0, 5.0, 50)
    traj = solve_dde_raw(0.5, 0.8, grid)
    for times in (np.array(1.0), np.linspace(0.0, 5.0, 6).reshape(2, 3)):
        with pytest.raises(ConfigError, match=r"^times: must be a 1-d array, got shape "):
            grid.plan(times)
        with pytest.raises(ConfigError, match="^times: "):
            traj.eval_many(times)


def _reference_eval_many(traj, times):
    """Trajectory.eval_many as it was before sampling was split into plan and gather."""
    ts = np.asarray(times, dtype=float)
    xs = np.empty_like(ts)
    ys = np.empty_like(ts)
    grid = traj.grid
    in_history = ts <= grid.t0
    if np.any(in_history):
        xs[in_history] = grid.history.state.x
        ys[in_history] = grid.history.state.y
    on_grid = ~in_history
    if np.any(on_grid):
        tq = np.minimum(ts[on_grid], grid.times[-1])
        j = np.searchsorted(grid.times, tq, side="right") - 1
        j = np.clip(j, 0, len(grid.times) - 2)
        s = (tq - grid.times[j]) / grid.step
        h00 = (2.0 * s - 3.0) * s * s + 1.0
        h10 = ((s - 2.0) * s + 1.0) * s
        h01 = (3.0 - 2.0 * s) * s * s
        h11 = (s - 1.0) * s * s
        xs[on_grid] = (
            h00 * traj.x[j]
            + h10 * grid.step * traj.dx[j]
            + h01 * traj.x[j + 1]
            + h11 * grid.step * traj.dx[j + 1]
        )
        ys[on_grid] = (
            h00 * traj.y[j]
            + h10 * grid.step * traj.dy[j]
            + h01 * traj.y[j + 1]
            + h11 * grid.step * traj.dy[j + 1]
        )
    return xs, ys


@pytest.mark.parametrize(
    "hist",
    [
        HIST,
        ConstantHistory(State(41.0, 29.0)),
        # node 0 holds -0.0, and weights times node 0 would read 0.0 there
        ConstantHistory(State(-0.0, -0.0)),
    ],
)
def test_planned_sampling_matches_reference_bit_for_bit(hist):
    rng = np.random.default_rng(11)
    first = solve_dde(ModelParams(alpha=0.5, beta=0.8), hist, 0.0, 5.0)
    t0, tau = first.grid.t0, first.grid.constants.tau
    # unsorted times: history, node times, exactly t0 - tau and t0, the end
    # with roundoff, between nodes
    ts = np.concatenate(
        [
            rng.uniform(-1.0, 5.0, 200),
            first.grid.times[::7],
            [t0 - tau, t0, 5.0 - 1e-12, 5.0 + 1e-12],
        ]
    )
    rng.shuffle(ts)
    plan = first.grid.plan(ts)
    assert len(plan) == len(ts)
    for alpha, beta in ((0.5, 0.8), (1.7, 0.3), (0.05, 2.2)):
        traj = solve_dde_raw(alpha, beta, first.grid)
        want_x, want_y = _reference_eval_many(traj, ts)
        for xs, ys in (traj.eval_many(ts), traj.eval_many(plan)):
            assert xs.tobytes() == want_x.tobytes()
            assert ys.tobytes() == want_y.tobytes()
    empty = first.grid.plan(np.array([]))
    assert len(empty) == 0
    for times in (empty, np.array([])):
        assert first.eval_many(times).shape == (2, 0)


def test_sample_plan_is_bound_to_its_grid():
    p = ModelParams(alpha=0.5, beta=0.8)
    ts = np.linspace(0.0, 4.0, 21)
    grid = Grid(Constants(), HIST, 0.0, 5.0, 50)
    plan = grid.plan(ts)
    same_grid = solve_dde_raw(1.0, 0.4, grid)
    assert np.array_equal(same_grid.eval_many(plan)[0], same_grid.eval_many(ts)[0])
    for other in (
        solve_dde(p, HIST, 0.0, 6.0),  # node count
        solve_dde(p, HIST, 0.0, 5.0, steps_per_delay=25),  # step
        solve_dde(p, HIST, -1.0, 4.0),  # t0
        solve_dde(p, ConstantHistory(State(35.0, 35.0)), 0.0, 5.0),  # history
    ):
        with pytest.raises(ConfigError, match="^plan: "):
            other.eval_many(plan)


def test_eval_in_history_segment():
    p = ModelParams(alpha=0.5, beta=0.8)
    traj = solve_dde(p, HIST, 0.0, 5.0)
    xs, ys = traj.eval_many(np.array([-0.3, 0.0]))
    assert (xs[0], ys[0]) == (35.0, 35.0)
    assert xs[1] == traj.x[0]


def test_eval_outside_domain_raises():
    traj = solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.0)
    for t in (5.001, -1.001, math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfDomainError):
            traj.eval_many(np.array([t]))
        with pytest.raises(OutOfDomainError):
            traj.eval_many(np.array([1.0, t]))


def test_endpoint_roundoff_is_tolerated():
    traj = solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.0)
    ts = np.linspace(0.0, 5.0, 51)  # linspace endpoints carry float noise
    xs, _ = traj.eval_many(ts)
    assert xs[-1] == traj.x[-1]


def test_time_shift_invariance():
    # the system is autonomous, so shifting t0 must reproduce the same states
    p = ModelParams(alpha=0.8, beta=0.5)
    a = solve_dde(p, HIST, 0.0, 5.0)
    b = solve_dde(p, HIST, 2.0, 7.0)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_interval_must_be_whole_number_of_steps():
    with pytest.raises(InvalidGridError):
        solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.013)


@pytest.mark.parametrize("t0", [1e15, -1e15, 1e16, 2e7])
def test_step_must_resolve_times_at_the_window_magnitude(t0):
    # float spacing near 1e15 is 0.125, so nodes 0.02 apart would collapse;
    # near 2e7 the step equals the 1e-9 relative slack of the time checks
    with pytest.raises(InvalidGridError, match="does not resolve"):
        solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, t0, t0 + 5)
    with pytest.raises(InvalidGridError, match="does not resolve"):
        Grid(Constants(), HIST, t0, t0 + 5, 50)


def test_far_window_below_the_slack_keeps_distinct_nodes():
    p = ModelParams(alpha=0.5, beta=0.8)
    near = solve_dde(p, HIST, 0.0, 5.0)
    far = solve_dde(p, HIST, 1e7, 1e7 + 5)
    assert np.all(np.diff(far.grid.times) > 0.0)
    assert np.array_equal(near.x, far.x) and np.array_equal(near.y, far.y)


def test_interval_validation():
    p = ModelParams(alpha=0.5, beta=0.8)
    with pytest.raises(ValueError):
        solve_dde(p, HIST, 5.0, 5.0)
    with pytest.raises(ValueError):
        solve_dde(p, HIST, 0.0, 5.0, steps_per_delay=1)


def test_grid_caps_its_step_counts():
    # one over each cap is refused before a node array is allocated
    assert grid_steps(0.0, MAX_STEPS / 50, 1.0, 50)[3] == MAX_STEPS
    with pytest.raises(ConfigError, match="^t_end: .* more than the 10000000 allowed"):
        Grid(Constants(), HIST, 0.0, (MAX_STEPS + 1) / 50, 50)
    # a whole number of ten steps, so only the cap refuses it
    spd = MAX_STEPS + 1
    with pytest.raises(ConfigError, match="^steps_per_delay: "):
        Grid(Constants(), HIST, 0.0, 10 / spd, spd)
    assert grid_steps(0.0, 10 / MAX_STEPS, 1.0, MAX_STEPS)[3] == 10


def test_grid_holds_its_window_as_checked_python_numbers():
    # t0 = True integrated from 1.0; a float32 t0 was held as np.float32
    p = ModelParams(0.5, 0.8)
    with pytest.raises(ConfigError, match="^t0: "):
        solve_dde(p, HIST, True, 6.0)
    grid = Grid(Constants(), HIST, np.float32(0.1), 5.1, np.int64(50))
    assert type(grid.t0) is float and grid.t0 == float(np.float32(0.1))
    assert type(grid.steps_per_delay) is int and grid.steps_per_delay == 50
    checked = grid_steps(np.float32(0.1), np.float64(5.1), 1.0, np.int64(50))
    assert [type(v) for v in checked] == [float, float, int, int]
    assert checked == (float(np.float32(0.1)), 5.1, 50, 250)


@pytest.mark.parametrize(
    "spd", [50.0, "50", True, np.float64(50.0)], ids=["float", "str", "bool", "float64"]
)
def test_grid_refuses_a_steps_per_delay_that_is_not_an_integer(spd):
    # 50.0 was accepted, although n_points = 51.0 is not; "50" raised TypeError
    with pytest.raises(ConfigError, match="^steps_per_delay: "):
        Grid(Constants(), HIST, 0.0, 5.0, spd)
    with pytest.raises(ConfigError, match="^steps_per_delay: "):
        solve_dde(ModelParams(0.5, 0.8), HIST, 0.0, 5.0, spd)


def test_negative_gain_blowup_is_reported():
    with pytest.raises(NonFiniteError):
        solve_dde_raw(-2.0, -2.0, Grid(Constants(), HIST, 0.0, 40.0, 50))


def test_raw_entry_point_accepts_negative_gains_short_horizon():
    traj = solve_dde_raw(-0.01, 0.5, Grid(Constants(), HIST, 0.0, 1.0, 50))
    assert np.all(np.isfinite(traj.x))


def test_grid_and_solve_refuse_objects_of_another_type():
    # each raised AttributeError, Grid's history only at its first solve
    calls = {
        "constants": lambda: Grid(1.0, HIST, 0.0, 5.0, 50),
        "history": lambda: Grid(Constants(), None, 0.0, 5.0, 50),
        "params": lambda: solve_dde((0.5, 0.8), HIST, 0.0, 5.0),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            call()
    with pytest.raises(TypeError, match="^history must be a ConstantHistory"):
        solve_dde(ModelParams(0.5, 0.8), State(35.0, 35.0), 0.0, 5.0)


def test_trajectory_arrays_are_read_only():
    traj = solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.0)
    with pytest.raises(ValueError):
        traj.x[0] = 0.0


def test_to_csv_roundtrip(tmp_path):
    traj = solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.grid.times)
    assert np.array_equal(data[:, 1], traj.x)
    assert np.array_equal(data[:, 2], traj.y)


def test_history_description_roundtrip():
    assert history_from_description(HIST.describe()) == HIST
    # a malformed description is a configuration error naming the field
    for desc, prefix in [
        ({"kind": "nope", "x": 35.0, "y": 35.0}, "history: unknown kind 'nope'"),
        ({"kind": "tabulated", "times": [-1.0, 0.0], "x": [1.0, 2.0]},
         "history: unknown kind 'tabulated'"),
        ("constant", "history: "),
        ({"x": 35.0, "y": 35.0}, "history: "),
        ({"kind": "constant", "y": 35.0}, "history.x: "),
        ({"kind": "constant", "x": 35.0, "y": "35"}, "history.y: "),
        ({"kind": "constant", "x": True, "y": 35.0}, "history.x: "),
        ({"kind": "constant", "x": 35.0, "y": math.inf}, "history.y: "),
        ({"kind": "constant", "x": [35.0], "y": 35.0}, "history.x: "),
    ]:
        with pytest.raises(ConfigError) as err:
            history_from_description(desc)
        assert str(err.value).startswith(prefix), desc


def test_a_float32_tau_solves_as_the_float_it_holds():
    # tau = np.float32(1.0) once made the step np.float32(0.02), which moved
    # the trajectory by 2.45e-5 without an error
    truth = ModelParams(0.5, 0.8, Constants(tau=np.float32(1.0)))
    traj = solve_dde(truth, HIST, 0.0, 5.0)
    ref = solve_dde(ModelParams(0.5, 0.8), HIST, 0.0, 5.0)
    assert type(traj.grid.step) is float
    for got, want in zip((traj.x, traj.y, traj.dx, traj.dy), (ref.x, ref.y, ref.dx, ref.dy)):
        assert got.tobytes() == want.tobytes()


def test_trajectory_reports_grid_metadata():
    traj = solve_dde(ModelParams(alpha=0.5, beta=0.8), HIST, 0.0, 5.0, steps_per_delay=25)
    assert traj.grid.step == pytest.approx(0.04)
    assert traj.grid.steps_per_delay == 25
    assert len(traj.grid.times) == 126
    assert traj.grid.t_end == traj.grid.times[-1]
    assert isinstance(traj, Trajectory)


def test_window_and_domain_mistakes_are_configuration_errors():
    assert issubclass(InvalidGridError, ConfigError)
    assert issubclass(OutOfDomainError, ConfigError)
    assert not issubclass(InvalidGridError, SolverError)
    assert not issubclass(OutOfDomainError, SolverError)
    # SolverError keeps only the numerical failures
    assert set(SolverError.__subclasses__()) == {
        NonFiniteError,
        NoRootError,
        SingularNormalEquationsError,
    }
    with pytest.raises(OutOfDomainError, match=r"^times: evaluation time outside \[-1, 5\]"):
        Grid(Constants(), HIST, 0.0, 5.0, 50).plan([6.0])


@pytest.mark.parametrize("times", [["0.5", True], ["0.5"], [True, False], np.array([0.5, None])])
def test_plan_refuses_times_that_are_not_numbers(times):
    # ['0.5', True] was planned as [0.5, 1.0] and eval_many returned values there
    grid = Grid(Constants(), HIST, 0.0, 5.0, 50)
    with pytest.raises(ConfigError, match="^times: must hold real numbers"):
        grid.plan(times)
    traj = solve_dde_raw(0.5, 0.8, grid)
    with pytest.raises(ConfigError, match="^times: must hold real numbers"):
        traj.eval_many(times)
    # integer times are numbers
    assert np.array_equal(traj.eval_many([1, 2])[0], traj.eval_many([1.0, 2.0])[0])


@pytest.mark.parametrize(
    "alpha,beta,name", [("0.5", 0.8, "alpha"), (0.5, True, "beta"), (0.5, None, "beta")]
)
def test_raw_entry_point_refuses_gains_that_are_not_numbers(alpha, beta, name):
    # "0.5" was parsed and True integrated as 1.0
    with pytest.raises(ConfigError, match=f"^{name}: must be a real number"):
        solve_dde_raw(alpha, beta, Grid(Constants(), HIST, 0.0, 5.0, 50))


@pytest.mark.parametrize("alpha", [10**400, -(10**400)], ids=["10**400", "-10**400"])
def test_raw_entry_point_reports_a_gain_past_the_float_range_as_a_blow_up(alpha):
    # 10**400 ended in an uncaught OverflowError from float()
    sign = "-" if alpha < 0 else ""
    with pytest.raises(NonFiniteError, match=rf"\(alpha={sign}inf, beta=0.8\)"):
        solve_dde_raw(alpha, 0.8, Grid(Constants(), HIST, 0.0, 5.0, 50))

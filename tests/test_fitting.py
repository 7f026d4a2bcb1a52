import hashlib
import math
import re
from dataclasses import replace

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
    OutOfDomainError,
    SingularNormalEquationsError,
    State,
    fitting,
    solve_dde,
    solve_dde_raw,
)
from respfit.data import Dataset, generate_dataset
from respfit.experiments import PRESETS, resolve_history
from respfit.fitting import (
    FitResult,
    ResidualProblem,
    Termination,
    fd_jacobian,
    solve_lm,
    solve_trust_region,
    write_trace_csv,
)

TRUTH = ModelParams(alpha=0.5, beta=0.8)
HIST = ConstantHistory(State(35.0, 35.0))


@pytest.fixture(scope="module")
def noisy_problem():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.20, 1)
    return ResidualProblem.from_dataset(ds, HIST)


@pytest.fixture(scope="module")
def clean_problem():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 1)
    return ResidualProblem.from_dataset(ds, HIST)


def test_residual_vector_layout(noisy_problem):
    r = noisy_problem.residuals((0.5, 0.8))
    assert r.shape == (102,)
    # first half is x-residuals, second half y-residuals
    traj = solve_dde(TRUTH, HIST, 0.0, 5.0)
    xs, ys = traj.eval_many(noisy_problem.dataset.times)
    assert np.array_equal(r[:51], xs - noisy_problem.dataset.x_obs)
    assert np.array_equal(r[51:], ys - noisy_problem.dataset.y_obs)


_NOT_A_POINT = "p: must be two numbers"


@pytest.mark.parametrize(
    "p,message",
    [
        ([0.5, 0.8, 99.0], _NOT_A_POINT),
        ([0.5], _NOT_A_POINT),
        ([], _NOT_A_POINT),
        (None, _NOT_A_POINT),
        (0.5, _NOT_A_POINT),
        # the gains are solve_dde_raw's to check, and its message names the gain
        (["a", "b"], "alpha: must be a real number"),
        (("0.5", True), "alpha: must be a real number"),
        ((0.5, np.bool_(False)), "beta: must be a real number"),
        ({"a": 0.5, "b": 0.8}, _NOT_A_POINT),
    ],
    ids=[f"p{i}" for i in range(9)],
)
def test_residuals_refuse_a_p_that_is_not_two_numbers(noisy_problem, p, message):
    # [0.5, 0.8, 99] fitted the first two numbers; [0.5] raised IndexError;
    # ("0.5", True) returned the residual at (0.5, 1.0); a dict raised KeyError
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        noisy_problem.residuals(p)


def test_residuals_report_a_gain_past_the_float_range_as_a_blow_up(noisy_problem):
    # the message is the kernel's, from the gain as converted, not from p as given
    with pytest.raises(NonFiniteError, match=r"\(alpha=inf, beta=0.8\)"):
        noisy_problem.residuals((10**400, 0.8))


@pytest.mark.parametrize(
    "p",
    [
        ("0.5", "0.8"),
        np.array([True, False]),
        np.array([0.5, None]),
        (True, 0.8),
        # NumPy reads two ranges as a 2-d array, which raised a bare ValueError
        (range(2), range(2)),
    ],
)
def test_fd_jacobian_refuses_a_p_that_is_not_numbers(noisy_problem, p):
    # ("0.5", "0.8") was parsed and returned a Jacobian, and (True, 0.8) one at (1.0, 0.8)
    with pytest.raises(ConfigError, match="^p: must be a real number"):
        fd_jacobian(noisy_problem, p)


class _Unlisted(np.ndarray):
    """An array that must not be read whole: a large one would fill memory first."""

    def tolist(self):
        raise AssertionError("an array that is not a pair was read whole")


# Objects that are not a point (alpha, beta), each made afresh: a set's or a
# mapping's order is not the caller's and a generator is used up, so
# unpacking them read a point the caller never wrote; the others do not
# hold two numbers in one dimension.
NOT_POINTS = {
    "set": lambda: {0.5, 0.3},
    "frozenset": lambda: frozenset({0.3, 0.01}),
    "dict": lambda: {0.5: "alpha", 0.3: "beta"},
    "str": lambda: "ab",
    "generator": lambda: (v for v in (0.5, 0.3)),
    "2-d array": lambda: np.array([[0.5, 0.8], [0.5, 0.8]]),
    "list of lists": lambda: [[0.5, 0.8], [0.5, 0.8]],
    "0-d array": lambda: np.array(0.5),
    "object array of lists": lambda: np.array([[0.5], [0.8, 0.1]], dtype=object),
    # 10**8 items, a view of one: listing them would take gigabytes
    "large array": lambda: np.broadcast_to(0.5, 10**8).view(_Unlisted),
}


class _CountingProblem:
    """A problem that counts its residual evaluations."""

    def __init__(self, problem):
        self.problem, self.calls = problem, 0

    def residuals(self, p):
        self.calls += 1
        return self.problem.residuals(p)


@pytest.mark.parametrize("make", NOT_POINTS.values(), ids=NOT_POINTS.keys())
def test_a_start_point_is_a_point(noisy_problem, make):
    # start_point({0.5, 0.3}) returned [0.5, 0.3] and a dict its keys, in
    # their iteration order, and a generator was consumed
    message = "^p0_alpha, p0_beta: must be two numbers in a list, a tuple or a 1-d array"
    with pytest.raises(ConfigError, match=message):
        fitting.start_point(make())
    with pytest.raises(ConfigError, match=message):
        replace(PRESETS["ex1"], p0=make())
    for solve in (solve_lm, solve_trust_region):
        counting = _CountingProblem(noisy_problem)
        with pytest.raises(ConfigError, match=message):
            solve(counting, make())
        assert counting.calls == 0


@pytest.mark.parametrize("make", NOT_POINTS.values(), ids=NOT_POINTS.keys())
def test_residuals_and_fd_jacobian_take_only_a_point(noisy_problem, make):
    # fd_jacobian raised a bare ValueError for a 2-d p, from max(abs(p[k]), 1.0)
    with pytest.raises(ConfigError, match=f"^{_NOT_A_POINT}"):
        noisy_problem.residuals(make())
    base = noisy_problem.residuals((0.5, 0.8))
    for base_residual in (None, base):
        counting = _CountingProblem(noisy_problem)
        with pytest.raises(ConfigError, match=f"^{_NOT_A_POINT}"):
            fd_jacobian(counting, make(), base_residual=base_residual)
        assert counting.calls == 0


def test_fd_jacobian_names_the_p_it_was_given(noisy_problem):
    # a third item failed inside a probe, naming the perturbed point
    base = noisy_problem.residuals((0.5, 0.8))
    with pytest.raises(ConfigError, match=rf"^{_NOT_A_POINT}.*got \(0\.5, 0\.8, 0\.1\)$"):
        fd_jacobian(noisy_problem, (0.5, 0.8, 0.1), base_residual=base)


@pytest.mark.parametrize(
    "base_residual",
    [[1.0, 2.0], np.zeros((102, 1)), 5.0, "x"],
    ids=["short list", "column", "scalar", "str"],
)
def test_fd_jacobian_refuses_a_base_residual_of_another_shape(noisy_problem, base_residual):
    # NumPy's broadcast ValueError, a TypeError from len and a UFuncTypeError
    with pytest.raises(ConfigError, match="^base_residual: "):
        fd_jacobian(noisy_problem, (0.5, 0.8), base_residual=base_residual)
    # a list of the residual's length is a 1-d real array
    base = noisy_problem.residuals((0.5, 0.8))
    J, _ = fd_jacobian(noisy_problem, (0.5, 0.8), base_residual=base.tolist())
    assert np.array_equal(J, fd_jacobian(noisy_problem, (0.5, 0.8))[0])


def _fresh_residuals(problem, p):
    """Residuals of problem at p from a trajectory sampled without a stored plan."""
    traj = solve_dde_raw(p[0], p[1], problem.grid)
    xs, ys = traj.eval_many(problem.dataset.times)
    return np.concatenate([xs - problem.dataset.x_obs, ys - problem.dataset.y_obs])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_residuals_reuse_their_plan_bit_for_bit(preset):
    cfg = PRESETS[preset]
    hist = resolve_history(cfg.history_spec, cfg.truth)
    ds = generate_dataset(
        cfg.truth, hist, cfg.t0, cfg.t_end, cfg.n_points, cfg.sigma, cfg.seed, cfg.steps_per_delay
    )
    problem = ResidualProblem.from_dataset(ds, hist, steps_per_delay=cfg.steps_per_delay)
    rng = np.random.default_rng(sorted(PRESETS).index(preset))
    # every call reuses the plan built with the problem
    for p in rng.uniform(0.01, 2.0, (6, 2)):
        r = problem.residuals(p)
        assert r.tobytes() == _fresh_residuals(problem, p).tobytes()


def test_residuals_sample_the_history_before_t0():
    hist = ConstantHistory(State(30.0, 36.0))
    times = np.linspace(-0.9, 5.0, 60)
    rng = np.random.default_rng(3)
    ds = Dataset(times, rng.uniform(20.0, 40.0, 60), rng.uniform(20.0, 40.0, 60), 0.0)
    problem = ResidualProblem(ds, Grid(Constants(), hist, 0.0, 5.0, 50))
    for p in ((0.5, 0.8), (1.3, 0.2), (0.4, 0.9)):
        r = problem.residuals(p)
        assert r.tobytes() == _fresh_residuals(problem, p).tobytes()
    # times up to t0 take the history's state, whatever p is
    m = np.count_nonzero(times <= 0.0)
    assert np.array_equal(r[:m], 30.0 - ds.x_obs[:m])
    assert np.array_equal(r[60 : 60 + m], 36.0 - ds.y_obs[:m])


def test_window_errors_surface_from_construction():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 1)
    # a grid that ends before the last measurement
    with pytest.raises(OutOfDomainError):
        ResidualProblem(ds, Grid(Constants(), HIST, 0.0, 4.0, 50))
    # Windows that are no whole number of steps run: the grid ends at the
    # first node past t_end, 5.02, and samples as the whole window to it does.
    # from_dataset's window is the measurements' span, 0 to 5.013 here.
    wide = Dataset(ds.times * 1.0026, ds.x_obs, ds.y_obs, 0.0)
    for problem, data in (
        (ResidualProblem(ds, Grid(Constants(), HIST, 0.0, 5.013, 50)), ds),
        (ResidualProblem.from_dataset(wide, HIST), wide),
    ):
        assert problem.grid.n == 251 and problem.grid.t_end == problem.grid.times[-1]
        assert 5.013 <= problem.grid.t_end < 5.013 + 0.02
        whole = ResidualProblem(data, Grid(Constants(), HIST, 0.0, problem.grid.t_end, 50))
        for p in ((0.5, 0.8), (0.3, 0.5)):
            assert problem.residuals(p).tobytes() == whole.residuals(p).tobytes()


def test_problem_refuses_a_dataset_or_grid_of_another_type():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 1)
    grid = Grid(Constants(), HIST, 0.0, 5.0, 50)
    for args, name in (((ds, None), "grid"), ((ds, "grid"), "grid"), ((None, grid), "dataset")):
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            ResidualProblem(*args)
    # from_dataset raised AttributeError, reading the times of None
    with pytest.raises(TypeError, match="^dataset must be a Dataset, got None$"):
        ResidualProblem.from_dataset(None, HIST)


@pytest.mark.parametrize("solver", [solve_lm, solve_trust_region])
def test_solvers_refuse_a_problem_without_residuals(solver):
    # solve_lm(None, p0) raised AttributeError; a problem is any object with
    # a residuals method (see _NoSensitivity)
    for problem in (None, TRUTH):
        with pytest.raises(TypeError, match="^problem must have a residuals method"):
            solver(problem, (0.3, 0.5))


def test_from_dataset_poses_the_fit_on_the_truths_constants():
    # from_dataset built the grid of Constants(): the cost at the truth was
    # 79.78, and LM and TR stopped at (0.5650, 0.9035) as if converged
    truth = ModelParams(0.5, 0.8, Constants(tau=2.0))
    ds = generate_dataset(truth, HIST, 0.0, 10.0, 51, 0.0, 1)
    problem = ResidualProblem.from_dataset(ds, HIST)
    assert problem.grid == Grid(truth.constants, HIST, 0.0, 10.0, 50)
    assert not problem.residuals((0.5, 0.8)).any()
    for solve in (solve_lm, solve_trust_region):
        assert solve(problem, (0.3, 0.5)).best_fit == pytest.approx((0.5, 0.8), rel=0, abs=1e-12)
    # a dataset without a truth is posed on Constants()
    bare = Dataset(ds.times, ds.x_obs, ds.y_obs, 0.0)
    assert ResidualProblem.from_dataset(bare, HIST).grid.constants == Constants()


def test_non_finite_step_count_is_a_grid_error():
    # a step of 0.02 does not resolve times near 1e308, where the noise is 1e299
    with pytest.raises(InvalidGridError):
        solve_dde(TRUTH, HIST, 0.0, 1e308)
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 1)
    with pytest.raises(InvalidGridError):
        ResidualProblem(ds, Grid(Constants(), HIST, 0.0, 1e308, 50))


def test_zero_residual_at_truth_without_noise(clean_problem):
    r = clean_problem.residuals((0.5, 0.8))
    assert np.max(np.abs(r)) < 1e-8


def test_objective_matches_explicit_double_sum(noisy_problem):
    p = (0.37, 0.91)
    traj = solve_dde(ModelParams(alpha=p[0], beta=p[1]), HIST, 0.0, 5.0)
    xs, ys = traj.eval_many(noisy_problem.dataset.times)
    explicit = 0.0
    for xm, xo in zip(xs, noisy_problem.dataset.x_obs):
        explicit += (xm - xo) ** 2
    for ym, yo in zip(ys, noisy_problem.dataset.y_obs):
        explicit += (ym - yo) ** 2
    r = noisy_problem.residuals(p)
    assert float(r @ r) == pytest.approx(explicit, rel=1e-12)


def test_objective_at_truth_equals_summed_noise(noisy_problem):
    # at the generating parameters the residuals are exactly the noise draws
    rng = np.random.Generator(np.random.PCG64(1))
    nx = rng.standard_normal(51) * 0.20
    ny = rng.standard_normal(51) * 0.20
    want = float(nx @ nx + ny @ ny)
    r = noisy_problem.residuals((0.5, 0.8))
    assert float(r @ r) == pytest.approx(want, rel=1e-12)
    # chi-squared concentration: 2M sigma^2 = 4.08 up to seed luck
    assert 0.5 * 4.08 <= want <= 1.5 * 4.08


def test_fd_jacobian_against_central_differences(noisy_problem):
    p = np.array([0.5, 0.8])
    J, n_evals = fd_jacobian(noisy_problem, p)
    assert n_evals == 3
    delta = 1e-6
    central = np.empty_like(J)
    for k in range(2):
        hi = p.copy()
        lo = p.copy()
        hi[k] += delta
        lo[k] -= delta
        central[:, k] = (noisy_problem.residuals(hi) - noisy_problem.residuals(lo)) / (
            2.0 * delta
        )
    scale = np.maximum(np.abs(central), 1e-3 * np.max(np.abs(central)))
    assert np.max(np.abs(J - central) / scale) <= 1e-4


def test_fd_jacobian_reuses_base_residual(noisy_problem):
    p = np.array([0.5, 0.8])
    base = noisy_problem.residuals(p)
    J, n_evals = fd_jacobian(noisy_problem, p, base_residual=base)
    assert n_evals == 2
    J2, _ = fd_jacobian(noisy_problem, p)
    assert np.array_equal(J, J2)


def test_gradient_nearly_zero_at_truth_without_noise(clean_problem):
    p = np.array([0.5, 0.8])
    r = clean_problem.residuals(p)
    J, _ = fd_jacobian(clean_problem, p, base_residual=r)
    assert np.linalg.norm(2.0 * J.T @ r) <= 1e-6


def test_forward_difference_error_is_first_order(noisy_problem):
    # error against central differences should scale like delta
    p = np.array([0.5, 0.8])
    base = noisy_problem.residuals(p)
    delta_ref = 1e-7
    hi = p.copy()
    lo = p.copy()
    hi[0] += delta_ref
    lo[0] -= delta_ref
    ref = (noisy_problem.residuals(hi) - noisy_problem.residuals(lo)) / (2.0 * delta_ref)
    deltas = np.array([1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3])
    errs = []
    for d in deltas:
        q = p.copy()
        q[0] += d
        col = (noisy_problem.residuals(q) - base) / d
        errs.append(np.linalg.norm(col - ref))
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_lm_recovers_noiseless_parameters(clean_problem):
    res = solve_lm(clean_problem, (0.3, 0.5))
    assert abs(res.best_fit[0] - 0.5) / 0.5 < 1e-6
    assert abs(res.best_fit[1] - 0.8) / 0.8 < 1e-6
    assert res.final_residual < 1e-12


def test_tr_recovers_noiseless_parameters(clean_problem):
    res = solve_trust_region(clean_problem, (0.3, 0.5))
    assert abs(res.best_fit[0] - 0.5) / 0.5 < 1e-6
    assert abs(res.best_fit[1] - 0.8) / 0.8 < 1e-6
    assert res.final_residual < 1e-12


def test_start_at_minimizer_terminates_immediately(clean_problem):
    for solver in (solve_lm, solve_trust_region):
        res = solver(clean_problem, (0.5, 0.8))
        assert len(res.trace) <= 2
        assert res.final_residual <= 1e-12
        assert abs(res.best_fit[0] - 0.5) <= 1e-8
        assert abs(res.best_fit[1] - 0.8) <= 1e-8


def test_lm_noisy_fit_is_close_and_well_formed(noisy_problem):
    res = solve_lm(noisy_problem, (0.3, 0.5))
    assert abs(res.best_fit[0] - 0.5) / 0.5 < 0.02
    assert abs(res.best_fit[1] - 0.8) / 0.8 < 0.02
    assert res.algorithm == "LM"
    assert res.final_residual == res.trace[-1].residual
    # one record per accepted step, residual strictly decreasing
    costs = [rec.residual for rec in res.trace]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    # function count advances by 3 per accepted iteration when nothing is rejected
    assert [rec.function_count for rec in res.trace] == [3 * (i + 1) for i in range(len(costs))]
    # damping divides by ten on every accepted step, starting from 0.01
    lams = [rec.lam for rec in res.trace]
    assert lams[0] == pytest.approx(0.01)
    for a, b in zip(lams, lams[1:]):
        assert b == pytest.approx(a / 10.0)
    assert res.trace[0].step_norm is None
    assert all(rec.step_norm > 0 for rec in res.trace[1:])
    assert res.trace[-1].first_order_opt <= 1e-3


def test_tr_noisy_fit_matches_lm(noisy_problem):
    lm = solve_lm(noisy_problem, (0.3, 0.5))
    tr = solve_trust_region(noisy_problem, (0.01, 0.01))
    assert abs(lm.best_fit[0] - tr.best_fit[0]) <= 1e-4
    assert abs(lm.best_fit[1] - tr.best_fit[1]) <= 1e-4
    assert tr.algorithm == "TrustRegion"
    costs = [rec.residual for rec in tr.trace]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert all(rec.lam is None for rec in tr.trace)
    assert all(rec.trust_radius is not None for rec in tr.trace)
    assert tr.trace[-1].first_order_opt <= 1e-3


def test_tr_far_start_takes_more_iterations(noisy_problem):
    near = solve_trust_region(noisy_problem, (0.3, 0.5))
    far = solve_trust_region(noisy_problem, (0.01, 0.01))
    assert len(far.trace) >= len(near.trace)


def test_max_iterations_is_reported(noisy_problem, monkeypatch):
    for max_iter in (1, 0):
        monkeypatch.setattr(fitting, "MAX_ITER", max_iter)
        for solve in (solve_lm, solve_trust_region):
            res = solve(noisy_problem, (0.01, 0.01))
            assert res.termination is Termination.MAX_ITERATIONS
            assert len(res.trace) == max_iter + 1


class _NoSensitivity:
    """First parameter never touches the residuals."""

    def residuals(self, p):
        return np.array([float(p[1]) - 2.0, 0.5])


def test_lm_flags_unidentifiable_direction():
    with pytest.raises(SingularNormalEquationsError):
        solve_lm(_NoSensitivity(), (1.0, 1.0))


@pytest.mark.parametrize("solver", [solve_lm, solve_trust_region])
def test_vanishing_jacobian_column_is_an_error(solver):
    # a zero column at a nonzero residual gives a zero gradient, which must
    # not be reported as GradientTolerance
    with pytest.raises(SingularNormalEquationsError, match="column 0"):
        solver(_NoSensitivity(), (1.0, 1.0))


class _FlatLine:
    """Noiseless straight line with a small slope: the exact fit (0, 0) leaves no residual."""

    def residuals(self, p):
        return np.array([1e-5 * float(p[0]), 1e-5 * float(p[1]), 0.0, 0.0])


def test_tr_function_tolerance_waits_for_the_relative_offset():
    # From (100, 100) the first steps, of radius 1, lower a cost of 2e-6 by
    # less than FUN_TOL, while the Gauss-Newton step still to go is the whole
    # way. The residual lies in J's columns, so e = r - Q Qt r is exactly 0,
    # and cost - ||Qt r||^2 rounds to 0 as well.
    res = solve_trust_region(_FlatLine(), (100.0, 100.0))
    assert res.termination is not Termination.FUNCTION_TOLERANCE
    assert max(map(abs, res.best_fit)) < 1e-6


class _Walled:
    """Quadratic bowl with the minimizer hidden behind a blow-up region."""

    def residuals(self, p):
        p = np.asarray(p, dtype=float)
        if p[0] > 2.0:
            raise NonFiniteError("model exploded")
        return np.array([p[0] - 3.0, 10.0 * (p[1] - 1.0)])


@pytest.mark.parametrize("solver", [solve_lm, solve_trust_region])
def test_blowup_trials_are_treated_as_rejections(solver):
    res = solver(_Walled(), (0.0, 0.0))
    assert res.termination in (
        Termination.STEP_TOLERANCE,
        Termination.FUNCTION_TOLERANCE,
        Termination.MAX_ITERATIONS,
    )
    # never settles inside the blow-up region, yet keeps descending toward it
    assert res.best_fit[0] <= 2.0
    assert res.best_fit[0] > 1.5
    assert res.final_residual < 109.0  # cost at the start
    costs = [rec.residual for rec in res.trace]
    assert all(b < a for a, b in zip(costs, costs[1:]))


class _ProbeWall:
    """Quadratic bowl whose first forward-difference probe after an accepted step blows up.

    Evaluations 1-3 are the start point and its two probes, 4 the first trial
    step, which a linear residual always accepts, and 5 the first probe at the
    accepted point.
    """

    def __init__(self):
        self.points = []

    def residuals(self, p):
        p = np.asarray(p, dtype=float)
        self.points.append(p.copy())
        if len(self.points) == 5:
            raise NonFiniteError("model exploded")
        return np.array([p[0] - 3.0, 10.0 * (p[1] - 1.0)])


@pytest.mark.parametrize("solver", [solve_lm, solve_trust_region])
def test_probe_blow_up_after_an_accepted_step_is_an_error(solver):
    # a trial that blows up is a rejected step; a probe that does leaves no
    # Jacobian to continue with
    problem = _ProbeWall()
    with pytest.raises(NonFiniteError):
        solver(problem, (0.0, 0.0))
    assert len(problem.points) == 5
    probe_step = problem.points[4] - problem.points[3]
    assert np.count_nonzero(probe_step) == 1
    assert 0.0 < np.max(np.abs(probe_step)) < 1e-6


def test_trace_csv_layouts(tmp_path, noisy_problem):
    lm = solve_lm(noisy_problem, (0.3, 0.5))
    tr = solve_trust_region(noisy_problem, (0.3, 0.5))
    lm_path = tmp_path / "lm.csv"
    tr_path = tmp_path / "tr.csv"
    write_trace_csv(lm, lm_path)
    write_trace_csv(tr, tr_path)

    lm_lines = lm_path.read_text().splitlines()
    assert lm_lines[0] == "iter,fcount,residual,first_order_opt,lambda,step_norm"
    assert lm_lines[1].endswith(",")  # no step at iteration 0
    assert len(lm_lines) == len(lm.trace) + 1
    row1 = lm_lines[2].split(",")
    assert int(row1[0]) == 1
    assert float(row1[4]) == pytest.approx(0.001)

    tr_lines = tr_path.read_text().splitlines()
    assert tr_lines[0] == "iter,fcount,residual,step_norm,first_order_opt,trust_radius"
    assert tr_lines[1].split(",")[3] == ""
    assert float(tr_lines[1].split(",")[5]) == pytest.approx(1.0)


def test_problem_window_defaults_to_measurement_span():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 1)
    prob = ResidualProblem.from_dataset(ds, HIST)
    assert prob.grid.t0 == 0.0
    assert prob.grid.t_end == 5.0
    assert prob.grid.constants.tau == 1.0
    # the same window built by hand derives the same plan
    direct = ResidualProblem(ds, Grid(Constants(), HIST, 0.0, 5.0, 50))
    for p in ((0.5, 0.8), (1.7, 0.3)):
        assert direct.residuals(p).tobytes() == prob.residuals(p).tobytes()


@pytest.mark.parametrize("solve", [solve_lm, solve_trust_region])
@pytest.mark.parametrize("p0", [(0.3, 0.5, 0.1), (0.3,), (math.nan, 0.5), (0.3, -math.inf)])
def test_solvers_refuse_a_start_point_that_is_not_two_finite_numbers(noisy_problem, solve, p0):
    # a third component would otherwise surface as a zero Jacobian column
    with pytest.raises(ConfigError, match="^p0_alpha, p0_beta: "):
        solve(noisy_problem, p0)


def test_a_start_point_is_not_parsed():
    # np.array(p0, dtype=float) parsed "0.3" and took True as 1.0
    for p0 in (("0.3", True), ("0.3", 0.5), (0.3, True)):
        with pytest.raises(ConfigError, match="^p0_alpha, p0_beta: "):
            fitting.start_point(p0)


def test_fit_result_is_frozen(noisy_problem):
    res = solve_lm(noisy_problem, (0.3, 0.5))
    assert isinstance(res, FitResult)
    with pytest.raises(AttributeError):
        res.final_residual = 0.0
    assert res.function_count == res.trace[-1].function_count


# SHA-256 of every trace record, best fit and termination of the 120 fits in
# _path_fits, each float as float.hex: the same on both backends.
PATH_DIGEST = "f215d9cad0a844a52de2558523e9eddb18d3bab3d6f988a3f0373a8b0a48c364"


def _path_fits():
    """LM and TR fits of the five presets at seeds 1-4 from three starts each.

    Besides each preset's p0, which the golden runs start from and where
    trials are rarely rejected, the two far starts take LM through rejected
    trials and move TR's radius both ways.
    """
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        hist = resolve_history(cfg.history_spec, cfg.truth)
        for seed in range(1, 5):
            ds = generate_dataset(
                cfg.truth, hist, cfg.t0, cfg.t_end, cfg.n_points, cfg.sigma, seed,
                cfg.steps_per_delay,
            )
            problem = ResidualProblem.from_dataset(ds, hist, steps_per_delay=cfg.steps_per_delay)
            for p0 in (cfg.p0, (5.0, 0.05), (-0.2, 3.0)):
                for solve in (solve_lm, solve_trust_region):
                    yield solve(problem, p0)


def test_control_paths_keep_their_bits():
    digest = hashlib.sha256()
    paths = dict.fromkeys(("lm_rejection", "tr_shrink", "tr_growth", "tr_boundary"), 0)
    for res in _path_fits():
        for rec in res.trace:
            fields = (rec.iteration, rec.function_count, rec.residual, rec.first_order_opt,
                      rec.step_norm, rec.lam, rec.trust_radius)
            digest.update(" ".join("None" if v is None else float(v).hex() for v in fields)
                          .encode() + b"\n")
        digest.update(" ".join((*map(float.hex, res.best_fit), res.termination.value))
                      .encode() + b"\n")
        # an accepted iteration costs 3 evaluations, plus one per rejected trial
        pairs = list(zip(res.trace, res.trace[1:]))
        rejected = [b.function_count - a.function_count - 3 for a, b in pairs]
        if res.algorithm == "LM":
            paths["lm_rejection"] += any(rejected)
            continue
        paths["tr_shrink"] += any(b.trust_radius < a.trust_radius for a, b in pairs)
        paths["tr_growth"] += any(b.trust_radius > a.trust_radius for a, b in pairs)
        # each rejected trial quarters the radius the accepted step then met
        paths["tr_boundary"] += any(
            math.isclose(b.step_norm, a.trust_radius / 4.0**k, rel_tol=1e-9)
            for (a, b), k in zip(pairs, rejected)
        )
    assert digest.hexdigest() == PATH_DIGEST
    assert all(paths.values()), paths

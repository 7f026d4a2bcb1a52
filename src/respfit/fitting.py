"""Nonlinear least squares recovery of the gas exchange rates (alpha, beta).

The objective is the squared 2-norm of the stacked residual vector

    r(p) = [x(t_i; p) - X_i]_{i=1..M} ++ [y(t_i; p) - Y_i]_{i=1..M}

with the delay tau and the ventilation constants held fixed. Jacobians come
from forward differences (no sensitivity equations), which costs one residual
evaluation per parameter: together with the base point that gives the
familiar 3-evaluations-per-iteration bookkeeping for a two-parameter fit.

Two minimizers are provided, both from scratch:

* solve_lm: Levenberg-Marquardt with multiplicative damping on diag(JtJ)
  (Marquardt scaling, so damping is invariant under parameter rescaling).
* solve_trust_region: Gauss-Newton model minimized over a dogleg path inside
  a spherical trust region, with the standard 0.25/0.75 radius update and
  acceptance threshold 1e-4.

Both run the one iteration loop of _Search, which evaluates the start point
and each trial step, relinearizes after an accepted step, records the trace
(one row per accepted step plus the start row, exported as CSV by
write_trace_csv) and stops on the tolerances. Each minimizer supplies only
two rules: how to propose a step, and how to judge its trial cost and update
its damping or radius. The search is unconstrained: nothing stops iterates
from visiting negative alpha or beta, and if the model blows up there the
trial is treated as a rejected step. A start point whose cost is not finite
is an error (NonFiniteError), since no step could be compared against it,
and so is a forward-difference probe that blows up, since the Jacobian it
belongs to cannot be formed.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._artifacts import write_csv
from .data import Dataset
from .errors import ConfigError, NonFiniteError, SingularNormalEquationsError
from .model import Constants, instance, real, to_float
from .solver import STEPS_PER_DELAY, ConstantHistory, Grid, SamplePlan, solve_dde_raw

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# The fixed settings of both minimizers. Both stop on a relative step below
# STEP_TOL, a gradient inf-norm below GRAD_TOL or after MAX_ITER accepted
# iterations; solve_trust_region also on a relative cost decrease below
# FUN_TOL with a relative offset below OFFSET_TOL. solve_lm damps from LAMBDA0
# up to LAMBDA_MAX, solve_trust_region's radius starts at RADIUS0, capped at RADIUS_MAX.
STEP_TOL = 1e-6
FUN_TOL = 1e-6
OFFSET_TOL = 1e-3
GRAD_TOL = 1e-10
MAX_ITER = 100
LAMBDA0 = 0.01
LAMBDA_MAX = 1e10
RADIUS0 = 1.0
RADIUS_MAX = 100.0
_POINTS = (list, tuple, np.ndarray)  # what a point may be, and neither of its items


def _pair(name: str, p) -> tuple:
    """The items (alpha, beta) of p, a list, tuple or 1-d array of two scalars; else ConfigError."""
    # tolist unpacks faster; an array of any other shape is read no further
    items = p.tolist() if isinstance(p, np.ndarray) and p.shape == (2,) else p
    if isinstance(items, (list, tuple)) and len(items) == 2:
        alpha, beta = items
        if not any(isinstance(v, _POINTS) for v in items):
            return alpha, beta
    raise ConfigError(f"{name}: must be two numbers in a list, a tuple or a 1-d array, got {p!r}")


@dataclass(frozen=True)
class ResidualProblem:
    """Measurement set plus everything held fixed during the fit.

    Every residual call integrates on the same grid (see solver.Grid) and
    samples the measurement times with the same plan, which construction
    derives from the grid once, raising any error it finds. Construction
    also stacks the observations once, x_obs then y_obs, as obs.
    """

    dataset: Dataset
    grid: Grid
    plan: SamplePlan = field(init=False, repr=False, compare=False)
    obs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        instance("dataset", self.dataset, Dataset)
        instance("grid", self.grid, Grid)
        object.__setattr__(self, "plan", self.grid.plan(self.dataset.times))
        obs = np.concatenate([self.dataset.x_obs, self.dataset.y_obs])
        obs.flags.writeable = False
        object.__setattr__(self, "obs", obs)

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, history: ConstantHistory, *, steps_per_delay: int = STEPS_PER_DELAY
    ) -> "ResidualProblem":
        """The problem on the grid of Constants() over the measurements' span.

        Any other window or constants is a Grid of its own:
        ResidualProblem(dataset, Grid(constants, history, t0, t_end, steps_per_delay)).
        """
        times = dataset.times
        return cls(dataset, Grid(Constants(), history, times[0], times[-1], steps_per_delay))

    def residuals(self, p) -> np.ndarray:
        """Stacked residual vector of length 2M at the point p = (alpha, beta), see _pair.

        solve_dde_raw checks the gains, naming alpha or beta. The model's x and y rows
        come from eval_many in one buffer, and the stacked observations are subtracted in place.
        """
        alpha, beta = _pair("p", p)
        r = solve_dde_raw(alpha, beta, self.grid).eval_many(self.plan).ravel()
        r -= self.obs
        return r


def fd_jacobian(problem, p, base_residual: np.ndarray | None = None):
    """Forward-difference Jacobian of problem.residuals at p, a point (_pair) of two real numbers.

    Returns (J, n_evals) where n_evals counts residual evaluations performed
    here: one per parameter, plus one more if base_residual was not supplied.
    Step delta_k = sqrt(eps) * max(|p_k|, 1). Any other p raises ConfigError first.
    """
    p = np.array([to_float("p", v) for v in _pair("p", p)])
    n_evals = 0
    if base_residual is None:
        base_residual = problem.residuals(p)
        n_evals += 1
    J = np.empty((len(base_residual), len(p)))
    for k in range(len(p)):
        delta = _SQRT_EPS * max(abs(p[k]), 1.0)
        pk = p.copy()
        pk[k] += delta
        J[:, k] = (problem.residuals(pk) - base_residual) / delta
        n_evals += 1
    return J, n_evals


class Termination(enum.Enum):
    STEP_TOLERANCE = "StepTolerance"
    FUNCTION_TOLERANCE = "FunctionTolerance"
    GRADIENT_TOLERANCE = "GradientTolerance"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration (or the starting point, iteration 0)."""

    iteration: int
    function_count: int
    residual: float
    first_order_opt: float
    step_norm: float | None = None  # absent at iteration 0
    lam: float | None = None  # LM damping after the update; absent for TR
    trust_radius: float | None = None  # TR radius after the update; absent for LM


@dataclass(frozen=True)
class FitResult:
    best_fit: tuple[float, float]
    final_residual: float
    termination: Termination
    trace: tuple[IterationRecord, ...]
    algorithm: str  # "LM" or "TrustRegion"

    @property
    def function_count(self) -> int:
        return self.trace[-1].function_count


def start_point(p0) -> np.ndarray:
    """The point p0 (see _pair) as a float array; ConfigError unless both items pass model.real."""
    name = "p0_alpha, p0_beta"
    return np.array([real(name, v) for v in _pair(name, p0)])


def _norm(v: np.ndarray) -> float:
    """The 2-norm of the 1-d float array v, as np.linalg.norm computes it, without its dispatch."""
    return math.sqrt(v.dot(v))


def _rel_step(step_norm: float, p: np.ndarray) -> float:
    return step_norm / max(_norm(p), 1.0)


class _Search:
    """The one iteration loop of both minimizers, and the state it carries.

    Holds the iterate p, its residual r, cost ||r||^2, forward-difference
    Jacobian J, half-gradient g = Jt r and gradient inf-norm opt, the residual
    evaluation count and the trace. Construction raises TypeError for a
    problem without a residuals method, checks the start point with
    start_point and evaluates it: one residual, then a Jacobian (two more
    evaluations), then the iteration-0 record, which gets the algorithm's
    extra fields (lam or trust_radius) from ``start``. ``run`` then iterates
    with the two rules a minimizer supplies.
    """

    def __init__(self, problem, p0, algorithm: str, **start):
        if not callable(getattr(problem, "residuals", None)):
            raise TypeError(f"problem must have a residuals method, got {problem!r}")
        self.problem = problem
        self.algorithm = algorithm
        self.p = start_point(p0)
        self.r = problem.residuals(self.p)
        self.n_evals = 1
        with np.errstate(over="ignore"):  # reported by the error below
            self.cost = float(self.r @ self.r)
        if not math.isfinite(self.cost):
            raise NonFiniteError(
                f"cost at the start point ({self.p[0]:g}, {self.p[1]:g}) is not finite"
            )
        self._linearize()
        self.trace = [IterationRecord(0, self.n_evals, self.cost, self.opt, **start)]

    def _linearize(self) -> None:
        self.J, k_evals = fd_jacobian(self.problem, self.p, base_residual=self.r)
        self.n_evals += k_evals
        # a dead column would read as a zero gradient, i.e. as convergence: its
        # largest |entry| is 0, or not finite if it holds an inf or a NaN
        peaks = abs(self.J).max(axis=0, initial=0.0).tolist()
        dead = [not 0.0 < peak < math.inf for peak in peaks]
        if any(dead) and self.r.any():
            raise SingularNormalEquationsError(
                f"Jacobian column {dead.index(True)} is zero or non-finite at ({self.p[0]:g}, "
                f"{self.p[1]:g}); a parameter direction leaves the residual unchanged"
            )
        self.g = self.J.T @ self.r
        # inf-norm of the gradient of ||r||^2, 2*Jt*r
        self.opt = float(abs(2.0 * self.g).max())

    def run(self, propose, judge, stop=None) -> FitResult:
        """Iterate with a minimizer's two rules until a tolerance or MAX_ITER stops it.

        ``propose()`` returns a step from the current state. ``judge(step,
        cost)`` updates the minimizer's control from the trial's cost (inf if
        it blows up or overflows) and returns the extra record fields of an
        accepted step, None for a rejected one, which is retried unless it was
        negligible. After an accepted step the search relinearizes, records
        the iteration and stops on ``stop(old cost, new cost)``, the step or
        the gradient tolerance, in that order.
        """
        if self.opt < GRAD_TOL:
            return self.result(Termination.GRADIENT_TOLERANCE)
        for _ in range(MAX_ITER):
            while True:
                step = propose()
                step_norm = _norm(step)
                p = self.p + step
                self.n_evals += 1
                try:
                    r = self.problem.residuals(p)
                except NonFiniteError:
                    r, cost = None, math.inf
                else:
                    with np.errstate(over="ignore"):
                        cost = float(r @ r)
                record = judge(step, cost)
                if record is not None:
                    break
                # a negligible rejected step leaves no meaningful move
                if _rel_step(step_norm, self.p) < STEP_TOL:
                    return self.result(Termination.STEP_TOLERANCE)

            cost_before = self.cost
            self.p, self.r, self.cost = p, r, cost
            self._linearize()
            self.trace.append(
                IterationRecord(
                    len(self.trace), self.n_evals, cost, self.opt, step_norm=step_norm, **record
                )
            )
            if stop is not None and stop(cost_before, cost):
                return self.result(Termination.FUNCTION_TOLERANCE)
            if _rel_step(step_norm, p) < STEP_TOL:
                return self.result(Termination.STEP_TOLERANCE)
            if self.opt < GRAD_TOL:
                return self.result(Termination.GRADIENT_TOLERANCE)
        return self.result(Termination.MAX_ITERATIONS)

    def result(self, termination: Termination) -> FitResult:
        best_fit = (float(self.p[0]), float(self.p[1]))
        return FitResult(best_fit, self.cost, termination, tuple(self.trace), self.algorithm)


def solve_lm(problem, p0) -> FitResult:
    """Levenberg-Marquardt with diag(JtJ) damping.

    Starts at lambda = LAMBDA0; an accepted step divides lambda by 10,
    a rejected one multiplies it by 10 and retries without recording an
    iteration. Raises SingularNormalEquationsError if a Jacobian column
    vanishes or the damped normal equations stay singular all the way up to
    LAMBDA_MAX (an unidentifiable parameter direction), and NonFiniteError
    if the cost at p0 is not finite or a forward-difference probe blows up,
    at p0 or after an accepted step.
    """
    lam = LAMBDA0
    search = _Search(problem, p0, "LM", lam=lam)

    def propose():
        nonlocal lam
        A = search.J.T @ search.J
        while True:
            damped = A + lam * np.diag(A.diagonal())
            try:
                step = np.linalg.solve(damped, -search.g)
                if np.isfinite(step).all():
                    return step
            except np.linalg.LinAlgError:
                pass
            if lam >= LAMBDA_MAX:
                raise SingularNormalEquationsError(
                    f"damped normal equations singular at lambda={lam:g}; "
                    "a parameter direction leaves the residual unchanged"
                )
            lam *= 10.0

    def judge(step, cost_trial):
        nonlocal lam
        accepted = cost_trial < search.cost
        lam = lam / 10.0 if accepted else lam * 10.0
        return {"lam": lam} if accepted else None

    return search.run(propose, judge)


def _dogleg(J: np.ndarray, r: np.ndarray, g: np.ndarray, radius: float):
    """Dogleg minimizer of ||r + J step||^2 over ||step|| <= radius.

    Returns (step, hit_boundary). g must be Jt r (half the objective
    gradient); the Gauss-Newton step comes from a least-squares solve so
    rank-deficient J degrades gracefully to the minimum-norm solution.
    """
    gn, *_ = np.linalg.lstsq(J, -r, rcond=None)
    if _norm(gn) <= radius:
        return gn, False

    Jg = J @ g
    denom = float(Jg @ Jg)
    gg = float(g @ g)
    cauchy = -(gg / denom) * g
    cauchy_norm = _norm(cauchy)
    if cauchy_norm >= radius:
        return (-radius / math.sqrt(gg)) * g, True

    # walk from the Cauchy point toward the Gauss-Newton point until the
    # sphere is crossed: ||cauchy + s*d||^2 = radius^2 with s in (0, 1]
    d = gn - cauchy
    a = float(d @ d)
    b = 2.0 * float(cauchy @ d)
    c = cauchy_norm**2 - radius**2
    s = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return cauchy + s * d, True


def solve_trust_region(problem, p0) -> FitResult:
    """Dogleg trust-region Gauss-Newton.

    Acceptance ratio rho compares the actual residual decrease with the one
    the linear model promised; steps with rho > 1e-4 are taken. The radius
    shrinks by 4 when rho < 0.25 and doubles (capped at RADIUS_MAX) when
    rho > 0.75 with the step on the boundary. An accepted step that lowers
    the cost by less than FUN_TOL relative to it also stops the search, ahead
    of the step and gradient tolerances, if Bates and Watts' relative offset
    (Technometrics 23:179, 1981) is below OFFSET_TOL at the new point: the
    Gauss-Newton step still to go is below OFFSET_TOL * sqrt(2) standard
    errors. Raises
    SingularNormalEquationsError if a Jacobian column vanishes, and
    NonFiniteError if the cost at p0 is not finite or a forward-difference
    probe blows up, at p0 or after an accepted step.
    """
    radius = RADIUS0
    hit_boundary = False
    search = _Search(problem, p0, "TrustRegion", trust_radius=radius)

    def propose():
        nonlocal hit_boundary
        step, hit_boundary = _dogleg(search.J, search.r, search.g, radius)
        return step

    def judge(step, cost_trial):
        nonlocal radius
        model = search.r + search.J @ step
        predicted = search.cost - float(model @ model)
        rho = (search.cost - cost_trial) / predicted if predicted > 0.0 else -math.inf
        if rho < 0.25:
            radius /= 4.0
        elif rho > 0.75 and hit_boundary:
            radius = min(2.0 * radius, RADIUS_MAX)
        return {"trust_radius": radius} if rho > 1e-4 else None

    def stop(old, new):
        if not abs(old - new) / max(old, 1.0) < FUN_TOL:
            return False
        # ||t||^2 / P < OFFSET_TOL^2 ||e||^2 / (N - P), from the thin QR of J, P = 2
        Q = np.linalg.qr(search.J)[0]
        t = Q.T @ search.r
        e = search.r - Q @ t
        return (len(e) - 2) * float(t @ t) < OFFSET_TOL**2 * 2 * float(e @ e)

    return search.run(propose, judge, stop)


# Trace layouts: the (header, IterationRecord attribute) of each column.
_TRACE_COLUMNS = {
    "LM": (("iter", "iteration"), ("fcount", "function_count"), ("residual", "residual"),
           ("first_order_opt", "first_order_opt"), ("lambda", "lam"), ("step_norm", "step_norm")),
    "TrustRegion": (("iter", "iteration"), ("fcount", "function_count"),
                    ("residual", "residual"), ("step_norm", "step_norm"),
                    ("first_order_opt", "first_order_opt"), ("trust_radius", "trust_radius")),
}


def write_trace_csv(result: FitResult, path) -> None:
    """Export the iteration trace with the table layout of its algorithm.

    LM:  iter,fcount,residual,first_order_opt,lambda,step_norm
    TR:  iter,fcount,residual,step_norm,first_order_opt,trust_radius
    step_norm is empty on the iteration-0 row.
    """
    columns = _TRACE_COLUMNS[result.algorithm]
    row_of = operator.attrgetter(*(attr for _, attr in columns))
    write_csv(path, [name for name, _ in columns], map(row_of, result.trace))

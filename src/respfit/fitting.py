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

Both share one skeleton (_Search) for the start point, trial evaluation,
relinearization after an accepted step and the result, and differ only in
how they propose, accept and stop. Both record a per-iteration trace (one
row per accepted step plus the start row) that can be exported as CSV via
write_trace_csv. The search is unconstrained: nothing stops iterates from
visiting negative alpha or beta, and if the model blows up there the trial
is treated as a rejected step. A start point whose cost is not finite is an
error (NonFiniteError), since no step could be compared against it, and so is
a forward-difference probe that blows up, since the Jacobian it belongs to
cannot be formed.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv
from .data import Dataset
from .errors import ConfigError, NonFiniteError, SingularNormalEquationsError
from .model import Constants
from .solver import ConstantHistory, Grid, SamplePlan, solve_dde_raw

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# The fixed settings of both minimizers. Both stop on a relative step below
# STEP_TOL, a gradient inf-norm below GRAD_TOL or after MAX_ITER accepted
# iterations; solve_trust_region also on a relative cost decrease below
# FUN_TOL. solve_lm damps from LAMBDA0 up to LAMBDA_MAX, and
# solve_trust_region's radius starts at RADIUS0 and is capped at RADIUS_MAX.
STEP_TOL = 1e-6
FUN_TOL = 1e-6
GRAD_TOL = 1e-10
MAX_ITER = 100
LAMBDA0 = 0.01
LAMBDA_MAX = 1e10
RADIUS0 = 1.0
RADIUS_MAX = 100.0


@dataclass(frozen=True)
class ResidualProblem:
    """Measurement set plus everything held fixed during the fit.

    Every residual call integrates on the same grid (see solver.Grid) and
    samples the same measurement times with the same plan, so from_dataset
    builds both once, and raises any error they find.
    """

    dataset: Dataset
    grid: Grid
    plan: SamplePlan

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        history: ConstantHistory,
        *,
        constants: Constants = Constants(),
        t0: float | None = None,
        t_end: float | None = None,
        steps_per_delay: int = 50,
    ) -> "ResidualProblem":
        """Build a problem whose integration window defaults to the measurements' span."""
        if t0 is None:
            t0 = float(dataset.times[0])
        if t_end is None:
            t_end = float(dataset.times[-1])
        grid = Grid(constants, history, t0, t_end, steps_per_delay)
        return cls(dataset, grid, grid.plan(dataset.times))

    def residuals(self, p) -> np.ndarray:
        """Stacked residual vector of length 2M at p = (alpha, beta).

        Raises ConfigError unless p is two numbers.
        """
        try:
            two = len(p) == 2
            alpha, beta = float(p[0]), float(p[1])
        except (TypeError, ValueError, IndexError):
            two = False
        if not two:
            raise ConfigError(f"p: must be two numbers, got {p!r}")
        traj = solve_dde_raw(alpha, beta, self.grid)
        xs, ys = traj.eval_many(self.plan)
        return np.concatenate([xs - self.dataset.x_obs, ys - self.dataset.y_obs])


def fd_jacobian(problem, p, base_residual: np.ndarray | None = None):
    """Forward-difference Jacobian of problem.residuals at p.

    Returns (J, n_evals) where n_evals counts residual evaluations performed
    here: one per parameter, plus one more if base_residual was not supplied.
    Step delta_k = sqrt(eps) * max(|p_k|, 1).
    """
    p = np.asarray(p, dtype=float)
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
    """p0 as a float array; raises ConfigError unless it is two finite numbers."""
    p = np.array(p0, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ConfigError(f"p0_alpha, p0_beta: must be two finite numbers, got {p0!r}")
    return p


def _rel_step(step_norm: float, p: np.ndarray) -> float:
    return step_norm / max(float(np.linalg.norm(p)), 1.0)


class _Search:
    """The state both minimizers carry, and the steps they share.

    Holds the iterate p, its residual r, cost ||r||^2, forward-difference
    Jacobian J and gradient inf-norm opt, the residual evaluation count and
    the trace. Construction checks the start point with start_point and
    evaluates it: one residual, then a Jacobian (two more evaluations), then
    the iteration-0 record, which gets the algorithm's extra fields (lam or
    trust_radius) from ``start``.
    """

    def __init__(self, problem, p0, algorithm: str, **start):
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
        # a dead column would read as a zero gradient, i.e. as convergence
        dead = ~(np.any(self.J, axis=0) & np.all(np.isfinite(self.J), axis=0))
        if np.any(dead) and np.any(self.r):
            raise SingularNormalEquationsError(
                f"Jacobian column {np.argmax(dead)} is zero or non-finite at ({self.p[0]:g}, "
                f"{self.p[1]:g}); a parameter direction leaves the residual unchanged"
            )
        # inf-norm of the gradient of ||r||^2, 2*Jt*r
        self.opt = float(np.max(np.abs(2.0 * (self.J.T @ self.r))))

    def trial(self, p) -> tuple[np.ndarray | None, float]:
        """(residual, cost) at a trial point, counted once; a blow-up costs inf.

        So does a finite residual whose cost overflows.
        """
        self.n_evals += 1
        try:
            r = self.problem.residuals(p)
        except NonFiniteError:
            return None, math.inf
        with np.errstate(over="ignore"):
            return r, float(r @ r)

    def accept(self, p, r, cost, step_norm: float, **record) -> Termination | None:
        """Move to an accepted trial point and relinearize there.

        Appends the iteration record (extra fields in ``record``) and returns
        the step- or gradient-tolerance termination it meets, if any.
        """
        self.p, self.r, self.cost = p, r, cost
        self._linearize()
        self.trace.append(
            IterationRecord(
                len(self.trace), self.n_evals, cost, self.opt, step_norm=step_norm, **record
            )
        )
        if _rel_step(step_norm, p) < STEP_TOL:
            return Termination.STEP_TOLERANCE
        return self.at_critical_point()

    def at_critical_point(self) -> Termination | None:
        if self.opt < GRAD_TOL:
            return Termination.GRADIENT_TOLERANCE
        return None

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
    if termination := search.at_critical_point():
        return search.result(termination)

    for _ in range(MAX_ITER):
        A = search.J.T @ search.J
        g = search.J.T @ search.r
        while True:
            damped = A + lam * np.diag(np.diag(A))
            try:
                step = np.linalg.solve(damped, -g)
                solvable = np.all(np.isfinite(step))
            except np.linalg.LinAlgError:
                solvable = False
            if not solvable:
                if lam >= LAMBDA_MAX:
                    raise SingularNormalEquationsError(
                        f"damped normal equations singular at lambda={lam:g}; "
                        "a parameter direction leaves the residual unchanged"
                    )
                lam *= 10.0
                continue

            step_norm = float(np.linalg.norm(step))
            trial = search.p + step
            r_trial, cost_trial = search.trial(trial)
            if cost_trial < search.cost:
                lam /= 10.0
                break
            lam *= 10.0
            # ever-larger damping only shortens the step; once it is
            # negligible relative to p, no meaningful move remains
            if _rel_step(step_norm, search.p) < STEP_TOL:
                return search.result(Termination.STEP_TOLERANCE)

        if termination := search.accept(trial, r_trial, cost_trial, step_norm, lam=lam):
            return search.result(termination)
    return search.result(Termination.MAX_ITERATIONS)


def _dogleg(J: np.ndarray, r: np.ndarray, g: np.ndarray, radius: float):
    """Dogleg minimizer of ||r + J step||^2 over ||step|| <= radius.

    Returns (step, hit_boundary). g must be Jt r (half the objective
    gradient); the Gauss-Newton step comes from a least-squares solve so
    rank-deficient J degrades gracefully to the minimum-norm solution.
    """
    gn, *_ = np.linalg.lstsq(J, -r, rcond=None)
    if float(np.linalg.norm(gn)) <= radius:
        return gn, False

    Jg = J @ g
    denom = float(Jg @ Jg)
    gg = float(g @ g)
    cauchy = -(gg / denom) * g
    cauchy_norm = float(np.linalg.norm(cauchy))
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
    rho > 0.75 with the step on the boundary. Raises
    SingularNormalEquationsError if a Jacobian column vanishes, and
    NonFiniteError if the cost at p0 is not finite or a forward-difference
    probe blows up, at p0 or after an accepted step.
    """
    radius = RADIUS0
    search = _Search(problem, p0, "TrustRegion", trust_radius=radius)
    if termination := search.at_critical_point():
        return search.result(termination)

    for _ in range(MAX_ITER):
        J, r, cost = search.J, search.r, search.cost
        g = J.T @ r
        while True:
            step, hit_boundary = _dogleg(J, r, g, radius)
            step_norm = float(np.linalg.norm(step))
            trial = search.p + step
            r_trial, cost_trial = search.trial(trial)

            model = r + J @ step
            predicted = cost - float(model @ model)
            rho = (cost - cost_trial) / predicted if predicted > 0.0 else -math.inf

            if rho < 0.25:
                radius /= 4.0
            elif rho > 0.75 and hit_boundary:
                radius = min(2.0 * radius, RADIUS_MAX)

            if rho > 1e-4:
                break
            # rejected; once the region forces negligible steps, stop
            if _rel_step(step_norm, search.p) < STEP_TOL:
                return search.result(Termination.STEP_TOLERANCE)

        termination = search.accept(trial, r_trial, cost_trial, step_norm, trust_radius=radius)
        # the function tolerance takes precedence over the step and gradient ones
        if abs(cost - cost_trial) / max(cost, 1.0) < FUN_TOL:
            termination = Termination.FUNCTION_TOLERANCE
        if termination:
            return search.result(termination)
    return search.result(Termination.MAX_ITERATIONS)


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

"""Fixed-step method-of-steps integrator for the delayed two-gas system.

The delay tau is constant, so the system is integrated with classical RK4 on
a grid whose step h divides tau exactly (h = tau / steps_per_delay), up to
the first node at or past t_end. Delayed full-step samples then always land
on already-computed grid nodes, the derivative kinks at multiples of tau sit
on step boundaries, and only the half-step stage times need interpolation,
done with cubic Hermite using the stored node derivatives. That combination
keeps the classical 4th-order accuracy of the scheme.

The history is a constant state (ConstantHistory), the setting of every
experiment here; it is also the state at t0, so the kernel reads it at node
0. A Grid holds what a solve keeps fixed while (alpha, beta) vary: the
constants, the history and the window, validated once by grid_steps, with
the step count and the node times. A Trajectory is a grid plus its node
values and derivatives, immutable and evaluable anywhere on
[t0 - tau, t_end]: the history's state up to t0, stored node values on the
grid, cubic Hermite in between.

Evaluation is split in two. Grid.plan builds a SamplePlan holding
everything about a set of sample times that depends only on the grid: the
domain check, which times fall in the history, and for every time, clamped
into the grid, the enclosing grid interval and the four Hermite weights.
Trajectory.eval_many then combines those weights with the node values and
derivatives of any trajectory solved on that Grid object, one whole-row
expression per state, and writes the history's state over the history
samples. A caller that samples the same times on many trajectories, such as
a least-squares residual, builds the grid and the plan once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from ._artifacts import write_csv
from .errors import ConfigError, InvalidGridError, NonFiniteError, OutOfDomainError
from .model import Constants, ModelParams, State, count, instance, real, reals, to_float

# RK4 steps per delay where none is given: solve_dde, generate_dataset,
# ResidualProblem.from_dataset and ExperimentConfig all default to it.
STEPS_PER_DELAY = 50
# Largest RK4 step count a grid may hold. A trajectory's five float64 arrays take 40 B per step,
# 400 MB here; integrating peaks at 32 B/step compiled, the twin 170 at 50 per delay, 32 at 400.
MAX_STEPS = 10_000_000
# Relative slack for time-domain boundary checks; absorbs float noise in
# externally constructed sample times (e.g. linspace endpoints).
_EDGE_TOL = 1e-9


def time_slack(*times: float) -> float:
    """Float noise allowed in times of these magnitudes: 1e-9 of the largest, at least 1e-9."""
    return _EDGE_TOL * max(1.0, *(abs(t) for t in times))


@dataclass(frozen=True)
class ConstantHistory:
    """History that holds one fixed state on the whole initial interval [t0 - tau, t0]."""

    state: State

    def describe(self) -> dict:
        return {"kind": "constant", "x": self.state.x, "y": self.state.y}


def history_from_description(desc: dict) -> ConstantHistory:
    """Inverse of ConstantHistory.describe().

    Raises ConfigError, its message opening with the field at fault, unless
    desc is a constant history whose x and y pass model.real.
    """
    if not isinstance(desc, dict):
        raise ConfigError(f"history: must be a mapping, got {desc!r}")
    kind = desc.get("kind")
    if kind != "constant":
        raise ConfigError(f"history: unknown kind {kind!r}")
    return ConstantHistory(State(*(real(f"history.{name}", desc.get(name)) for name in "xy")))


@dataclass(frozen=True, eq=False)
class SamplePlan:
    """The (alpha, beta)-independent part of sampling trajectories on one grid.

    Built by Grid.plan and bound to that Grid object. Every sample time,
    clamped into the grid, has j and j1, the nodes of its grid interval, and
    w00..w11, its Hermite weights, w10 and w11 already multiplied by the
    step. hist_idx lists the times at or before t0, which take the history's
    state.
    """

    grid: Grid = field(repr=False)
    hist_idx: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    j1: np.ndarray = field(repr=False)
    w00: np.ndarray = field(repr=False)
    w10: np.ndarray = field(repr=False)
    w01: np.ndarray = field(repr=False)
    w11: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        """Number of sample times."""
        return len(self.j)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense numerical solution on a grid, plus the grid's history.

    x, y hold the node values at grid.times; dx, dy the exact node
    derivatives used for Hermite interpolation.
    """

    grid: Grid
    x: np.ndarray
    y: np.ndarray
    dx: np.ndarray = field(repr=False)
    dy: np.ndarray = field(repr=False)

    def eval_many(self, times) -> np.ndarray:
        """Vectorized evaluation at arbitrary times in [t0 - tau, t_end].

        History value for t <= t0, stored node value on grid nodes, cubic
        Hermite between adjacent nodes otherwise. ``times`` is a 1-d array
        of times, or a SamplePlan built by this trajectory's grid.plan; an
        array is planned on the spot, and another Grid object's plan raises
        ConfigError.

        Each row is one whole-row expression of the plan's weights, and
        then takes the history's state at plan.hist_idx. Returns one new
        (2, M) array whose rows are x and y at the M times, so
        ``xs, ys = traj.eval_many(times)`` unpacks it, and ravel() gives the
        stacked 2M vector without a copy.
        """
        plan = times if isinstance(times, SamplePlan) else self.grid.plan(times)
        if self.grid is not plan.grid:
            raise ConfigError("plan: built for another Grid object than the trajectory's")
        j, j1, w00, w10, w01, w11 = plan.j, plan.j1, plan.w00, plan.w10, plan.w01, plan.w11
        out = np.empty((2, len(plan)))
        xs, ys = out[0], out[1]
        xs[:] = w00 * self.x[j] + w10 * self.dx[j] + w01 * self.x[j1] + w11 * self.dx[j1]
        ys[:] = w00 * self.y[j] + w10 * self.dy[j] + w01 * self.y[j1] + w11 * self.dy[j1]
        # never weights times node 0: -0.0 + 0.0 would turn a -0.0 state into 0.0
        state = self.grid.history.state
        xs[plan.hist_idx] = state.x
        ys[plan.hist_idx] = state.y
        return out

    def to_csv(self, path) -> None:
        """Write the node grid as CSV (t,x,y) at full double precision."""
        rows = zip(self.grid.times.tolist(), self.x.tolist(), self.y.tolist())
        write_csv(path, ("t", "x", "y"), rows)


def grid_steps(t0, t_end, tau: float, steps_per_delay) -> tuple[float, float, int, int]:
    """(t0, t_end, steps_per_delay) as checked, and n, the RK4 steps of tau/steps_per_delay.

    n is the fewest steps, at least one, whose last node t0 + n*h reaches
    t_end less its time_slack, compared exactly by math.fsum: the first
    node at or past t_end, so a window of any width runs. Raises ConfigError
    unless t0 and t_end pass model.real with t_end > t0, steps_per_delay
    passes model.count from 2 to MAX_STEPS and n is at most MAX_STEPS; a
    short window does not bound steps_per_delay, so it has a cap of its
    own. Raises InvalidGridError unless the step exceeds that slack: a
    smaller step does not resolve distinct node times at that magnitude.
    Each message opens with the name of the argument at fault.
    """
    t0, t_end = real("t0", t0), real("t_end", t_end)
    if not t_end > t0:
        raise ConfigError(f"t0, t_end: must have t_end > t0, got [{t0!r}, {t_end!r}]")
    steps_per_delay = count("steps_per_delay", steps_per_delay, 2, MAX_STEPS)
    h = tau / steps_per_delay
    slack = time_slack(t0, t_end)
    if not h > slack:
        raise InvalidGridError(
            f"t_end: step h = tau/steps_per_delay = {h:g} does not resolve times on "
            f"[{t0!r}, {t_end!r}], where the float noise is {slack:g}"
        )
    n_float = (t_end - t0 - slack) / h
    n = max(1, math.ceil(n_float)) if n_float <= MAX_STEPS else MAX_STEPS + 1
    n -= 1 < n <= MAX_STEPS and math.fsum((t0 + (n - 1) * h, slack, -t_end)) >= 0
    n += n <= MAX_STEPS and math.fsum((t0 + n * h, slack, -t_end)) < 0
    if not n <= MAX_STEPS:
        raise ConfigError(
            f"t_end: [{t0!r}, {t_end!r}] spans {n_float:.17g} RK4 steps of "
            f"tau/steps_per_delay, more than the {MAX_STEPS} allowed"
        )
    return t0, t_end, steps_per_delay, n


@dataclass(frozen=True)
class Grid:
    """Everything a solve holds fixed while (alpha, beta) vary.

    Holds the window as grid_steps checked it, and computes from it the step
    count n, the step h = tau / steps_per_delay and the read-only node times
    t0 + k*h; t_end becomes the last one, up to a step past the t_end given.
    The history's state is also the state at t0, which solve_dde_raw hands
    the kernel as node 0. Raises TypeError unless constants is a Constants
    and history a ConstantHistory.
    """

    constants: Constants
    history: ConstantHistory = field(repr=False)
    t0: float
    t_end: float
    steps_per_delay: int
    n: int = field(init=False, compare=False)
    step: float = field(init=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        instance("constants", self.constants, Constants)
        instance("history", self.history, ConstantHistory)
        t0, _, spd, n = grid_steps(self.t0, self.t_end, self.constants.tau, self.steps_per_delay)
        h = self.constants.tau / spd
        times = t0 + h * np.arange(n + 1)
        times.flags.writeable = False
        names = ("t0", "steps_per_delay", "t_end", "n", "step", "times")
        for name, value in zip(names, (t0, spd, float(times[-1]), n, h, times)):
            object.__setattr__(self, name, value)

    def plan(self, times) -> SamplePlan:
        """Plan for sampling every trajectory on this grid at the 1-d array ``times``.

        Raises ConfigError unless times is a 1-d array of integers or floats
        (model.reals), and OutOfDomainError, a ConfigError too, if a time is
        not finite or lies outside [t0 - tau, t_end]. Every time is clamped
        into [t0, t_end] and planned alike: a history time reads node 0 at
        s = 0 until eval_many restores the history's state.
        """
        ts = reals("times", times)
        if ts.ndim != 1:
            raise ConfigError(f"times: must be a 1-d array, got shape {ts.shape}")
        lo = self.t0 - self.constants.tau
        tol = time_slack(lo, self.t_end)
        if not np.all((ts >= lo - tol) & (ts <= self.t_end + tol)):
            raise OutOfDomainError(f"times: evaluation time outside [{lo:g}, {self.t_end:g}]")

        tq = np.clip(ts, self.t0, self.times[-1])
        # side='right' makes an exact node time fall in the interval whose
        # left endpoint it is (s = 0), so node values are returned bit-exact;
        # t_end, the last node, takes the last interval (s = 1).
        j = np.searchsorted(self.times, tq, side="right") - 1
        j = np.minimum(j, len(self.times) - 2)
        s = (tq - self.times[j]) / self.step
        return SamplePlan(
            grid=self,
            hist_idx=np.flatnonzero(ts <= self.t0),
            j=j,
            j1=j + 1,
            w00=(2.0 * s - 3.0) * s * s + 1.0,
            w10=((s - 2.0) * s + 1.0) * s * self.step,
            w01=(3.0 - 2.0 * s) * s * s,
            w11=(s - 1.0) * s * s * self.step,
        )


def solve_dde_raw(alpha: float, beta: float, grid: Grid) -> Trajectory:
    """Integrate on grid with raw coefficients, without sign validation on alpha/beta.

    The fitting layer explores the unconstrained (alpha, beta) plane, so this
    entry point accepts any real gains that model.to_float takes, and raises
    its ConfigError for any other; blow-ups, and gains past the float range,
    surface as NonFiniteError. Use solve_dde for validated ModelParams.
    """
    alpha, beta = to_float("alpha", alpha), to_float("beta", beta)
    h, c, state = grid.step, grid.constants, grid.history.state
    # the history's state is node 0, and the delayed state over the first
    # delay interval
    status, *arrays = backend.active.integrate(
        alpha,
        beta,
        c.vent_gain,
        c.vent_rate,
        c.vent_offset,
        h,
        grid.n,
        grid.steps_per_delay,
        state.x,
        state.y,
    )
    if status:
        raise NonFiniteError(
            f"state became non-finite at t = {grid.t0 + status * h:.6g} "
            f"(alpha={alpha:g}, beta={beta:g})"
        )
    # the kernel's buffers are read-only, and so are these arrays over them
    return Trajectory(grid, *map(np.frombuffer, arrays))


def solve_dde(
    params: ModelParams,
    history: ConstantHistory,
    t0: float,
    t_end: float,
    steps_per_delay: int = STEPS_PER_DELAY,
) -> Trajectory:
    """Integrate the system for validated model parameters.

    Raises TypeError unless params is a ModelParams, and Grid's errors for
    the history and the window.
    """
    constants = instance("params", params, ModelParams).constants
    grid = Grid(constants, history, t0, t_end, steps_per_delay)
    return solve_dde_raw(params.alpha, params.beta, grid)

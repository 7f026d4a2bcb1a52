"""Fixed-step method-of-steps integrator for the delayed two-gas system.

The delay tau is constant, so the system is integrated with classical RK4 on
a grid whose step h divides tau exactly (h = tau / steps_per_delay). Delayed
full-step samples then always land on already-computed grid nodes, the
derivative kinks at multiples of tau sit on step boundaries, and only the
half-step stage times need interpolation, done with cubic Hermite using the
stored node derivatives. That combination keeps the classical 4th-order
accuracy of the scheme.

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
domain check, which times fall in the history, and for the others the
enclosing grid interval and the four Hermite weights. Its gather then
combines those weights with the node values and derivatives of any
trajectory solved on that Grid object, so a caller that samples the same
times on many trajectories, such as a least-squares residual, builds the
grid and the plan once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from ._artifacts import write_csv
from .errors import ConfigError, InvalidGridError, NonFiniteError, OutOfDomainError
from .model import Constants, ModelParams, State, count, real

# Largest RK4 step count a grid may hold. A trajectory holds five float64
# arrays with one entry per step: 400 MB at this cap.
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

    Built by Grid.plan and bound to that Grid object. hist_idx lists the
    sample times at or before t0, which take the history's state;
    grid_idx lists the others, j and j1 the nodes of each one's grid
    interval and w00..w11 its Hermite weights, w10 and w11 already
    multiplied by the step.
    """

    grid: Grid = field(repr=False)
    hist_idx: np.ndarray = field(repr=False)
    grid_idx: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    j1: np.ndarray = field(repr=False)
    w00: np.ndarray = field(repr=False)
    w10: np.ndarray = field(repr=False)
    w01: np.ndarray = field(repr=False)
    w11: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        """Number of sample times."""
        return len(self.hist_idx) + len(self.grid_idx)

    def gather(self, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        """Sample values of traj; ConfigError unless it lies on the plan's own Grid object."""
        if traj.grid is not self.grid:
            raise ConfigError("plan: built for another Grid object than the trajectory's")
        n = len(self)
        xs = np.empty(n)
        ys = np.empty(n)
        state = self.grid.history.state
        xs[self.hist_idx] = state.x
        ys[self.hist_idx] = state.y
        j, j1 = self.j, self.j1
        xs[self.grid_idx] = (
            self.w00 * traj.x[j]
            + self.w10 * traj.dx[j]
            + self.w01 * traj.x[j1]
            + self.w11 * traj.dx[j1]
        )
        ys[self.grid_idx] = (
            self.w00 * traj.y[j]
            + self.w10 * traj.dy[j]
            + self.w01 * traj.y[j1]
            + self.w11 * traj.dy[j1]
        )
        return xs, ys


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

    def eval_many(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation at arbitrary times in [t0 - tau, t_end].

        History value for t <= t0, stored node value on grid nodes, cubic
        Hermite between adjacent nodes otherwise. ``times`` is a 1-d array
        of times, or a SamplePlan built by this trajectory's grid.plan; an
        array is planned on the spot and the plan discarded.
        """
        plan = times if isinstance(times, SamplePlan) else self.grid.plan(times)
        return plan.gather(self)

    def to_csv(self, path) -> None:
        """Write the node grid as CSV (t,x,y) at full double precision."""
        rows = zip(self.grid.times.tolist(), self.x.tolist(), self.y.tolist())
        write_csv(path, ("t", "x", "y"), rows)


def grid_steps(t0, t_end, tau: float, steps_per_delay) -> tuple[float, float, int, int]:
    """(t0, t_end, steps_per_delay) as checked, and n, the RK4 steps of tau/steps_per_delay.

    Raises ConfigError unless t0 and t_end pass model.real with t_end > t0,
    steps_per_delay passes model.count from 2 to MAX_STEPS and the step
    count is at most MAX_STEPS; a short window does not bound
    steps_per_delay, so it has a cap of its own. Raises InvalidGridError
    unless the window is a whole number of steps, up to a relative slack of
    1e-9, and the step exceeds the time_slack of the window's ends: a
    smaller step does not resolve distinct node times at that magnitude.
    Each message opens with the name of the argument at fault.
    """
    t0, t_end = real("t0", t0), real("t_end", t_end)
    if not t_end > t0:
        raise ConfigError(f"t0, t_end: must have t_end > t0, got [{t0!r}, {t_end!r}]")
    steps_per_delay = count("steps_per_delay", steps_per_delay, 2, MAX_STEPS)
    h = tau / steps_per_delay
    n_float = (t_end - t0) / h
    n = int(round(n_float)) if math.isfinite(n_float) else 0
    if n < 1 or abs(n_float - n) > _EDGE_TOL * max(1.0, n_float):
        raise InvalidGridError(
            f"t_end: interval [{t0:g}, {t_end:g}] is not a positive, finite, whole number of steps "
            f"h = tau/steps_per_delay = {h:g}"
        )
    slack = time_slack(t0, t_end)
    if not h > slack:
        raise InvalidGridError(
            f"t_end: step h = tau/steps_per_delay = {h:g} does not resolve times on "
            f"[{t0!r}, {t_end!r}], where the float noise is {slack:g}"
        )
    if n > MAX_STEPS:
        raise ConfigError(
            f"t_end: [{t0!r}, {t_end!r}] takes {n} RK4 steps of tau/steps_per_delay, "
            f"more than the {MAX_STEPS} allowed"
        )
    return t0, t_end, steps_per_delay, n


@dataclass(frozen=True)
class Grid:
    """Everything a solve holds fixed while (alpha, beta) vary.

    Holds the window as grid_steps checked it, and computes from it the step
    count n, the step h = tau / steps_per_delay and the read-only node times
    t0 + k*h (t_end snaps to the last one). The history's state is also the
    state at t0, which solve_dde_raw hands the kernel as node 0.
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
        t0, _, spd, n = grid_steps(self.t0, self.t_end, self.constants.tau, self.steps_per_delay)
        h = self.constants.tau / spd
        times = t0 + h * np.arange(n + 1)
        times.flags.writeable = False
        names = ("t0", "steps_per_delay", "t_end", "n", "step", "times")
        for name, value in zip(names, (t0, spd, float(times[-1]), n, h, times)):
            object.__setattr__(self, name, value)

    def plan(self, times) -> SamplePlan:
        """Plan for sampling every trajectory on this grid at the 1-d array ``times``.

        Raises ConfigError if times is not 1-d, and OutOfDomainError if a
        time is not finite or lies outside [t0 - tau, t_end].
        """
        ts = np.asarray(times, dtype=float)
        if ts.ndim != 1:
            raise ConfigError(f"times: must be a 1-d array, got shape {ts.shape}")
        lo = self.t0 - self.constants.tau
        tol = time_slack(lo, self.t_end)
        if not np.all((ts >= lo - tol) & (ts <= self.t_end + tol)):
            raise OutOfDomainError(
                f"evaluation time outside [{lo:g}, {self.t_end:g}]"
            )

        in_history = ts <= self.t0
        hist_idx = np.flatnonzero(in_history)
        grid_idx = np.flatnonzero(~in_history)
        tq = np.minimum(ts[grid_idx], self.times[-1])
        # side='right' makes an exact node time fall in the interval whose
        # left endpoint it is (s = 0), so node values are returned bit-exact.
        j = np.searchsorted(self.times, tq, side="right") - 1
        j = np.clip(j, 0, len(self.times) - 2)
        s = (tq - self.times[j]) / self.step
        h00 = (2.0 * s - 3.0) * s * s + 1.0
        h10 = ((s - 2.0) * s + 1.0) * s
        h01 = (3.0 - 2.0 * s) * s * s
        h11 = (s - 1.0) * s * s
        return SamplePlan(
            grid=self,
            hist_idx=hist_idx,
            grid_idx=grid_idx,
            j=j,
            j1=j + 1,
            w00=h00,
            w10=h10 * self.step,
            w01=h01,
            w11=h11 * self.step,
        )


def solve_dde_raw(alpha: float, beta: float, grid: Grid) -> Trajectory:
    """Integrate on grid with raw coefficients, without sign validation on alpha/beta.

    The fitting layer explores the unconstrained (alpha, beta) plane, so this
    entry point accepts any finite gains; blow-ups surface as NonFiniteError.
    Use solve_dde for validated ModelParams.
    """
    n, h, c = grid.n, grid.step, grid.constants
    x = np.empty(n + 1)
    y = np.empty(n + 1)
    dx = np.empty(n + 1)
    dy = np.empty(n + 1)
    # the history's state at t0, which the kernel also reads as the delayed
    # state over the first delay interval
    x[0] = grid.history.state.x
    y[0] = grid.history.state.y

    # Constants holds Python floats already; a trial point may hold NumPy ones
    status = backend.active.integrate(
        float(alpha),
        float(beta),
        c.vent_gain,
        c.vent_rate,
        c.vent_offset,
        h,
        n,
        grid.steps_per_delay,
        x,
        y,
        dx,
        dy,
    )
    if status:
        raise NonFiniteError(
            f"state became non-finite at t = {grid.t0 + status * h:.6g} "
            f"(alpha={alpha:g}, beta={beta:g})"
        )

    for arr in (x, y, dx, dy):
        arr.flags.writeable = False
    return Trajectory(grid, x, y, dx, dy)


def solve_dde(
    params: ModelParams,
    history: ConstantHistory,
    t0: float,
    t_end: float,
    steps_per_delay: int = 50,
) -> Trajectory:
    """Integrate the system for validated model parameters."""
    grid = Grid(params.constants, history, t0, t_end, steps_per_delay)
    return solve_dde_raw(params.alpha, params.beta, grid)

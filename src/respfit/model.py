"""Two-gas blood regulation model with delayed ventilatory feedback.

The state pair (x, y) tracks the blood levels of the two regulated gases
(x is the CO2-like quantity, y the O2-like quantity). Both are produced at
unit rate and cleared in proportion to the ventilation drive V, which the
controller computes from the state one transport delay tau in the past:

    dx/dt = 1 - alpha * V(x(t - tau), y(t - tau)) * x(t)
    dy/dt = 1 - beta  * V(x(t - tau), y(t - tau)) * y(t)

    V(xd, yd) = vent_gain * exp(-vent_rate * (vent_offset - yd)) * xd

alpha and beta are the clearance gains (the quantities the fitting layer
recovers); tau and the three ventilation constants are treated as known and
travel together as one Constants object.

Everything here is a pure function of immutable inputs and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._stepper_py import _exp
from .errors import ConfigError, NoRootError

# Fixed search bracket for the equilibrium root (in x); generous on both
# sides of any physically plausible operating point.
EQUILIBRIUM_BRACKET = (1e-6, 1e3)


def check_fields(obj, positive: tuple[str, ...], finite: tuple[str, ...] = ()) -> None:
    """Raise ConfigError, naming the field, unless the fields are finite and the first positive."""
    for name in positive + finite:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value!r}")
    for name in positive:
        if getattr(obj, name) <= 0.0:
            raise ConfigError(f"{name}: must be positive, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class Constants:
    """Transport delay and ventilation constants, known and held fixed in a fit."""

    tau: float = 1.0
    vent_gain: float = 0.14
    vent_rate: float = 0.05
    vent_offset: float = 100.0

    def __post_init__(self):
        check_fields(self, ("tau", "vent_gain", "vent_rate"), finite=("vent_offset",))

    def ventilation(self, x_delayed: float, y_delayed: float) -> float:
        """Ventilation drive V for the given delayed state.

        The stepper kernels' expression, operation for operation, with the
        libm exp saturating to inf as in C, so a value computed here equals
        the one a kernel would compute from the same state bit for bit.
        """
        return self.vent_gain * _exp(-self.vent_rate * (self.vent_offset - y_delayed)) * x_delayed


@dataclass(frozen=True)
class ModelParams:
    """Clearance gains plus the fixed constants of the model."""

    alpha: float
    beta: float
    constants: Constants = Constants()

    def __post_init__(self):
        check_fields(self, ("alpha", "beta"))
        if not isinstance(self.constants, Constants):
            raise TypeError(f"constants must be a Constants, got {self.constants!r}")


@dataclass(frozen=True)
class State:
    """Instantaneous (x, y) gas levels."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"state components must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class EquilibriumPoint:
    """Constant solution (x*, y*) and the verified algebraic residual."""

    x_star: float
    y_star: float
    residual_norm: float


def _log_equilibrium_residual(x: float, params: ModelParams) -> float:
    # At equilibrium both derivatives vanish, which forces y* = (alpha/beta) x*
    # and  alpha * vent_gain * x*^2 * exp(-vent_rate*(vent_offset - y*)) = 1.
    # The log of the left-hand side is monotone in x and overflow-free over the
    # whole bracket, unlike the raw product.
    c = params.constants
    ratio = params.alpha / params.beta
    return (
        math.log(params.alpha * c.vent_gain)
        + 2.0 * math.log(x)
        - c.vent_rate * c.vent_offset
        + c.vent_rate * ratio * x
    )


def equilibrium_solve(params: ModelParams) -> EquilibriumPoint:
    """Solve for the unique positive equilibrium (x*, y*).

    Bisection on the log-residual over EQUILIBRIUM_BRACKET down to a narrow
    interval, then a Newton polish; accepts when the linear-space residual
    |1 - alpha*V*x*| is at or below 1e-12. Raises NoRootError when the
    bracket shows no sign change (nonphysical parameters push the
    equilibrium outside it).
    """
    lo, hi = EQUILIBRIUM_BRACKET
    g_lo = _log_equilibrium_residual(lo, params)
    g_hi = _log_equilibrium_residual(hi, params)
    if g_lo > 0.0 or g_hi < 0.0:
        raise NoRootError(
            f"no equilibrium in x bracket [{lo:g}, {hi:g}] for "
            f"alpha={params.alpha:g}, beta={params.beta:g}"
        )

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-9 * max(1.0, mid):
            break
        if _log_equilibrium_residual(mid, params) > 0.0:
            hi = mid
        else:
            lo = mid

    ratio = params.alpha / params.beta
    x = 0.5 * (lo + hi)
    for _ in range(20):
        g = _log_equilibrium_residual(x, params)
        if abs(math.expm1(g)) <= 1e-12:
            break
        x -= g / (2.0 / x + params.constants.vent_rate * ratio)

    y = ratio * x
    v = params.constants.ventilation(x, y)
    residual = max(abs(1.0 - params.alpha * v * x), abs(1.0 - params.beta * v * y))
    return EquilibriumPoint(x_star=x, y_star=y, residual_norm=residual)

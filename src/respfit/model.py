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
from numbers import Integral, Real
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoRootError

# Fixed search bracket for the equilibrium root (in x); generous on both
# sides of any physically plausible operating point.
EQUILIBRIUM_BRACKET = (1e-6, 1e3)


def instance(name: str, value, kind: type):
    """value, if it is a kind: the one check of object types, beside the number checks.

    Raises TypeError, its message opening with name, for any other object.
    """
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def to_float(name: str, value) -> float:
    """value as a Python float, or an infinity past the float range: the type half of real.

    Raises ConfigError, its message opening with name, unless value is a
    Python or NumPy real number but not a bool; a float, np.float64 among
    them, passes on a plain isinstance test before the slower abstract Real.
    """
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ConfigError(f"{name}: must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf if value > 0 else -math.inf


def real(name: str, value, *, positive: bool = False, nonnegative: bool = False) -> float:
    """value as a Python float: the one check of the real numbers respfit holds, beside count.

    Raises ConfigError, its message opening with name, unless value passes
    to_float, is finite, and is positive or nonnegative when asked.
    """
    v = to_float(name, value)
    if not math.isfinite(v):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    if positive and not v > 0.0:
        raise ConfigError(f"{name}: must be positive, got {value!r}")
    if nonnegative and not v >= 0.0:
        raise ConfigError(f"{name}: must be nonnegative, got {value!r}")
    return v


def count(name: str, value, lo: int, hi: int) -> int:
    """value as a Python int: the one check of the integers respfit holds, beside real.

    Raises ConfigError, its message opening with name, unless value is a
    Python or NumPy integer but not a bool, from lo to hi.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= hi:
        raise ConfigError(f"{name}: must be an integer from {lo} to {hi}, got {value!r}")
    return int(value)


def reals(name: str, values) -> np.ndarray:
    """values as a float64 array, the check of the arrays respfit holds, beside real and count.

    Raises ConfigError, its message opening with name, unless NumPy reads
    values as an array of integers or floats: not a ragged list, nor bools,
    text or other objects. A list or tuple that holds a bool at any depth is
    refused as a bool array is, although NumPy reads [0.5, True] as floats;
    an ndarray is judged by its dtype alone.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged list, which NumPy cannot shape
        raise ConfigError(f"{name}: must hold real numbers in a regular array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name}: must hold real numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and _holds_bool(values):
        raise ConfigError(f"{name}: must hold real numbers, got dtype bool")
    return np.asarray(arr, dtype=float)


def _holds_bool(values) -> bool:
    """Whether values is a bool or bool array, or a list or tuple holding one at any depth."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    return isinstance(values, (bool, np.bool_))


def hold_reals(obj, names: tuple[str, ...], **sign) -> None:
    """Replace each named field of the frozen obj by real(name, value, **sign)."""
    for name in names:
        object.__setattr__(obj, name, real(name, getattr(obj, name), **sign))


@dataclass(frozen=True)
class Constants:
    """Transport delay and ventilation constants, known and held fixed in a fit.

    Each is held as a Python float through real(): all four finite, all but
    vent_offset positive.
    """

    tau: float = 1.0
    vent_gain: float = 0.14
    vent_rate: float = 0.05
    vent_offset: float = 100.0

    def __post_init__(self):
        hold_reals(self, ("tau", "vent_gain", "vent_rate"), positive=True)
        hold_reals(self, ("vent_offset",))


@dataclass(frozen=True)
class ModelParams:
    """Clearance gains, positive and held as Python floats, plus the fixed constants."""

    alpha: float
    beta: float
    constants: Constants = Constants()

    def __post_init__(self):
        hold_reals(self, ("alpha", "beta"), positive=True)
        instance("constants", self.constants, Constants)


@dataclass(frozen=True)
class State:
    """Instantaneous (x, y) gas levels, finite and held as Python floats."""

    x: float
    y: float

    def __post_init__(self):
        hold_reals(self, ("x", "y"))


@dataclass(frozen=True)
class EquilibriumPoint:
    """Constant solution (x*, y*) and its relative residual |expm1(g)| <= 1e-12."""

    x_star: float
    y_star: float
    residual_norm: float


def _log_equilibrium_residual(x: float, params: ModelParams) -> float:
    # At equilibrium both derivatives vanish, which forces y* = (alpha/beta) x*
    # and  alpha * vent_gain * x*^2 * exp(-vent_rate*(vent_offset - y*)) = 1.
    # The log of the left-hand side is monotone in x and overflow-free over the
    # whole bracket, unlike the raw product. A gain product that underflows
    # to 0 gives -inf, which the bracket check reports as no root.
    c = params.constants
    ratio = params.alpha / params.beta
    gain = params.alpha * c.vent_gain
    return (
        (math.log(gain) if gain > 0.0 else -math.inf)
        + 2.0 * math.log(x)
        - c.vent_rate * c.vent_offset
        + c.vent_rate * ratio * x
    )


def equilibrium_solve(params: ModelParams) -> EquilibriumPoint:
    """Solve for the unique positive equilibrium (x*, y*).

    Bisection on the log-residual over EQUILIBRIUM_BRACKET down to a narrow
    interval, then a Newton polish until |expm1(g)| <= 1e-12, g the
    log-residual. Raises NoRootError when the bracket shows no sign change
    (nonphysical parameters push the equilibrium outside it), when the
    polish does not meet its tolerance, or when x* or y* is not finite.
    residual_norm reports the accepted |expm1(g)|, which equals both gases'
    |1 - gain*V*state| at y* = (alpha/beta) x*, taken in log space, where
    it cannot overflow.
    """
    instance("params", params, ModelParams)
    lo, hi = EQUILIBRIUM_BRACKET
    g_lo = _log_equilibrium_residual(lo, params)
    g_hi = _log_equilibrium_residual(hi, params)
    if not g_lo <= 0.0 <= g_hi:
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
        # expm1 overflows past g = 709, far from converged
        residual = abs(math.expm1(g)) if abs(g) < 1.0 else math.inf
        if residual <= 1e-12:
            break
        x -= g / (2.0 / x + params.constants.vent_rate * ratio)
    else:
        raise NoRootError(
            f"equilibrium search did not converge for alpha={params.alpha:g}, beta={params.beta:g}"
        )

    y = ratio * x
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NoRootError(
            f"equilibrium ({x:g}, {y:g}) is not finite for "
            f"alpha={params.alpha:g}, beta={params.beta:g}"
        )
    return EquilibriumPoint(x_star=x, y_star=y, residual_norm=residual)

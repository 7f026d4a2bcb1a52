"""Pure-Python twin of the compiled RK4 method-of-steps stepper.

Kept expression-for-expression identical to ``_stepper.c`` (same arithmetic
in the same order, same libm exp) so both backends produce bit-identical
trajectories. Used when the compiled extension is unavailable or explicitly
selected.

The two differ only in when they look for a blow-up. The C kernel checks the
state after every step; the twin checks it once per delay interval (n_delay
steps) and then finds the interval's first non-finite node. Both stop at the
same node and write the same outputs, because a non-finite state stays
non-finite: every step computes x[k+1] = x[k] + ...
"""

from __future__ import annotations

import math
import operator
import struct

_ARRAY_NAMES = ("x", "y", "dx", "dy")


def _exp(z):
    # C exp() saturates to inf/0.0; math.exp raises on overflow instead.
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _float64_view(obj, name, min_len):
    """A writable memoryview of obj, checked the way get_array in _stepper.c checks it.

    The outputs are written as raw doubles, so anything other than a writable
    1-d C-contiguous float64 buffer of at least min_len elements is refused
    before a byte is written.
    """
    view = memoryview(obj)
    if view.ndim != 1 or view.format != "d" or not view.c_contiguous:
        raise ValueError(f"{name} must be a 1-d C-contiguous float64 array")
    if view.readonly:
        raise ValueError(f"{name} must be writable")
    if view.shape[0] < min_len:
        raise ValueError(f"{name} has {view.shape[0]} elements, needs at least {min_len}")
    return view


def integrate(
    alpha,
    beta,
    vent_gain,
    vent_rate,
    vent_offset,
    h,
    n_steps,
    n_delay,
    x,
    y,
    dx,
    dy,
):
    """Advance the delayed two-gas system over ``n_steps`` nodes of spacing ``h``.

    x[0], y[0] hold the history's state, which is also the state at t0. Its
    ventilation, computed once per call, is the delayed ventilation over the
    whole first delay interval, so that interval evaluates no further exp.
    Node values and node derivatives are written into x, y, dx, dy. Returns
    0 on success, or the 1-based index s of the first node whose state is
    non-finite; then only x[1:s], y[1:s], dx[:s] and dy[:s] are written.

    n_delay must be at least 2. The midpoint of step k reads the derivative at
    node k + 1 - n_delay, which step k + 1 - n_delay writes; with n_delay = 1
    that is step k itself, so the value would be read before it is written.
    """
    # integers only, as the C kernel's "n" format takes them (TypeError otherwise)
    n = operator.index(n_steps)
    nd = operator.index(n_delay)
    if n < 0 or nd < 2:
        raise ValueError("n_steps must be a non-negative count and n_delay at least 2")
    vx, vy, vdx, vdy = [
        _float64_view(a, name, n + 1) for a, name in zip((x, y, dx, dy), _ARRAY_NAMES)
    ]
    exp = math.exp
    isfinite = math.isfinite
    inf = math.inf

    half_h = 0.5 * h
    h8 = 0.125 * h
    h6 = h / 6.0
    nr = -vent_rate

    xk = vx[0]
    yk = vy[0]
    X = [xk]
    Y = [yk]
    DX = []
    DY = []
    # The history's ventilation; exp() overflows to inf as in C (see _exp).
    try:
        e = exp(nr * (vent_offset - yk))
    except OverflowError:
        e = inf
    v0 = vent_gain * e * xk

    # First delay interval: every delayed state is the history's, so every
    # stage reads av1, bv1, alpha and beta times its ventilation. Later, av1
    # and bv1 hold those of the last stage's delayed node, which the first
    # stage of the next step reads again.
    av1 = alpha * v0
    bv1 = beta * v0
    lo = 0
    hi = min(nd, n)
    for k in range(hi):
        k1x = 1.0 - av1 * xk
        k1y = 1.0 - bv1 * yk
        k2x = 1.0 - av1 * (xk + half_h * k1x)
        k2y = 1.0 - bv1 * (yk + half_h * k1y)
        k3x = 1.0 - av1 * (xk + half_h * k2x)
        k3y = 1.0 - bv1 * (yk + half_h * k2y)
        k4x = 1.0 - av1 * (xk + h * k3x)
        k4y = 1.0 - bv1 * (yk + h * k3y)
        DX.append(k1x)
        DY.append(k1y)
        xk = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        yk = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        X.append(xk)
        Y.append(yk)

    # Later intervals: step k's delayed nodes are i1 = k - n_delay and i1 + 1,
    # its midpoint the Hermite interpolant between them.
    while hi < n and isfinite(xk) and isfinite(yk):
        lo = hi
        hi = min(lo + nd, n)
        for i1 in range(lo - nd, hi - nd):
            j = i1 + 1
            xd4 = X[j]
            yd4 = Y[j]
            xdm = 0.5 * (X[i1] + xd4) + h8 * (DX[i1] - DX[j])
            ydm = 0.5 * (Y[i1] + yd4) + h8 * (DY[i1] - DY[j])

            try:
                e = exp(nr * (vent_offset - ydm))
            except OverflowError:
                e = inf
            vm = vent_gain * e * xdm
            try:
                e = exp(nr * (vent_offset - yd4))
            except OverflowError:
                e = inf
            v4 = vent_gain * e * xd4

            avm = alpha * vm
            bvm = beta * vm
            k1x = 1.0 - av1 * xk
            k1y = 1.0 - bv1 * yk
            k2x = 1.0 - avm * (xk + half_h * k1x)
            k2y = 1.0 - bvm * (yk + half_h * k1y)
            k3x = 1.0 - avm * (xk + half_h * k2x)
            k3y = 1.0 - bvm * (yk + half_h * k2y)
            av1 = alpha * v4
            bv1 = beta * v4
            k4x = 1.0 - av1 * (xk + h * k3x)
            k4y = 1.0 - bv1 * (yk + h * k3y)
            DX.append(k1x)
            DY.append(k1y)
            xk = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
            yk = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
            X.append(xk)
            Y.append(yk)

    if hi and not (isfinite(xk) and isfinite(yk)):
        # the interval [lo, hi) blew up: find its first non-finite node
        status = lo + 1
        while isfinite(X[status]) and isfinite(Y[status]):
            status += 1
        end = status
    else:
        status = 0
        DX.append(1.0 - av1 * xk)
        DY.append(1.0 - bv1 * yk)
        end = n + 1

    # x[0], y[0] are inputs; steps 1 .. end - 1 and derivatives 0 .. end - 1
    # are written as raw doubles, which struct packs faster than NumPy assigns.
    fmt = f"{end - 1}d"
    struct.pack_into(fmt, vx, 8, *X[1:end])
    struct.pack_into(fmt, vy, 8, *Y[1:end])
    fmt = f"{end}d"
    struct.pack_into(fmt, vdx, 0, *DX[:end])
    struct.pack_into(fmt, vdy, 0, *DY[:end])
    return status

"""Pure-Python twin of the compiled RK4 method-of-steps stepper.

It performs the same IEEE operations as ``_stepper.c`` in the same order,
with the same libm exp, so both backends produce bit-identical trajectories;
on long delays some of those operations are evaluated elementwise in NumPy
(see _step_windows). Used when the compiled extension is unavailable or
explicitly selected.

The two differ only in when they look for a blow-up. The C kernel checks the
state after every step; the twin checks it once per delay interval (n_delay
steps), or once per window of n_delay - 1 steps on long delays, and then
finds that stretch's first non-finite node. Both return the same node,
because a non-finite state stays non-finite: every step computes
x[k+1] = x[k] + ...

Like the C kernel, the twin allocates its outputs itself and returns them as
read-only buffers of native doubles: bytes packed from its lists, or on long
delays read-only memoryviews over the bytearrays its windows write into.
"""

from __future__ import annotations

import math
import operator
import struct
import sys

import numpy as np

# Delays of at least this many steps run their later intervals in windows
# (_step_windows). Each window pays for about thirty NumPy calls whatever its
# length, which short windows do not earn back. Against the step-by-step loop
# over 50 delay intervals, four runs measured windows at 0.84-1.10x the
# loop's speed at 160 steps per delay, 1.05-1.13x at 192 and 1.12-1.19x at
# 256 (BENCH_15.json): 192 is the shortest delay at which every run won.
_BATCH_MIN_DELAY = 192


def _exp(z):
    # C exp() saturates to inf/0.0; math.exp raises on overflow instead.
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def integrate(
    alpha,
    beta,
    vent_gain,
    vent_rate,
    vent_offset,
    h,
    n_steps,
    n_delay,
    x0,
    y0,
):
    """Advance the delayed two-gas system over ``n_steps`` nodes of spacing ``h``.

    x0, y0 is the history's state, which is also the state at t0. Its
    ventilation, computed once per call, is the delayed ventilation over the
    whole first delay interval, so that interval evaluates no further exp.
    Returns (0, x, y, dx, dy), read-only buffers of the n_steps + 1 node
    values and derivatives as native doubles, or after a blow-up (status,),
    the 1-based index of the first node whose state is non-finite.

    n_delay must be at least 2. The midpoint of step k reads the derivative at
    node k + 1 - n_delay, which step k + 1 - n_delay writes; with n_delay = 1
    that is step k itself, so the value would be read before it is written.
    """
    # integers only, as the C kernel's "n" format takes them (TypeError
    # otherwise), and as the C kernel bounds them, so the outputs' byte size fits
    n = operator.index(n_steps)
    nd = operator.index(n_delay)
    if n < 0 or nd < 2 or n >= sys.maxsize // 8:
        raise ValueError("n_steps must be a non-negative count and n_delay at least 2")
    exp = math.exp
    isfinite = math.isfinite
    inf = math.inf

    half_h = 0.5 * h
    h8 = 0.125 * h
    h6 = h / 6.0
    nr = -vent_rate

    xk = x0
    yk = y0
    X = [xk]
    Y = [yk]
    DX = []
    DY = []
    v0 = vent_gain * _exp(nr * (vent_offset - yk)) * xk

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

    if nd >= _BATCH_MIN_DELAY and hi < n and isfinite(xk) and isfinite(yk):
        with np.errstate(over="ignore", invalid="ignore"):
            return _step_windows(
                alpha, beta, vent_gain, nr, vent_offset, h, n, nd, (X, Y, DX, DY), av1, bv1
            )

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
        # the interval [lo, hi) blew up: its first non-finite node is the status
        return (_first_nonfinite(X, Y, lo + 1),)
    DX.append(1.0 - av1 * xk)
    DY.append(1.0 - bv1 * yk)
    # each list now holds exactly the n + 1 nodes, packed without a copy
    fmt = f"{n + 1}d"
    return (0, *(struct.pack(fmt, *values) for values in (X, Y, DX, DY)))


def _step_windows(alpha, beta, vent_gain, nr, vent_offset, h, n, nd, first, av1, bv1):
    """integrate's steps s .. n - 1 after the s >= n_delay steps whose lists are first.

    first holds the lists X, Y of nodes 0 .. s and DX, DY of nodes 0 .. s - 1,
    which go into four bytearrays of n + 1 doubles before the windows run.
    Step k reads the derivative at node k + 1 - n_delay, which step
    k + 1 - n_delay writes, so the n_delay - 1 steps from s on read only nodes
    written before s. Each such window first evaluates its delayed midpoints,
    ventilations and gains elementwise in NumPy, each with the C kernel's
    operations in its order, and libm's exp through math.exp. Its RK4 loop
    then runs on those gains, and its nodes go into the bytearrays when it
    ends. Returns integrate's result, read-only views of the bytearrays on
    success; av1, bv1 are its values at step s.
    """
    buffers = [bytearray(8 * (n + 1)) for _ in first]
    X, Y, DX, DY = first
    s = len(DX)
    xk, yk = X[s], Y[s]
    _pack(buffers, 0, first)
    x, y, dx, dy = (np.frombuffer(b) for b in buffers)
    half_h = 0.5 * h
    h8 = 0.125 * h
    h6 = h / 6.0
    while s < n:
        end = min(s + nd - 1, n)
        a = s - nd
        b = end - nd
        xd4 = x[a + 1 : b + 1]
        yd4 = y[a + 1 : b + 1]
        xdm = 0.5 * (x[a:b] + xd4) + h8 * (dx[a:b] - dx[a + 1 : b + 1])
        ydm = 0.5 * (y[a:b] + yd4) + h8 * (dy[a:b] - dy[a + 1 : b + 1])
        vm = vent_gain * _exps(nr * (vent_offset - ydm)) * xdm
        v4 = vent_gain * _exps(nr * (vent_offset - yd4)) * xd4

        X = [xk]
        Y = [yk]
        DX = []
        DY = []
        for avm, bvm, av4, bv4 in zip(
            (alpha * vm).tolist(), (beta * vm).tolist(), (alpha * v4).tolist(), (beta * v4).tolist()
        ):
            k1x = 1.0 - av1 * xk
            k1y = 1.0 - bv1 * yk
            k2x = 1.0 - avm * (xk + half_h * k1x)
            k2y = 1.0 - bvm * (yk + half_h * k1y)
            k3x = 1.0 - avm * (xk + half_h * k2x)
            k3y = 1.0 - bvm * (yk + half_h * k2y)
            av1 = av4
            bv1 = bv4
            k4x = 1.0 - av1 * (xk + h * k3x)
            k4y = 1.0 - bv1 * (yk + h * k3y)
            DX.append(k1x)
            DY.append(k1y)
            xk = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
            yk = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
            X.append(xk)
            Y.append(yk)

        if not (math.isfinite(xk) and math.isfinite(yk)):
            return (s + _first_nonfinite(X, Y, 1),)
        if end == n:
            DX.append(1.0 - av1 * xk)
            DY.append(1.0 - bv1 * yk)
        _pack(buffers, s, (X, Y, DX, DY))
        s = end
    return (0, *(memoryview(b).toreadonly() for b in buffers))


def _exps(z):
    """libm's exp of each element of z, overflowing to inf as in C (see _exp).

    np.exp is not used: it may round differently from libm.
    """
    z = z.tolist()
    try:
        return np.fromiter(map(math.exp, z), float, len(z))
    except OverflowError:
        return np.fromiter(map(_exp, z), float, len(z))


def _first_nonfinite(X, Y, i):
    """The first index from i on at which X or Y is non-finite; there must be one."""
    while math.isfinite(X[i]) and math.isfinite(Y[i]):
        i += 1
    return i


def _pack(buffers, s, lists):
    """Write each list's values to its buffer from node s on.

    The values go in as raw doubles, which struct packs faster than NumPy assigns.
    """
    for buf, values in zip(buffers, lists):
        struct.pack_into(f"{len(values)}d", buf, 8 * s, *values)

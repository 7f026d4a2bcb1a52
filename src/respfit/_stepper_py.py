"""Pure-Python twin of the compiled RK4 method-of-steps stepper.

Kept expression-for-expression identical to ``_stepper.c`` (same operation
order, same libm exp) so both backends produce bit-identical trajectories.
Used when the compiled extension is unavailable or explicitly selected.
"""

from __future__ import annotations

import math


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
    hist_x,
    hist_y,
    hist_mid_x,
    hist_mid_y,
    x,
    y,
    dx,
    dy,
):
    """Advance the delayed two-gas system over ``n_steps`` nodes of spacing ``h``.

    hist_* carry the history sampled on the delayed grid (n_delay+1 node values,
    n_delay midpoint values); x[0], y[0] hold the initial state. Node values and
    node derivatives are written into x, y, dx, dy. Returns 0 on success, or the
    1-based index of the first node whose state is non-finite.

    n_delay must be at least 1: the delayed node of the last stage of step k,
    k + 1 - n_delay, is then already known, and its ventilation is carried to
    the first stage of step k + 1 instead of being computed twice.
    """
    n = int(n_steps)
    nd = int(n_delay)
    if n < 0 or nd < 1:
        raise ValueError("n_steps must be a non-negative count and n_delay a positive one")
    exp = math.exp
    isfinite = math.isfinite
    inf = math.inf
    hx = hist_x.tolist()
    hy = hist_y.tolist()
    hmx = hist_mid_x.tolist()
    hmy = hist_mid_y.tolist()
    X = x.tolist()
    Y = y.tolist()
    DX = dx.tolist()
    DY = dy.tolist()

    half_h = 0.5 * h
    h8 = 0.125 * h
    h6 = h / 6.0
    nr = -vent_rate
    status = 0

    # Ventilation at the delayed node of step 0, node -n_delay (history).
    # Step k leaves the one of its last stage, node k + 1 - n_delay, in v1
    # for step k + 1. exp() overflows to inf as in C (see _exp).
    try:
        e = exp(nr * (vent_offset - hy[0]))
    except OverflowError:
        e = inf
    v1 = vent_gain * e * hx[0]
    for k in range(n):
        i1 = k - nd
        if i1 >= 0:
            xd4 = X[i1 + 1]
            yd4 = Y[i1 + 1]
            xdm = 0.5 * (X[i1] + xd4) + h8 * (DX[i1] - DX[i1 + 1])
            ydm = 0.5 * (Y[i1] + yd4) + h8 * (DY[i1] - DY[i1 + 1])
        else:
            xdm = hmx[k]
            ydm = hmy[k]
            if i1 < -1:
                xd4 = hx[k + 1]
                yd4 = hy[k + 1]
            else:
                xd4 = X[0]
                yd4 = Y[0]

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

        xk = X[k]
        yk = Y[k]
        avm = alpha * vm
        bvm = beta * vm
        k1x = 1.0 - alpha * v1 * xk
        k1y = 1.0 - beta * v1 * yk
        k2x = 1.0 - avm * (xk + half_h * k1x)
        k2y = 1.0 - bvm * (yk + half_h * k1y)
        k3x = 1.0 - avm * (xk + half_h * k2x)
        k3y = 1.0 - bvm * (yk + half_h * k2y)
        k4x = 1.0 - alpha * v4 * (xk + h * k3x)
        k4y = 1.0 - beta * v4 * (yk + h * k3y)
        DX[k] = k1x
        DY[k] = k1y
        xn = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        yn = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        if not (isfinite(xn) and isfinite(yn)):
            status = k + 1
            break
        X[k + 1] = xn
        Y[k + 1] = yn
        v1 = v4

    if status == 0:
        DX[n] = 1.0 - alpha * v1 * X[n]
        DY[n] = 1.0 - beta * v1 * Y[n]

    x[:] = X
    y[:] = Y
    dx[:] = DX
    dy[:] = DY
    return status

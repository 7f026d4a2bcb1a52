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
    """
    hx = hist_x.tolist()
    hy = hist_y.tolist()
    hmx = hist_mid_x.tolist()
    hmy = hist_mid_y.tolist()
    n = int(n_steps)
    nd = int(n_delay)
    X = x.tolist()
    Y = y.tolist()
    DX = dx.tolist()
    DY = dy.tolist()

    half_h = 0.5 * h
    h6 = h / 6.0
    status = 0

    for k in range(n):
        i1 = k - nd
        if i1 < 0:
            xd1 = hx[k]
            yd1 = hy[k]
            xdm = hmx[k]
            ydm = hmy[k]
        else:
            xd1 = X[i1]
            yd1 = Y[i1]
            u0 = X[i1]
            u1 = X[i1 + 1]
            d0 = DX[i1]
            d1 = DX[i1 + 1]
            xdm = 0.5 * (u0 + u1) + 0.125 * h * (d0 - d1)
            u0 = Y[i1]
            u1 = Y[i1 + 1]
            d0 = DY[i1]
            d1 = DY[i1 + 1]
            ydm = 0.5 * (u0 + u1) + 0.125 * h * (d0 - d1)
        i4 = k + 1 - nd
        if i4 < 0:
            xd4 = hx[k + 1]
            yd4 = hy[k + 1]
        else:
            xd4 = X[i4]
            yd4 = Y[i4]

        v1 = vent_gain * _exp(-vent_rate * (vent_offset - yd1)) * xd1
        vm = vent_gain * _exp(-vent_rate * (vent_offset - ydm)) * xdm
        v4 = vent_gain * _exp(-vent_rate * (vent_offset - yd4)) * xd4

        xk = X[k]
        yk = Y[k]
        k1x = 1.0 - alpha * v1 * xk
        k1y = 1.0 - beta * v1 * yk
        k2x = 1.0 - alpha * vm * (xk + half_h * k1x)
        k2y = 1.0 - beta * vm * (yk + half_h * k1y)
        k3x = 1.0 - alpha * vm * (xk + half_h * k2x)
        k3y = 1.0 - beta * vm * (yk + half_h * k2y)
        k4x = 1.0 - alpha * v4 * (xk + h * k3x)
        k4y = 1.0 - beta * v4 * (yk + h * k3y)
        DX[k] = k1x
        DY[k] = k1y
        xn = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        yn = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        if not (math.isfinite(xn) and math.isfinite(yn)):
            status = k + 1
            break
        X[k + 1] = xn
        Y[k + 1] = yn

    if status == 0:
        i1 = n - nd
        if i1 < 0:
            xd1 = hx[n]
            yd1 = hy[n]
        else:
            xd1 = X[i1]
            yd1 = Y[i1]
        v1 = vent_gain * _exp(-vent_rate * (vent_offset - yd1)) * xd1
        DX[n] = 1.0 - alpha * v1 * X[n]
        DY[n] = 1.0 - beta * v1 * Y[n]

    x[:] = X
    y[:] = Y
    dx[:] = DX
    dy[:] = DY
    return status

"""The compiled and pure-Python steppers must be interchangeable bit for bit."""

import collections
import hashlib
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import BACKENDS, needs_kernel
from respfit import ConstantHistory, Constants, ModelParams, State, solve_dde
from respfit import backend
from respfit._stepper_py import _BATCH_MIN_DELAY
from respfit.errors import NonFiniteError
from respfit.solver import Grid, solve_dde_raw

HIST = ConstantHistory(State(35.0, 35.0))


def test_python_backend_always_available():
    assert "python" in backend.available()


def test_compiled_backend_built():
    # the build is expected to produce the extension in this repo
    assert "compiled" in backend.available()


@needs_kernel
def test_compiled_kernel_was_built_from_the_source_on_disk():
    # a stale in-place build would otherwise run an old kernel silently
    source = Path(backend.__file__).with_name("_stepper.c")
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    assert backend.available()["compiled"].SOURCE_SHA256 == digest


def test_kernel_source_compiles_without_warnings(tmp_path):
    # -Wall -Werror on the source on disk, which setup.py builds with -O2
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    source = Path(backend.__file__).with_name("_stepper.c")
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    build = subprocess.run(
        [*cc, "-c", "-O2", "-Wall", "-Werror", "-ffp-contract=off",
         f"-I{sysconfig.get_paths()['include']}", f'-DSTEPPER_SOURCE_SHA256="{digest}"',
         str(source), "-o", str(tmp_path / "_stepper.o")],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr


def test_kernel_source_names_no_private_c_api():
    # CPython's _Py names are internal and may change between releases
    source = Path(backend.__file__).with_name("_stepper.c").read_text()
    assert re.findall(r"\b_Py\w*", source) == []


@pytest.mark.parametrize(
    "alpha,beta,spd,t_end",
    [
        (0.5, 0.8, 50, 5.0),
        (0.8, 0.5, 50, 5.0),
        (3.7, 0.11, 97, 20.0),
        (0.05, 4.0, 10, 15.0),
        # window shorter than the delay: the final derivative reads history
        (0.5, 0.8, 50, 0.4),
    ],
)
@needs_kernel
def test_backends_bit_identical(alpha, beta, spd, t_end):
    p = ModelParams(alpha=alpha, beta=beta)
    backend.select("compiled")
    a = solve_dde(p, HIST, 0.0, t_end, steps_per_delay=spd)
    backend.select("python")
    b = solve_dde(p, HIST, 0.0, t_end, steps_per_delay=spd)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.dx, b.dx)
    assert np.array_equal(a.dy, b.dy)


@pytest.mark.parametrize(
    "spd,when",
    [
        (50, "t = 4.76 "),
        # the twin steps the later intervals in windows
        (_BATCH_MIN_DELAY, "t = 4.59896 "),
    ],
)
@needs_kernel
def test_backends_blow_up_identically(spd, when):
    messages = []
    for name in ("compiled", "python"):
        backend.select(name)
        with pytest.raises(NonFiniteError) as err:
            solve_dde_raw(-1.0, -1.0, Grid(Constants(), HIST, 0.0, 5.0, spd))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert when in messages[0]


# The stepper as it was before each delayed node's ventilation was carried
# from one step to the next (three exp() calls per step), kept verbatim as
# the reference both kernels must still reproduce bit for bit. It takes the
# history's state on the delayed grid and fills caller buffers; the kernels
# take the state once and return the arrays they allocate.
def _reference_exp(z):
    # C exp() saturates to inf/0.0; math.exp raises on overflow instead.
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _reference_integrate(
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

        v1 = vent_gain * _reference_exp(-vent_rate * (vent_offset - yd1)) * xd1
        vm = vent_gain * _reference_exp(-vent_rate * (vent_offset - ydm)) * xdm
        v4 = vent_gain * _reference_exp(-vent_rate * (vent_offset - yd4)) * xd4

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
        v1 = vent_gain * _reference_exp(-vent_rate * (vent_offset - yd1)) * xd1
        DX[n] = 1.0 - alpha * v1 * X[n]
        DY[n] = 1.0 - beta * v1 * Y[n]

    x[:] = X
    y[:] = Y
    dx[:] = DX
    dy[:] = DY
    return status


# Above this delayed y, exp(-0.05 * (100 - y)) overflows a double.
_EXP_OVERFLOW_Y = 100.0 + math.log(np.finfo(float).max) / 0.05


def _random_kernel_call(rng, overflow, delays=(1, 60)):
    """The reference's arguments for one call: random gains of either sign, delay, window and states.

    The steps per delay are drawn from range(*delays). Windows range from no
    step at all to eight delays. The history is one constant state, fed to
    the reference on the whole delayed grid and as the state at t0, x[0],
    y[0]. With overflow, its y straddles the level where exp() overflows to
    inf.
    """
    nd = int(rng.integers(*delays))
    n = int(rng.integers(0, 8 * nd + 2))
    alpha, beta = (float(v) for v in rng.uniform(-4.0, 4.0, 2))
    level = _EXP_OVERFLOW_Y if overflow else rng.uniform(1.0, 60.0)
    hx, hy = rng.uniform(0.5, 1.5, 2) * level
    return _reference_call(alpha, beta, n, nd, hx, hy)


def _reference_call(alpha, beta, n, nd, hx, hy):
    """The reference's arguments for n steps from the constant history (hx, hy), tau = 1."""
    outs = [np.zeros(n + 1) for _ in range(4)]
    outs[0][0], outs[1][0] = hx, hy
    return [alpha, beta, 0.14, 0.05, 100.0, 1.0 / nd, n, nd,
            np.full(nd + 1, hx), np.full(nd + 1, hy), np.full(nd, hx), np.full(nd, hy), *outs]


def _copy_args(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _kernel_call(args):
    """The reference's arguments in the kernels' contract.

    The kernels take the history's state, the reference's x[0], y[0], in
    place of the history arrays and the outputs, which they allocate.
    """
    return args[:8] + [float(args[12][0]), float(args[13][0])]


def _assert_matches_reference(integrate, args, label):
    """Run integrate and the reference on a copy of args; return the common status.

    A blow-up must return its status alone. A success must return status 0
    and four read-only arrays that hold all n + 1 of the reference's nodes.
    """
    ref_args = _copy_args(args)
    result = integrate(*_kernel_call(args))
    status = _reference_integrate(*ref_args)
    if status:
        assert result == (status,), label
        return status
    assert result[0] == 0 and len(result) == 5, label
    for out, want in zip(result[1:], ref_args[12:]):
        assert memoryview(out).readonly, label
        assert bytes(out) == want.tobytes(), label
    return status


@pytest.mark.parametrize("name", BACKENDS)
def test_kernel_matches_reference_stepper(name):
    integrate = backend.available()[name].integrate
    rng = np.random.default_rng(20221)
    blow_ups = overflows = one_delay = 0
    for i in range(240):
        overflow = i % 8 == 0
        args = _random_kernel_call(rng, overflow)
        if args[7] == 1:
            # the midpoint of step k would read dx[k] before step k writes it
            with pytest.raises(ValueError):
                integrate(*_kernel_call(args))
            one_delay += 1
            continue
        status = _assert_matches_reference(integrate, args, i)
        blow_ups += status != 0
        overflows += overflow and status != 0
    # both failure paths were exercised, not only clean runs
    assert overflows >= 20
    assert blow_ups - overflows >= 20
    assert one_delay >= 1


@pytest.mark.parametrize("name", BACKENDS)
def test_blow_ups_at_delay_interval_edges_match_reference_stepper(name):
    # The twin looks for a blow-up once per delay interval of n_delay steps;
    # wherever the first non-finite step falls, the status must be that of
    # the per-step reference. Short delays put many blow-ups on interval
    # edges.
    integrate = backend.available()[name].integrate
    rng = np.random.default_rng(70)
    seen = collections.Counter()
    for i in range(400):
        args = _random_kernel_call(rng, i % 2 == 0, delays=(2, 9))
        status = _assert_matches_reference(integrate, args, i)
        if status == 0:
            continue
        step, nd = status - 1, args[7]
        seen["first interval"] += step < nd
        seen["first step of a later interval"] += step >= nd and step % nd == 0
        seen["last step of an interval"] += step % nd == nd - 1
        # again with the window ending on the step that blows up
        args[6] = status
        args[12:] = [out[: status + 1] for out in args[12:]]
        assert _assert_matches_reference(integrate, args, i) == status
        seen["step n"] += 1
    for edge in ("first interval", "first step of a later interval",
                 "last step of an interval", "step n"):
        assert seen[edge] >= 5, (edge, seen)


@pytest.mark.parametrize("name", BACKENDS)
def test_windowed_twin_matches_reference_stepper(name):
    # From _BATCH_MIN_DELAY steps per delay on, the twin steps its later
    # intervals in windows of n_delay - 1 steps; the draws fall on both sides.
    integrate = backend.available()[name].integrate
    rng = np.random.default_rng(15)
    seen = collections.Counter()
    for i in range(160):
        overflow = i % 4 == 0
        args = _random_kernel_call(
            rng, overflow, delays=(_BATCH_MIN_DELAY - 16, _BATCH_MIN_DELAY + 16)
        )
        n, nd = args[6], args[7]
        if i % 4 == 1:
            # the last window ends on step n
            n = n // (nd - 1) * (nd - 1)
            args[6] = n
            args[12:] = [out[: n + 1] for out in args[12:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = _assert_matches_reference(integrate, args, i)
        if nd < _BATCH_MIN_DELAY:
            seen["step by step"] += n > nd
            continue
        seen["n < n_delay"] += n < nd
        seen["n a multiple of n_delay - 1"] += n > nd and n % (nd - 1) == 0
        seen["blow-up in a window"] += status > nd
        seen["exp-overflow history"] += overflow
    for case in ("step by step", "n < n_delay", "n a multiple of n_delay - 1",
                 "blow-up in a window", "exp-overflow history"):
        assert seen[case] >= 5, (case, seen)


@pytest.mark.parametrize("name", BACKENDS)
def test_windowed_twin_raises_no_warning_as_its_gains_turn_nan(name):
    # With alpha = beta = 0 the state grows by t, so the delayed y crosses the
    # level where exp() overflows in the second interval. Its gains are then
    # 0 * inf = nan, which NumPy would report as a RuntimeWarning.
    args = _reference_call(0.0, 0.0, 3 * _BATCH_MIN_DELAY, _BATCH_MIN_DELAY, 1.0,
                           _EXP_OVERFLOW_Y - 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = _assert_matches_reference(backend.available()[name].integrate, args, name)
    assert _BATCH_MIN_DELAY < status < 2 * _BATCH_MIN_DELAY


@pytest.mark.parametrize("y_hist", [60.0, 1.2 * _EXP_OVERFLOW_Y])
@pytest.mark.parametrize("name", BACKENDS)
def test_grid_solve_matches_reference_stepper(name, y_hist):
    # solve_dde_raw on a Grid with a constant history against the reference
    # fed the history's state on the delayed grid; with a y above the exp
    # overflow level the first interval blows up
    backend.select(name)
    nd = 20
    grid = Grid(Constants(), ConstantHistory(State(30.0, y_hist)), 0.0, 3.0, nd)
    hist = (np.full(nd + 1, 30.0), np.full(nd + 1, y_hist), np.full(nd, 30.0), np.full(nd, y_hist))
    statuses = []
    for alpha, beta in ((0.5, 0.8), (-2.0, 0.3)):
        outs = [np.zeros(grid.n + 1) for _ in range(4)]
        outs[0][0], outs[1][0] = 30.0, y_hist
        status = _reference_integrate(
            alpha, beta, 0.14, 0.05, 100.0, grid.step, grid.n, nd, *hist, *outs
        )
        statuses.append(status)
        if status:
            with pytest.raises(NonFiniteError, match=f"t = {status * grid.step:.6g} "):
                solve_dde_raw(alpha, beta, grid)
            continue
        traj = solve_dde_raw(alpha, beta, grid)
        for got, want in zip((traj.x, traj.y, traj.dx, traj.dy), outs):
            assert got.tobytes() == want.tobytes()
    if y_hist > _EXP_OVERFLOW_Y:
        assert all(0 < s <= nd for s in statuses)
    else:
        assert statuses[0] == 0


@pytest.mark.parametrize("name", BACKENDS)
def test_grid_solve_takes_the_grid_ventilation_constants(name):
    # the kernels hold the only copy of V(xd, yd); a Grid's own constants must
    # reach it in the kernels' argument order
    backend.select(name)
    nd = 20
    grid = Grid(Constants(vent_gain=0.2, vent_rate=0.07, vent_offset=90.0),
                ConstantHistory(State(20.0, 30.0)), 0.0, 3.0, nd)
    args = _reference_call(0.5, 0.8, grid.n, nd, 20.0, 30.0)
    args[2:5] = [0.2, 0.07, 90.0]
    assert _reference_integrate(*args) == 0
    traj = solve_dde_raw(0.5, 0.8, grid)
    for got, want in zip((traj.x, traj.y, traj.dx, traj.dy), args[12:]):
        assert got.tobytes() == want.tobytes()


def test_twin_evaluates_no_exp_over_the_first_delay_interval(monkeypatch):
    # one exp for the ventilation at node 0, then two per later step, also
    # when the later steps run in windows
    twin = backend.available()["python"]
    calls = []
    real_exp = math.exp

    def counting_exp(z):
        calls.append(z)
        return real_exp(z)

    monkeypatch.setattr(math, "exp", counting_exp)
    windowed = (3 * _BATCH_MIN_DELAY, _BATCH_MIN_DELAY)
    for n_steps, n_delay in ((50, 50), (51, 50), (250, 50), (9, 2), windowed):
        args = _kernel_args(n_steps, n_delay)
        calls.clear()
        assert twin.integrate(*args)[0] == 0
        assert len(calls) == 1 + 2 * (n_steps - n_delay), (n_steps, n_delay)


@needs_kernel
def test_kernels_take_the_same_parameters():
    # the two copies of the kernel must not drift apart in their contract
    compiled = backend.available()["compiled"].integrate
    twin = backend.available()["python"].integrate
    names = [p.name for p in inspect.signature(compiled).parameters.values()]
    assert names == list(inspect.signature(twin).parameters)
    # perfbench's tracer reads the step count at this place
    assert names[6] == "n_steps"


def _kernel_args(n_steps=20, n_delay=50):
    return [0.5, 0.8, 0.14, 0.05, 100.0, 0.02, n_steps, n_delay, 7.0, 7.0]


def _zero_delay(args):
    # the last stage of step k would read node k + 1 before step k writes it
    args[7] = 0


def _one_delay(args):
    # the midpoint of step k would read dx[k] before step k writes it
    args[7] = 1


def _negative_steps(args):
    args[6] = -1


def _unallocatable_steps(args):
    # 8 * (n_steps + 1) bytes would overflow; the check comes before any
    # allocation, and without it the non-finite state stops the twin at once
    args[6] = sys.maxsize // 8
    args[8] = math.nan


@pytest.mark.parametrize(
    "spoil", [_zero_delay, _one_delay, _negative_steps, _unallocatable_steps]
)
@pytest.mark.parametrize("name", BACKENDS)
def test_kernel_rejects_bad_counts(name, spoil):
    integrate = backend.available()[name].integrate
    args = _kernel_args()
    assert integrate(*args)[0] == 0  # the unspoiled arguments are accepted
    spoil(args)
    with pytest.raises(ValueError):
        integrate(*args)


@pytest.mark.parametrize("name", BACKENDS)
def test_kernel_rejects_fractional_step_counts(name):
    integrate = backend.available()[name].integrate
    for i in (6, 7):  # n_steps, n_delay
        args = _kernel_args()
        args[i] += 0.5
        with pytest.raises(TypeError):
            integrate(*args)


def test_select_unknown_backend():
    with pytest.raises(ValueError):
        backend.select("fortran")


@pytest.mark.parametrize("name", BACKENDS)
def test_select_switches_active_module(name):
    assert backend.select(name) is backend.available()[name]
    assert backend.selected() == name
    assert backend.active is backend.available()[name]


def test_env_override_forces_python():
    code = "from respfit import backend; print(backend.selected())"
    env = {"PATH": "/usr/bin:/bin", "RESPFIT_PURE_PYTHON": "1"}
    if "PYTHONPATH" in os.environ:
        # an uninstalled tree is importable only through the parent's path
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"

"""The compiled and pure-Python steppers must be interchangeable bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from respfit import ConstantHistory, ModelParams, State, solve_dde
from respfit import backend
from respfit.errors import NonFiniteError
from respfit.solver import solve_dde_raw

HIST = ConstantHistory(State(35.0, 35.0))

needs_kernel = pytest.mark.skipif(
    "compiled" not in backend.available(), reason="extension not built"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    name = backend.selected()
    yield
    backend.select(name)


def test_python_backend_always_available():
    assert "python" in backend.available()


def test_compiled_backend_built():
    # the build is expected to produce the extension in this repo
    assert "compiled" in backend.available()


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


@needs_kernel
def test_backends_blow_up_identically():
    messages = []
    for name in ("compiled", "python"):
        backend.select(name)
        with pytest.raises(NonFiniteError) as err:
            solve_dde_raw(-1.0, -1.0, 1.0, 0.14, 0.05, 100.0, HIST, 0.0, 5.0, 50)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "t = 4.76 " in messages[0]


def _kernel_args(n_steps=20, n_delay=50):
    hist = np.full(n_delay + 1, 35.0)
    mid = np.full(n_delay, 35.0)
    outs = [np.full(n_steps + 1, 7.0) for _ in range(4)]
    return [0.5, 0.8, 0.14, 0.05, 100.0, 0.02, n_steps, n_delay,
            hist, hist.copy(), mid, mid.copy(), *outs]


def _short_hist_x(args):
    args[8] = args[8][:10].copy()


def _float32_hist_mid_y(args):
    args[11] = args[11].astype(np.float32)


def _read_only_output(args):
    args[14].flags.writeable = False


def _strided_output(args):
    args[15] = np.full(2 * len(args[15]), 7.0)[::2]


@pytest.mark.parametrize(
    "spoil", [_short_hist_x, _float32_hist_mid_y, _read_only_output, _strided_output]
)
@needs_kernel
def test_kernel_rejects_bad_buffers(spoil):
    integrate = backend.available()["compiled"].integrate
    args = _kernel_args()
    integrate(*args)  # the unspoiled arguments are accepted
    args = _kernel_args()
    spoil(args)
    with pytest.raises(ValueError):
        integrate(*args)
    # validation happens before the loop, so no output was written
    for out in args[12:]:
        assert np.all(out == 7.0)


def test_select_unknown_backend():
    with pytest.raises(ValueError):
        backend.select("fortran")


def test_select_switches_active_module():
    backend.select("python")
    assert backend.selected() == "python"
    assert backend.active is backend.available()["python"]


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

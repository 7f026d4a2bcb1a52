"""Stepper backend selection.

The integrator kernel exists twice: a hand-written C extension
(``respfit._stepper``, built from ``_stepper.c``) and a pure-Python twin
(``respfit._stepper_py``) with identical semantics.
The compiled one is preferred when importable; set ``RESPFIT_PURE_PYTHON=1``
to force the pure backend, or call :func:`select` at runtime. Both produce
bit-identical output (see tests/test_backends.py).
"""

from __future__ import annotations

import os

from . import _stepper_py

try:
    from . import _stepper
except ImportError:
    _stepper = None

PURE_PYTHON_ENV = "RESPFIT_PURE_PYTHON"


def available() -> dict:
    """Importable backends by name."""
    out = {}
    if _stepper is not None:
        out["compiled"] = _stepper
    out["python"] = _stepper_py
    return out


if os.environ.get(PURE_PYTHON_ENV, "").strip() not in ("", "0"):
    active = _stepper_py
else:
    active = _stepper or _stepper_py


def select(name: str):
    """Switch the active backend ('compiled' or 'python'). Returns the module."""
    global active
    backends = available()
    if name not in backends:
        raise ValueError(f"unknown backend {name!r}; available: {sorted(backends)}")
    active = backends[name]
    return active


def selected() -> str:
    """Name of the backend currently in use."""
    return "python" if active is _stepper_py else "compiled"

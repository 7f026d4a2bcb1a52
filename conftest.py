"""Run the test session against a fresh build of the C stepper.

Before any test module imports respfit, ``src/respfit/_stepper.c`` is
compiled into a temporary directory and registered as ``respfit._stepper``,
so the compiled-backend tests always check the source on disk. Nothing is
written into the checkout: an in-place build would change which backend a
plain ``import respfit`` selects there, and so what ``perfbench/run.py``
measures. Without a working C compiler nothing is registered, the session
runs on the pure-Python backend and ``test_compiled_backend_built`` fails.

This file sits at the repository root because pytest loads it before it
collects any test module, ``perfbench/test_perfbench.py`` included.
"""

import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def _register_fresh_stepper() -> None:
    tmp = tempfile.mkdtemp(prefix="respfit-stepper-")
    try:
        build = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", tmp, "--build-temp", tmp],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if build.returncode != 0:
            print(f"C stepper not built; testing without it:\n{build.stderr}", file=sys.stderr)
            return
        (path,) = Path(tmp, "respfit").glob("_stepper*")
        spec = importlib.util.spec_from_file_location("respfit._stepper", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        # the loaded extension stays usable after its file is removed
        shutil.rmtree(tmp, ignore_errors=True)


def pytest_configure(config):
    if "respfit" not in sys.modules:
        _register_fresh_stepper()

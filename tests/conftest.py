"""Shared pytest wiring: reproducible Hypothesis runs, the backends, the acceptance verdicts."""

import tempfile

import pytest

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the tests that need Hypothesis skip, or fail to import, on their own
    settings = None
else:
    # no example database on disk, and the same examples on every run that
    # collects the same modules: Hypothesis also draws the constants it reads
    # from every loaded module, so collecting other modules draws other examples
    settings.register_profile("respfit", derandomize=True, database=None)
    settings.load_profile("respfit")

ACCEPTANCE_LINES: list[str] = []

# A test that needs the compiled stepper, which is skipped where it is not built
needs_kernel = pytest.mark.needs_kernel
BACKENDS = ["python", pytest.param("compiled", marks=needs_kernel)]


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_kernel: skipped where the stepper is not built")
    # Hypothesis still caches the constants it reads from source files; keep
    # that cache out of the checkout, in a directory removed after the session
    if settings is not None:
        home = tempfile.TemporaryDirectory(prefix="respfit-hypothesis-")
        set_hypothesis_home_dir(home.name)
        config.add_cleanup(home.cleanup)


def pytest_runtest_setup(item):
    # respfit is imported here, not above: the root conftest.py must register
    # its fresh build of the stepper before the package is first imported
    from respfit import backend

    if item.get_closest_marker("needs_kernel") and "compiled" not in backend.available():
        pytest.skip("extension not built")


@pytest.fixture(autouse=True)
def _restore_backend():
    """Select again, after each test, the backend the test started with."""
    from respfit import backend

    name = backend.selected()
    yield
    backend.select(name)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

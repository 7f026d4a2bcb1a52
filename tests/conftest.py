"""Shared pytest wiring: reproducible Hypothesis runs and the acceptance verdict lines."""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the tests that need Hypothesis skip, or fail to import, on their own
    settings = None
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("respfit", derandomize=True, database=None)
    settings.load_profile("respfit")

ACCEPTANCE_LINES: list[str] = []


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from source files; keep
    # that cache out of the checkout, in a directory removed after the session
    if settings is not None:
        home = tempfile.TemporaryDirectory(prefix="respfit-hypothesis-")
        set_hypothesis_home_dir(home.name)
        config.add_cleanup(home.cleanup)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

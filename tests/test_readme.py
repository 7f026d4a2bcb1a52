"""README's library examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_readme_library_use_runs(capsys):
    blocks = _library_blocks()
    assert blocks, "README has no python block under 'Library use'"
    namespace: dict = {}
    # the later blocks reuse the names the first one defines
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    fit = namespace["fit"]
    assert fit.termination.value != "MaxIterations"
    assert fit.best_fit == pytest.approx((0.5, 0.8), rel=0.05)
    assert capsys.readouterr().out.startswith(f"{fit.best_fit} {fit.termination.value} ")

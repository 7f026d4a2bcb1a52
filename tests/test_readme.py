"""README's library examples run as written, and its tables state the code's values."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from respfit import PRESETS, Constants, ExperimentConfig

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


def test_readme_preset_table_is_the_code_s():
    text = README.read_text()
    shared = re.search(
        r"truth `\(alpha, beta\) = \((.*?), (.*?)\)`, (\d+) samples on `\[(.*?), (.*?)\]`,"
        r"\s+and seed (\d+) ",
        text,
    )
    assert shared, "README no longer states what the presets share"
    rows = re.findall(r"^\| (ex\d) +\| \((.*?)\) +\| ([\d.]+) +\| (.*?) *\|$", text, re.MULTILINE)
    readme = {
        name: (
            tuple(map(float, p0.split(", "))),
            float(sigma),
            re.sub(r"^constant \((.*), (.*)\)$", r"constant:\1,\2", history),
        )
        for name, p0, sigma, history in rows
    }
    assert readme == {name: (c.p0, c.sigma, c.history_spec) for name, c in PRESETS.items()}
    for c in PRESETS.values():
        held = (c.truth.alpha, c.truth.beta, c.n_points, c.t0, c.t_end, c.seed)
        assert held == tuple(map(float, shared.groups())), c.name


def test_readme_config_file_defaults_are_the_code_s():
    listed = README.read_text().split("Optional keys with their defaults:", 1)[1]
    readme = dict(re.findall(r"`(\w+)`\s+\(([^()]*)\)", listed.split("and `out_dir`", 1)[0]))
    assert set(readme) == {
        "name", "tau", "vent_gain", "vent_rate", "vent_offset", "n_points", "history", "t0",
        "t_end", "steps_per_delay", "algorithms",
    }
    defaults = {f.name: f.default for f in fields(Constants) + fields(ExperimentConfig)}
    defaults["history"] = defaults.pop("history_spec")
    for key, text in readme.items():
        default = defaults[key]
        first = text.split(" or ")[0].strip("`")  # history lists the default first
        if isinstance(default, tuple):
            assert tuple(first.split(",")) == default, key
        elif isinstance(default, str):
            assert first == default, key
        else:
            assert float(first) == default, key

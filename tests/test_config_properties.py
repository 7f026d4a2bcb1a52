"""Property test: any config file gives a result or a named error, never a traceback.

Each example starts from a config file of ordinary values over all 18 keys
and spoils up to four of them with values from the edges: non-finite, huge
(|t0| up to 1e16, sigma up to 1e308), negative, zero, off the step grid
(which runs), unparsable, or absent. Windows stay within 20 time units and valid sample
counts within 60, so an example that runs end to end stays cheap. A
deterministic pass runs each edge value of the five keys that set the
equilibrium with history = equilibrium.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from respfit import experiments  # noqa: E402
from respfit.cli import main  # noqa: E402
from respfit.data import MAX_POINTS  # noqa: E402
from respfit.solver import MAX_STEPS  # noqa: E402

KEYS = experiments._CONFIG_KEYS
STAGES = (
    "resolve_history",
    "generate_dataset",
    "fit_lm",
    "fit_tr",
)
# a file that sits where an out_dir wants a directory
BLOCKED = "blocked"


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


EDGE_FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e308", "-1e308", "1e16", "abc", "")
NAME_TEXT = st.text("abcXYZ019_-. ", min_size=1, max_size=12)

ORDINARY = {
    "name": NAME_TEXT,
    "alpha": _floats(0.1, 2.0),
    "beta": _floats(0.1, 2.0),
    "tau": st.sampled_from(["1.0", "0.5", "2", "0.25"]),
    "vent_gain": _floats(0.05, 0.3),
    "vent_rate": _floats(0.01, 0.1),
    "vent_offset": _floats(50.0, 150.0),
    "p0_alpha": _floats(0.01, 1.0),
    "p0_beta": _floats(0.01, 1.0),
    "sigma": st.one_of(st.just("0"), _floats(0.0, 1.0)),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "n_points": st.integers(2, 60).map(str),
    "history": st.one_of(
        st.sampled_from(["constant:35,35", "equilibrium"]),
        st.tuples(_floats(1.0, 60.0), _floats(1.0, 60.0)).map(lambda v: "constant:%s,%s" % v),
    ),
    # t0 and t_end are drawn together, see _window
    "steps_per_delay": st.integers(2, 60).map(str),
    "algorithms": st.sampled_from(["lm,tr", "lm", "tr", "tr,lm", " LM , tr "]),
    "out_dir": st.one_of(st.none(), NAME_TEXT.map(lambda s: f"runs/{s}")),
}

# the edge values of the keys that set the equilibrium, see
# test_each_equilibrium_edge_gives_a_result_or_a_named_error
EQUILIBRIUM_EDGES = {
    "alpha": EDGE_FLOATS + ("-0.5", "1e6", "1e-12"),
    "beta": EDGE_FLOATS + ("-0.5", "1e6", "1e-12"),
    "vent_gain": EDGE_FLOATS + ("-0.14",),
    "vent_rate": EDGE_FLOATS + ("-0.05", "20"),
    "vent_offset": EDGE_FLOATS + ("-1e4",),
}

WILD = {
    **{key: st.sampled_from(values) for key, values in EQUILIBRIUM_EDGES.items()},
    "name": st.sampled_from(["a\x00b", "\x00"]),
    "tau": st.sampled_from(EDGE_FLOATS + ("-1", "0.7", "1e-300", "1e300")),
    "p0_alpha": st.sampled_from(EDGE_FLOATS + ("-0.3", "1e6")),
    "p0_beta": st.sampled_from(EDGE_FLOATS + ("-0.5", "1e6")),
    "sigma": st.one_of(
        st.sampled_from(EDGE_FLOATS + ("-0.2", "1e150", "1e200", "1e300")),
        st.floats(1.0, 1e308).map(repr),
    ),
    "seed": st.sampled_from(["-1", str(2**64), "1.5", "x", "", str(10**40)]),
    "n_points": st.sampled_from(["0", "1", "-5", "2.5", "x", str(MAX_POINTS + 1), "10**9"]),
    "history": st.sampled_from(
        [
            "constant:nan,1",
            "constant:inf,35",
            "constant:1e308,1e308",
            "constant:-5,3",
            "constant:0,0",
            "constant:35",
            "constant:a,b",
            "spline",
            "",
        ]
    ),
    "steps_per_delay": st.sampled_from(
        ["0", "1", "-5", "2.5", "x", str(MAX_STEPS + 1), str(10**12)]
    ),
    "algorithms": st.sampled_from(["", ",", "lm,lm", "newton", "lm,tr,lm"]),
    "out_dir": st.sampled_from([BLOCKED, f"{BLOCKED}/sub", "a\x00b"]),
}


@st.composite
def _window(draw, wild: bool):
    """The t0 and t_end lines: an ordinary window, or one with an edge at either end."""
    t0 = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    width = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0, 20.0]))
    if not wild:
        return {"t0": repr(t0), "t_end": repr(t0 + width)}
    kind = draw(st.sampled_from(["far", "t0", "t_end", "off_grid"]))
    if kind == "far":
        t0 = draw(st.sampled_from([1e15, -1e15, 1e16, -1e16, 1e7, 2e7, 1e5]))
        return {"t0": repr(t0), "t_end": repr(t0 + width)}
    if kind == "t0":
        return {"t0": draw(st.sampled_from(EDGE_FLOATS)), "t_end": repr(t0 + width)}
    if kind == "off_grid":
        return {"t0": repr(t0), "t_end": repr(t0 + draw(st.floats(-20.0, 20.0)))}
    t_end = draw(st.sampled_from(EDGE_FLOATS + (repr(t0), repr(t0 - 1.0))))
    return {"t0": repr(t0), "t_end": t_end}


@st.composite
def config_files(draw) -> dict[str, str | None]:
    """Key -> value text (None: the key is left out), over all 18 keys."""
    spoiled = draw(st.sets(st.sampled_from(KEYS), max_size=4))
    values = {}
    for key in KEYS:
        if key in ("t0", "t_end"):
            continue
        if key in spoiled:
            values[key] = draw(st.one_of(st.none(), WILD[key]))
        else:
            values[key] = draw(ORDINARY[key])
    values.update(draw(_window(wild="t0" in spoiled or "t_end" in spoiled)))
    return values


# the preset ex1 as a config file, for the explicit examples below
EX1 = {
    "name": "ex1",
    "alpha": "0.5",
    "beta": "0.8",
    "tau": "1.0",
    "vent_gain": "0.14",
    "vent_rate": "0.05",
    "vent_offset": "100.0",
    "p0_alpha": "0.3",
    "p0_beta": "0.5",
    "sigma": "0.2",
    "seed": "1",
    "n_points": "51",
    "history": "constant:35,35",
    "steps_per_delay": "50",
    "algorithms": "lm,tr",
    "out_dir": None,
    "t0": "0.0",
    "t_end": "5.0",
}


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _names_a_key_or_stage(message: str) -> bool:
    """The message opens with a key or a stage, or says which required key is missing."""
    first = re.match(r"\w+", message)
    if first and first.group() in KEYS + STAGES:
        return True
    return any(message == f"missing required key {key!r}" for key in KEYS)


def _run_config_file(values: dict[str, str | None]) -> int:
    """Run one config file through the CLI and check the contract; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / BLOCKED).write_text("a file where a run directory should go")
        lines = [f"{key} = {text}" for key, text in values.items() if text is not None]
        (root / "exp.cfg").write_text("\n".join(lines) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a default out_<name> lands in the scratch directory
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a warning escapes as a failure
                    code = main(["run-config", "exp.cfg"])
        finally:
            os.chdir(cwd)
        out, err = stdout.getvalue(), stderr.getvalue()

        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err == ""
            name = "custom" if values["name"] is None else values["name"].strip()
            assert out.splitlines()[0].startswith(f"{name}  seed=")
        else:
            assert out == ""
            assert err.count("\n") == 1, err
            prefix, _, message = err.rstrip("\n").partition(": ")
            assert prefix == {1: "configuration error", 2: "solver failure", 3: "i/o failure"}[code]
            assert _names_a_key_or_stage(message), err
            if code == 3:
                assert BLOCKED in message  # names the path that failed
        for path in root.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
    return code


@settings(max_examples=200, deadline=timedelta(seconds=10))
@given(values=config_files())
@example(values=EX1)
@example(values={**EX1, "out_dir": BLOCKED})
@example(values={**EX1, "name": "a\x00b"})
@example(values={**EX1, "sigma": "1e308"})
@example(values={**EX1, "sigma": "1e150"})
@example(values={**EX1, "t0": "1e15", "t_end": "1000000000000005.0"})
@example(values={**EX1, "t0": "1e6", "t_end": "1000000.02", "n_points": "100"})
def test_any_config_file_gives_a_result_or_a_named_error(values):
    assert len(KEYS) == 18
    event(f"exit {_run_config_file(values)}")


def test_each_equilibrium_edge_gives_a_result_or_a_named_error():
    # The derandomized examples above never pair an edge of these keys with
    # an equilibrium history, where alpha = 5e-324 ended in a traceback and
    # vent_rate = 20 in an overflow warning from a trial step's cost.
    for key, values in EQUILIBRIUM_EDGES.items():
        for value in values:
            _run_config_file({**EX1, key: value, "history": "equilibrium"})

import filecmp
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from respfit import experiments, fitting
from respfit.cli import main
from respfit.data import generate_dataset, save_dataset
from respfit.errors import NonFiniteError, naming
from respfit.solver import Grid, solve_dde_raw, time_slack

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CONFIG_TEXT = """\
alpha = 0.5
beta = 0.8
p0_alpha = 0.3
p0_beta = 0.5
sigma = 0.2
seed = 1
"""


def test_run_example_exit_zero(tmp_path, capsys):
    code = main(["run-example", "ex1", "--out", str(tmp_path / "run")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ex1" in out
    assert "LM" in out and "TR" in out
    assert (tmp_path / "run" / "summary.json").exists()
    assert out == (
        "ex1  seed=1  sigma=0.2\n"
        "  truth      alpha=0.5000  beta=0.8000\n"
        "  LM         alpha=0.5013  beta=0.8022  err%=(0.26, 0.28)  iterations=4\n"
        "  TR         alpha=0.5013  beta=0.8022  err%=(0.26, 0.28)  iterations=4\n"
    )


def test_run_config_prints_algorithms_in_a_fixed_order(tmp_path, capsys):
    # the record lists them as configured; the printout keeps LM before TR
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + f"algorithms = tr,lm\nout_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:]] == ["LM", "TR"]
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["algorithms"] == ["tr", "lm"]


def test_run_example_seed_and_sigma_overrides(tmp_path):
    code = main(
        ["run-example", "ex1", "--seed", "7", "--sigma", "0.1", "--out", str(tmp_path)]
    )
    assert code == 0
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["seed"] == 7
    assert summary["sigma"] == 0.1


def test_unknown_example_is_config_error(tmp_path, capsys):
    code = main(["run-example", "ex7", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_bad_flag_is_config_error(capsys):
    assert main(["run-example", "ex1", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_over_long_window_is_config_error(tmp_path, capsys, monkeypatch):
    # rejected by validation, before anything is generated or allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("generate_dataset called for an over-long window")

    monkeypatch.setattr("respfit.experiments.generate_dataset", unreachable)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(CONFIG_TEXT + f"t_end = 1e9\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run-config", str(cfg)]) == 1
    assert "t_end" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_over_large_sample_count_is_config_error(tmp_path, capsys, monkeypatch):
    # rejected by validation, before the sample times are allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("generate_dataset called for an over-large sample count")

    monkeypatch.setattr("respfit.experiments.generate_dataset", unreachable)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(CONFIG_TEXT + f"n_points = 10000000000000\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run-config", str(cfg)]) == 1
    assert "n_points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + f"out_dir = {tmp_path / 'cfg_run'}\n")
    assert main(["run-config", str(cfg)]) == 0
    assert (tmp_path / "cfg_run" / "summary.json").exists()
    capsys.readouterr()


def test_run_config_default_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + "name = demo\n")
    assert main(["run-config", str(cfg)]) == 0
    assert (tmp_path / "out_demo" / "summary.json").exists()
    capsys.readouterr()


def test_run_config_unknown_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + "frobnicate = yes\n")
    assert main(["run-config", str(cfg)]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_missing_config_file_exit_one(tmp_path, capsys):
    assert main(["run-config", str(tmp_path / "nope.cfg")]) == 1
    capsys.readouterr()


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a name line holding b"\xff\xfe" ended in a UnicodeDecodeError traceback
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(CONFIG_TEXT.encode() + b"name = \xff\xfe\n")
    assert main(["run-config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"configuration error: config file {cfg} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_solver_failure_exit_two(tmp_path, capsys):
    # a valid but stiff truth: explicit RK4 at h = 0.02 blows up while the
    # dataset is generated
    cfg = tmp_path / "exp.cfg"
    text = CONFIG_TEXT.replace("alpha = 0.5", "alpha = 1e6")
    cfg.write_text(text + f"out_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "generate_dataset" in err  # failing stage is named
    assert not (tmp_path / "r").exists()  # no empty run directory is left


def test_missing_equilibrium_names_its_stage(tmp_path, capsys):
    # with a vanishing alpha the equilibrium leaves the search bracket
    cfg = tmp_path / "exp.cfg"
    text = CONFIG_TEXT.replace("alpha = 0.5", "alpha = 1e-12")
    cfg.write_text(text + f"history = equilibrium\nout_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "solver failure: resolve_history: no equilibrium" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "lines",
    [
        # alpha * vent_gain underflows to 0, whose log was a math domain error
        "alpha = 5e-324\n",
        "alpha = 0.5\nvent_gain = 5e-324\n",
        # the search returned nan, reported as the finiteness of x, no config key
        "alpha = 0.5\nvent_gain = 1e308\nvent_rate = 1e308\nvent_offset = 1e308\n",
    ],
    ids=["alpha", "vent_gain", "vent_constants"],
)
def test_extreme_equilibrium_constants_are_a_resolve_history_failure(tmp_path, capsys, lines):
    cfg = tmp_path / "exp.cfg"
    text = CONFIG_TEXT.replace("alpha = 0.5\n", lines)
    cfg.write_text(text + f"history = equilibrium\nout_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: resolve_history: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_huge_steps_per_delay_is_config_error(tmp_path, capsys, monkeypatch):
    # ten steps, but a delayed grid of 10**9 nodes
    def unreachable(*args, **kwargs):
        raise AssertionError("generate_dataset called for an oversized delayed grid")

    monkeypatch.setattr("respfit.experiments.generate_dataset", unreachable)
    cfg = tmp_path / "spd.cfg"
    extra = f"steps_per_delay = 1000000000\nt_end = 1e-8\nout_dir = {tmp_path / 'out'}\n"
    cfg.write_text(CONFIG_TEXT + extra)
    assert main(["run-config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "steps_per_delay" in err
    assert not (tmp_path / "out").exists()


def test_run_config_solves_the_equilibrium_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = experiments.equilibrium_solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "equilibrium_solve", counting_solve)
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(CONFIG_TEXT + f"history = equilibrium\nout_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "extra", ["t_end = 5.01", "tau = 0.7", "t0 = -10.0\nt_end = 10.000000015"],
    ids=["t_end = 5.01", "tau = 0.7", "t_end past a whole count by 1.5 time slacks"],
)
def test_window_off_the_step_grid_runs(tmp_path, capsys, extra):
    # The grid ends at the first node at or past t_end, less its time slack.
    # The last window lies 1.5e-8 past 1,000 steps: 7.5e-7 steps, within a
    # slack of 1e-9 * 1,000 steps, but past the 1e-8 a time of 10 may be off.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(CONFIG_TEXT + f"{extra}\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run-config", str(cfg)]) == 0
    capsys.readouterr()
    config = experiments.parse_config_file(cfg)
    constants, t0, t_end = config.truth.constants, config.t0, config.t_end
    h = constants.tau / config.steps_per_delay
    last = float(np.loadtxt(tmp_path / "out" / "fit_lm.csv", delimiter=",", skiprows=1)[-1, 0])
    assert t_end - time_slack(t0, t_end) <= last < t_end + h
    # the fitted trajectory is a solve on the whole window [t0, last node]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["t0"], summary["t_end"]) == (t0, t_end)
    grid = Grid(constants, experiments.resolve_history(config.history_spec, config.truth), t0,
                last, config.steps_per_delay)
    fit = summary["lm"]["best_fit"]
    solve_dde_raw(fit["alpha"], fit["beta"], grid).to_csv(tmp_path / "reference.csv")
    assert filecmp.cmp(tmp_path / "out" / "fit_lm.csv", tmp_path / "reference.csv", shallow=False)


@pytest.mark.parametrize("t0", ["1e15", "-1e15", "1e16"])
def test_window_far_from_zero_is_config_error(tmp_path, capsys, monkeypatch, t0):
    # a step of 0.02 does not resolve node or measurement times there
    def unreachable(*args, **kwargs):
        raise AssertionError("generate_dataset called for an unresolved window")

    monkeypatch.setattr("respfit.experiments.generate_dataset", unreachable)
    cfg = tmp_path / "far.cfg"
    t_end = repr(float(t0) + 5)
    cfg.write_text(CONFIG_TEXT + f"t0 = {t0}\nt_end = {t_end}\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run-config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: t_end:" in err and "does not resolve" in err
    assert not (tmp_path / "out").exists()


def test_unresolved_measurement_spacing_is_config_error(tmp_path, capsys):
    # one step of the grid resolves at 1e6, but 99 measurement intervals within it do not
    cfg = tmp_path / "dense.cfg"
    extra = f"t0 = 1e6\nt_end = 1000000.02\nn_points = 100\nout_dir = {tmp_path / 'out'}\n"
    cfg.write_text(CONFIG_TEXT + extra)
    assert main(["run-config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: t_end:" in err and "n_points = 100" in err
    assert not (tmp_path / "out").exists()


def test_overflowing_noise_is_solver_failure(tmp_path, capsys):
    cfg = tmp_path / "loud.cfg"
    text = CONFIG_TEXT.replace("sigma = 0.2", "sigma = 1e308")
    cfg.write_text(text + f"out_dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "solver failure: generate_dataset: noise of sigma = 1e+308 overflows the measurements\n"
    )
    assert not (tmp_path / "out").exists()


def test_non_finite_start_cost_is_solver_failure(tmp_path, capsys):
    # observations at the 1e300 scale square to an infinite cost at p0; the
    # fit must fail instead of reporting convergence, and write nothing
    out = tmp_path / "out"
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(CONFIG_TEXT.replace("sigma = 0.2", "sigma = 1e300") + f"out_dir = {out}\n")
    assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "fit_lm" in err
    assert not out.exists()
    # its dataset, saved on its own, is standard JSON and a finite CSV
    c = experiments.parse_config_file(cfg)
    history = experiments.resolve_history(c.history_spec, c.truth)
    dataset = generate_dataset(c.truth, history, c.t0, c.t_end, c.n_points, c.sigma, c.seed)
    out.mkdir()
    save_dataset(dataset, out / "dataset.csv", history=history)
    written = sorted(out.iterdir())
    assert [p.name for p in written] == ["dataset.csv", "dataset_meta.json"]
    for path in written:
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text, path.name
    json.loads((out / "dataset_meta.json").read_text(), parse_constant=_reject_constant)
    assert np.all(np.isfinite(np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=1)))


def test_vanishing_jacobian_is_solver_failure(tmp_path, capsys):
    # at the 1e150 scale r(p + delta) - r(p) cancels to exactly zero: a zero
    # Jacobian at a nonzero residual must fail, not read as convergence at p0
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(CONFIG_TEXT.replace("sigma = 0.2", "sigma = 1e150") + f"out_dir = {tmp_path}\n")
    assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "fit_lm" in err
    assert not (tmp_path / "summary.json").exists()


def test_probe_blow_up_after_an_accepted_step_is_solver_failure(tmp_path, capsys, monkeypatch):
    # the first Jacobian, at p0, is formed; every later one has a probe that blows up
    real_fd_jacobian = fitting.fd_jacobian
    calls = []

    def failing_after_the_start(problem, p, base_residual=None):
        calls.append(p)
        if len(calls) > 1:
            raise NonFiniteError("state became non-finite at a forward-difference probe")
        return real_fd_jacobian(problem, p, base_residual)

    monkeypatch.setattr(fitting, "fd_jacobian", failing_after_the_start)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(CONFIG_TEXT + f"out_dir = {tmp_path / 'r'}\n")
    assert main(["run-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "fit_lm" in err and "forward-difference probe" in err
    assert len(calls) == 2
    assert not (tmp_path / "r" / "summary.json").exists()


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_io_failure_exit_three(tmp_path, capsys):
    # the line opens with the option or config key that gave the path
    target = tmp_path / "blocked"
    target.write_text("a file where the run directory should go")
    code = main(["run-example", "ex1", "--out", str(target)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: --out: ")
    assert str(target) in err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + f"out_dir = {target}\n")
    assert main(["run-config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: out_dir: ")
    assert str(target) in err


def test_an_io_failure_keeps_its_class_and_cause(tmp_path):
    # the option's name was put in front of a plain OSError
    target = tmp_path / "blocked"
    target.write_text("a file where the run directory should go")
    with pytest.raises(FileExistsError, match="^--out: ") as err:
        with naming("--out", OSError):
            experiments.run_example("ex1", out_dir=target)
    cause = err.value.__cause__
    assert type(cause) is FileExistsError
    assert str(err.value) == f"--out: {cause}"
    # errno carries over; the file name is in the message and on the cause,
    # since OSError's str() would print it in place of the message if set
    assert cause.errno is not None and err.value.errno == cause.errno
    assert cause.filename is not None and repr(cause.filename) in str(err.value)
    # an error of another kind passes through as it is
    with pytest.raises(NonFiniteError, match="^blow-up$"):
        with naming("--out", OSError):
            raise NonFiniteError("blow-up")


def test_run_summary_io_failures_name_the_option_and_path(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the summary directory should go")
    assert main(["run-summary", "--seeds", "1", "--out", str(blocked)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: --out: ")
    assert str(blocked) in err
    # a file where a seed's directory should go
    (tmp_path / "b2").mkdir()
    (tmp_path / "b2" / "seed_1").write_text("")
    assert main(["run-summary", "--seeds", "1", "--out", str(tmp_path / "b2")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: --out: ")
    assert str(tmp_path / "b2" / "seed_1") in err


def test_run_summary_and_determinism(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run-summary", "--seeds", "1,2", "--out", str(a)]) == 0
    assert main(["run-summary", "--seeds", "1,2", "--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert "example" in out  # aligned table is printed

    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_run_summary_with_an_empty_out_writes_to_out_summary(tmp_path, capsys, monkeypatch):
    # --out "" wrote the runs into the working directory, then exited 3 on
    # re-reading the table from "/summary.txt"
    monkeypatch.chdir(tmp_path)
    assert main(["run-summary", "--seeds", "1", "--out", ""]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["out_summary"]
    table = (tmp_path / "out_summary" / "summary.txt").read_text()
    assert out == table and out.startswith("example")
    assert (tmp_path / "out_summary" / "seed_1" / "ex1" / "summary.json").exists()


def test_run_summary_bad_seed_list(tmp_path, capsys):
    # every seed is checked before the first run, so a bad one leaves no run
    # directory, and a repeated one no summary that counts one run twice
    out = tmp_path / "summary"
    for seeds in ("1,two", "1,-5", "99999999999999999999999", "1,1", "2,7,2"):
        assert main(["run-summary", "--seeds", seeds, "--out", str(out)]) == 1, seeds
        assert "configuration error: seeds: " in capsys.readouterr().err
        assert not out.exists(), seeds


def test_console_script_is_wired():
    # The declaration that an install turns into the `respfit` command; read
    # from pyproject.toml so the check needs no installed metadata.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    import importlib.metadata as md

    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("respfit") == "respfit.cli:main"
    # resolve it the way the generated console script does
    ep = md.EntryPoint(name="respfit", value=scripts["respfit"], group="console_scripts")
    assert ep.load() is main

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from respfit import (
    ConfigError,
    Constants,
    ModelParams,
    NonFiniteError,
    NoRootError,
    SingularNormalEquationsError,
    equilibrium_solve,
)
from respfit.data import MAX_POINTS, load_dataset, save_dataset
from respfit.experiments import (
    PRESETS,
    ExperimentConfig,
    parse_config_file,
    resolve_history,
    run_config,
    run_example,
    run_summary,
)
from respfit.fitting import fd_jacobian, write_trace_csv
from respfit.solver import MAX_STEPS


def test_presets_cover_the_five_examples():
    assert sorted(PRESETS) == ["ex1", "ex2", "ex3", "ex4", "ex5"]
    assert PRESETS["ex1"].p0 == (0.3, 0.5)
    assert PRESETS["ex2"].p0 == (0.01, 0.01)
    assert PRESETS["ex1"].sigma == 0.20
    assert PRESETS["ex3"].sigma == 0.40
    assert PRESETS["ex4"].sigma == 0.40
    assert PRESETS["ex5"].history_spec == "equilibrium"
    for cfg in PRESETS.values():
        assert cfg.seed == 1
        assert cfg.truth.alpha == 0.5
        assert cfg.truth.beta == 0.8
        assert replace(cfg) == cfg  # a preset passes the checks of construction


def test_resolve_history_specs():
    truth = ModelParams(alpha=0.5, beta=0.8)
    hist = resolve_history("constant:35,35", truth)
    assert hist.state.x == 35.0
    eq_hist = resolve_history("equilibrium", truth)
    eq = equilibrium_solve(truth)
    assert eq_hist.state.x == eq.x_star
    assert eq_hist.state.y == eq.y_star
    with pytest.raises(ConfigError):
        resolve_history("constant:35", truth)
    with pytest.raises(ConfigError):
        resolve_history("constant:a,b", truth)
    with pytest.raises(ConfigError):
        resolve_history("spline", truth)


def test_run_example_writes_all_artifacts(tmp_path):
    # ex1's own seed, passed as a NumPy integer
    record = run_example("ex1", seed=np.uint64(1), out_dir=tmp_path / "run")
    expected = {
        "dataset.csv",
        "dataset_meta.json",
        "trace_lm.csv",
        "trace_tr.csv",
        "fit_lm.csv",
        "fit_tr.csv",
        "hist_lm_x.csv",
        "hist_lm_y.csv",
        "hist_tr_x.csv",
        "hist_tr_y.csv",
        "summary.json",
    }
    assert {p.name for p in (tmp_path / "run").iterdir()} == expected
    assert record["example"] == "ex1"
    assert type(record["seed"]) is int
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["seed"] == 1
    assert record["lm"]["best_fit"] is not None and record["tr"]["best_fit"] is not None
    # paper-style quality for this configuration
    assert record["lm"]["rel_err_pct"]["alpha"] <= 2.0
    assert record["lm"]["rel_err_pct"]["beta"] <= 2.0


def test_a_float32_truth_runs_as_the_float_it_holds(tmp_path):
    # ModelParams(np.float32(0.5), 0.8) wrote dataset.csv and then raised an
    # uncaught TypeError from summary.json
    base = replace(PRESETS["ex1"], algorithms=("lm",))
    run_config(replace(base, truth=ModelParams(np.float32(0.5), 0.8), out_dir=tmp_path / "f32"))
    run_config(replace(base, out_dir=tmp_path / "f64"))
    for name in ("summary.json", "dataset_meta.json", "fit_lm.csv"):
        assert (tmp_path / "f32" / name).read_bytes() == (tmp_path / "f64" / name).read_bytes()


def test_run_example_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError):
        run_example("ex9", out_dir=tmp_path)
    # a seed is checked as run_summary checks it, not truncated or parsed
    for seed in (1.7, True, "3", -1, 2**64):
        with pytest.raises(ConfigError, match="^seed: "):
            run_example("ex1", seed=seed, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
    # and so is a sigma: "0.1" was parsed and True recorded as sigma 1.0
    for sigma in ("0.1", True, math.nan):
        with pytest.raises(ConfigError, match="^sigma: "):
            run_example("ex1", sigma=sigma, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_summary_errors_are_recomputable(tmp_path):
    run_example("ex1", out_dir=tmp_path)
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    fit = summary["lm"]["best_fit"]
    want_a = abs(fit["alpha"] - 0.5) / 0.5 * 100.0
    assert summary["lm"]["rel_err_pct"]["alpha"] == pytest.approx(want_a, rel=1e-12)


def test_run_config_returns_its_summary_json(tmp_path):
    cases = (
        PRESETS["ex5"],
        replace(PRESETS["ex1"], algorithms=("tr",)),
        # NumPy integers are held, and so recorded, as plain ints
        replace(PRESETS["ex1"], seed=np.int64(2), n_points=np.int64(51)),
    )
    for k, cfg in enumerate(cases):
        record = run_config(replace(cfg, out_dir=tmp_path / str(k)))
        assert record == json.loads((tmp_path / str(k) / "summary.json").read_text())
        assert [type(record[key]) for key in ("seed", "n_points", "sigma")] == [int, int, float]
    assert (record["seed"], record["n_points"]) == (2, 51)


def test_histograms_count_every_measurement(tmp_path):
    run_example("ex1", out_dir=tmp_path)
    for name in ("hist_lm_x.csv", "hist_lm_y.csv", "hist_tr_x.csv", "hist_tr_y.csv"):
        rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] == 10
        assert int(rows[:, 2].sum()) == 51
        # bins span [-4 sigma, 4 sigma] and tile it without gaps
        assert rows[0, 0] == pytest.approx(-0.8)
        assert rows[-1, 1] == pytest.approx(0.8)
        assert np.allclose(rows[1:, 0], rows[:-1, 1])


def test_fitted_trajectory_reproduces_final_residual(tmp_path):
    run_example("ex1", out_dir=tmp_path)
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    dataset, _ = load_dataset(tmp_path / "dataset.csv")
    fit_csv = np.loadtxt(tmp_path / "fit_lm.csv", delimiter=",", skiprows=1)
    # measurement times land on the solve grid for the preset spacing
    step = fit_csv[1, 0] - fit_csv[0, 0]
    idx = np.round((dataset.times - fit_csv[0, 0]) / step).astype(int)
    assert np.allclose(fit_csv[idx, 0], dataset.times, atol=1e-9)
    j = float(
        np.sum((fit_csv[idx, 1] - dataset.x_obs) ** 2)
        + np.sum((fit_csv[idx, 2] - dataset.y_obs) ** 2)
    )
    assert j == pytest.approx(summary["lm"]["final_residual"], rel=1e-10)


def test_ex5_trajectory_sits_at_equilibrium(tmp_path):
    run_example("ex5", seed=3, sigma=0.0, out_dir=tmp_path)
    dataset, _ = load_dataset(tmp_path / "dataset.csv")
    assert np.max(np.abs(dataset.x_obs - 29.1842)) < 1e-4
    assert np.max(np.abs(dataset.y_obs - 18.2401)) < 1e-4


def test_noiseless_override_recovers_exactly(tmp_path):
    record = run_example("ex1", sigma=0.0, out_dir=tmp_path)
    lm_fit, tr_fit = record["lm"]["best_fit"], record["tr"]["best_fit"]
    assert abs(lm_fit["alpha"] - 0.5) <= 1e-8
    assert abs(lm_fit["beta"] - 0.8) <= 1e-8
    assert abs(tr_fit["alpha"] - 0.5) <= 1e-8
    assert abs(tr_fit["beta"] - 0.8) <= 1e-8
    assert f"{lm_fit['alpha']:.4f}" == f"{tr_fit['alpha']:.4f}" == "0.5000"
    assert f"{lm_fit['beta']:.4f}" == f"{tr_fit['beta']:.4f}" == "0.8000"


def test_run_config_matches_preset_outputs(tmp_path):
    a = tmp_path / "preset"
    b = tmp_path / "config"
    run_example("ex1", out_dir=a)
    run_config(replace(PRESETS["ex1"], out_dir=b))
    for path in sorted(a.iterdir()):
        assert (b / path.name).read_bytes() == path.read_bytes()


def test_run_config_lm_only(tmp_path):
    from dataclasses import replace

    cfg = replace(PRESETS["ex1"], algorithms=("lm",))
    record = run_config(replace(cfg, out_dir=tmp_path))
    assert "tr" not in record
    assert record["algorithms"] == ["lm"]
    assert not (tmp_path / "trace_tr.csv").exists()
    assert (tmp_path / "trace_lm.csv").exists()
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert "tr" not in summary
    assert summary["algorithms"] == ["lm"]


def test_run_config_two_point_dataset(tmp_path):
    from dataclasses import replace

    cfg = replace(PRESETS["ex1"], n_points=2)
    record = run_config(replace(cfg, out_dir=tmp_path))
    assert all(math.isfinite(v) for v in record["lm"]["best_fit"].values())
    assert all(math.isfinite(v) for v in record["tr"]["best_fit"].values())
    # minimal configuration stays identifiable: 2x2 normal equations well posed
    from respfit.data import load_dataset as _ld
    from respfit.fitting import ResidualProblem, fd_jacobian

    dataset, _ = _ld(tmp_path / "dataset.csv")
    hist = resolve_history(cfg.history_spec, cfg.truth)
    prob = ResidualProblem.from_dataset(dataset, hist)
    fit = record["lm"]["best_fit"]
    J, _ = fd_jacobian(prob, np.array([fit["alpha"], fit["beta"]]))
    A = J.T @ J
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    assert abs(det) > 1e-6 * max(A[0, 0], A[1, 1]) ** 2


def test_config_validation_names_the_field():
    from dataclasses import replace

    base = PRESETS["ex1"]
    cases = [
        (dict(t_end=0.0), "t_end"),
        (dict(n_points=1), "n_points"),
        (dict(sigma=-0.2), "sigma"),
        (dict(seed=-1), "seed"),
        (dict(steps_per_delay=1), "steps_per_delay"),
        (dict(p0=(math.nan, 0.5)), "p0"),
        (dict(algorithms=()), "algorithms"),
        (dict(algorithms=("lm", "newton")), "algorithms"),
        (dict(algorithms=("lm", "lm")), "algorithms"),
        # 5 raised TypeError, "lm" read as ("l", "m") and {"lm"} had no order
        (dict(algorithms=5), "algorithms: must be a sequence of names"),
        (dict(algorithms="lm"), "algorithms: must be a sequence of names"),
        (dict(algorithms={"lm"}), "algorithms: must be a sequence of names"),
        (dict(algorithms=("lm", 5)), "algorithms: unknown algorithm 5"),
        (dict(algorithms=(["lm"],)), "algorithms: unknown algorithm ['lm']"),
        (dict(history_spec="wavelet"), "history"),
        # name=5 raised TypeError and history_spec=5 AttributeError
        (dict(name=5), "name: must be a string"),
        (dict(name=None), "name: must be a string"),
        (dict(history_spec=5), "history: must be a string"),
        (dict(out_dir=5), "out_dir: must be a string"),
        (dict(out_dir=b"runs"), "out_dir: must be a string"),
    ]
    for changes, fieldname in cases:
        with pytest.raises(ConfigError) as err:
            replace(base, **changes)
        assert fieldname in str(err.value)
    # a truth of another type is refused as ModelParams refuses its constants
    with pytest.raises(TypeError, match="^truth must be a ModelParams"):
        replace(base, truth=(0.5, 0.8))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda path: save_dataset(None, path), "dataset must be a Dataset"),
        (lambda path: write_trace_csv(None, path), "result must be a FitResult"),
        (lambda path: fd_jacobian(None, (0.5, 0.8)), "problem must have a residuals method"),
        (lambda path: run_config(None), "config must be a ExperimentConfig"),
    ],
    ids=["save_dataset", "write_trace_csv", "fd_jacobian", "run_config"],
)
def test_entry_points_name_an_object_of_another_type(tmp_path, monkeypatch, call, name):
    # each raised a bare AttributeError
    monkeypatch.chdir(tmp_path)
    with pytest.raises(TypeError, match=f"^{name}, got None$"):
        call(tmp_path / "written.csv")
    assert not any(tmp_path.iterdir())


def test_config_holds_algorithms_as_a_tuple_in_the_given_order():
    # a list was held as it was, so hash(config) raised TypeError
    config = replace(PRESETS["ex1"], algorithms=["tr", "lm"])
    assert config.algorithms == ("tr", "lm")
    assert hash(config) == hash(replace(PRESETS["ex1"], algorithms=("tr", "lm")))


def test_validate_caps_the_step_count():
    base = PRESETS["ex1"]  # tau = 1, steps_per_delay = 50
    replace(base, t_end=200_000.0)  # exactly MAX_STEPS = 10,000,000 steps
    for t_end in (200_000.5, 1e9, 1e308):
        with pytest.raises(ConfigError, match="t_end"):
            replace(base, t_end=t_end)


def test_validate_caps_steps_per_delay():
    # a tiny window does not bound steps_per_delay, so it has a cap of its own
    base = PRESETS["ex1"]  # tau = 1
    replace(base, steps_per_delay=MAX_STEPS, t_end=1e-6)
    with pytest.raises(ConfigError, match="steps_per_delay"):
        replace(base, steps_per_delay=MAX_STEPS + 1, t_end=1e-6)


@pytest.mark.parametrize("spd", [50.0, "50"], ids=["float", "str"])
def test_config_refuses_a_steps_per_delay_that_is_not_an_integer(spd):
    # 50.0 was held as 50; "50" raised TypeError from 2 <= "50"
    with pytest.raises(ConfigError, match="^steps_per_delay: "):
        replace(PRESETS["ex1"], steps_per_delay=spd)


def test_validate_caps_the_sample_count():
    base = PRESETS["ex1"]
    replace(base, n_points=MAX_POINTS)
    for n_points in (MAX_POINTS + 1, 10**13):
        with pytest.raises(ConfigError, match="n_points"):
            replace(base, n_points=n_points)


def test_run_summary_single_seed(tmp_path):
    rows = run_summary([1], tmp_path)
    assert len(rows) == 5
    assert [r["example"] for r in rows] == ["ex1", "ex2", "ex3", "ex4", "ex5"]
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    for name in PRESETS:
        assert (tmp_path / "seed_1" / name / "summary.json").exists()
    table = (tmp_path / "summary.csv").read_text().splitlines()
    assert table[0].startswith("example,n_seeds,sigma,lm_mean_alpha_pct")
    assert len(table) == 6
    # aligned text table has a header, a rule, five rows
    text = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(text) == 7


def test_run_summary_lm_tr_rows_agree(tmp_path):
    run_summary([1, 2], tmp_path)
    for seed in (1, 2):
        for name in PRESETS:
            with open(tmp_path / f"seed_{seed}" / name / "summary.json") as fh:
                s = json.load(fh)
            assert abs(s["lm"]["best_fit"]["alpha"] - s["tr"]["best_fit"]["alpha"]) <= 1e-4
            assert abs(s["lm"]["best_fit"]["beta"] - s["tr"]["best_fit"]["beta"]) <= 1e-4


def test_run_summary_needs_a_seed(tmp_path):
    # each seed must be a distinct unsigned 64-bit integer, checked before
    # anything is written: a float is not truncated, nor a string parsed, and
    # True does not write seed_True/ with records saying seed 1
    for seeds in ([], [1.5], [1, "2"], [-1], [np.int64(3), 3], [True]):
        with pytest.raises(ConfigError, match="^seeds: "):
            run_summary(seeds, tmp_path / "out")
        assert not (tmp_path / "out").exists()


CONFIG_TEXT = """
# truth parameters
alpha = 0.5
beta = 0.8

p0_alpha = 0.3   # starting guess
p0_beta = 0.5
sigma = 0.2
seed = 1
history = constant:35,35
algorithms = lm,tr
name = ex1
"""


def test_parse_config_file_round_trips_preset(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = parse_config_file(path)
    assert cfg == PRESETS["ex1"]


def test_parse_config_file_skips_a_leading_byte_order_mark(tmp_path):
    # a file saved with a BOM read "line 1: unknown key '\ufeffalpha'"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(CONFIG_TEXT.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + CONFIG_TEXT.encode("utf-8"))
    assert parse_config_file(marked) == parse_config_file(plain) == PRESETS["ex1"]
    # undecodable bytes after the mark are still refused as text
    marked.write_bytes(b"\xef\xbb\xbf" + CONFIG_TEXT.encode("utf-8") + b"name = \xff\xfe\n")
    with pytest.raises(ConfigError, match=r"^config file .* is not UTF-8 text: "):
        parse_config_file(marked)


def test_parse_config_file_defaults_are_the_dataclass_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("alpha = 0.6\nbeta = 0.7\np0_alpha = 0.2\np0_beta = 0.4\nsigma = 0.1\nseed = 9")
    expected = ExperimentConfig(ModelParams(alpha=0.6, beta=0.7), (0.2, 0.4), 0.1, 9)
    assert parse_config_file(path) == expected


def test_parse_config_file_errors(tmp_path):
    path = tmp_path / "exp.cfg"

    path.write_text(CONFIG_TEXT + "\nwavelength = 7\n")
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config_file(path)

    path.write_text(CONFIG_TEXT + "\nsigma = 0.3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)

    path.write_text("alpha = 0.5\nbeta\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)

    path.write_text("alpha = 0.5\nbeta = 0.8\n")
    with pytest.raises(ConfigError, match="p0_alpha"):
        parse_config_file(path)

    path.write_text(CONFIG_TEXT.replace("sigma = 0.2", "sigma = small"))
    with pytest.raises(ConfigError, match="sigma"):
        parse_config_file(path)

    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "missing.cfg")


def test_config_file_numbers_are_read_as_int_else_float(tmp_path):
    path = tmp_path / "exp.cfg"
    base = CONFIG_TEXT.replace("seed = 1\n", "")
    # the config checks what a number key takes: "seed = 1.0" read "seed: cannot parse '1.0'"
    for extra, message in (
        ("seed = 1.0", "^seed: must be an integer from 0 to "),
        ("seed = 1\nn_points = 51.0", "^n_points: must be an integer from 2 to "),
        ("seed = 1\nsteps_per_delay = 5e1", "^steps_per_delay: must be an integer from 2 to "),
        ("seed = x", "^seed: cannot parse 'x'"),
        ("seed = 1\nt_end = 5.0.0", r"^t_end: cannot parse '5\.0\.0'"),
    ):
        path.write_text(base + extra + "\n")
        with pytest.raises(ConfigError, match=message):
            parse_config_file(path)
    # integer text for a real key reads as the same number as before
    text = base.replace("alpha = 0.5", "alpha = 1").replace("name = ex1", "name = café")
    path.write_text(text + "seed = 7\ntau = 2\n", encoding="utf-8")
    cfg = parse_config_file(path)
    assert cfg == replace(
        PRESETS["ex1"], truth=ModelParams(1.0, 0.8, Constants(tau=2.0)), seed=7, name="café"
    )
    assert type(cfg.truth.alpha) is float and type(cfg.seed) is int


def test_config_holds_a_path_like_out_dir_as_a_string(tmp_path):
    # replace(PRESETS["ex1"], out_dir=Path(...)) raised TypeError
    cfg = replace(PRESETS["ex1"], out_dir=tmp_path / "run")
    assert type(cfg.out_dir) is str and cfg.out_dir == str(tmp_path / "run")
    assert replace(cfg) == cfg


def test_a_nul_in_a_path_is_a_config_error_before_anything_is_written(tmp_path, monkeypatch):
    # run_example and run_summary ended in a bare ValueError: embedded null byte
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="^out_dir: holds a NUL character"):
        run_example("ex1", out_dir="a\x00b")
    with pytest.raises(ConfigError, match="^out_dir: holds a NUL character"):
        run_summary([1], "s\x00")
    with pytest.raises(ConfigError, match="^name: holds a NUL character"):
        replace(PRESETS["ex1"], name="a\x00b")
    assert list(tmp_path.iterdir()) == []


def test_an_empty_out_dir_means_the_default(tmp_path, monkeypatch):
    # run_example("ex1", out_dir="") wrote into the working directory itself
    monkeypatch.chdir(tmp_path)
    run_example("ex1", out_dir="")
    assert [p.name for p in tmp_path.iterdir()] == ["out_ex1"]
    assert (tmp_path / "out_ex1" / "summary.json").exists()


def test_experiment_config_is_frozen():
    with pytest.raises(AttributeError):
        PRESETS["ex1"].sigma = 0.5


@pytest.mark.parametrize(
    "stage,config,error,leaves_out_dir",
    [
        (
            "resolve_history",
            replace(PRESETS["ex5"], truth=ModelParams(1e-12, 0.8)),
            NoRootError,
            False,
        ),
        ("generate_dataset", replace(PRESETS["ex1"], sigma=1e308), NonFiniteError, False),
        # the flat-Jacobian config of test_cli: r(p + delta) - r(p) cancels to zero
        (
            "fit_lm",
            replace(PRESETS["ex1"], sigma=1e150),
            SingularNormalEquationsError,
            False,
        ),
    ],
)
def test_a_stage_failure_keeps_its_class_and_cause(tmp_path, stage, config, error, leaves_out_dir):
    out = tmp_path / "run"
    with pytest.raises(error) as info:
        run_config(replace(config, out_dir=out))
    exc = info.value
    assert type(exc) is error and type(exc.__cause__) is error
    assert str(exc) == f"{stage}: {exc.__cause__}"
    assert out.exists() == leaves_out_dir
    assert not (out / "summary.json").exists()


def test_a_rerun_that_fails_in_a_fit_leaves_the_earlier_run_as_it_was(tmp_path):
    # the failed rerun saved its own dataset.csv and dataset_meta.json over the first run's
    out = tmp_path / "run"
    run_config(replace(PRESETS["ex1"], out_dir=out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(NonFiniteError, match="^fit_lm: "):
        run_config(replace(PRESETS["ex1"], seed=2, p0=(1e6, 1e6), out_dir=out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

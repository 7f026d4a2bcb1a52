import json
import math
import warnings

import numpy as np
import pytest

from respfit import (
    ConfigError,
    ConstantHistory,
    Constants,
    ModelParams,
    NonFiniteError,
    State,
    history_from_description,
)
from respfit.data import (
    MAX_POINTS,
    Dataset,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from respfit.solver import MAX_STEPS

TRUTH = ModelParams(alpha=0.5, beta=0.8)
HIST = ConstantHistory(State(35.0, 35.0))


def _solve_samples(n=51):
    from respfit import solve_dde

    traj = solve_dde(TRUTH, HIST, 0.0, 5.0)
    times = np.linspace(0.0, 5.0, n)
    xs, ys = traj.eval_many(times)
    return times, xs, ys


def test_zero_noise_reproduces_trajectory_bit_exactly():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.0, 7)
    _, xs, ys = _solve_samples()
    assert np.array_equal(ds.x_obs, xs)
    assert np.array_equal(ds.y_obs, ys)


def test_same_seed_same_dataset():
    a = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.2, 42)
    b = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.2, 42)
    assert np.array_equal(a.x_obs, b.x_obs)
    assert np.array_equal(a.y_obs, b.y_obs)
    assert np.array_equal(a.times, b.times)


def test_seed_changes_observations_not_times():
    a = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.2, 1)
    b = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.2, 2)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.x_obs, b.x_obs)
    assert not np.array_equal(a.y_obs, b.y_obs)


def test_noise_stream_order_is_x_then_y():
    # the draw order contract: one PCG64 stream, M x-draws then M y-draws
    sigma, seed, n = 0.2, 123, 51
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, n, sigma, seed)
    _, xs, ys = _solve_samples(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    nx = rng.standard_normal(n) * sigma
    ny = rng.standard_normal(n) * sigma
    assert np.array_equal(ds.x_obs, xs + nx)
    assert np.array_equal(ds.y_obs, ys + ny)


def test_noise_standard_deviation_across_seeds():
    # law-of-large-numbers check on the generator itself
    _, xs, _ = _solve_samples()
    pooled = []
    for seed in range(1000):
        ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.20, seed)
        pooled.append(ds.x_obs - xs)
    pooled = np.concatenate(pooled)
    assert abs(pooled.std() - 0.20) <= 0.01
    assert abs(pooled.mean()) <= 3 * 0.20 / math.sqrt(len(pooled))


def test_csv_roundtrip_is_bit_exact(tmp_path):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.4, 99)
    path = tmp_path / "dataset.csv"
    save_dataset(
        ds,
        path,
        history=HIST,
        solver_settings={"t0": 0.0, "t_end": 5.0, "steps_per_delay": 50},
    )
    clone, meta = load_dataset(path)
    assert np.array_equal(clone.times, ds.times)
    assert np.array_equal(clone.x_obs, ds.x_obs)
    assert np.array_equal(clone.y_obs, ds.y_obs)
    assert clone.noise_sigma == 0.4
    assert clone.seed == 99
    assert clone.truth == TRUTH
    assert meta["solver"]["steps_per_delay"] == 50
    hist = history_from_description(meta["history"])
    assert isinstance(hist, ConstantHistory)
    assert hist.state == State(35.0, 35.0)


def test_meta_sidecar_is_json(tmp_path):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.2, 5)
    save_dataset(ds, tmp_path / "d.csv", history=HIST)
    with open(tmp_path / "d_meta.json") as fh:
        meta = json.load(fh)
    assert meta["seed"] == 5
    assert meta["noise_sigma"] == 0.2
    assert meta["truth"]["alpha"] == 0.5


def test_load_without_sidecar(tmp_path):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.0, 5)
    path = tmp_path / "bare.csv"
    save_dataset(ds, path)
    (tmp_path / "bare_meta.json").unlink()
    clone, meta = load_dataset(path)
    assert meta == {}
    assert clone.seed is None
    assert np.array_equal(clone.x_obs, ds.x_obs)


def test_datasets_compare_by_value(tmp_path):
    truth = ModelParams(alpha=0.5, beta=0.8, constants=Constants(tau=0.5, vent_gain=0.15))
    a = generate_dataset(truth, HIST, 0.0, 5.0, 11, 0.2, 5)
    assert (a == generate_dataset(truth, HIST, 0.0, 5.0, 11, 0.2, 5)) is True
    assert (a != generate_dataset(truth, HIST, 0.0, 5.0, 11, 0.2, 5)) is False
    assert (a == generate_dataset(truth, HIST, 0.0, 5.0, 11, 0.2, 6)) is False
    assert (a == generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.2, 5)) is False
    # the flat truth record on disk restores the constants too
    save_dataset(a, tmp_path / "d.csv", history=HIST)
    clone, meta = load_dataset(tmp_path / "d.csv")
    assert meta["truth"] == {
        "alpha": 0.5,
        "beta": 0.8,
        "tau": 0.5,
        "vent_gain": 0.15,
        "vent_rate": 0.05,
        "vent_offset": 100.0,
    }
    assert (clone == a) is True


@pytest.mark.parametrize(
    "text",
    [
        "t,x_obs\n0.0,1.0\n1.0,2.0\n",
        "t,x_obs,y_obs,z\n0.0,1.0,2.0,3.0\n1.0,2.0,3.0,4.0\n",
        "t,x_obs,y_obs\n0.0,1.0,one\n1.0,2.0,3.0\n",
        # NumPy's loadtxt warned that it read no data before the error
        "t,x_obs,y_obs\n",
        "",
    ],
)
def test_load_refuses_a_malformed_csv(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_dataset(path)
    assert str(err.value).startswith("t,x_obs,y_obs: ")
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "sidecar,prefix",
    [
        ("{not json", "meta: "),
        ("[1, 2]", "meta: "),
        ('{"truth": {"beta": 0.8}}', "truth: "),
        ('{"truth": {"alpha": 0.5, "beta": 0.8, "tau": -1.0}}', "truth: "),
        ('{"truth": {"alpha": 0.5, "beta": 0.8, "lag": 1.0}}', "truth: "),
        ('{"noise_sigma": "abc"}', "noise_sigma: "),
        ('{"noise_sigma": -0.5}', "noise_sigma: "),
        ('{"seed": "abc"}', "seed: "),
        ('{"seed": 1.5}', "seed: "),
        # float() loaded these as 1.0 and 0.2
        ('{"noise_sigma": true}', "noise_sigma: "),
        ('{"noise_sigma": "0.2"}', "noise_sigma: "),
    ],
)
def test_load_refuses_a_malformed_sidecar(tmp_path, sidecar, prefix):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.0, 5)
    save_dataset(ds, tmp_path / "d.csv", history=HIST)
    (tmp_path / "d_meta.json").write_text(sidecar)
    with pytest.raises(ConfigError) as err:
        load_dataset(tmp_path / "d.csv")
    assert str(err.value).startswith(prefix)


def test_meta_with_an_unknown_history_kind_is_a_config_error(tmp_path):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.0, 5)
    save_dataset(ds, tmp_path / "d.csv", history=HIST)
    meta_path = tmp_path / "d_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["history"] = {"kind": "tabulated", "times": [-1.0, 0.0], "x": [1.0, 2.0]}
    meta_path.write_text(json.dumps(meta))
    _, meta = load_dataset(tmp_path / "d.csv")
    with pytest.raises(ConfigError, match="^history: unknown kind 'tabulated'"):
        history_from_description(meta["history"])


def test_history_survives_meta_roundtrip(tmp_path):
    hist = ConstantHistory(State(30.0, 32.0))
    ds = generate_dataset(TRUTH, hist, 0.0, 5.0, 11, 0.0, 5)
    save_dataset(ds, tmp_path / "d.csv", history=hist)
    _, meta = load_dataset(tmp_path / "d.csv")
    assert history_from_description(meta["history"]) == hist


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_dataset(TRUTH, HIST, 0.0, 5.0, 1, 0.2, 1)
    with pytest.raises(ValueError):
        generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, -0.1, 1)
    with pytest.raises(ValueError):
        generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 0.2, -3)


@pytest.mark.parametrize(
    "args,key",
    [
        ((0.0, 5.0, MAX_POINTS + 1, 0.2, 1), "n_points"),
        ((0.0, (MAX_STEPS + 1) / 50, 51, 0.2, 1), "t_end"),
        ((0.0, 5.0, 51, math.nan, 1), "sigma"),
        ((0.0, 5.0, 51, 0.2, 2**64), "seed"),
        ((0.0, 5.0, 51, 0.2, math.inf), "seed"),
        ((0.0, 5.0, 2.5, 0.2, 1), "n_points"),  # np.linspace raised TypeError
        ((0.0, 5.0, 51, 0.2, 1.5), "seed"),  # was recorded as seed 1
        ((0.0, 5.0, 51, 0.2, True), "seed"),  # an int to isinstance, also seed 1
        ((0.0, 5.0, 51, True, 1), "sigma"),  # was recorded as noise_sigma: true
        ((0.0, 5.0, 51, "0.1", 1), "sigma"),  # math.isfinite raised TypeError
    ],
)
def test_generate_refuses_out_of_range_sizes_before_allocating(args, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        generate_dataset(TRUTH, HIST, *args)


def test_generate_refuses_params_or_history_of_another_type():
    # each raised AttributeError
    for params, hist, name in (((0.5, 0.8), HIST, "params"), (TRUTH, None, "history")):
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            generate_dataset(params, hist, 0.0, 5.0, 11, 0.2, 1)


def test_dataset_refuses_a_truth_of_another_type():
    # it was held, and save_dataset then wrote the CSV and raised
    # AttributeError before the sidecar
    with pytest.raises(TypeError, match="^truth must be a ModelParams"):
        Dataset([0, 1], [1, 2], [1, 2], 0.1, truth=(0.5, 0.8))


def test_generate_takes_numpy_integers():
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, np.int64(11), 0.2, np.uint64(5))
    assert ds == generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.2, 5)


def test_a_float32_window_samples_float64_times():
    # np.linspace of a float32 t0 gave float32 times: 0.60000002 for 0.6000000015
    t0 = np.float32(0.1)
    ds = generate_dataset(TRUTH, HIST, t0, 5.1, 11, 0.2, 1)
    assert np.array_equal(ds.times, np.linspace(float(t0), 5.1, 11))


def test_numpy_sampling_arguments_reach_the_sidecar_as_json(tmp_path):
    # a float32 sigma and an int64 seed were held as given, so save_dataset
    # wrote the CSV and then failed to serialize the sidecar
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, np.float32(0.2), np.int64(1))
    assert type(ds.noise_sigma) is float and type(ds.seed) is int
    save_dataset(ds, tmp_path / "d.csv", history=HIST)
    meta = json.loads((tmp_path / "d_meta.json").read_text())
    assert meta["noise_sigma"] == float(np.float32(0.2)) and meta["seed"] == 1
    loaded, _ = load_dataset(tmp_path / "d.csv")
    assert loaded == ds


def test_overflowing_noise_is_non_finite_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported once, as the error
        with pytest.raises(NonFiniteError, match="sigma = 1e"):
            generate_dataset(TRUTH, HIST, 0.0, 5.0, 51, 1e308, 1)


def test_dataset_invariants():
    t = np.array([0.0, 1.0, 2.0])
    v = np.zeros(3)
    with pytest.raises(ConfigError, match="^times: must be strictly increasing"):
        Dataset(times=np.array([0.0, 0.0, 1.0]), x_obs=v, y_obs=v, noise_sigma=0.1)
    with pytest.raises(ConfigError, match="^times: must be finite"):
        Dataset(times=np.array([0.0, math.nan, 1.0]), x_obs=v, y_obs=v, noise_sigma=0.1)
    with pytest.raises(ConfigError, match="^x_obs: "):
        Dataset(times=t, x_obs=np.zeros(2), y_obs=v, noise_sigma=0.1)
    with pytest.raises(ConfigError, match="^y_obs: "):
        Dataset(times=t, x_obs=v, y_obs=np.array([0.0, math.inf, 0.0]), noise_sigma=0.1)
    with pytest.raises(ConfigError, match="^noise_sigma: "):
        Dataset(times=t, x_obs=v, y_obs=v, noise_sigma=-1.0)
    for seed in (-1, 1.5, "abc", True):
        with pytest.raises(ConfigError, match="^seed: "):
            Dataset(times=t, x_obs=v, y_obs=v, noise_sigma=0.1, seed=seed)
    with pytest.raises(ConfigError, match="^times: "):
        Dataset(times=np.array([0.0]), x_obs=np.zeros(1), y_obs=np.zeros(1), noise_sigma=0.0)
    ds = Dataset(times=t, x_obs=v, y_obs=v, noise_sigma=0.0)
    assert len(ds) == 3
    with pytest.raises(ValueError):
        ds.x_obs[0] = 1.0


@pytest.mark.parametrize(
    "times,x_obs,y_obs,field",
    [
        # NumPy's float conversion parsed the text and took True as 1.0
        (["0", "1"], [1.5, 2.0], [1.0, 0.0], "times"),
        ([0.0, 1.0], ["1.5", "2"], [1.0, 0.0], "x_obs"),
        ([0.0, 1.0], [1.5, 2.0], [True, False], "y_obs"),
        ([0.0, 1.0], [1.5, 2.0], np.array([1, None]), "y_obs"),
        # NumPy reads a list that mixes numbers and bools as floats
        ([0, 1], [0.5, True], [1, 2], "x_obs"),
        ([0, 1], [0.5, 1.0], (2.0, np.True_), "y_obs"),
        ([[0], [np.bool_(False)]], [0.5, 1.0], [1, 2], "times"),
        # a ragged list raised NumPy's bare ValueError, naming no field
        ([0, 1], [[1.0], [2.0, 3.0]], [1, 2], "x_obs"),
        ([[0.0], [1.0, 2.0]], [0.5, 1.0], [1, 2], "times"),
    ],
)
def test_dataset_arrays_must_hold_numbers(times, x_obs, y_obs, field):
    with pytest.raises(ConfigError, match=f"^{field}: must hold real numbers"):
        Dataset(times, x_obs, y_obs, 0.1)
    # integer arrays are numbers, held as float64
    assert Dataset([0, 1], np.array([1, 2], dtype=np.int32), [1.5, 2.0], 0.1).x_obs.dtype == float


def test_load_refuses_files_that_are_not_utf8(tmp_path):
    ds = generate_dataset(TRUTH, HIST, 0.0, 5.0, 11, 0.0, 5)
    save_dataset(ds, tmp_path / "d.csv", history=HIST)
    meta_path = tmp_path / "d_meta.json"
    meta_path.write_bytes(b"\xff\xfe" + meta_path.read_bytes())
    with pytest.raises(ConfigError, match="^meta: .* is not UTF-8 JSON"):
        load_dataset(tmp_path / "d.csv")
    meta_path.unlink()
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\xfe,1,2\n")
    with pytest.raises(ConfigError, match="^t,x_obs,y_obs: "):
        load_dataset(csv_path)

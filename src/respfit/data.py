"""Synthetic measurement sets: seeded noisy samples of a solved trajectory.

Noise is additive i.i.d. Gaussian, drawn from numpy's Generator seeded with
PCG64 (ziggurat normal sampling). The draw order is fixed: all x-noise in
time order, then all y-noise, so a dataset is fully determined by
(params, history, grid, sigma, seed). Observations are not clipped; with
large sigma they may go negative.

On disk a dataset is a CSV ``t,x_obs,y_obs`` at full double precision plus a
JSON sidecar (``<stem>_meta.json``) carrying seed, sigma, truth parameters,
history, and grid settings, enough to regenerate or refit it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._artifacts import write_csv, write_json
from .errors import ConfigError, NonFiniteError
from .model import Constants, ModelParams, count, hold_reals, instance, real, reals
from .solver import STEPS_PER_DELAY, ConstantHistory, solve_dde, time_slack

# Largest sample count a dataset may be generated with. At its peak a run
# holds about 30 float64 values per sample point (dataset, sample plan,
# residuals, Jacobian and temporaries; 240 B under tracemalloc):
# 400 MB / (30 * 8 B) points.
MAX_POINTS = 400_000_000 // (30 * 8)
MAX_SEED = 2**64 - 1  # PCG64 takes an unsigned 64-bit seed

@dataclass(frozen=True)
class Dataset:
    """Immutable measurement set (t_i, X_i, Y_i) with its noise provenance.

    Construction raises ConfigError, its message opening with the field at
    fault, unless times is a strictly increasing 1-d array of at least two
    values, x_obs and y_obs match its length, all three hold integers or
    floats (model.reals) and are finite,
    noise_sigma is finite and nonnegative (model.real) and seed, if given, is
    an integer from 0 to MAX_SEED (model.count). noise_sigma is held as a
    Python float and seed as a Python int. A truth that is neither None nor
    a ModelParams raises TypeError.
    """

    times: np.ndarray
    x_obs: np.ndarray
    y_obs: np.ndarray
    noise_sigma: float
    seed: int | None = None
    truth: ModelParams | None = None

    def __post_init__(self):
        arrays = {name: reals(name, getattr(self, name)) for name in ("times", "x_obs", "y_obs")}
        times = arrays["times"]
        if times.ndim != 1 or len(times) < 2:
            raise ConfigError(
                f"times: must be a 1-d array of at least two values, got {times.shape}"
            )
        for name, arr in arrays.items():
            if arr.shape != times.shape:
                raise ConfigError(f"{name}: must have the shape of times, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name}: must be finite")
        if not np.all(np.diff(times) > 0.0):
            raise ConfigError("times: must be strictly increasing")
        hold_reals(self, ("noise_sigma",), nonnegative=True)
        if self.seed is not None:
            object.__setattr__(self, "seed", count("seed", self.seed, 0, MAX_SEED))
        if self.truth is not None:
            instance("truth", self.truth, ModelParams)
        for name, arr in arrays.items():
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        # the generated __eq__ compares field tuples, which asks an array
        # comparison for a single truth value and raises
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
            for u, v in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )

    def __len__(self) -> int:
        return len(self.times)


def check_sampling(n_points: int, sigma: float, seed: int) -> tuple[int, float, int]:
    """The sampling arguments as (int, float, int); ConfigError unless they are in range.

    n_points must be an integer from 2 to MAX_POINTS and seed one from 0 to
    MAX_SEED (model.count), sigma a finite and nonnegative real number
    (model.real); Python and NumPy numbers pass, bools do not. The message
    opens with the argument's name.
    """
    n_points = count("n_points", n_points, 2, MAX_POINTS)
    return n_points, real("sigma", sigma, nonnegative=True), count("seed", seed, 0, MAX_SEED)


def check_spacing(t0: float, t_end: float, n_points: int) -> None:
    """ConfigError naming t_end unless n_points times on the window lie over time_slack apart."""
    spacing = (t_end - t0) / (n_points - 1)
    if not spacing > time_slack(t0, t_end):
        raise ConfigError(
            f"t_end: n_points = {n_points} measurement times on [{t0!r}, {t_end!r}] lie "
            f"{spacing:g} apart, which does not resolve times of that magnitude"
        )


def generate_dataset(
    params: ModelParams,
    history: ConstantHistory,
    t0: float,
    t_end: float,
    n_points: int,
    sigma: float,
    seed: int,
    steps_per_delay: int = STEPS_PER_DELAY,
) -> Dataset:
    """Solve the system and sample it at n_points uniform times with noise.

    The arguments are checked (check_sampling, solve_dde, then check_spacing)
    before the samples are allocated; a params that is not a ModelParams, or a
    history not a ConstantHistory, raises TypeError. Raises NonFiniteError if
    the noise of a huge sigma overflows a measurement.
    """
    n_points, sigma, seed = check_sampling(n_points, sigma, seed)

    traj = solve_dde(params, history, t0, t_end, steps_per_delay)
    t0, t_end = traj.grid.t0, real("t_end", t_end)
    check_spacing(t0, t_end, n_points)
    times = np.linspace(t0, t_end, n_points)  # float64, as checked
    xs, ys = traj.eval_many(times)

    rng = np.random.Generator(np.random.PCG64(seed))
    with np.errstate(over="ignore"):  # reported by the error below
        x_obs = xs + rng.standard_normal(n_points) * sigma
        y_obs = ys + rng.standard_normal(n_points) * sigma
    if not (np.all(np.isfinite(x_obs)) and np.all(np.isfinite(y_obs))):
        raise NonFiniteError(f"noise of sigma = {sigma!r} overflows the measurements")
    return Dataset(
        times=times,
        x_obs=x_obs,
        y_obs=y_obs,
        noise_sigma=sigma,
        seed=seed,
        truth=params,
    )


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + "_meta.json")


def save_dataset(
    dataset: Dataset,
    csv_path,
    history: ConstantHistory | None = None,
    solver_settings: dict | None = None,
) -> None:
    """Write the CSV and its JSON sidecar.

    history and solver_settings (t0/t_end/steps_per_delay and friends) are
    recorded when given so the file pair is self-describing.
    """
    instance("dataset", dataset, Dataset)
    csv_path = Path(csv_path)
    rows = zip(dataset.times.tolist(), dataset.x_obs.tolist(), dataset.y_obs.tolist())
    write_csv(csv_path, ("t", "x_obs", "y_obs"), rows)

    truth = None
    if dataset.truth is not None:
        p = dataset.truth
        truth = {"alpha": p.alpha, "beta": p.beta, **asdict(p.constants)}
    meta = {
        "n_points": len(dataset),
        "noise_sigma": dataset.noise_sigma,
        "seed": dataset.seed,
        "truth": truth,
        "history": history.describe() if history is not None else None,
        "solver": solver_settings,
    }
    write_json(_meta_path(csv_path), meta)


def load_dataset(csv_path) -> tuple[Dataset, dict]:
    """Read a CSV/sidecar pair back; returns (dataset, metadata).

    The metadata dict is empty if no sidecar exists. Round-trips written
    datasets bit-exactly (17 significant digits reproduce any double). Both
    files are read as UTF-8. A CSV that has no rows below its header or is not
    three columns of numbers, or a sidecar that is not a JSON object or holds
    a malformed truth, noise_sigma or seed, raises ConfigError naming the field.
    """
    csv_path = Path(csv_path)
    try:
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        # loadtxt warns before it returns no rows, so it only sees a body
        raw = np.loadtxt(rows, delimiter=",", ndmin=2) if any(r.strip() for r in rows) else None
    except ValueError as exc:
        raise ConfigError(f"t,x_obs,y_obs: {csv_path} does not hold numbers: {exc}") from None
    if raw is None:
        raise ConfigError(f"t,x_obs,y_obs: {csv_path} holds no rows below its header")
    if raw.shape[1] != 3:
        raise ConfigError(
            f"t,x_obs,y_obs: {csv_path} must have these three columns, got {raw.shape[1]}"
        )

    meta: dict = {}
    mp = _meta_path(csv_path)
    if mp.exists():
        with open(mp, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:  # undecodable bytes, or text that is not JSON
                raise ConfigError(f"meta: {mp} is not UTF-8 JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"meta: {mp} must hold a JSON object")

    truth = None
    if meta.get("truth"):
        try:
            flat = dict(meta["truth"])
            truth = ModelParams(flat.pop("alpha"), flat.pop("beta"), Constants(**flat))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"truth: malformed in {mp}: {exc!r}") from None
    dataset = Dataset(
        times=raw[:, 0],
        x_obs=raw[:, 1],
        y_obs=raw[:, 2],
        noise_sigma=meta.get("noise_sigma", 0.0),
        seed=meta.get("seed"),
        truth=truth,
    )
    return dataset, meta

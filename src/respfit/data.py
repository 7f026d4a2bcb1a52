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
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._artifacts import write_csv, write_json
from .errors import ConfigError, NonFiniteError
from .model import Constants, ModelParams
from .solver import ConstantHistory, fields_equal, history_from_description, solve_dde

# Largest sample count a dataset may be generated with. At its peak a run
# holds about 30 float64 values per sample point (dataset, sample plan,
# residuals, Jacobian and temporaries; 240 B under tracemalloc):
# 400 MB / (30 * 8 B) points.
MAX_POINTS = 400_000_000 // (30 * 8)

@dataclass(frozen=True)
class Dataset:
    """Immutable measurement set (t_i, X_i, Y_i) with its noise provenance."""

    times: np.ndarray
    x_obs: np.ndarray
    y_obs: np.ndarray
    noise_sigma: float
    seed: int | None = None
    truth: ModelParams | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        x_obs = np.asarray(self.x_obs, dtype=float)
        y_obs = np.asarray(self.y_obs, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a dataset needs at least two measurement times")
        if len(x_obs) != len(times) or len(y_obs) != len(times):
            raise ValueError("times, x_obs, y_obs must have equal length")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("measurement times must be strictly increasing")
        if not (
            np.all(np.isfinite(times))
            and np.all(np.isfinite(x_obs))
            and np.all(np.isfinite(y_obs))
        ):
            raise ValueError("dataset values must be finite")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")
        for name, arr in (("times", times), ("x_obs", x_obs), ("y_obs", y_obs)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    __eq__ = fields_equal

    def __len__(self) -> int:
        return len(self.times)


def check_sampling(n_points: int, sigma: float, seed: int) -> None:
    """Raise ConfigError unless the sampling arguments are in range.

    n_points must be from 2 to MAX_POINTS, sigma finite and nonnegative, and
    seed an unsigned 64-bit integer. The message opens with the argument's name.
    """
    if not 2 <= n_points <= MAX_POINTS:
        raise ConfigError(f"n_points: must be from 2 to {MAX_POINTS}, got {n_points!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ConfigError(f"sigma: must be nonnegative, got {sigma!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must be an unsigned 64-bit integer, got {seed!r}")


def generate_dataset(
    params: ModelParams,
    history: ConstantHistory,
    t0: float,
    t_end: float,
    n_points: int,
    sigma: float,
    seed: int,
    steps_per_delay: int = 50,
) -> Dataset:
    """Solve the system and sample it at n_points uniform times with noise.

    The arguments are checked (check_sampling, Grid) before anything is
    allocated. Raises NonFiniteError if the noise of a huge sigma overflows a
    measurement.
    """
    check_sampling(n_points, sigma, seed)
    seed = int(seed)

    traj = solve_dde(params, history, t0, t_end, steps_per_delay)
    times = np.linspace(t0, t_end, n_points)
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
    datasets bit-exactly (17 significant digits reproduce any double).
    """
    csv_path = Path(csv_path)
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{csv_path} must have three columns t,x_obs,y_obs")

    meta: dict = {}
    mp = _meta_path(csv_path)
    if mp.exists():
        with open(mp) as fh:
            meta = json.load(fh)

    truth = None
    if meta.get("truth"):
        flat = dict(meta["truth"])
        truth = ModelParams(flat.pop("alpha"), flat.pop("beta"), Constants(**flat))
    dataset = Dataset(
        times=raw[:, 0],
        x_obs=raw[:, 1],
        y_obs=raw[:, 2],
        noise_sigma=float(meta.get("noise_sigma", 0.0)),
        seed=meta.get("seed"),
        truth=truth,
    )
    return dataset, meta


def history_from_meta(meta: dict) -> ConstantHistory | None:
    """Rebuild the history recorded in a metadata sidecar, if any."""
    desc = meta.get("history")
    return history_from_description(desc) if desc else None

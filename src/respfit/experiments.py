"""End-to-end experiment harness: generate data, fit, and write artifacts.

Five preset configurations (ex1..ex5, PRESETS) cover the combinations of
starting point, noise level, and history that the toolkit is built to study;
_PRESET_TABLE lists what each one sets.

Each run writes, into its output directory: the dataset CSV and its JSON
sidecar, one iteration-trace CSV per algorithm, the fitted trajectory at the
best fit, residual histograms for x and y, and a summary.json record, all in
the byte format of ``_artifacts``, so identical invocations write identical bytes.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._artifacts import write_csv, write_json, write_text
from .data import MAX_SEED, check_sampling, check_spacing, generate_dataset, save_dataset
from .errors import ConfigError, SolverError, naming
from .fitting import (
    FitResult,
    ResidualProblem,
    solve_lm,
    solve_trust_region,
    start_point,
    write_trace_csv,
)
from .model import Constants, ModelParams, State, count, equilibrium_solve, instance, real
from .solver import STEPS_PER_DELAY, ConstantHistory, Grid, grid_steps, solve_dde_raw

ALGORITHMS = ("lm", "tr")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a single experiment needs; a config that exists can run.

    Construction, and so every ``dataclasses.replace``, raises ConfigError,
    its message opening with the config key at fault, and TypeError for a
    truth that is not a ModelParams. name and history_spec are strings, and
    out_dir None, a string or a path-like, held as a string. Once checked,
    seed, n_points and steps_per_delay are held as ints, sigma, t0 and t_end
    as floats, p0 as a tuple of two floats and algorithms, a sequence of
    names but not a str, as a tuple in the given order, so summary.json is
    JSON and the config hashable.
    """

    truth: ModelParams
    p0: tuple[float, float]
    sigma: float
    seed: int
    n_points: int = 51
    history_spec: str = "constant:35,35"
    t0: float = 0.0
    t_end: float = 5.0
    steps_per_delay: int = STEPS_PER_DELAY
    algorithms: tuple[str, ...] = ALGORITHMS
    name: str = "custom"
    out_dir: str | None = None

    def __post_init__(self):
        instance("truth", self.truth, ModelParams)
        tau = self.truth.constants.tau
        t0, t_end, spd, _ = grid_steps(self.t0, self.t_end, tau, self.steps_per_delay)
        n_points, sigma, seed = check_sampling(self.n_points, self.sigma, self.seed)
        check_spacing(t0, t_end, n_points)
        p0 = tuple(start_point(self.p0).tolist())
        if isinstance(self.algorithms, str) or not isinstance(self.algorithms, Sequence):
            raise ConfigError(f"algorithms: must be a sequence of names, got {self.algorithms!r}")
        algorithms = tuple(self.algorithms)
        if not algorithms:
            raise ConfigError("algorithms: at least one of lm, tr required")
        for a in algorithms:
            if not isinstance(a, str) or a not in ALGORITHMS:
                raise ConfigError(f"algorithms: unknown algorithm {a!r}")
        if len(set(algorithms)) != len(algorithms):
            raise ConfigError(f"algorithms: duplicate entries in {algorithms!r}")
        out = os.fspath(self.out_dir) if isinstance(self.out_dir, os.PathLike) else self.out_dir
        for key, text in (("name", self.name), ("history", self.history_spec), ("out_dir", out)):
            if not isinstance(text, str) and not (key == "out_dir" and text is None):
                raise ConfigError(f"{key}: must be a string, got {text!r}")
            if "\x00" in (text or ""):
                raise ConfigError(f"{key}: holds a NUL character")
        _constant_history(self.history_spec)  # raises ConfigError if malformed
        held = dict(seed=seed, n_points=n_points, steps_per_delay=spd, sigma=sigma, t0=t0,
                    t_end=t_end, p0=p0, algorithms=algorithms, out_dir=out)
        for name, value in held.items():
            object.__setattr__(self, name, value)


def _stage(name: str):
    """Re-raise a SolverError from the block as its own class, the message opening with name."""
    return naming(name, SolverError)


def resolve_history(spec: str, truth: ModelParams) -> ConstantHistory:
    """Turn a history spec string into a constant history.

    ``constant:X,Y`` holds the state (X, Y) before t0; ``equilibrium`` holds
    the equilibrium point of the truth parameters, computed on the spot. A
    failure to find it is a SolverError naming the stage resolve_history.
    """
    history = _constant_history(spec)
    if history is not None:
        return history
    with _stage("resolve_history"):
        eq = equilibrium_solve(truth)
    return ConstantHistory(State(eq.x_star, eq.y_star))


def _constant_history(spec: str) -> ConstantHistory | None:
    """The history of a ``constant:X,Y`` spec, or None for ``equilibrium``.

    Checks the spec's syntax without solving anything; raises ConfigError
    if it is malformed.
    """
    spec = spec.strip()
    if spec == "equilibrium":
        return None
    if spec.startswith("constant:"):
        try:
            x, y = map(float, spec[len("constant:") :].split(","))
        except ValueError:
            raise ConfigError(f"history: expected constant:X,Y, got {spec!r}") from None
        return ConstantHistory(State(real("history", x), real("history", y)))
    raise ConfigError(f"history: unknown spec {spec!r} (use constant:X,Y or equilibrium)")


# What the presets vary: start point, noise level and history. They share
# the truth and seed that PRESETS gives each, and every other field's default.
_PRESET_TABLE = {
    "ex1": ((0.3, 0.5), 0.20, "constant:35,35"),
    "ex2": ((0.01, 0.01), 0.20, "constant:35,35"),
    "ex3": ((0.3, 0.5), 0.40, "constant:35,35"),
    "ex4": ((0.01, 0.01), 0.40, "constant:35,35"),
    "ex5": ((0.01, 0.01), 0.20, "equilibrium"),
}
PRESETS: dict[str, ExperimentConfig] = {
    name: ExperimentConfig(ModelParams(0.5, 0.8), p0, sigma, 1, history_spec=history, name=name)
    for name, (p0, sigma, history) in _PRESET_TABLE.items()
}


def _rel_err_pct(fit: tuple[float, float], truth: ModelParams) -> dict[str, float]:
    return {
        "alpha": abs(fit[0] - truth.alpha) / truth.alpha * 100.0,
        "beta": abs(fit[1] - truth.beta) / truth.beta * 100.0,
    }


def _histogram(errors: np.ndarray, sigma: float):
    """Rows (bin_lo, bin_hi, count) of 10 equal-width bins on [-4 sigma, 4 sigma].

    Outliers land in the edge bins. With sigma = 0 the span degenerates, so it
    falls back to the error range itself (floored at 1e-12 so the edges stay
    distinct).
    """
    half = 4.0 * sigma if sigma > 0.0 else max(float(np.max(np.abs(errors))), 1e-12)
    edges = np.linspace(-half, half, 11)
    idx = np.clip(np.searchsorted(edges, errors, side="right") - 1, 0, 9)
    counts = np.bincount(idx, minlength=10)
    return zip(edges[:-1], edges[1:], counts)


def run_config(config: ExperimentConfig) -> dict:
    """Run one experiment end to end and write its artifacts into config.out_dir.

    An out_dir that is None or empty means out_<name>. The directory is
    created, and the dataset saved, once every fit has returned, so a run
    that fails before that writes nothing. Returns the run's record, the dict
    written as summary.json: the configuration, then one entry per algorithm
    that ran, keyed by its name.
    """
    out = Path(config.out_dir or f"out_{config.name}")
    history = resolve_history(config.history_spec, config.truth)
    solver_settings = {
        "t0": config.t0,
        "t_end": config.t_end,
        "steps_per_delay": config.steps_per_delay,
        "tau": config.truth.constants.tau,
    }
    with _stage("generate_dataset"):
        dataset = generate_dataset(
            config.truth,
            history,
            config.t0,
            config.t_end,
            config.n_points,
            config.sigma,
            config.seed,
            config.steps_per_delay,
        )

    grid = Grid(config.truth.constants, history, config.t0, config.t_end, config.steps_per_delay)
    problem = ResidualProblem(dataset, grid)

    fits: dict[str, FitResult] = {}
    for algo in ALGORITHMS:
        if algo not in config.algorithms:
            continue
        solver = solve_lm if algo == "lm" else solve_trust_region
        with _stage(f"fit_{algo}"):
            fits[algo] = solver(problem, config.p0)

    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "dataset.csv", history=history, solver_settings=solver_settings)

    summary: dict = {
        "example": config.name,
        "seed": config.seed,
        "sigma": config.sigma,
        "n_points": config.n_points,
        "p0": list(config.p0),
        "truth": {"alpha": config.truth.alpha, "beta": config.truth.beta},
        "history": history.describe(),
        "algorithms": list(config.algorithms),
        **solver_settings,
    }

    for algo, result in fits.items():
        write_trace_csv(result, out / f"trace_{algo}.csv")
        # best_fit is a point the search solved on this grid, so this solve succeeds
        fitted = solve_dde_raw(result.best_fit[0], result.best_fit[1], problem.grid)
        fitted.to_csv(out / f"fit_{algo}.csv")

        fx, fy = fitted.eval_many(problem.plan)
        for axis, errors in (("x", dataset.x_obs - fx), ("y", dataset.y_obs - fy)):
            rows = _histogram(errors, config.sigma)
            write_csv(out / f"hist_{algo}_{axis}.csv", ("bin_lo", "bin_hi", "count"), rows)

        summary[algo] = {
            "best_fit": {"alpha": result.best_fit[0], "beta": result.best_fit[1]},
            "final_residual": result.final_residual,
            "iterations": result.trace[-1].iteration,
            "function_count": result.function_count,
            "termination": result.termination.value,
            "rel_err_pct": _rel_err_pct(result.best_fit, config.truth),
        }

    write_json(out / "summary.json", summary)
    return summary


def run_example(
    name: str,
    seed: int | None = None,
    sigma: float | None = None,
    out_dir=None,
) -> dict:
    """Run a preset, optionally overriding its seed, noise level, and out_dir.

    Returns its summary.json record, as run_config does. The overrides are
    checked as the config checks every field, not truncated or parsed: a
    seed, sigma or out_dir it refuses raises ConfigError ("seed: ...",
    "sigma: ..." or "out_dir: ...") before anything is written.
    """
    if name not in PRESETS:
        raise ConfigError(f"example: unknown name {name!r} (choose from {sorted(PRESETS)})")
    overrides = (("seed", seed), ("sigma", sigma), ("out_dir", out_dir))
    return run_config(replace(PRESETS[name], **{k: v for k, v in overrides if v is not None}))


_PARAMETERS = ("alpha", "beta")
# (algorithm, parameter, statistic) of each relative-error column, in table order.
_ERR_COLUMNS = tuple(
    (algo, param, stat) for algo in ALGORITHMS for param in _PARAMETERS for stat in ("mean", "max")
)
# Column order for the machine-readable aggregate table.
_AGG_FIELDS = ("example", "n_seeds", "sigma") + tuple(
    f"{algo}_{stat}_{param}_pct" for algo, param, stat in _ERR_COLUMNS
)


def run_summary(seeds, out_dir=None) -> list[dict]:
    """Replay every preset for every seed and aggregate the relative errors.

    Writes seed_<s>/<example>/ run directories plus summary.csv (machine
    readable) and summary.txt (summary_table) under out_dir, or under
    out_summary when that is None or empty. Returns the aggregate rows. The
    seeds, distinct unsigned 64-bit integers, and every run's config,
    out_dir included, are checked before anything is written.
    """
    seeds = [count("seeds", seed, 0, MAX_SEED) for seed in seeds]
    if not seeds:
        raise ConfigError("seeds: at least one seed required")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds: duplicate entries in {seeds!r}")
    out = Path(out_dir or "out_summary")
    configs = [
        replace(PRESETS[n], seed=s, out_dir=out / f"seed_{s}" / n) for s in seeds for n in PRESETS
    ]
    out.mkdir(parents=True, exist_ok=True)

    records: dict[str, list[dict]] = {name: [] for name in PRESETS}
    for config in configs:
        records[config.name].append(run_config(config))

    aggregates = []
    for name, runs in records.items():
        agg = {"example": name, "n_seeds": len(runs), "sigma": runs[0]["sigma"]}
        for key, (algo, param, stat) in zip(_AGG_FIELDS[3:], _ERR_COLUMNS):
            errs = [r[algo]["rel_err_pct"][param] for r in runs]
            agg[key] = sum(errs) / len(errs) if stat == "mean" else max(errs)
        aggregates.append(agg)

    rows = ([agg[key] for key in _AGG_FIELDS] for agg in aggregates)
    write_csv(out / "summary.csv", _AGG_FIELDS, rows)

    write_text(out / "summary.txt", summary_table(aggregates))
    return aggregates


def summary_table(aggregates: list[dict]) -> str:
    """The aligned text table of run_summary's aggregate rows, as summary.txt holds it."""
    headers = ("example", "seeds", "sigma") + tuple(
        f"{algo.upper()} {stat} {param[0]}%" for algo, param, stat in _ERR_COLUMNS
    )
    table = [headers]
    for agg in aggregates:
        table.append(
            (agg["example"], str(agg["n_seeds"]), f"{agg['sigma']:.2f}")
            + tuple(f"{agg[key]:.4f}" for key in _AGG_FIELDS[3:])
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


# Keys accepted in a flat config file. A text key's value is kept as text, any
# other's read as a number, for ModelParams and ExperimentConfig to check.
_CONFIG_KEYS = (
    "name", "alpha", "beta", "tau", "vent_gain", "vent_rate", "vent_offset", "p0_alpha",
    "p0_beta", "sigma", "seed", "n_points", "history", "t0", "t_end", "steps_per_delay",
    "algorithms", "out_dir",
)
_TEXT_KEYS = ("name", "history", "algorithms", "out_dir")


def _number(key: str, text: str) -> int | float:
    """text read as an int, or else as a float; ConfigError naming key if it is neither."""
    for kind in (int, float):
        with suppress(ValueError):
            return kind(text)
    raise ConfigError(f"{key}: cannot parse {text!r}")


_REQUIRED_CONFIG_KEYS = ("alpha", "beta", "p0_alpha", "p0_beta", "sigma", "seed")


def parse_config_file(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` experiment file.

    The file is read as UTF-8, a leading byte-order mark skipped. Blank
    lines and ``#`` comments are ignored; unknown or duplicate keys are
    configuration errors. See README for the key list.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in _REQUIRED_CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    values = {key: raw[key] if key in _TEXT_KEYS else _number(key, raw[key]) for key in raw}
    if "algorithms" in raw:
        algorithms = map(str.strip, raw["algorithms"].lower().split(","))
        values["algorithms"] = tuple(a for a in algorithms if a)

    given = {f.name: values[f.name] for f in fields(Constants) if f.name in values}
    truth = ModelParams(values["alpha"], values["beta"], Constants(**given))

    # keys named after a field set it; absent ones leave the field's default
    optional = {f.name: values[f.name] for f in fields(ExperimentConfig) if f.name in values}
    if "history" in values:
        optional["history_spec"] = values["history"]

    return ExperimentConfig(truth=truth, p0=(values["p0_alpha"], values["p0_beta"]), **optional)

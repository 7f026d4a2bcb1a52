"""Every artifact writer goes through respfit._artifacts and keeps its bytes.

The ``_reference_*`` functions are the writers as they were before they shared
one module, kept verbatim. Each test feeds both the same inputs, chosen from
what the golden run never writes: negative zero, the smallest subnormal, the
largest double, NumPy integers, integer-valued trace records and a history
state at those extremes, and compares the files byte for byte. A last test
reads the package's source and checks that only _artifacts opens a file for
writing, never with newline translation.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import respfit
from respfit import ResidualProblem, experiments, generate_dataset
from respfit._artifacts import write_csv, write_json
from respfit.data import Dataset, _meta_path, save_dataset
from respfit.experiments import (
    _AGG_FIELDS,
    PRESETS,
    resolve_history,
    run_summary,
)
from respfit.fitting import (
    FitResult,
    IterationRecord,
    Termination,
    solve_lm,
    solve_trust_region,
    write_trace_csv,
)
from respfit.model import Constants, ModelParams, State
from respfit.solver import ConstantHistory, Grid, Trajectory

TINY = 5e-324
HUGE = 1.7976931348623157e308
EXTREMES = (-0.0, TINY, -TINY, HUGE, -HUGE, 0.1, 1.0 / 3.0)


def _reference_trajectory_to_csv(traj, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,x,y\n")
        for t, x, y in zip(traj.grid.times, traj.x, traj.y):
            fh.write(f"{t:.17g},{x:.17g},{y:.17g}\n")


def _reference_save_dataset(dataset, csv_path, history=None, solver_settings=None) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        fh.write("t,x_obs,y_obs\n")
        for t, x, y in zip(dataset.times, dataset.x_obs, dataset.y_obs):
            fh.write(f"{t:.17g},{x:.17g},{y:.17g}\n")

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
    with open(_meta_path(csv_path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _reference_write_trace_csv(result, path) -> None:
    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.17g}"

    path = Path(path)
    with open(path, "w", newline="") as fh:
        if result.algorithm == "LM":
            fh.write("iter,fcount,residual,first_order_opt,lambda,step_norm\n")
            for rec in result.trace:
                fh.write(
                    f"{rec.iteration},{rec.function_count},{fmt(rec.residual)},"
                    f"{fmt(rec.first_order_opt)},{fmt(rec.lam)},{fmt(rec.step_norm)}\n"
                )
        else:
            fh.write("iter,fcount,residual,step_norm,first_order_opt,trust_radius\n")
            for rec in result.trace:
                fh.write(
                    f"{rec.iteration},{rec.function_count},{fmt(rec.residual)},"
                    f"{fmt(rec.step_norm)},{fmt(rec.first_order_opt)},{fmt(rec.trust_radius)}\n"
                )


def _reference_histogram(errors, sigma, n_bins=10):
    half = 4.0 * sigma if sigma > 0.0 else max(float(np.max(np.abs(errors))), 1e-12)
    edges = np.linspace(-half, half, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, errors, side="right") - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    return edges, counts


def _reference_write_histogram(path, edges, counts) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{lo:.17g},{hi:.17g},{int(c)}\n")


def _reference_write_summary_csv(path, aggregates) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_AGG_FIELDS) + "\n")
        for agg in aggregates:
            cells = []
            for key in _AGG_FIELDS:
                v = agg[key]
                cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


def _reference_write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _same_bytes(a: Path, b: Path) -> None:
    assert a.read_bytes() == b.read_bytes()


def test_trajectory_csv_matches_reference(tmp_path):
    grid = Grid(Constants(), ConstantHistory(State(35.0, 35.0)), 0.0, 0.12, 50)
    x = np.array(EXTREMES)
    traj = Trajectory(grid, x, -x[::-1], np.zeros(7), np.zeros(7))
    traj.to_csv(tmp_path / "new.csv")
    _reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    _same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_dataset_and_sidecar_match_reference(tmp_path):
    history = ConstantHistory(State(-0.0, HUGE))
    dataset = Dataset(
        times=[TINY, 0.5, HUGE],
        x_obs=[-0.0, -TINY, -HUGE],
        y_obs=np.array([HUGE, 0.1, -0.0]),
        noise_sigma=TINY,
        seed=2**64 - 1,
        truth=ModelParams(0.5, 0.8, Constants(tau=0.7, vent_offset=-0.0)),
    )
    settings = {"t0": -0.0, "t_end": HUGE, "steps_per_delay": 10**20, "tau": TINY}
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    save_dataset(dataset, tmp_path / "new" / "d.csv", history=history, solver_settings=settings)
    _reference_save_dataset(dataset, tmp_path / "ref" / "d.csv", history, settings)
    for name in ("d.csv", "d_meta.json"):
        _same_bytes(tmp_path / "new" / name, tmp_path / "ref" / name)
    assert b'"x": -0.0' in (tmp_path / "new" / "d_meta.json").read_bytes()


def _ex1_problem():
    cfg = PRESETS["ex1"]
    history = resolve_history(cfg.history_spec, cfg.truth)
    data = generate_dataset(cfg.truth, history, 0.0, 5.0, 51, cfg.sigma, cfg.seed)
    return ResidualProblem.from_dataset(data, history)


def _traces():
    # integer lam and trust_radius values are written as %.17g formats them
    records = (
        IterationRecord(0, np.int64(3), TINY, HUGE, lam=10**20, trust_radius=1),
        IterationRecord(1, 7, -0.0, -TINY, step_norm=np.float64(HUGE), lam=-0.0, trust_radius=TINY),
    )
    for algorithm in ("LM", "TrustRegion"):
        yield FitResult((-0.0, TINY), HUGE, Termination.MAX_ITERATIONS, records, algorithm)
    problem = _ex1_problem()
    yield solve_lm(problem, (0.3, 0.5))
    yield solve_trust_region(problem, (0.3, 0.5))


def test_trace_csvs_match_reference(tmp_path):
    for i, result in enumerate(_traces()):
        new, ref = tmp_path / f"new_{i}.csv", tmp_path / f"ref_{i}.csv"
        write_trace_csv(result, new)
        _reference_write_trace_csv(result, ref)
        _same_bytes(new, ref)
    assert "1e+20" in (tmp_path / "new_0.csv").read_text()  # the hand-built LM result


def test_histogram_csv_matches_reference(tmp_path):
    header = ("bin_lo", "bin_hi", "count")
    errors = np.array([-0.0, TINY, -TINY, 1e300, -3e299, 0.1])
    for sigma in (0.0, TINY, 0.2, 1e300):
        write_csv(tmp_path / "new.csv", header, experiments._histogram(errors, sigma))
        _reference_write_histogram(tmp_path / "ref.csv", *_reference_histogram(errors, sigma))
        _same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    # NumPy integer counts beyond any sample count are still written in full
    edges = np.array([-HUGE, -0.0, TINY, HUGE])
    counts = np.array([0, 2**53, 12345], dtype=np.int64)
    write_csv(tmp_path / "new.csv", header, zip(edges[:-1], edges[1:], counts))
    _reference_write_histogram(tmp_path / "ref.csv", edges, counts)
    _same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_summary_csv_matches_reference(tmp_path, monkeypatch):
    # a stub run per preset whose relative errors are the extreme values
    errors = iter(EXTREMES * 3)

    def stub_run_config(config):
        record = {"example": config.name, "seed": config.seed, "sigma": -0.0}
        for algo in ("lm", "tr"):
            record[algo] = {"rel_err_pct": {"alpha": next(errors), "beta": next(errors)}}
        return record

    monkeypatch.setattr(experiments, "run_config", stub_run_config)
    aggregates = run_summary([1], tmp_path)
    _reference_write_summary_csv(tmp_path / "ref.csv", aggregates)
    _same_bytes(tmp_path / "summary.csv", tmp_path / "ref.csv")


def test_json_matches_reference(tmp_path):
    obj = {
        "b": [-0.0, TINY, HUGE, -HUGE, 10**20, None, True],
        "a": {"z": "ex1", "y": {"nested": [1, 2.5]}, "x": []},
        "n": 2**64 - 1,
    }
    write_json(tmp_path / "new.json", obj)
    _reference_write_json(tmp_path / "ref.json", obj)
    _same_bytes(tmp_path / "new.json", tmp_path / "ref.json")
    refused = ((float("nan"), ValueError), (float("inf"), ValueError), (np.int64(2), TypeError))
    for bad, error in refused:
        with pytest.raises(error):
            write_json(tmp_path / "bad.json", {"v": bad})
        # raised before the file is opened, so no empty file is left behind
        assert not (tmp_path / "bad.json").exists()


def _opens_for_writing(tree):
    """Each call in tree that may open a file for writing.

    That is open() with a mode that is not a constant or holds w, a, x or +,
    and any x.open(), x.write_text() or x.write_bytes(), whose target this
    test does not try to tell.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in ("open", "write_text", "write_bytes"):
                yield node
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            keywords = {kw.arg: kw.value for kw in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node


def test_only_artifacts_opens_a_file_for_writing_and_never_translates_newlines():
    # summary.txt was opened with open(path, "w"), so its lines would end in \r\n on Windows
    package = sorted(Path(respfit.__file__).parent.glob("*.py"))
    calls = [
        (path.name, node)
        for path in package
        for node in _opens_for_writing(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert {name for name, _ in calls} == {"_artifacts.py"}, [(n, ast.unparse(c)) for n, c in calls]
    for _, node in calls:
        newline = {kw.arg: kw.value for kw in node.keywords}.get("newline")
        assert isinstance(newline, ast.Constant) and newline.value == "", ast.unparse(node)

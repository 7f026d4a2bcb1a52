"""Tests of the benchmark itself: its checks, its tracer and its scratch files."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import respfit
import respfit.cli  # noqa: F401  (makes respfit.cli reachable as an attribute)
from perfbench import run, tracing, workloads

REFERENCES = json.loads(run.REFERENCES.read_text())
OTHER_SEED = 7


def _runner(cls, seed, workdir):
    return run.Runner(cls(respfit, seed, workdir), REFERENCES)


def _nudged(value: float) -> float:
    return float(np.nextafter(value, math.inf))


class _NudgedFit(workloads.Fit):
    def run(self, inp):
        out = super().run(inp)
        return dataclasses.replace(out, best_fit=(_nudged(out.best_fit[0]), out.best_fit[1]))


class _DisagreeingFit(workloads.Fit):
    def run(self, inp):
        out = super().run(inp)
        if inp[2] == "tr":
            out = dataclasses.replace(out, best_fit=(out.best_fit[0] + 1e-3, out.best_fit[1]))
        return out


class _NudgedSimulate(workloads.Simulate):
    def run(self, inp):
        start, dataset = super().run(inp)
        x_obs = dataset.x_obs.copy()
        x_obs[-1] = _nudged(x_obs[-1])
        return start, dataclasses.replace(dataset, x_obs=x_obs)


class _NudgedSweep(workloads.Sweep):
    def run(self, inp):
        out = super().run(inp)
        path = sorted(inp[1].rglob("summary.json"))[0]
        summary = json.loads(path.read_text())
        summary["lm"]["final_residual"] = _nudged(summary["lm"]["final_residual"])
        path.write_text(json.dumps(summary))
        return out


@pytest.mark.parametrize("cls", [workloads.Fit, workloads.Simulate])
def test_default_seed_matches_references(cls, tmp_path):
    runner = _runner(cls, workloads.DEFAULT_SEED, tmp_path)
    for i in range(2):
        runner.op(i)
    assert (runner.attempted, runner.failed) == (2, 0), runner.problems


@pytest.mark.parametrize("cls", [_NudgedFit, _NudgedSimulate, _NudgedSweep])
def test_perturbed_number_is_a_failure(cls, tmp_path):
    runner = _runner(cls, workloads.DEFAULT_SEED, tmp_path)
    runner.op(0)
    assert runner.failed == 1
    assert "references.json" in runner.problems[0]


def test_lm_tr_disagreement_is_a_failure_at_any_seed(tmp_path):
    runner = _runner(_DisagreeingFit, OTHER_SEED, tmp_path)
    runner.op(0)
    runner.op(1)
    assert runner.failed == 1
    assert "LM and TR minimizers differ" in runner.problems[0]


def test_noise_reconstruction_catches_a_changed_sample_at_any_seed(tmp_path):
    class FirstSampleNudged(workloads.Simulate):
        def run(self, inp):
            start, dataset = super().run(inp)
            x_obs = dataset.x_obs.copy()
            x_obs[0] = _nudged(x_obs[0])
            return start, dataclasses.replace(dataset, x_obs=x_obs)

    runner = _runner(FirstSampleNudged, OTHER_SEED, tmp_path)
    runner.op(0)
    assert runner.failed == 1


def test_sweep_writes_only_under_its_scratch_dir(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = {p.name for p in run.ROOT.iterdir()}
    runner = _runner(workloads.Sweep, OTHER_SEED, tmp_path / "work")
    tracer = tracing.Tracer()
    with tracer.installed(respfit):
        runner.op(0, tracer=tracer)
    assert runner.failed == 0, runner.problems
    assert runner.counters["experiments.files_written"] == 57
    assert list(cwd.iterdir()) == []
    assert not [n for n in {p.name for p in run.ROOT.iterdir()} - before if n.startswith("out_")]
    assert not list((tmp_path / "work").rglob("*.csv"))  # removed after the op


def test_self_times_of_a_traced_op_sum_to_its_wall_time(tmp_path):
    runner = _runner(workloads.Fit, OTHER_SEED, tmp_path)
    tracer = tracing.Tracer()
    runner.op(0)
    plain = traced = wall = covered = 0.0
    for i in range(1, 7):
        plain += runner.op(i)[1]
        first = len(tracer.spans)
        with tracer.installed(respfit):
            elapsed, scaled = runner.op(i, tracer=tracer)
        traced += scaled
        wall += elapsed
        spans = tracer.spans[first:]
        roots = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
        selfs = sum(tracing.self_times(tracer.spans)[first:])
        assert math.isclose(selfs, roots, rel_tol=1e-9)
        covered += selfs
    overhead_frac = traced / plain - 1.0
    # 1% floor: the overhead estimate from six ops is itself noisy
    assert (wall - covered) / wall <= max(overhead_frac, 0.01)


def test_traced_counts_repeat_and_agree(tmp_path):
    counts = []
    for _ in range(2):
        runner = _runner(workloads.Fit, OTHER_SEED, tmp_path)
        metrics, _ = run.traced(respfit, runner.w, runner)
        assert runner.failed == 0, runner.problems
        assert metrics["kernel.calls"] == metrics["solver.solve_calls"]
        assert metrics["fitting.residual_calls"] >= metrics["fitting.reported_function_count"]
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["fitting.fits"] == workloads.Fit.trace_ops


def test_a_layer_without_spans_fails_loudly(tmp_path):
    class Unreached(workloads.Simulate):
        trace_ops = 1
        required_spans = ("cli.main",)

    runner = _runner(Unreached, OTHER_SEED, tmp_path)
    with pytest.raises(run.BenchError, match="cli.main"):
        run.traced(respfit, runner.w, runner)


def test_tracer_restores_every_binding():
    before = [
        tracing._resolve(respfit, owner).__dict__[attr] for owner, attr, _ in tracing.BINDINGS
    ]
    with tracing.Tracer().installed(respfit):
        pass
    after = [
        tracing._resolve(respfit, owner).__dict__[attr] for owner, attr, _ in tracing.BINDINGS
    ]
    assert before == after


def test_tail_reports_the_samples_beyond_it():
    value, beyond = run.tail([float(v) for v in range(1, 101)], 90.0)
    assert value == pytest.approx(90.1)
    assert beyond == 10


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    with pytest.raises(run.BenchError):
        run._import_respfit()

"""The benchmark's workloads: fit, sweep and simulate.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has returned. An operation's input depends only
on the run seed and the operation's index, and no input repeats within a
run, so a cache that outlives one operation cannot score hits that users
would not get. Every operation calls respfit through module attributes, so
the tracer's wrapped bindings are the ones that run.

Outputs are checked in two ways. Any seed: properties that hold for every
input (fit agreement between LM and TR, exact noise reconstruction of a
dataset, exit status and self-consistent summaries of a sweep). Default
seed: the numbers of the first operations, compared bit for bit with the
references in references.json. Only numbers are compared, never file
layouts, so a change of artifact format alone is not a failure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
# Acceptance criterion 5: LM and TR minimizers agree componentwise.
AGREEMENT_TOL = 1e-4


def noise_seed(seed: int, i: int) -> int:
    """Distinct dataset seed for operation i of a run with the given seed."""
    return seed * 1_000_000 + i


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, i]))


class Workload:
    """One closed-loop workload; subclasses fill in the operations."""

    name = ""
    # Ops are run in groups of this size; a timed window ends on a boundary.
    group = 1
    # Tail percentile reported: the highest that a run of the benchmark's
    # length leaves ten samples beyond on the pure-Python backend. A run
    # lasts until it has, however slow the machine.
    tail_pct = 90.0
    # Ops in the traced pass; fixed so that span counts repeat exactly.
    trace_ops = 1
    # Span names the traced pass must record at least once.
    required_spans: tuple[str, ...] = ()

    def __init__(self, rf, seed: int, workdir: Path):
        self.rf = rf
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs ahead of the first timed operation."""

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation."""
        raise NotImplementedError

    def digest(self, inp, out):
        """JSON-comparable numbers of one operation's result."""
        raise NotImplementedError

    def check(self, i: int, inp, out) -> list[str]:
        """Problems found by the checks that hold for any seed."""
        raise NotImplementedError

    def finish(self, inp, out) -> dict:
        """Release what the operation left behind; returns extra counters."""
        return {}


class Fit(Workload):
    """One LM or TR fit on a fresh ResidualProblem.

    The recovery inner loop: 51 points, spd=50, window [0, 5], the five
    presets in turn. A fit makes 15 to 21 small residual calls, so per-call
    overhead in solver and fitting dominates; there is no file I/O.
    """

    name = "fit"
    group = 2  # op 2k is LM and op 2k+1 is TR on the same dataset
    tail_pct = 99.0
    trace_ops = 20
    required_spans = (
        "kernel.integrate",
        "solver.solve_dde_raw",
        "solver.eval_many",
        "fitting.residuals",
        "fitting.fd_jacobian",
        "fitting.solve_lm",
        "fitting.solve_trust_region",
    )
    # Datasets generated in set-up: this many per preset. Later ones are
    # generated on demand, outside the timed operation, so set-up time does
    # not grow with the speed of the program.
    pool_per_preset = 40
    # Each op starts from its preset's p0 scaled by 1 + u * jitter, u in
    # [-1, 1], so LM and TR on one dataset never evaluate the same point.
    jitter = 0.01

    def __init__(self, rf, seed, workdir):
        super().__init__(rf, seed, workdir)
        self.presets = sorted(rf.experiments.PRESETS)
        self.histories = {}
        self.pool = []
        self._lm_fits = {}

    def _history(self, preset: str):
        if preset not in self.histories:
            cfg = self.rf.experiments.PRESETS[preset]
            self.histories[preset] = self.rf.experiments.resolve_history(cfg.history_spec, cfg.truth)
        return self.histories[preset]

    def _dataset(self, k: int):
        preset = self.presets[k % len(self.presets)]
        cfg = self.rf.experiments.PRESETS[preset]
        return self.rf.data.generate_dataset(
            cfg.truth,
            self._history(preset),
            cfg.t0,
            cfg.t_end,
            cfg.n_points,
            cfg.sigma,
            noise_seed(self.seed, k),
            cfg.steps_per_delay,
        )

    def setup(self):
        self.histories = {}
        self.pool = [self._dataset(k) for k in range(self.pool_per_preset * len(self.presets))]

    def make_input(self, i):
        k = i // 2
        preset = self.presets[k % len(self.presets)]
        dataset = self.pool[k] if k < len(self.pool) else self._dataset(k)
        p0 = self.rf.experiments.PRESETS[preset].p0
        u = op_rng(self.seed, i).uniform(-1.0, 1.0, 2)
        start = (p0[0] * (1.0 + self.jitter * u[0]), p0[1] * (1.0 + self.jitter * u[1]))
        return preset, dataset, "lm" if i % 2 == 0 else "tr", start

    def run(self, inp):
        preset, dataset, algo, start = inp
        fitting = self.rf.fitting
        cfg = self.rf.experiments.PRESETS[preset]
        problem = fitting.ResidualProblem.from_dataset(
            dataset, self._history(preset), steps_per_delay=cfg.steps_per_delay
        )
        solve = fitting.solve_lm if algo == "lm" else fitting.solve_trust_region
        return solve(problem, start)

    def digest(self, inp, out):
        return [
            inp[2],
            out.best_fit[0],
            out.best_fit[1],
            out.final_residual,
            out.trace[-1].iteration,
            out.function_count,
            out.termination.value,
        ]

    def check(self, i, inp, out):
        problems = []
        fit = out.best_fit
        if not (all(math.isfinite(v) for v in fit) and math.isfinite(out.final_residual)):
            problems.append(f"non-finite fit {fit} residual {out.final_residual}")
        if out.termination == self.rf.fitting.Termination.MAX_ITERATIONS:
            problems.append("hit the iteration limit")
        if not out.final_residual <= out.trace[0].residual:
            problems.append("final residual above the starting one")
        if inp[2] == "lm":
            self._lm_fits[i // 2] = fit
        else:
            lm = self._lm_fits.get(i // 2)
            if lm is None:
                problems.append("no LM fit of the same dataset to compare with")
            else:
                gap = max(abs(lm[0] - fit[0]), abs(lm[1] - fit[1]))
                if not gap <= AGREEMENT_TOL:
                    problems.append(f"LM and TR minimizers differ by {gap:.3g}")
        return problems


class Sweep(Workload):
    """`respfit run-summary --seeds <one fresh seed>`, run in-process with stdout captured.

    What users run: 5 experiments, each generating data, fitting with LM and
    TR, refitting and writing; 57 files and about 169 KB per operation. The
    only workload that writes artifacts, so changes to experiments, the
    writers and cli show here and not in fit.
    """

    name = "sweep"
    tail_pct = 90.0
    trace_ops = 2
    required_spans = (
        "cli.main",
        "experiments.run_summary",
        "experiments.run_config",
        "data.generate_dataset",
        "data.save_dataset",
        "model.equilibrium_solve",
        "solver.solve_dde",
        "solver.solve_dde_raw",
        "kernel.integrate",
        "solver.eval_many",
        "solver.to_csv",
        "fitting.residuals",
        "fitting.fd_jacobian",
        "fitting.solve_lm",
        "fitting.solve_trust_region",
        "fitting.write_trace_csv",
    )

    def make_input(self, i):
        return noise_seed(self.seed, i), self.workdir / f"sweep-op{i}"

    def run(self, inp):
        seed, out_dir = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rf.cli.main(["run-summary", "--seeds", str(seed), "--out", str(out_dir)])
        return code, buf.getvalue()

    @staticmethod
    def _runs(out_dir: Path) -> dict:
        """Numbers of every per-experiment summary.json, keyed by experiment name."""
        runs = {}
        for path in sorted(out_dir.rglob("summary.json")):
            summary = json.loads(path.read_text())
            runs[summary["example"]] = {
                algo: [
                    summary[algo]["best_fit"]["alpha"],
                    summary[algo]["best_fit"]["beta"],
                    summary[algo]["final_residual"],
                    summary[algo]["iterations"],
                    summary[algo]["function_count"],
                    summary[algo]["termination"],
                    summary[algo]["rel_err_pct"]["alpha"],
                    summary[algo]["rel_err_pct"]["beta"],
                ]
                for algo in ("lm", "tr")
            }
        return runs

    @staticmethod
    def _table(out_dir: Path) -> dict:
        """Numbers of summary.csv, keyed by experiment name and column."""
        with open(out_dir / "summary.csv", newline="") as fh:
            return {
                row["example"]: {k: float(v) for k, v in row.items() if k != "example"}
                for row in csv.DictReader(fh)
            }

    def digest(self, inp, out):
        return {"runs": self._runs(inp[1]), "table": self._table(inp[1])}

    def check(self, i, inp, out):
        code, stdout = out
        if code != 0:
            return [f"cli exit code {code}"]
        presets = sorted(self.rf.experiments.PRESETS)
        runs = self._runs(inp[1])
        table = self._table(inp[1])
        problems = []
        if sorted(runs) != presets or sorted(table) != presets:
            problems.append(f"experiments {sorted(runs)} / {sorted(table)}, expected {presets}")
        for name, fits in runs.items():
            lm, tr = fits["lm"], fits["tr"]
            gap = max(abs(lm[0] - tr[0]), abs(lm[1] - tr[1]))
            if not gap <= AGREEMENT_TOL:
                problems.append(f"{name}: LM and TR minimizers differ by {gap:.3g}")
            # one seed per op, so each aggregate equals the experiment's own value
            row = table.get(name, {})
            for algo, fit in fits.items():
                if row.get(f"{algo}_mean_alpha_pct") != fit[6] or row.get(f"{algo}_max_beta_pct") != fit[7]:
                    problems.append(f"{name}: summary.csv disagrees with summary.json for {algo}")
            if name not in stdout:
                problems.append(f"{name} missing from the printed table")
        return problems

    def finish(self, inp, out):
        files = [p for p in inp[1].rglob("*") if p.is_file()]
        counters = {
            "experiments.files_written": len(files),
            "experiments.bytes_written": sum(p.stat().st_size for p in files),
        }
        shutil.rmtree(inp[1], ignore_errors=True)
        return counters


class Simulate(Workload):
    """generate_dataset on a long fine grid.

    The forward model at scale: spd=400 on [0, 50] (20,000 RK4 steps) and
    5,001 points. One kernel call and one large eval_many per operation, so
    kernel work dominates and per-call overhead is negligible. Operations
    alternate between the constant (35, 35) history and the equilibrium of
    their truth, found by equilibrium_solve inside the operation.
    """

    name = "simulate"
    tail_pct = 95.0
    trace_ops = 6
    required_spans = (
        "data.generate_dataset",
        "model.equilibrium_solve",
        "solver.solve_dde",
        "solver.solve_dde_raw",
        "kernel.integrate",
        "solver.eval_many",
    )
    t_end = 50.0
    n_points = 5001
    steps_per_delay = 400
    sigma = 0.2
    # truth (alpha, beta) = (0.5, 0.8) scaled by 1 + u * spread, u in [-1, 1]
    spread = 0.2

    def make_input(self, i):
        u = op_rng(self.seed, i).uniform(-1.0, 1.0, 2)
        truth = self.rf.model.ModelParams(
            alpha=0.5 * (1.0 + self.spread * u[0]), beta=0.8 * (1.0 + self.spread * u[1])
        )
        return truth, "constant" if i % 2 == 0 else "equilibrium", noise_seed(self.seed, i)

    def run(self, inp):
        truth, kind, seed = inp
        rf = self.rf
        if kind == "equilibrium":
            eq = rf.model.equilibrium_solve(truth)
            start = rf.model.State(eq.x_star, eq.y_star)
        else:
            start = rf.model.State(35.0, 35.0)
        history = rf.solver.ConstantHistory(start)
        dataset = rf.data.generate_dataset(
            truth, history, 0.0, self.t_end, self.n_points, self.sigma, seed, self.steps_per_delay
        )
        return start, dataset

    def digest(self, inp, out):
        _, dataset = out
        h = hashlib.sha256(dataset.x_obs.tobytes() + dataset.y_obs.tobytes()).hexdigest()
        return [inp[0].alpha, inp[0].beta, inp[1], h]

    def check(self, i, inp, out):
        truth, kind, seed = inp
        start, dataset = out
        n = self.n_points
        if len(dataset) != n or not np.array_equal(dataset.times, np.linspace(0.0, self.t_end, n)):
            return ["wrong measurement grid"]
        # The noise draw order is documented: all x noise, then all y noise.
        rng = np.random.Generator(np.random.PCG64(seed))
        zx = rng.standard_normal(n) * self.sigma
        zy = rng.standard_normal(n) * self.sigma
        problems = []
        if dataset.x_obs[0] != start.x + zx[0] or dataset.y_obs[0] != start.y + zy[0]:
            problems.append("first sample is not the history state plus its noise draw")
        x = dataset.x_obs - zx
        y = dataset.y_obs - zy
        if not (np.all(np.isfinite(x)) and np.all(x > 0.0) and np.all(y > 0.0)):
            problems.append("trajectory left the positive quadrant")
        if kind == "equilibrium":
            drift = max(np.max(np.abs(x - start.x)) / start.x, np.max(np.abs(y - start.y)) / start.y)
            if not drift <= 1e-6:
                problems.append(f"equilibrium start drifted by {drift:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Fit, Sweep, Simulate)}

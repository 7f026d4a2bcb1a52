"""Per-layer spans recorded by wrapping respfit's call bindings.

The program itself is not instrumented. While a Tracer is installed, every
module or class attribute through which one respfit layer calls another is
replaced by a wrapper that records a span (name, parent span, operation id,
start, end) and the originals are put back afterwards. Several functions are
imported by name into other modules, so each binding the program actually
calls is wrapped on its own. Spans stay in memory and are written out once,
after the run.

A span's self time is its duration minus the durations of its child spans.
Calls are strictly nested (one thread), so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# (owner, attribute, span name). The owner is resolved against the imported
# respfit package; "backend.active" is the stepper module selected at import.
# The part of a span name before the first dot is its layer.
BINDINGS = (
    ("backend.active", "integrate", "kernel.integrate"),
    ("solver", "solve_dde_raw", "solver.solve_dde_raw"),
    ("fitting", "solve_dde_raw", "solver.solve_dde_raw"),
    ("experiments", "solve_dde_raw", "solver.solve_dde_raw"),
    ("solver", "solve_dde", "solver.solve_dde"),
    ("data", "solve_dde", "solver.solve_dde"),
    ("solver.Trajectory", "eval_many", "solver.eval_many"),
    ("solver.Trajectory", "to_csv", "solver.to_csv"),
    ("fitting.ResidualProblem", "residuals", "fitting.residuals"),
    ("fitting", "fd_jacobian", "fitting.fd_jacobian"),
    ("fitting", "solve_lm", "fitting.solve_lm"),
    ("fitting", "solve_trust_region", "fitting.solve_trust_region"),
    ("experiments", "solve_lm", "fitting.solve_lm"),
    ("experiments", "solve_trust_region", "fitting.solve_trust_region"),
    ("experiments", "write_trace_csv", "fitting.write_trace_csv"),
    ("data", "generate_dataset", "data.generate_dataset"),
    ("experiments", "generate_dataset", "data.generate_dataset"),
    ("experiments", "save_dataset", "data.save_dataset"),
    ("model", "equilibrium_solve", "model.equilibrium_solve"),
    ("experiments", "equilibrium_solve", "model.equilibrium_solve"),
    ("experiments", "run_config", "experiments.run_config"),
    ("cli", "run_summary", "experiments.run_summary"),
    ("cli", "main", "cli.main"),
)

FIT_SPANS = ("fitting.solve_lm", "fitting.solve_trust_region")
# Spans whose info is the path they wrote; turned into a byte count after
# the operation, outside every span.
FILE_SPANS = ("solver.to_csv", "data.save_dataset")

def _fit_info(args, result):
    return result.trace[-1].iteration, result.function_count


# What each span keeps of its call, taken after the span has ended.
_EXTRACT = {
    "kernel.integrate": lambda args, result: int(args[6]),  # n_steps
    "solver.eval_many": lambda args, result: len(args[1]),  # points
    "solver.to_csv": lambda args, result: args[1],
    "data.save_dataset": lambda args, result: args[1],
    "fitting.solve_lm": _fit_info,
    "fitting.solve_trust_region": _fit_info,
}

# Span record fields.
NAME, PARENT, OP, START, END, INFO = range(6)


def _resolve(package, owner: str):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # operation id stamped on every span
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = _EXTRACT.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extract is not None:
                rec[INFO] = extract(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every binding in BINDINGS for the duration of the block."""
        saved = []
        try:
            for owner_name, attr, name in BINDINGS:
                owner = _resolve(package, owner_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def files_to_bytes(self, first: int) -> None:
        """Replace the paths kept by FILE_SPANS from spans[first:] with the bytes written.

        A dataset is a CSV plus sidecar files named after its stem, so all
        files sharing the written file's stem are counted.
        """
        for rec in self.spans[first:]:
            if rec[NAME] in FILE_SPANS and rec[INFO] is not None:
                path = Path(rec[INFO])
                rec[INFO] = sum(p.stat().st_size for p in path.parent.glob(path.stem + "*"))

    def write(self, path) -> None:
        """Write one JSON object per span: id, name, parent, op, start, end, info."""
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                row = dict(zip(("name", "parent", "op", "start", "end", "info"), rec))
                row["id"] = sid
                fh.write(json.dumps(row, default=str) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [(rec[END] - rec[START]) - c for rec, c in zip(spans, child)]


def fit_function_counts(spans) -> list[tuple[int, int]]:
    """(residual calls measured, function count reported) for each fit span."""
    fit_of = [-1] * len(spans)
    for sid, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0:
            fit_of[sid] = parent if spans[parent][NAME] in FIT_SPANS else fit_of[parent]
    measured: dict[int, int] = {}
    for sid, rec in enumerate(spans):
        if rec[NAME] == "fitting.residuals" and fit_of[sid] >= 0:
            measured[fit_of[sid]] = measured.get(fit_of[sid], 0) + 1
    return [
        (measured.get(sid, 0), rec[INFO][1])
        for sid, rec in enumerate(spans)
        if rec[NAME] in FIT_SPANS and rec[INFO] is not None
    ]


def layer_metrics(spans, op_scale: dict[int, float] | None = None) -> dict[str, float]:
    """Per-layer counts and self times over all spans (see BENCHMARK.json).

    op_scale maps an operation id to the factor that brings its times to
    reference speed (see speed.py); unlisted operations are not scaled.
    """
    op_scale = op_scale or {}
    selfs = [st * op_scale.get(rec[OP], 1.0) for rec, st in zip(spans, self_times(spans))]
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info: dict[str, list] = {}
    direct_residuals = 0  # residual calls made by an optimizer, not by fd_jacobian
    for rec, st in zip(spans, selfs):
        name = rec[NAME]
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        if rec[INFO] is not None:
            info.setdefault(name, []).append(rec[INFO])
        if name == "fitting.residuals" and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] in FIT_SPANS:
            direct_residuals += 1

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    fits = [v for n in FIT_SPANS for v in info.get(n, [])]
    iterations = sum(it for it, _ in fits)
    steps = sum(info.get("kernel.integrate", []))
    # every fit evaluates its start point once before any trial
    trials = direct_residuals - c(*FIT_SPANS)
    return {
        "kernel.calls": c("kernel.integrate"),
        "kernel.steps": steps,
        "kernel.self_s": s("kernel.integrate"),
        "kernel.ns_per_step": s("kernel.integrate") / steps * 1e9 if steps else 0.0,
        "solver.solve_calls": c("solver.solve_dde_raw"),
        "solver.solve_self_s": s("solver.solve_dde_raw", "solver.solve_dde"),
        "solver.eval_many.calls": c("solver.eval_many"),
        "solver.eval_many.points": sum(info.get("solver.eval_many", [])),
        "solver.eval_many.self_s": s("solver.eval_many"),
        "solver.to_csv.self_s": s("solver.to_csv"),
        "solver.to_csv.bytes": sum(info.get("solver.to_csv", [])),
        "fitting.fits": len(fits),
        "fitting.iterations": iterations,
        "fitting.residual_calls": c("fitting.residuals"),
        "fitting.reported_function_count": sum(fc for _, fc in fits),
        "fitting.jacobian_calls": c("fitting.fd_jacobian"),
        "fitting.trial_accept_ratio": iterations / trials if trials > 0 else 0.0,
        "fitting.residual_self_s": s("fitting.residuals"),
        "fitting.jacobian_self_s": s("fitting.fd_jacobian"),
        "fitting.optimizer_self_s": s(*FIT_SPANS),
        "fitting.trace_write_self_s": s("fitting.write_trace_csv"),
        "data.generate_calls": c("data.generate_dataset"),
        "data.generate_self_s": s("data.generate_dataset"),
        "data.save_self_s": s("data.save_dataset"),
        "data.save_bytes": sum(info.get("data.save_dataset", [])),
        "model.equilibrium_calls": c("model.equilibrium_solve"),
        "model.equilibrium_self_s": s("model.equilibrium_solve"),
        "experiments.run_config_calls": c("experiments.run_config"),
        "experiments.self_s": s("experiments.run_config", "experiments.run_summary"),
        "cli.self_s": s("cli.main"),
    }

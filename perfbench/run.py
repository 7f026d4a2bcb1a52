"""Run one respfit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit|sweep|simulate [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from the src/ directory next to
perfbench/, with whichever stepper backend `import respfit` selects. Nothing
is built. Scratch files go to .perfbench_work/ beside perfbench/.

--trace 0 times a closed loop of operations for S seconds, after set-up and
one warm-up operation, and reports the end-to-end metrics. --trace 1 runs a
fixed number of operations twice each, untraced then traced, and reports the
per-layer metrics of the traced pass plus the tracing overhead. Metric names
and units come from BENCHMARK.json. Reported times are scaled to a reference
machine speed (see speed.py); the raw figures are printed on "#" lines.

Every operation's output is checked (see workloads.py). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status is 0 when a result was printed, 1 on a usage error and 2 when
the program or BENCHMARK.json cannot be found, a traced layer recorded no
span, or the metrics do not match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 11
# Default-seed operations replayed and compared with references.json before
# timing, in runs with another seed.
CANARY_OPS = {"fit": 4, "sweep": 1, "simulate": 2}
WORKLOAD_NAMES = ("fit", "sweep", "simulate")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _import_respfit():
    """Import numpy and respfit from SRC; returns (respfit, seconds taken)."""
    if not (SRC / "respfit" / "__init__.py").is_file():
        raise BenchError(f"respfit sources not found under {SRC}")
    # One process per workload and no extra threads: pin BLAS before NumPy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401

    import respfit
    import respfit.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(respfit.__file__).resolve().parent != (SRC / "respfit").resolve():
        raise BenchError(f"respfit imported from {respfit.__file__}, not from {SRC}")
    return respfit, elapsed


# Times `import respfit` in a fresh interpreter, as a user's process pays it,
# then probes the machine's speed there: a probe in this process right after
# a child exits runs on cold caches and would misjudge it.
_CHILD_IMPORT = """
import sys, time
t = time.perf_counter()
import numpy, respfit, respfit.cli
t = time.perf_counter() - t
from perfbench.speed import probe
probe()
print(t, sorted(probe() for _ in range(3))[1])
"""


def _child_import_s() -> tuple[float, float]:
    """(raw seconds, probe seconds) of one import in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_IMPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, probe_s = map(float, done.stdout.split())
    return seconds, probe_s


def _commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(rf) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "backend": rf.backend.selected(),
    }


def _backends_identical(rf):
    """One trajectory per backend, bit-compared; None when only one is importable."""
    import numpy as np

    backend = rf.backend
    if "compiled" not in backend.available():
        return None
    params = rf.model.ModelParams(alpha=0.5, beta=0.8)
    history = rf.solver.ConstantHistory(rf.model.State(35.0, 35.0))
    chosen = backend.selected()
    trajectories = []
    try:
        for name in ("compiled", "python"):
            backend.select(name)
            trajectories.append(rf.solver.solve_dde(params, history, 0.0, 5.0))
    finally:
        backend.select(chosen)
    a, b = trajectories
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("x", "y", "dx", "dy"))


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Latency at percentile pct (linear interpolation) and the samples beyond it."""
    ordered = sorted(latencies)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(1 for v in ordered if v > value)


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload, references):
        from perfbench import speed

        self.w = workload
        self.references = references
        self.speed = speed.SpeedScale()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, int] = {}

    def op(self, i: int, workload=None, tracer=None) -> tuple[float, float]:
        """Run operation i and check it.

        Returns its wall time in seconds, raw and at reference speed.
        """
        w = workload or self.w
        inp = w.make_input(i)
        first_span = 0
        if tracer is not None:
            tracer.op = i
            first_span = len(tracer.spans)
        start = time.perf_counter()
        out = w.run(inp)
        elapsed = time.perf_counter() - start
        scaled = self.speed.scale(elapsed)
        if tracer is not None:
            tracer.files_to_bytes(first_span)
        problems = w.check(i, inp, out)
        pins = self.references if w.seed == self.references["seed"] else None
        if pins is not None and i < len(pins[w.name]) and w.digest(inp, out) != pins[w.name][i]:
            problems.append("numbers differ from references.json")
        for key, value in w.finish(inp, out).items():
            if tracer is not None:
                self.counters[key] = self.counters.get(key, 0) + value
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{w.name} seed {w.seed} op {i}: " + "; ".join(problems))
        return elapsed, scaled


def _setup_s(w, speed, import_s: float) -> tuple[float, float]:
    """Median import time plus median input-generation time.

    The import is timed in this process and in SETUP_REPEATS - 1 fresh
    interpreters, each scaled by a probe taken in the same process right
    after it; input generation is repeated SETUP_REPEATS times here. Returns
    (at reference speed, raw).
    """
    from perfbench.speed import REFERENCE_S

    imports, scaled = [import_s], [import_s * REFERENCE_S / speed.probes[0]]
    times, scaled_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - start)
        scaled_times.append(speed.scale(times[-1]))
    for _ in range(SETUP_REPEATS - 1):
        seconds, probe_s = _child_import_s()
        imports.append(seconds)
        scaled.append(seconds * REFERENCE_S / probe_s)
    raw = statistics.median(imports) + statistics.median(times)
    return statistics.median(scaled) + statistics.median(scaled_times), raw


def measure(w, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop for `seconds` after one warm-up op.

    The loop runs on until the workload's tail percentile has ten samples
    beyond it, so a slow spell of the machine cannot change which
    percentile is reported. Returns the end-to-end metrics at reference
    speed, and the same figures from raw wall times for the record.
    """
    runner.op(0)
    raw, latencies = [], []
    min_ops = math.ceil(10 / (1.0 - w.tail_pct / 100.0))
    i = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < min_ops or i % w.group:
        elapsed, scaled = runner.op(i)
        raw.append(elapsed)
        latencies.append(scaled)
        i += 1
    value, beyond = tail(latencies, w.tail_pct)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": value * 1e3,
    }
    raw_value, _ = tail(raw, w.tail_pct)
    record = {
        "latency_ms_tail": f"p{w.tail_pct:g} of {len(latencies)} ops, {beyond} beyond it",
        "raw wall time": f"{len(raw) / sum(raw):.4g} ops/s, p50 {statistics.median(raw) * 1e3:.4g} ms, "
        f"p{w.tail_pct:g} {raw_value * 1e3:.4g} ms",
        "probe": f"median {statistics.median(runner.speed.probes) * 1e3:.4g} ms over "
        f"{len(runner.speed.probes)} probes",
    }
    return metrics, record


def traced(rf, w, runner: Runner):
    """Untraced then traced run of ops 1..trace_ops; (per-layer metrics, tracer)."""
    from perfbench import tracing

    runner.op(0)
    tracer = tracing.Tracer()
    plain = spanned = 0.0
    op_scale = {}
    for i in range(1, w.trace_ops + 1):
        plain += runner.op(i)[1]
        with tracer.installed(rf):
            elapsed, scaled = runner.op(i, tracer=tracer)
        spanned += scaled
        op_scale[i] = scaled / elapsed
    missing = [name for name in w.required_spans if not any(s[0] == name for s in tracer.spans)]
    if missing:
        raise BenchError(f"traced {w.name} recorded no span for {', '.join(missing)}")

    metrics = tracing.layer_metrics(tracer.spans, op_scale)
    metrics["experiments.files_written"] = runner.counters.get("experiments.files_written", 0)
    metrics["experiments.bytes_written"] = runner.counters.get("experiments.bytes_written", 0)
    metrics["trace.ops"] = w.trace_ops
    metrics["trace.overhead_frac"] = spanned / plain - 1.0
    if metrics["kernel.calls"] != metrics["solver.solve_calls"]:
        runner.failed += 1
        runner.problems.append(
            f"kernel.calls {metrics['kernel.calls']} != solver.solve_calls {metrics['solver.solve_calls']}"
        )
    for measured, reported in tracing.fit_function_counts(tracer.spans):
        if measured < reported:
            runner.failed += 1
            runner.problems.append(f"a fit reported {reported} evaluations but made {measured}")
    return metrics, tracer


def _declared(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this kind of run."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="respfit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32 or not args.seconds > 0:
        parser.error("--seed must be in [0, 2**32) and --seconds positive")

    try:
        declared = _declared(bool(args.trace))
        rf, import_s = _import_respfit()
        sys.path.insert(0, str(ROOT))
        from perfbench import workloads

        references = json.loads(REFERENCES.read_text())
        cls = workloads.WORKLOADS[args.workload]
        scratch = WORKDIR / f"run-{os.getpid()}"
        w = cls(rf, args.seed, scratch)
        runner = Runner(w, references)
        record = {}
        try:
            setup_s, record["setup_s raw"] = _setup_s(w, runner.speed, import_s)
            identical = _backends_identical(rf)
            if identical is False:
                runner.failed += 1
                runner.problems.append("compiled and python backends differ")
            if args.seed != references["seed"]:
                canary = cls(rf, references["seed"], scratch / "canary")
                for i in range(CANARY_OPS[w.name]):
                    runner.op(i, workload=canary)
            if args.trace:
                metrics, tracer = traced(rf, w, runner)
                WORKDIR.mkdir(exist_ok=True)
                tracer.write(WORKDIR / f"spans-{w.name}-seed{w.seed}.jsonl")
            else:
                metrics, timings = measure(w, runner, args.seconds)
                record.update(timings)
                metrics["setup_s"] = setup_s
                metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if set(metrics) != set(declared):
            raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = _provenance(rf)
    info["backends_identical"] = "n/a (one backend)" if identical is None else identical
    info.update(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    info.update(record)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    # failed_frac is 0 on a healthy tree, so it is printed here and carried
    # by "attempted" and "failed" below rather than listed as a metric.
    print(f"{'failed_frac':<36} {runner.failed / runner.attempted:<14.6g} ratio")
    for name, unit in declared.items():
        print(f"{name:<36} {metrics[name]:<14.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced pass runs clean, set up as ``perfbench/run.py --trace 1`` sets it up.

perfbench's own tests call ``run.traced`` without ``setup()``, so the fit
workload generates its datasets inside the traced operations, and those
generations record spans that the fits themselves might no longer record.
Here each workload is set up first, as the benchmark does, so a layer that
stops calling through one of perfbench's bindings fails tier-1 and not only
the benchmark.
"""

import json

import pytest

import respfit
import respfit.cli  # noqa: F401  (makes respfit.cli reachable as an attribute)
from perfbench import run, workloads


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_pass_after_setup_records_every_required_span(name, tmp_path):
    w = workloads.WORKLOADS[name](respfit, workloads.DEFAULT_SEED, tmp_path)
    runner = run.Runner(w, json.loads(run.REFERENCES.read_text()))
    w.setup()
    run.traced(respfit, w, runner)  # raises BenchError for a required span not recorded
    assert runner.failed == 0, runner.problems

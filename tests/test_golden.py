"""Golden digest of ``respfit run-summary --seeds 1,2,3``, and its replay.

Criterion 9 only compares two runs of the same build with each other. This
test compares one run with a committed manifest of SHA-256 digests, one per
written file (``golden/run_summary_seeds_1_2_3.sha256``, ``sha256sum``
format), so any change to any artifact byte between versions of the code
shows up here. A second test refits every run from its own files, so the
record is shown to be enough to reproduce the fits it reports.

The digests are pinned to the platform they were recorded on: the noise comes
from NumPy's PCG64 generator and its ziggurat normal sampler, and every
trajectory goes through the C library's ``exp``. A NumPy release that changes
the sampler, or a libm whose ``exp`` rounds differently, changes the bytes
without any change to respfit. After such a change, or a deliberate change to
the artifacts, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from respfit import Grid, backend, history_from_description
from respfit.cli import main as cli_main
from respfit.data import load_dataset
from respfit.fitting import ResidualProblem, solve_lm, solve_trust_region

MANIFEST = Path(__file__).with_name("golden") / "run_summary_seeds_1_2_3.sha256"


def _run(out: Path) -> Path:
    assert cli_main(["run-summary", "--seeds", "1,2,3", "--out", str(out)]) == 0
    return out


def _digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _read_manifest() -> dict[str, str]:
    pinned = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pinned[name] = digest
    return pinned


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The run tree of each importable stepper backend, by backend name."""
    root = tmp_path_factory.mktemp("golden")
    chosen = backend.selected()
    try:
        runs = {}
        for kernel in backend.available():
            backend.select(kernel)
            runs[kernel] = _run(root / kernel)
        return runs
    finally:
        backend.select(chosen)


def test_run_summary_artifacts_match_golden_digest(golden_runs):
    # once per importable stepper backend: neither may move a byte
    pinned = _read_manifest()
    for kernel, out in golden_runs.items():
        got = _digests(out)
        missing = sorted(set(pinned) - set(got))
        extra = sorted(set(got) - set(pinned))
        changed = sorted(n for n in set(pinned) & set(got) if pinned[n] != got[n])
        assert not (missing or extra or changed), (
            f"{kernel} backend: {len(changed)} changed, {len(missing)} missing, "
            f"{len(extra)} extra of {len(pinned)} pinned files; changed: {changed[:5]} "
            f"missing: {missing[:5]} extra: {extra[:5]}"
        )
        assert len(got) == 167


def test_every_run_replays_from_its_own_files(golden_runs):
    # the dataset and its sidecar (history, solver settings, truth constants)
    # plus summary.json's p0 rebuild each reported fit bit for bit
    chosen = backend.selected()
    replayed = 0
    try:
        for kernel, out in golden_runs.items():
            backend.select(kernel)
            for run in sorted(out.glob("seed_*/ex*")):
                dataset, meta = load_dataset(run / "dataset.csv")
                summary = json.loads((run / "summary.json").read_text())
                solver = meta["solver"]
                assert dataset.truth.constants.tau == solver["tau"]
                history = history_from_description(meta["history"])
                grid = Grid(
                    dataset.truth.constants,
                    history,
                    solver["t0"],
                    solver["t_end"],
                    solver["steps_per_delay"],
                )
                # the one rule that poses a dataset's fit finds the same grid
                posed = ResidualProblem.from_dataset(
                    dataset, history, steps_per_delay=solver["steps_per_delay"]
                )
                assert posed.grid == grid, (kernel, run)
                problem = ResidualProblem(dataset, grid)
                for algo, solve in (("lm", solve_lm), ("tr", solve_trust_region)):
                    fit = solve(problem, summary["p0"])
                    got = {
                        "best_fit": {"alpha": fit.best_fit[0], "beta": fit.best_fit[1]},
                        "final_residual": fit.final_residual,
                        "function_count": fit.function_count,
                        "termination": fit.termination.value,
                    }
                    assert got == {key: summary[algo][key] for key in got}, (kernel, run, algo)
                    replayed += 1
    finally:
        backend.select(chosen)
    assert replayed == 2 * 3 * 5 * len(golden_runs)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(_run(Path(tmp) / "out"))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(f"{d}  {name}\n" for name, d in digests.items()))
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)

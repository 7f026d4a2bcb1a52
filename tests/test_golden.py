"""Golden digest of ``respfit run-summary --seeds 1,2,3``.

Criterion 9 only compares two runs of the same build with each other. This
test compares one run with a committed manifest of SHA-256 digests, one per
written file (``golden/run_summary_seeds_1_2_3.sha256``, ``sha256sum``
format), so any change to any artifact byte between versions of the code
shows up here.

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
import sys
import tempfile
from pathlib import Path

from respfit import backend
from respfit.cli import main as cli_main

MANIFEST = Path(__file__).with_name("golden") / "run_summary_seeds_1_2_3.sha256"


def _digests(out: Path) -> dict[str, str]:
    assert cli_main(["run-summary", "--seeds", "1,2,3", "--out", str(out)]) == 0
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


def test_run_summary_artifacts_match_golden_digest(tmp_path):
    # once per importable stepper backend: neither may move a byte
    pinned = _read_manifest()
    chosen = backend.selected()
    try:
        for kernel in backend.available():
            backend.select(kernel)
            got = _digests(tmp_path / kernel)
            missing = sorted(set(pinned) - set(got))
            extra = sorted(set(got) - set(pinned))
            changed = sorted(n for n in set(pinned) & set(got) if pinned[n] != got[n])
            assert not (missing or extra or changed), (
                f"{kernel} backend: {len(changed)} changed, {len(missing)} missing, "
                f"{len(extra)} extra of {len(pinned)} pinned files; changed: {changed[:5]} "
                f"missing: {missing[:5]} extra: {extra[:5]}"
            )
            assert len(got) == 167
    finally:
        backend.select(chosen)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(Path(tmp) / "out")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(f"{d}  {name}\n" for name, d in digests.items()))
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)

"""Regenerate references.json: the numbers of the first operations at the default seed.

    python3 perfbench/pin_references.py

Run only at a commit whose outputs are known good; the benchmark then counts
every later difference in these numbers as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402

PINNED_OPS = {"fit": 64, "sweep": 8, "simulate": 16}


def main() -> int:
    rf, _ = run._import_respfit()
    from perfbench import workloads

    references = {"seed": workloads.DEFAULT_SEED}
    scratch = run.WORKDIR / "pin"
    try:
        for name, n_ops in PINNED_OPS.items():
            w = workloads.WORKLOADS[name](rf, workloads.DEFAULT_SEED, scratch)
            w.setup()
            digests = []
            for i in range(n_ops):
                inp = w.make_input(i)
                out = w.run(inp)
                problems = w.check(i, inp, out)
                if problems:
                    raise SystemExit(f"{name} op {i} fails its checks: {problems}")
                digests.append(w.digest(inp, out))
                w.finish(inp, out)
            references[name] = digests
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # one operation per line, so a diff shows which operations changed
    parts = [f' "seed": {references.pop("seed")}']
    for name, digests in references.items():
        rows = ",\n".join("  " + json.dumps(d, sort_keys=True) for d in digests)
        parts.append(f' "{name}": [\n{rows}\n ]')
    run.REFERENCES.write_text("{\n" + ",\n".join(parts) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

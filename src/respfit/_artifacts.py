"""The byte format of every file a run writes, so that reruns write the same bytes.

respfit opens a file for writing only in write_text and write_csv, so every
line ends in ``\\n`` on every platform. A CSV file is a header line of column
names, then one line per row, cells joined by commas. A number (numpy's too)
is written with ``.17g``, which round-trips every double and writes every
integer up to 2**53 in full; a string as it is; ``None`` as an empty cell. A
JSON file holds ``indent=2`` JSON with sorted keys and a final newline; NaN
and infinities raise ValueError instead of becoming ``NaN`` or ``Infinity``.
"""

import json

import numpy as np

# Cell types that "%.17g" writes as format(v, ".17g") does. A row with any
# other cell (None, a str, a Decimal) is written cell by cell.
_TEMPLATE_TYPES = frozenset(
    (float, int, bool, np.float64, np.float32, np.int64, np.int32, np.bool_)
)


def write_text(path, text: str) -> None:
    """Write text to path as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write the column names in header, then each row of cells in rows, one row at a time."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in map(tuple, rows):
            if len(row) == len(header) and _TEMPLATE_TYPES.issuperset(map(type, row)):
                fh.write(template % row)
                continue
            cells = ["" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row]
            fh.write(",".join(cells) + "\n")


def write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys; a value it cannot write leaves no file."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")

"""Property test: write_csv writes the bytes of the per-cell writer it replaced.

write_csv formats a row of plain numbers with one "%.17g" template and every
other row cell by cell. The reference below is the per-cell writer as it was
before, kept verbatim. Rows are drawn from the cells a writer can meet:
Python and NumPy floats (with ±0.0, ±inf, nan and subnormals), Python and
NumPy ints, bools, None, Decimals and short strings, in rows of the header's
length and of other lengths. Both writers must write the same bytes, and
raise the same error, if any, after the same rows.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from respfit._artifacts import write_csv  # noqa: E402


def _reference_write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = ["" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row]
            fh.write(",".join(cells) + "\n")


EDGES = (0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324, 2.2e-308)
CELLS = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.decimals(),
    st.text(max_size=3),
)
HEADERS = st.lists(st.text("abcxyz_", min_size=1, max_size=4), max_size=4)


@st.composite
def tables(draw):
    header = draw(HEADERS)
    width = len(header)
    row = st.lists(CELLS, min_size=width, max_size=width) | st.lists(CELLS, max_size=width + 2)
    rows = draw(st.lists(row.map(draw(st.sampled_from((tuple, list)))), max_size=6))
    return header, rows


def _outcome(writer, path, header, rows):
    """What writer left: the bytes of path, and the class and message of any error."""
    try:
        writer(path, header, rows)
        error = None
    except Exception as exc:  # the two writers must fail alike
        error = (type(exc), str(exc))
    return path.read_bytes(), error


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200, deadline=None)
@given(table=tables())
# "%.17g" % Decimal("0.1") is 0.10000000000000001, where the per-cell writer wrote 0.1
@example(table=(("a", "b", "c"), [(Decimal("0.1"), 0.1, np.float32(0.1)), (1, None, "a"), (2,)]))
def test_write_csv_writes_the_bytes_of_the_per_cell_writer(out_dir, table):
    header, rows = table
    new = _outcome(write_csv, out_dir / "new.csv", header, rows)
    assert new == _outcome(_reference_write_csv, out_dir / "ref.csv", header, rows)

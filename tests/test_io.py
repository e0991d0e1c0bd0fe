"""CSV cell formatting: pinned bytes, the one cell table, and the sidecar."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkfront.io import format_cell, write_csv, write_table


def reference_cell(value) -> str:
    """The per-cell rule the CSV bytes are defined by (15 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.15g}"


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, header, rows)
        return path.read_bytes()


GOLDEN_ROWS = [
    (0.0, 0.1, 1, -7, "plus"),
    (math.nan, -math.nan, 0, 2**62, ""),
    (math.inf, -math.inf, -0.0, 0, "minus"),
    (1e-300, 1.2345678901234567e16, 123456789012345678901234567890, -1, "a b"),
    (1.0 / 3.0, 2.5, -(10**29), 1e300, "x"),
]

# Bytes written by the per-cell writer for GOLDEN_ROWS.
GOLDEN_BYTES = (
    b"a,b,c,d,e\n"
    b"0,0.1,1,-7,plus\n"
    b"nan,nan,0,4611686018427387904,\n"
    b"inf,-inf,-0,0,minus\n"
    b"1e-300,1.23456789012346e+16,123456789012345678901234567890,-1,a b\n"
    b"0.333333333333333,2.5,-100000000000000000000000000000,1e+300,x\n"
)


def test_golden_bytes():
    assert written(("a", "b", "c", "d", "e"), GOLDEN_ROWS) == GOLDEN_BYTES
    assert reference_csv(("a", "b", "c", "d", "e"), GOLDEN_ROWS) == GOLDEN_BYTES


def test_repeated_row_types_reuse_one_format():
    rows = [(float(k), k / 3, k, "s", -k) for k in range(5)] * 2 + GOLDEN_ROWS * 2
    header = ("a", "b", "c", "d", "e")
    assert written(header, rows) == reference_csv(header, rows)


def test_lists_and_array_rows():
    rows = [[1.5, 2, "z"], np.array([0.25, -1e-5, math.inf]).tolist()]
    assert written(("a", "b", "c"), rows) == reference_csv(("a", "b", "c"), rows)


@pytest.mark.parametrize("cell, name", [
    (np.float64(0.5), r"numpy\.float64"),
    (np.int64(3), r"numpy\.int64"),
    (True, r"builtins\.bool"),
    (np.bool_(True), r"numpy\.bool_?"),
    (np.float32(0.1), r"numpy\.float32"),
    (None, r"builtins\.NoneType"),
], ids=["float64", "int64", "bool", "bool_", "float32", "None"])
def test_off_table_cell_raises_type_error_naming_its_type(tmp_path, cell, name):
    message = rf"a CSV cell must be a float, int or str, got {name}$"
    with pytest.raises(TypeError, match=message):
        format_cell(cell)
    path = tmp_path / "out.csv"
    # the row holding the cell is not written, nor any after it
    with pytest.raises(TypeError, match=message):
        write_csv(path, ("a", "b"), [(1.0, "x"), (2, "y"), (cell, "z"), (3.0, "w")])
    assert path.read_bytes() == b"a,b\n1,x\n2,y\n"


def test_write_table_writes_the_csv_and_its_sidecar(tmp_path):
    write_table(tmp_path / "out.csv", ("t", "u"), [(0.5, 1)], {"command": "test", "n": 3})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
    assert (tmp_path / "out.csv").read_bytes() == b"t,u\n0.5,1\n"
    assert json.loads((tmp_path / "out.json").read_text()) == {"command": "test", "n": 3}


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    # may draw a lone surrogate, which UTF-8 cannot encode
    st.text(st.characters(blacklist_characters=",\n\r"), max_size=8),
)


def utf8_encodable(value) -> bool:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@pytest.mark.parametrize("text", ["\ud800", "a\udfffb"])
def test_unencodable_text_raises(text):
    # the file is UTF-8; a lone surrogate is an error, not silently replaced
    with pytest.raises(UnicodeEncodeError):
        written(("a", "b"), [(1.0, "ok"), (2.0, text)])


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 5), data=st.data())
def test_matches_per_cell_join(width, data):
    rows = data.draw(st.lists(st.tuples(*[cells] * width), max_size=12))
    # repeat rows so that cached row formats are reused
    rows = rows + rows[::-1]
    header = tuple(f"c{k}" for k in range(width))
    encodable = [row for row in rows
                 if all(utf8_encodable(v) for v in row if isinstance(v, str))]
    assert written(header, encodable) == reference_csv(header, encodable)
    if len(encodable) < len(rows):
        with pytest.raises(UnicodeEncodeError):
            written(header, rows)
    for row in rows:
        assert [format_cell(v) for v in row] == [reference_cell(v) for v in row]

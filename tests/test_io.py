"""CSV cell formatting: pinned bytes and agreement with the per-cell rule."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkfront.io import format_cell, write_csv


def reference_cell(value) -> str:
    """The per-cell rule the CSV bytes are defined by (15 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.15g}"


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, header, rows)
        return path.read_bytes()


GOLDEN_ROWS = [
    (0.0, np.float64(0.1), 1, np.int64(-7), "plus"),
    (math.nan, np.float64("nan"), 0, np.int64(2**62), ""),
    (math.inf, -math.inf, -0.0, np.float64(-0.0), "minus"),
    (1e-300, np.float64(1.2345678901234567e16), 123456789012345678901234567890, np.int64(0),
     "a b"),
    (True, np.bool_(False), np.float32(0.1), np.int32(3), 1.0 / 3.0),
    (2.5, "x", False, np.float64(1e300), -1),
]

# Bytes written by the per-cell writer for GOLDEN_ROWS.
GOLDEN_BYTES = (
    b"a,b,c,d,e\n"
    b"0,0.1,1,-7,plus\n"
    b"nan,nan,0,4611686018427387904,\n"
    b"inf,-inf,-0,-0,minus\n"
    b"1e-300,1.23456789012346e+16,123456789012345678901234567890,0,a b\n"
    b"true,false,0.100000001490116,3,0.333333333333333\n"
    b"2.5,x,false,1e+300,-1\n"
)


def test_golden_bytes():
    assert written(("a", "b", "c", "d", "e"), GOLDEN_ROWS) == GOLDEN_BYTES
    assert reference_csv(("a", "b", "c", "d", "e"), GOLDEN_ROWS) == GOLDEN_BYTES


def test_repeated_row_types_reuse_one_format():
    rows = [(float(k), np.float64(k) / 3, k, "s") for k in range(5)] * 2 + GOLDEN_ROWS * 2
    header = ("a", "b", "c", "d", "e")
    assert written(header, rows) == reference_csv(header, rows)


def test_lists_and_array_rows():
    rows = [[1.5, 2, "z"], np.array([0.25, -1e-5, math.inf])]
    assert written(("a", "b", "c"), rows) == reference_csv(("a", "b", "c"), rows)


_floats = st.floats(allow_nan=True, allow_infinity=True)
_int64 = st.integers(-(2**63), 2**63 - 1)
cells = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    _int64.map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    # may draw a lone surrogate, which UTF-8 cannot encode
    st.text(st.characters(blacklist_characters=",\n\r"), max_size=8),
    st.booleans(),
    st.booleans().map(np.bool_),
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

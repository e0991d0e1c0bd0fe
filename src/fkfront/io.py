"""Delimited output: CSV bodies with 15 significant digits, LF endings,
and a JSON sidecar per file carrying the configuration echo and its hash.

A cell is written by the ``%``-spec of its exact type (``_CELL_SPECS``):
floats as ``%.15g`` (``nan``, ``inf``, ``-0``), integers as ``%d``, strings
as they are.  :func:`write_csv` joins the specs of a row's types into one
format string, built once per distinct type tuple, and formats the whole
row in one ``%`` operation; a row holding any other type (``bool``, numpy
scalars other than ``float64``/``int64``) is written cell by cell through
:func:`format_cell`, which applies the same specs.  Files are UTF-8: text
that UTF-8 cannot encode (a lone surrogate) raises ``UnicodeEncodeError``
instead of being replaced.

The module does not import numpy, so the ``wkb`` command, whose rows are
plain floats, runs without it.  A numpy scalar cell means numpy is loaded,
so a row's ``float64``/``int64`` cells take the float/int specs through the
``numpy`` in ``sys.modules``, and :func:`format_cell` writes any other numpy
scalar as the Python scalar of its value.

The module only formats: each command in :mod:`fkfront.cli` names its
files and writes them through :func:`write_csv` and :func:`write_json`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "format_cell",
    "write_csv",
    "write_json",
    "sidecar_path",
]


_CELL_SPECS = {float: "%.15g", int: "%d", str: "%s"}


def _cell_spec(cell_type: type) -> str | None:
    """``%``-spec of cells of exactly ``cell_type``, or None off the table."""
    spec = _CELL_SPECS.get(cell_type)
    if spec is None and cell_type.__module__ == "numpy":
        np = sys.modules["numpy"]
        spec = {np.float64: _CELL_SPECS[float], np.int64: _CELL_SPECS[int]}.get(cell_type)
    return spec


def format_cell(value) -> str:
    if type(value).__module__ == "numpy":
        value = value.item()  # the Python scalar of the same value
    spec = _CELL_SPECS.get(type(value))
    if spec is not None:
        return spec % value
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return _CELL_SPECS[int] % int(value)
    return _CELL_SPECS[float] % float(value)


def _row_format(types: tuple[type, ...]) -> str | None:
    """``%``-format of a whole row of cells of ``types``, or None off the table."""
    specs = [_cell_spec(t) for t in types]
    if None in specs:
        return None
    return ",".join(specs) + "\n"


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    formats: dict[tuple[type, ...], str | None] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            try:
                fmt = formats[types]
            except KeyError:
                fmt = formats[types] = _row_format(types)
            if fmt is None:
                fh.write(",".join(format_cell(v) for v in row) + "\n")
            else:
                fh.write(fmt % tuple(row))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


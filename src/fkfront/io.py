"""Delimited output: CSV bodies with 15 significant digits, LF endings,
and a JSON sidecar per file carrying the configuration echo and its hash.

A cell is a ``float``, an ``int`` or a ``str``, of exactly that type, and is
written by its ``%``-spec in one table: floats as ``%.15g`` (``nan``,
``inf``, ``-0``), integers as ``%d``, strings as they are.  Any other type
(``bool``, ``None``, an array scalar) raises ``TypeError`` naming it, before
its row is written, so callers pass plain values (``ndarray.tolist()``).
:func:`write_csv` joins the specs of a row's types into one format string,
built once per distinct type tuple, and formats the whole row in one ``%``
operation.  Files are UTF-8: text that UTF-8 cannot encode (a lone
surrogate) raises ``UnicodeEncodeError`` instead of being replaced.

The module only formats: each command in :mod:`fkfront.cli` names its files
and writes each CSV with its sidecar through :func:`write_table`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "format_cell",
    "write_csv",
    "write_json",
    "write_table",
]


_CELL_SPECS = {float: "%.15g", int: "%d", str: "%s"}


def _cell_spec(cell_type: type) -> str:
    try:
        return _CELL_SPECS[cell_type]
    except KeyError:
        raise TypeError(f"a CSV cell must be a float, int or str, got "
                        f"{cell_type.__module__}.{cell_type.__qualname__}") from None


def format_cell(value) -> str:
    return _cell_spec(type(value)) % value


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    formats: dict[tuple[type, ...], str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            try:
                fmt = formats[types]
            except KeyError:
                fmt = formats[types] = ",".join(map(_cell_spec, types)) + "\n"
            fh.write(fmt % tuple(row))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence], meta: dict) -> None:
    """Write the CSV ``path`` and its sidecar, ``path`` with the suffix ``.json``."""
    write_csv(path, header, rows)
    write_json(path.with_suffix(".json"), meta)

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
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .front import FitReport
from .spectral import EigenSystem

__all__ = [
    "format_cell",
    "write_csv",
    "write_json",
    "sidecar_path",
    "export_eigen_system",
    "export_fit_reports",
]


_CELL_SPECS = {float: "%.15g", np.float64: "%.15g", int: "%d", np.int64: "%d", str: "%s"}


def format_cell(value) -> str:
    spec = _CELL_SPECS.get(type(value))
    if spec is not None:
        return spec % value
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return _CELL_SPECS[int] % int(value)
    return _CELL_SPECS[float] % float(value)


def _row_format(types: tuple[type, ...]) -> str | None:
    """``%``-format of a whole row of cells of ``types``, or None off the table."""
    try:
        return ",".join(_CELL_SPECS[t] for t in types) + "\n"
    except KeyError:
        return None


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


def export_eigen_system(
    eig: EigenSystem, dump_modes: Sequence[int], out_dir: Path, meta: dict
) -> None:
    """``eigenvalues.csv`` (n,lambda) plus one ``phi_<n>.csv`` per dumped mode.

    Each dumped mode's eigenfunction must be in ``eig`` (see
    :meth:`~fkfront.spectral.EigenSystem.eigenfunction`).
    """
    spectrum = out_dir / "eigenvalues.csv"
    write_csv(spectrum, ("n", "lambda"), enumerate(eig.eigenvalues))
    write_json(sidecar_path(spectrum), meta)
    for k in dump_modes:
        mode_csv = out_dir / f"phi_{k}.csv"
        write_csv(mode_csv, ("x", "phi"), zip(eig.grid.x, eig.eigenfunction(k)))
        write_json(sidecar_path(mode_csv), {**meta, "mode": k})


def _fit_payload(fit: FitReport) -> dict:
    return {
        "C": fit.C,
        "p": fit.p,
        "residuals": list(fit.residuals),
        "epsilons": list(fit.epsilons),
        "mode": fit.mode,
    }


def export_fit_reports(
    fits: dict[str, FitReport], json_path: Path, meta: dict, error: str | None = None
) -> None:
    payload = dict(meta)
    for name, fit in fits.items():
        payload[name] = _fit_payload(fit)
    if error is not None:
        payload["fit_error"] = error
    write_json(json_path, payload)

"""The conservative three-point stencil of ``(a(x) u_x)_x``.

Conservative finite volumes.  The operator is stored as its ``n - 1``
face couplings ``c_i = a(x_{i+1/2}) / dx**2`` (the coefficient at the cell
half-points ``x_i + dx/2``) and is ``D = -W^{-1} K``:

- ``W = diag(1/2, 1, ..., 1, 1/2)``, the trapezoid rule in units of ``dx``;
- ``K`` symmetric, ``K[i, i+1] = -c_i`` and ``K[i, i] = c_{i-1} + c_i``
  (a missing coupling counts as 0 at the ends).

So row ``i`` of ``D`` is ``[c_{i-1}, -(c_{i-1} + c_i), c_i]``, and the halved
end weights are the zero-flux walls' mirror-image ghost node
(``u_{-1} = u_1``), which doubles the end coupling: row 0 is
``[-2 c_0, 2 c_0]``.  ``K`` annihilates constants and ``W D = -K`` is
symmetric, so every row of ``D`` sums to zero and, without reaction, the
discrete mass ``sum W u`` is conserved to rounding.
:class:`TridiagonalOperator` holds only positive couplings that keep every
entry of ``D`` finite.

:mod:`fkfront.solver` steps with the operator and :mod:`fkfront.spectral`
finds its modes; neither needs the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Grid

__all__ = ["TridiagonalOperator", "build_operator"]


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """``D = -W^{-1} K`` on ``grid``, stored as its couplings (module docstring).

    ``coupling[i] = a(x_{i+1/2}) / dx**2`` joins nodes ``i`` and ``i+1``.
    A ``coupling`` whose length is not ``n - 1``, or with an entry that is
    not positive or that makes an entry of ``D`` overflow (``nan``, ``inf``,
    neighbour sums past the float range), raises ``ValueError``.  Equality
    and hashing are by identity: the fields are arrays.
    """

    grid: Grid
    coupling: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coupling, dtype=float)
        if c.shape != (self.grid.n - 1,):
            raise ValueError(f"coupling must have length {self.grid.n - 1}")
        object.__setattr__(self, "coupling", c)
        # |D[i, i]| = (c_{i-1} + c_i) / W_i bounds every entry of D and holds
        # every coupling; its overflow is rejected here, not warned about
        with np.errstate(over="ignore"):
            diagonal = self.neighbour_sums / self.weights
        if not (np.all(c > 0) and np.all(np.isfinite(diagonal))):
            raise ValueError("diffusion coefficient a(x)/dx**2 must be finite and positive "
                             "at all half-points")

    @property
    def weights(self) -> np.ndarray:
        """``W``: the grid's trapezoid weights in units of ``dx``."""
        return self.grid.quadrature_weights / self.grid.dx

    @property
    def neighbour_sums(self) -> np.ndarray:
        """The diagonal of ``K``, ``c_{i-1} + c_i``."""
        return np.pad(self.coupling, (1, 0)) + np.pad(self.coupling, (0, 1))


def build_operator(grid: Grid, a: Callable[[np.ndarray], np.ndarray]) -> TridiagonalOperator:
    """The couplings ``a(x_{i+1/2}) / dx**2`` of ``(a(x) u_x)_x`` on ``grid``.

    ``a`` is the diffusion coefficient, evaluated on the array of half-points.
    A coefficient that is not finite and positive, or a grid so wide that
    ``dx**2`` overflows, raises ``ValueError`` (from the operator).
    """
    dx = grid.dx
    # overflow and nan are rejected by the operator, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = np.asarray(a(grid.x[:-1] + 0.5 * dx), dtype=float) / np.float64(dx) ** 2
    return TridiagonalOperator(grid=grid, coupling=coupling)

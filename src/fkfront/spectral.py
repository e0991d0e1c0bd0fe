"""Mode decomposition of the early softening stage.

On the fast time scale the step profile relaxes by diffusion alone, so the
natural basis is the Neumann eigenproblem of the diffusion operator,

    (a(x) phi_n')' = lambda_n phi_n,    phi_n'(+/-L) = 0,

discretized with the solver's conservative stencil.  That stencil is
self-adjoint under trapezoid weights, so the discrete eigenvalues are real
and non-positive (``lambda_0 = 0`` with constant ``phi_0``) and the discrete
modes come out orthonormal in the trapezoid inner product.
:func:`solve_eigenproblem` finds the eigenvalues by bisection and the
eigenfunctions by inverse iteration, for every mode or only for the modes a
caller names (the ``eigen`` command names the ones it writes).

Removing secular growth from the mean mode predicts the domain mean: from
the step mean ``(L + x_c)/(2L)`` it follows the logistic ODE
``d<u>/dt = <u>(1 - <u>)``,

    <u>(t) = 1 / (1 + ((L - x_c)/(L + x_c)) e^{-t}),

which is :func:`average_prediction`.  The ``average`` command writes it
beside the solver's mean; while the front is held at the slow spot the
solver's mean lags it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .domain import DiffusionProfile, Grid
from .solver import build_operator

__all__ = [
    "EigenSolveError",
    "EigenSystem",
    "solve_eigenproblem",
    "average_prediction",
]


class EigenSolveError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


@dataclass(frozen=True)
class EigenSystem:
    """Leading eigenpairs of the diffusion operator, slowest first.

    ``eigenvalues`` are sorted descending (``eigenvalues[0]`` is the zero
    mode).  ``modes`` lists, ascending, the modes whose eigenfunctions were
    computed (every mode unless a subset was asked for); row ``j`` of
    ``eigenfunctions`` samples mode ``modes[j]`` on the grid, normalized to
    unit trapezoid norm with a positive left-end value.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    modes: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        funcs = np.asarray(self.eigenfunctions, dtype=float)
        modes = np.arange(vals.size) if self.modes is None else np.asarray(self.modes, dtype=int)
        if vals.ndim != 1 or modes.ndim != 1 or funcs.shape != (modes.size, self.grid.n):
            raise ValueError("eigenfunctions must be (len(modes), n), modes and eigenvalues 1-D")
        if modes.size and not (modes[0] >= 0 and modes[-1] < vals.size
                               and np.all(np.diff(modes) > 0)):
            raise ValueError("modes must be ascending, distinct indices of the eigenvalues")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenfunctions", funcs)
        object.__setattr__(self, "modes", modes)

    @property
    def count(self) -> int:
        """Number of eigenvalues (the eigenfunctions may cover fewer modes)."""
        return self.eigenvalues.size

    def eigenfunction(self, k: int) -> np.ndarray:
        """Mode ``k`` sampled on the grid; its eigenfunction must have been computed."""
        j = int(np.searchsorted(self.modes, k))
        if j == self.modes.size or self.modes[j] != k:
            raise ValueError(f"the eigenfunction of mode {k} was not computed")
        return self.eigenfunctions[j]


def solve_eigenproblem(
    diffusion: DiffusionProfile,
    grid: Grid,
    m: int = 64,
    vectors: "Iterable[int] | None" = None,
) -> EigenSystem:
    """Leading ``m`` Neumann eigenpairs of ``(a(x) phi')'`` on ``grid``.

    The operator ``D = -W^{-1} K`` of :func:`~fkfront.solver.build_operator`
    is similar to the symmetric tridiagonal ``W^{1/2} D W^{-1/2}``, assembled
    from the same couplings ``c`` and weights ``W``: diagonal
    ``-(c_{i-1} + c_i) / W_i``, off-diagonal ``c_i / sqrt(W_i W_{i+1})``.
    LAPACK bisection (``dstebz``) finds its top ``m`` eigenvalues, and
    inverse iteration (``dstein``) the eigenvectors, which are mapped back.
    Requires ``1 <= m < grid.n``.

    ``vectors`` names the modes, ``0 <= k < m`` in any order and with
    repeats, whose eigenfunctions are computed; the default is every mode.
    Eigenvalues do not depend on it.  ``dstein`` works on the requested
    eigenvalues only, so the eigenvector work and memory are
    ``O(n |vectors|)`` instead of ``O(n m)``, and the default gives bit for
    bit what
    ``scipy.linalg.eigh_tridiagonal(..., select="i")`` gives (those are
    the two routines it runs).  ``dstein`` orthogonalizes a vector only
    against the requested vectors of nearby eigenvalues.  So a mode whose
    eigenvalue is isolated matches its all-modes row to rounding, but a
    mode in a cluster that is degenerate to rounding (the even/odd pairs of
    a symmetric profile) may come out as another unit vector of the
    cluster's eigenspace.
    """
    from scipy.linalg import lapack

    if not 1 <= m < grid.n:
        raise ValueError(f"mode count must satisfy 1 <= m < {grid.n}, got {m}")
    if vectors is None:
        modes = np.arange(m)
    else:
        modes = np.unique(np.fromiter(vectors, dtype=int))
        if modes.size and not (modes[0] >= 0 and modes[-1] < m):
            raise ValueError(f"eigenfunction modes must satisfy 0 <= k < {m}, got {modes}")
    n = grid.n
    op = build_operator(grid, diffusion)
    weights = op.weights
    sqrt_qw = np.sqrt(grid.dx * weights)
    diag = -op.neighbour_sums / weights
    offdiag = (op.coupling / weights[:-1]) * sqrt_qw[:-1] / sqrt_qw[1:]
    found, w, iblock, isplit, info = lapack.dstebz(
        diag, offdiag, 2, 0.0, 1.0, n - m + 1, n, 0.0, "B"
    )
    if info != 0:  # pragma: no cover
        raise EigenSolveError(f"dstebz failed (info {info})")
    w = w[:found]
    # w is grouped by split-off block; mode k (slowest first) sits at order[m - 1 - k]
    order = np.argsort(w)
    positions = order[m - 1 - modes]
    picked = np.sort(positions)
    if picked.size:
        # dstein takes the picked values in block order, their block indices
        # first in a length-n array
        sub_iblock = iblock.copy()
        sub_iblock[: picked.size] = iblock[picked]
        vecs, info = lapack.dstein(diag, offdiag, w[picked], sub_iblock, isplit)
        if info != 0:  # pragma: no cover
            raise EigenSolveError(f"dstein failed (info {info})")
    else:
        vecs = np.empty((n, 0))
    vecs = vecs[:, np.searchsorted(picked, positions)]
    funcs = (vecs / sqrt_qw[:, None]).T
    flip = funcs[:, 0] < 0.0
    funcs[flip] *= -1.0
    return EigenSystem(grid=grid, eigenvalues=w[order][::-1], eigenfunctions=funcs,
                       modes=modes)


def average_prediction(
    t: "float | np.ndarray", x_c: float, L: float
) -> "float | np.ndarray":
    """Predicted domain mean ``1 / (1 + ((L - x_c)/(L + x_c)) e^{-t})``.

    Starts at the step mean ``(L + x_c)/(2 L)`` at ``t = 0`` and rises
    monotonically to 1.
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if not -L < x_c < L:
        raise ValueError(f"x_c must lie strictly inside (-{L}, {L}), got {x_c}")
    ratio = (L - x_c) / (L + x_c)
    return 1.0 / (1.0 + ratio * np.exp(-np.asarray(t, dtype=float)))

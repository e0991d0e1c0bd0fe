"""Mode decomposition of the early softening stage.

On the fast time scale the step profile relaxes by diffusion alone, so the
natural basis is the Neumann eigenproblem of the diffusion operator,

    (a(x) phi_n')' = lambda_n phi_n,    phi_n'(+/-L) = 0,

discretized with the conservative stencil of :mod:`fkfront.stencil`.  That
stencil is self-adjoint under trapezoid weights, so the discrete eigenvalues
are real and non-positive (``lambda_0 = 0`` with constant ``phi_0``) and the
discrete modes come out orthonormal in the trapezoid inner product.
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

from typing import Callable, Iterable

import numpy as np

from .domain import Grid
from .lapack import load
from .stencil import build_operator

__all__ = [
    "EigenSolveError",
    "solve_eigenproblem",
    "average_prediction",
]


class EigenSolveError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


def solve_eigenproblem(
    a: Callable[[np.ndarray], np.ndarray],
    grid: Grid,
    m: int = 64,
    vectors: "Iterable[int] | None" = None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Leading ``m`` Neumann eigenpairs of ``(a(x) phi')'`` on ``grid``.

    Returns ``(eigenvalues, phis)``.  The ``m`` eigenvalues are sorted
    descending, so ``eigenvalues[0]`` is the zero mode.  ``phis`` maps each
    mode ``k`` whose eigenfunction was computed, in ascending order, to that
    eigenfunction sampled on ``grid.x``, normalized to unit trapezoid norm
    with a positive left-end value.

    The operator ``D = -W^{-1} K`` of :func:`~fkfront.stencil.build_operator`
    is similar to the symmetric tridiagonal ``W^{1/2} D W^{-1/2}``, assembled
    from the same couplings ``c`` and weights ``W``: diagonal
    ``-(c_{i-1} + c_i) / W_i``, off-diagonal ``c_i / sqrt(W_i W_{i+1})``.
    LAPACK bisection (``dstebz``) finds its top ``m`` eigenvalues, and
    inverse iteration (``dstein``) the eigenvectors, which are mapped back.
    Requires ``1 <= m < grid.n``.

    ``vectors`` names the modes, ``0 <= k < m`` in any order and with
    repeats, whose eigenfunctions are computed; the default is every mode.
    Eigenvalues do not depend on it, and eigenfunctions not on its order or
    repeats.  ``dstein`` works on the requested eigenvalues only, so the
    eigenvector work and memory are ``O(n |vectors|)`` instead of
    ``O(n m)``.  The routines are those of the LAPACK numpy links
    (:func:`fkfront.lapack.load`), and the default gives bit for bit what
    ``scipy.linalg.eigh_tridiagonal(..., select="i")`` gives, which runs
    the same two.  ``dstein`` orthogonalizes a vector only
    against the requested vectors of nearby eigenvalues.  So a mode whose
    eigenvalue is isolated matches its all-modes row to rounding, but a
    mode in a cluster that is degenerate to rounding (the even/odd pairs of
    a symmetric profile) may come out as another unit vector of the
    cluster's eigenspace.
    """
    lapack = load()
    if not 1 <= m < grid.n:
        raise ValueError(f"mode count must satisfy 1 <= m < {grid.n}, got {m}")
    # a sorted set, not np.unique, which loads numpy.ma on its first call
    modes = range(m) if vectors is None else sorted({int(k) for k in vectors})
    if modes and not (modes[0] >= 0 and modes[-1] < m):
        raise ValueError(f"eigenfunction modes must satisfy 0 <= k < {m}, got {list(modes)}")
    n = grid.n
    op = build_operator(grid, a)
    weights = op.weights
    sqrt_qw = np.sqrt(grid.dx * weights)
    diag = -op.neighbour_sums / weights
    offdiag = (op.coupling / weights[:-1]) * sqrt_qw[:-1] / sqrt_qw[1:]
    found, w, iblock, isplit, info = lapack.dstebz(diag, offdiag, n - m + 1, n)
    if info != 0:  # pragma: no cover
        raise EigenSolveError(f"dstebz failed (info {info})")
    w = w[:found]
    # w is grouped by split-off block; mode k (slowest first) sits at order[m - 1 - k]
    order = np.argsort(w)
    eigenvalues = w[order][::-1]
    # dstein takes the picked values in block order, their block indices
    # first in a length-n array
    picked = sorted(int(order[m - 1 - k]) for k in modes)
    if not picked:
        return eigenvalues, {}
    sub_iblock = iblock.copy()
    sub_iblock[: len(picked)] = iblock[picked]
    vecs, info = lapack.dstein(diag, offdiag, w[picked], sub_iblock, isplit)
    if info != 0:  # pragma: no cover
        raise EigenSolveError(f"dstein failed (info {info})")
    funcs = (vecs / sqrt_qw[:, None]).T
    funcs[funcs[:, 0] < 0.0] *= -1.0
    row = dict(zip(picked, funcs))
    return eigenvalues, {k: row[int(order[m - 1 - k])] for k in modes}


def average_prediction(
    t: "float | np.ndarray", x_c: float, L: float
) -> "float | np.ndarray":
    """Predicted domain mean ``1 / (1 + ((L - x_c)/(L + x_c)) e^{-t})``.

    Starts at the step mean ``(L + x_c)/(2 L)`` at ``t = 0`` and rises
    monotonically to 1.
    """
    if not 0.0 < L < np.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    if not -L < x_c < L:
        raise ValueError(f"x_c must lie strictly inside (-{L}, {L}), got {x_c}")
    ratio = (L - x_c) / (L + x_c)
    return 1.0 / (1.0 + ratio * np.exp(-np.asarray(t, dtype=float)))

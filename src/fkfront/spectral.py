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

Writing the slow amplitude of mode ``n`` as ``sigma_n(t)``, the logistic
reaction couples everything to the mean: removing secular growth gives

    sigma_0(t) = 1 / (phi_0 + (1/sigma_0(0) - phi_0) e^{-t}),
    sigma_n(t) = sigma_n(0) e^t / (1 + sigma_0(0) phi_0 (e^t - 1))**2,

with ``phi_0 = sqrt(1/(2L))``.  The mean of the reconstruction is then the
logistic pull-up ``<u> ~ 1 / (1 + ((L - x_c)/(L + x_c)) e^{-t})`` implemented
by :func:`average_prediction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .domain import DiffusionProfile, Grid
from .solver import build_operator

__all__ = [
    "EigenSolveError",
    "EigenSystem",
    "ModeAmplitudes",
    "solve_eigenproblem",
    "initial_amplitudes",
    "sigma0_of_t",
    "sigma_n_of_t",
    "leading_order_field",
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

    def all_eigenfunctions(self) -> np.ndarray:
        """Rows for every mode ``0 .. count-1``, which must all have been computed."""
        if self.modes.size != self.count:
            raise ValueError(f"needs all {self.count} eigenfunctions; "
                             f"{self.modes.size} were computed")
        return self.eigenfunctions


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


@dataclass(frozen=True)
class ModeAmplitudes:
    """Initial modal content of the step profile.

    ``sigma0_init = (x_c + L) / sqrt(2 L)`` is the projection onto the
    constant mode; ``sigma_n_init[k]`` holds mode ``k+1``.  ``phi0_const``
    caches ``sqrt(1/(2L))``.
    """

    sigma0_init: float
    sigma_n_init: np.ndarray
    phi0_const: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sigma_n_init", np.asarray(self.sigma_n_init, dtype=float)
        )


def initial_amplitudes(
    x_c0: float, grid: Grid, eig: EigenSystem, diffusion: DiffusionProfile
) -> ModeAmplitudes:
    """Project the step at ``x_c0`` onto the computed modes, in closed form.

    Integrating the eigen-equation across ``[-L, x_c0]`` turns the projection
    into a boundary term: ``sigma_n(0) = a(x_c0) phi_n'(x_c0) / lambda_n``.
    The derivative is taken by second-order differences on the eigenvector
    and interpolated at ``x_c0``.
    """
    if eig.grid != grid:
        raise ValueError("eigen system was computed on a different grid")
    if not -grid.L < x_c0 < grid.L:
        raise ValueError(f"front {x_c0} must lie strictly inside the domain")
    L = grid.L
    sigma0 = (x_c0 + L) / math.sqrt(2.0 * L)
    a_xc = float(diffusion.a(x_c0))
    sigma_n = np.empty(max(eig.count - 1, 0))
    if eig.count > 1:
        lam = eig.eigenvalues[1:]
        if np.any(np.abs(lam) < 1e-12):
            raise EigenSolveError("repeated zero eigenvalue in the decaying modes")
        dphi = np.gradient(eig.all_eigenfunctions()[1:], grid.dx, axis=1, edge_order=2)
        for k in range(1, eig.count):
            slope = float(np.interp(x_c0, grid.x, dphi[k - 1]))
            sigma_n[k - 1] = a_xc * slope / eig.eigenvalues[k]
    return ModeAmplitudes(
        sigma0_init=sigma0,
        sigma_n_init=sigma_n,
        phi0_const=math.sqrt(1.0 / (2.0 * L)),
    )


def sigma0_of_t(t: "float | np.ndarray", amp: ModeAmplitudes) -> "float | np.ndarray":
    """Mean-mode amplitude ``1 / (phi_0 + (1/sigma_0(0) - phi_0) e^{-t})``.

    Monotone logistic saturation toward ``1/phi_0``; requires a strictly
    positive initial amplitude.
    """
    if amp.sigma0_init <= 0:
        raise ValueError(f"sigma_0(0) must be positive, got {amp.sigma0_init}")
    sig = 1.0 / amp.sigma0_init - amp.phi0_const
    return 1.0 / (amp.phi0_const + sig * np.exp(-np.asarray(t, dtype=float)))


def sigma_n_of_t(
    t: "float | np.ndarray", n: int, amp: ModeAmplitudes
) -> "float | np.ndarray":
    """Decaying-mode amplitude ``sigma_n(0) e^t / (1 + sigma_0(0) phi_0 (e^t - 1))**2``.

    Only the decaying modes ``n >= 1`` follow this law; ``n = 0`` is rejected.
    Evaluated in a form that stays bounded for large ``t``.
    """
    if n < 1:
        raise ValueError("the mean mode n=0 follows sigma0_of_t, not this law")
    if n > amp.sigma_n_init.size:
        raise ValueError(f"mode {n} not available; have {amp.sigma_n_init.size} decaying modes")
    s0p = amp.sigma0_init * amp.phi0_const
    em = np.exp(-np.asarray(t, dtype=float))
    return amp.sigma_n_init[n - 1] * em / (em + s0p * (1.0 - em)) ** 2


def leading_order_field(
    x: "float | np.ndarray",
    T: float,
    t: float,
    eig: EigenSystem,
    amp: ModeAmplitudes,
) -> "float | np.ndarray":
    """Two-time reconstruction ``sum_n sigma_n(t) phi_n(x) e^{lambda_n T}``.

    ``T`` is the fast diffusive time (``T >= 0``), ``t`` the slow reaction
    time.  As ``T`` grows every decaying mode switches off and the field
    flattens to ``sigma_0(t) phi_0``.
    """
    if T < 0:
        raise ValueError(f"fast time T must be non-negative, got {T}")
    if amp.sigma_n_init.size < eig.count - 1:
        raise ValueError("amplitudes cover fewer modes than the eigen system")
    funcs = eig.all_eigenfunctions()
    xq = np.asarray(x, dtype=float)
    u = np.full(xq.shape, sigma0_of_t(t, amp) * amp.phi0_const)
    for k in range(1, eig.count):
        weight = float(sigma_n_of_t(t, k, amp)) * math.exp(eig.eigenvalues[k] * T)
        if weight == 0.0:
            continue
        u = u + weight * np.interp(xq, eig.grid.x, funcs[k])
    return float(u) if np.ndim(x) == 0 else u


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

"""Implicit/explicit time stepping for ``u_t = (a(x) u_x)_x + f(u)``.

Space: conservative three-point stencil.  Row ``i`` applies

    [ a_{i-1/2},  -(a_{i-1/2} + a_{i+1/2}),  a_{i+1/2} ] / dx**2

with the coefficient evaluated at the cell half-points ``x_i +/- dx/2``.
The zero-flux ends use a mirror-image ghost node (``u_{-1} = u_1`` with the
medium reflected through the wall), which doubles the boundary coupling:

    row 0:      [ -2 a_{1/2},    2 a_{1/2}   ] / dx**2
    row n-1:    [  2 a_{n-3/2}, -2 a_{n-3/2} ] / dx**2

Every row sums to zero, so constants are annihilated exactly, and the
operator is self-adjoint under the trapezoid inner product -- discrete mass
is conserved to rounding when the reaction is off.

Time: backward Euler on the diffusion, forward Euler on the reaction
(first order).  Each step solves one tridiagonal system

    (I - dt D) u_{k+1} = u_k + dt f(u_k).

``I - dt D`` is an M-matrix with unit row sums, and the explicit logistic
map keeps ``[0, 1]`` invariant for ``dt <= 1``, so iterates respect the
maximum principle ``0 <= u <= 1``.

The matrix does not change between steps, so a run factors it once and
each step is a single solve against the stored factors.  The mirror ghost
doubles only the end couplings, so with the trapezoid weights
``W = diag(1/2, 1, ..., 1, 1/2)`` the matrix ``W (I - dt D)`` is symmetric
and positive definite.  A run factors it as ``L D L^T`` (LAPACK
``dpttrf``), taking the off-diagonal from one side so that the factored
matrix is symmetric by construction; each step halves the two end entries
of the right-hand side and calls ``dpttrs``, whose back substitution keeps
the division off the sequential dependency chain.  An operator that is not
symmetric under ``W`` is rejected.  Several runs that share a grid and
``dt`` -- an epsilon sweep -- march together as one block-diagonal
tridiagonal system whose blocks are uncoupled (zero entries at the seams);
each block's solution is bit-for-bit the one its run would get alone.

:func:`march` is the one stepper.  It is a generator of the stored steps,
so a caller derives what it needs from each state as it comes (a front
position, a mean, a CSV row) and no run has to keep its fields; a caller
that wants every field keeps the states it yields.  Once a step returns its
input bit for bit -- a logistic run that has saturated, where the solve's
rounding absorbs the increment -- the march makes no further solve and
yields that state again at the remaining stored steps.

The operator's couplings ``a(x_{i+1/2}) / dx**2`` must be finite and
positive; :func:`build_operator` rejects a ``nan`` or ``inf`` coefficient
and a grid so wide that ``dx**2`` overflows.

LAPACK comes from ``scipy.linalg``, which is imported inside the functions
that call it, so importing this module does not load scipy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .domain import DiffusionProfile, Grid, ReactionTerm

__all__ = [
    "TridiagonalOperator",
    "FactoredSymmetricTridiagonal",
    "SolverConfig",
    "build_operator",
    "factor_step_matrix",
    "march",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Three diagonals of the discrete diffusion operator, each length ``n``.

    ``sub[i]`` couples row ``i`` to node ``i-1`` (``sub[0]`` is identically 0)
    and ``sup[i]`` couples row ``i`` to node ``i+1`` (``sup[-1]`` is 0).
    """

    grid: Grid
    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        for name in ("sub", "main", "sup"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} diagonal must have length {n}")
            object.__setattr__(self, name, arr)


def build_operator(grid: Grid, diffusion: DiffusionProfile) -> TridiagonalOperator:
    """Assemble the conservative stencil for ``(a(x) u_x)_x`` on ``grid``.

    Raises
    ------
    ValueError
        If some coupling ``a(x_{i+1/2}) / dx**2`` is not positive, or it or
        a diagonal entry is not finite (``nan``, or overflow on a huge grid).
    """
    dx = grid.dx
    # overflow and nan are rejected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        # a at the n-1 half points x_i + dx/2
        a_half = np.asarray(diffusion.a(grid.x[:-1] + 0.5 * dx), dtype=float) / np.float64(dx) ** 2
        sub = np.zeros(grid.n)
        sup = np.zeros(grid.n)
        sub[1:] = a_half
        sup[:-1] = a_half
        # mirror-image ghost closes the zero-flux ends without breaking symmetry
        sup[0] = 2.0 * a_half[0]
        sub[-1] = 2.0 * a_half[-1]
        main = -(sub + sup)
    if not (np.all(a_half > 0) and np.all(np.isfinite(main))):
        raise ValueError("diffusion coefficient a(x)/dx**2 must be finite and positive "
                         "at all half-points")
    return TridiagonalOperator(grid=grid, sub=sub, main=main, sup=sup)


@dataclass(frozen=True)
class FactoredSymmetricTridiagonal:
    """``L D L^T`` factors of a weighted step matrix, as returned by LAPACK ``dpttrf``.

    The factored matrix is ``W M``, where ``W`` halves the rows ``ends`` (the
    first and last row of each block) of ``M``; :meth:`solve` applies ``W``
    to the right-hand side, so it solves ``M x = rhs``.
    """

    d: np.ndarray
    e: np.ndarray
    ends: np.ndarray

    def solve(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve against the stored factors.

        With ``overwrite`` a contiguous float ``rhs`` receives the solution
        in place and is returned; otherwise ``rhs`` is left untouched.
        """
        from scipy.linalg import lapack

        b = np.asarray(rhs, dtype=float) if overwrite else np.array(rhs, dtype=float)
        b[self.ends] *= 0.5
        x, _ = lapack.dpttrs(self.d, self.e, b, overwrite_b=True)
        return x


def factor_step_matrix(
    ops: Sequence[TridiagonalOperator], dt: float
) -> FactoredSymmetricTridiagonal:
    """Factor ``I - dt D`` for one or more operators stacked block-diagonally.

    The B operators must share a grid size ``n``; unknown ``b * n + i`` is
    node ``i`` of block ``b``.  The couplings across block seams are zero, so
    the blocks stay independent: each block's solution is bit-for-bit that
    of its own system, unless some block's solution overflows (``0 * inf``
    at a seam then spreads ``nan``).

    Each operator must be symmetric under the trapezoid weights ``W``, as
    every operator from :func:`build_operator` is.  The weighted step matrix
    ``W (I - dt D)`` is assembled with its off-diagonal taken from the
    ``sup`` side, so it is symmetric by construction, and factored once as
    ``L D L^T`` (``dpttrf``).

    Raises
    ------
    ValueError
        If an operator is not symmetric under ``W``, or the weighted step
        matrix is not positive definite.
    """
    from scipy.linalg import lapack

    weight = np.ones(ops[0].grid.n)
    weight[[0, -1]] = 0.5
    for b, op in enumerate(ops):
        if not np.array_equal((weight * op.sup)[:-1], (weight * op.sub)[1:]):
            raise ValueError(f"operator {b} is not symmetric under the trapezoid weights")
    d = np.stack([weight * (1.0 - dt * op.main) for op in ops])
    e = np.stack([weight * (-dt * op.sup) for op in ops])
    e[:, -1] = 0.0  # no coupling across the block seams
    d, e, info = lapack.dpttrf(d.ravel(), e.ravel()[:-1])
    if info != 0:
        raise ValueError(f"step matrix is not positive definite (dpttrf info {info})")
    n = weight.size
    ends = (n * np.arange(len(ops))[:, None] + [0, n - 1]).ravel()
    return FactoredSymmetricTridiagonal(d=d, e=e, ends=ends)


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and snapshot cadence for :func:`march`.

    ``t_end = 0`` is allowed and yields the initial field only; any positive
    horizon must cover at least one step.
    """

    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt <= 1.0:
            raise ValueError(
                f"dt must satisfy the positivity bound 0 < dt <= 1, got {self.dt}"
            )
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be non-negative, got {self.t_end}")
        if 0.0 < self.t_end < self.dt:
            raise ValueError(
                f"positive t_end must be at least one step dt={self.dt}, got {self.t_end}"
            )
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


def march(
    system: FactoredSymmetricTridiagonal,
    u0: np.ndarray,
    reaction: ReactionTerm,
    config: SolverConfig,
) -> Iterator[tuple[float, np.ndarray]]:
    """Advance ``u0`` to ``config.t_end`` in ``round(t_end / dt)`` steps of ``dt``.

    ``system`` holds the ``L D L^T`` factors of the trapezoid-weighted
    ``I - dt D`` from :func:`factor_step_matrix`, so each step is one
    ``dpttrs`` solve; ``u0`` has shape ``(n,)`` or, for B stacked blocks,
    ``(B, n)``.  Yields ``(t, u)`` at ``t = 0``, every ``snapshot_stride``-th
    step, and the final step, with ``u`` in the shape of ``u0``; the state
    between those steps is never kept.  Each yielded state is a new array,
    so a consumer may keep it.  Step ``k`` is stamped ``t = k * dt``, free
    of the rounding that a running sum of ``dt`` accumulates.

    ``reaction.f`` must be a pure function of the state.  The step map is
    then deterministic, so once a solve returns its input bit for bit every
    later step would too: no further solve is made, the remaining stored
    steps yield fresh copies of that state, and one INFO line on the
    ``fkfront.solver`` logger names the time.  The yielded bits are those of
    the full march.  The check compares the last entry first (a scalar)
    and only on a match the whole state, as ``int64`` bits.
    """
    dt = config.dt
    stride = config.snapshot_stride
    n_steps = int(round(config.t_end / dt))
    shape = np.shape(u0)
    u = np.array(u0, dtype=float).ravel()
    fixed = False
    yield 0.0, u.reshape(shape)
    for k in range(1, n_steps + 1):
        if not fixed:
            prev = u
            u = system.solve(prev + dt * np.asarray(reaction.f(prev), dtype=float),
                             overwrite=True)
            # the last entry gates the full compare (a nan there never
            # passes); the int64 views keep -0.0 apart from 0.0
            fixed = u[-1] == prev[-1] and np.array_equal(u.view(np.int64),
                                                         prev.view(np.int64))
            if fixed and k < n_steps:
                log.info("march: fixed point reached: the step to t=%g returned its input "
                         "bit for bit, no further solve before t_end=%g", k * dt, config.t_end)
        if k % stride == 0 or k == n_steps:
            yield k * dt, (u.copy() if fixed else u).reshape(shape)


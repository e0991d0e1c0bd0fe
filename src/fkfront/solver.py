"""Implicit/explicit time stepping for ``u_t = (a(x) u_x)_x + f(u)``.

Space: conservative finite volumes.  The operator is stored as its ``n - 1``
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

Time: backward Euler on the diffusion, forward Euler on the reaction
(first order).  Each step solves one tridiagonal system

    (I - dt D) u_{k+1} = u_k + dt f(u_k).

``I - dt D`` is an M-matrix with unit row sums, and the explicit logistic
map keeps ``[0, 1]`` invariant for ``dt <= 1``, so iterates respect the
maximum principle ``0 <= u <= 1``.

The matrix does not change between steps, so a run factors it once and each
step is a single solve against the stored factors, which hold ``dt``.  The
weighted matrix ``W (I - dt D) = W + dt K`` is symmetric and positive
definite; it is factored as ``L D L^T`` (LAPACK ``dpttrf``), and each step
multiplies the right-hand side by ``W`` and calls ``dpttrs``, whose back
substitution keeps the division off the sequential dependency chain.  Several
runs that share a grid and ``dt`` -- an epsilon sweep -- march together as
one block-diagonal tridiagonal system whose blocks are uncoupled (zero
entries at the seams); each block's solution is bit-for-bit the one its run
would get alone.

:func:`march` is the one stepper.  It is a generator of the stored steps,
so a caller derives what it needs from each state as it comes (a front
position, a mean, a CSV row) and no run has to keep its fields; a caller
that wants every field keeps the states it yields.  Once a step returns its
input bit for bit -- a logistic run that has saturated, where the solve's
rounding absorbs the increment -- the march makes no further solve and
yields that state again at the remaining stored steps.

LAPACK comes from ``scipy.linalg``, which is imported inside the functions
that call it, so importing this module does not load scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .domain import DiffusionProfile, Grid

__all__ = [
    "TridiagonalOperator",
    "FactoredSymmetricTridiagonal",
    "build_operator",
    "factor_step_matrix",
    "march",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TridiagonalOperator:
    """``D = -W^{-1} K`` on ``grid``, stored as its couplings (module docstring).

    ``coupling[i] = a(x_{i+1/2}) / dx**2`` joins nodes ``i`` and ``i+1``.
    A ``coupling`` whose length is not ``n - 1``, or with an entry that is
    not positive or that makes an entry of ``D`` overflow (``nan``, ``inf``,
    neighbour sums past the float range), raises ``ValueError``.
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


def build_operator(grid: Grid, diffusion: DiffusionProfile) -> TridiagonalOperator:
    """The couplings ``a(x_{i+1/2}) / dx**2`` of ``(a(x) u_x)_x`` on ``grid``.

    A coefficient that is not finite and positive, or a grid so wide that
    ``dx**2`` overflows, raises ``ValueError`` (from the operator).
    """
    dx = grid.dx
    # overflow and nan are rejected by the operator, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = np.asarray(diffusion.a(grid.x[:-1] + 0.5 * dx), dtype=float) / np.float64(dx) ** 2
    return TridiagonalOperator(grid=grid, coupling=coupling)


@dataclass(frozen=True)
class FactoredSymmetricTridiagonal:
    """``L D L^T`` factors of a weighted step matrix, as returned by LAPACK ``dpttrf``.

    The factored matrix is ``W M``, for the step matrix ``M = I - dt D`` and
    the stacked trapezoid ``weights`` ``W``; :meth:`solve` applies ``W`` to
    the right-hand side, so it solves ``M x = rhs``.  ``dt`` is the step the
    factors were made for, and the one :func:`march` takes.
    """

    d: np.ndarray
    e: np.ndarray
    weights: np.ndarray
    dt: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the stored factors, in place.

        ``rhs`` is the workspace: a contiguous float array receives the
        solution and is returned.  A caller that keeps ``rhs`` passes a copy.
        """
        from scipy.linalg import lapack

        b = np.asarray(rhs, dtype=float)
        b *= self.weights
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

    Each block of ``W + dt K`` has the diagonal ``W + dt (c_{i-1} + c_i)``
    and the off-diagonal ``-dt c``; it is factored once (``dpttrf``), and
    the factors record ``dt``.  A ``dt`` outside ``0 < dt <= 1`` raises
    ``ValueError``, and so does a weighted step matrix that ``dpttrf`` finds
    not positive definite (couplings so large that rounding loses it).
    """
    from scipy.linalg import lapack

    # also rejects nan, which fails every comparison
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"dt must satisfy the positivity bound 0 < dt <= 1, got {dt}")
    weights = np.stack([op.weights for op in ops])
    d = weights + dt * np.stack([op.neighbour_sums for op in ops])
    e = np.zeros_like(d)  # the last entry of each row is a block seam
    e[:, :-1] = [-dt * op.coupling for op in ops]
    d, e, info = lapack.dpttrf(d.ravel(), e.ravel()[:-1])
    if info != 0:
        raise ValueError(f"step matrix is not positive definite (dpttrf info {info})")
    return FactoredSymmetricTridiagonal(d=d, e=e, weights=weights.ravel(), dt=dt)


def march(
    system: FactoredSymmetricTridiagonal,
    u0: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    stride: int = 1,
) -> Iterator[tuple[float, np.ndarray]]:
    """Advance ``u0`` to ``t_end`` in ``round(t_end / dt)`` steps of ``dt = system.dt``.

    ``system`` holds the ``L D L^T`` factors of the trapezoid-weighted
    ``I - dt D`` from :func:`factor_step_matrix`, so each step is one
    ``dpttrs`` solve.  ``u0`` has shape ``(n,)`` or, for B stacked blocks,
    ``(B, n)``.  Yields ``(t, u)`` at ``t = 0``, every ``stride``-th step, and
    the final step, with ``u`` in the shape of ``u0``; the state between
    those steps is never kept.  Each yielded state is a new array, so a
    consumer may keep it.  Step ``k`` is stamped ``t = k * dt``, free of the
    rounding that a running sum of ``dt`` accumulates.  ``t_end = 0`` yields
    the initial state only; the first draw raises ``ValueError`` for a
    ``t_end`` that is not finite, a negative one, a positive one shorter than
    one step, or ``stride < 1``.

    The reaction ``f`` must be a pure function of the state.  The step map is
    then deterministic, so once a solve returns its input bit for bit every
    later step would too: no further solve is made, the remaining stored
    steps yield fresh copies of that state, and one INFO line on the
    ``fkfront.solver`` logger names the time.  The yielded bits are those of
    the full march.  The check compares the last entry first (a scalar)
    and only on a match the whole state, as ``int64`` bits.
    """
    dt = system.dt
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if 0.0 < t_end < dt:
        raise ValueError(f"positive t_end must be at least one step dt={dt}, got {t_end}")
    if stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")
    n_steps = int(round(t_end / dt))
    shape = np.shape(u0)
    u = np.array(u0, dtype=float).ravel()
    fixed = False
    yield 0.0, u.reshape(shape)
    for k in range(1, n_steps + 1):
        if not fixed:
            prev = u
            u = system.solve(prev + dt * np.asarray(f(prev), dtype=float))
            # the last entry gates the full compare (a nan there never
            # passes); the int64 views keep -0.0 apart from 0.0
            fixed = u[-1] == prev[-1] and np.array_equal(u.view(np.int64),
                                                         prev.view(np.int64))
            if fixed and k < n_steps:
                log.info("march: fixed point reached: the step to t=%g returned its input "
                         "bit for bit, no further solve before t_end=%g", k * dt, t_end)
        if k % stride == 0 or k == n_steps:
            yield k * dt, (u.copy() if fixed else u).reshape(shape)


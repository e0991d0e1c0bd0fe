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

LAPACK is the library numpy already links, called through
:mod:`fkfront.lapack`, so no module loads scipy.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import lapack
from .config import check_step_count
from .domain import Grid

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


@dataclass(frozen=True)
class FactoredSymmetricTridiagonal:
    """``L D L^T`` factors of a weighted step matrix, as returned by LAPACK ``dpttrf``.

    The factored matrix is ``W M``, for the step matrix ``M = I - dt D`` and
    the stacked trapezoid ``weights`` ``W``; :meth:`solve` applies ``W`` to
    the right-hand side, so it solves ``M x = rhs``.  ``dt`` is the step the
    factors were made for, and the one :func:`march` takes.  ``d`` and
    ``weights`` must be contiguous float64 arrays of one length n, ``e`` of
    length n - 1 (``ValueError`` otherwise).

    ``dpttrs`` solves in :attr:`workspace`, n entries that the system holds,
    so every argument of the foreign call is built here, once: looking up
    the address of a new right-hand side would add about 1 µs to each
    solve, which takes about 15 µs at n = 2001.  The call holds the GIL, so
    the workspace serves one solve at a time.
    """

    d: np.ndarray
    e: np.ndarray
    weights: np.ndarray
    dt: float
    workspace: np.ndarray = field(init=False, repr=False, compare=False)
    _dpttrs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = np.size(self.d)
        lapack.checked("d", self.d, np.float64, n)
        lapack.checked("e", self.e, np.float64, max(n - 1, 0))
        lapack.checked("weights", self.weights, np.float64, n)
        work = np.empty(n)
        info = lapack.INT()
        n_ref = lapack.ref_int(n)
        # n, nrhs, d, e, b, ldb, info
        args = (n_ref, lapack.ref_int(1), lapack.pointer(self.d), lapack.pointer(self.e),
                lapack.pointer(work), n_ref, ctypes.byref(info))
        object.__setattr__(self, "workspace", work)
        object.__setattr__(self, "_dpttrs", (lapack.load().routines["dpttrs"], args, info))

    def __reduce__(self):
        # a pickle or a copy builds its own workspace and foreign-call
        # arguments; these point into this instance's arrays
        return type(self), (self.d, self.e, self.weights, self.dt)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the stored factors, in place.

        ``rhs`` receives the solution and is returned.  Passing
        :attr:`workspace` itself solves there, with no copy; any other
        ``rhs`` must be a writable, contiguous float64 array of length n
        (``ValueError`` otherwise, with ``rhs`` left as it was) and is
        copied through the workspace.  A caller that keeps ``rhs`` passes a
        copy.
        """
        work = self.workspace
        if rhs is not work:
            lapack.checked("rhs", rhs, np.float64, work.size, writable=True)
            np.copyto(work, rhs)
            np.copyto(rhs, self.solve(work))
            return rhs
        work *= self.weights
        routine, args, info = self._dpttrs
        routine(*args)
        if info.value != 0:  # pragma: no cover
            raise ValueError(f"dpttrs failed (info {info.value})")
        return work


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
    # also rejects nan, which fails every comparison
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"dt must satisfy the positivity bound 0 < dt <= 1, got {dt}")
    weights = np.stack([op.weights for op in ops])
    d = weights + dt * np.stack([op.neighbour_sums for op in ops])
    e = np.zeros_like(d)  # the last entry of each row is a block seam
    e[:, :-1] = [-dt * op.coupling for op in ops]
    d, e, info = lapack.load().dpttrf(d.ravel(), e.ravel()[:-1])
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
    ``I - dt D`` from :func:`factor_step_matrix`, so each step builds its
    right-hand side in ``system.workspace`` and is one ``dpttrs`` solve
    there.  ``u0`` has shape ``(n,)`` or, for B stacked blocks,
    ``(B, n)``.  Yields ``(t, u)`` at ``t = 0``, every ``stride``-th step, and
    the final step, with ``u`` in the shape of ``u0``; the state between
    those steps is never kept.  Each yielded state is a new array, so a
    consumer may keep it.  Step ``k`` is stamped ``t = k * dt``, free of the
    rounding that a running sum of ``dt`` accumulates.  ``t_end = 0`` yields
    the initial state only; the first draw raises ``ValueError`` for a
    ``t_end`` that is not finite, a negative one, a positive one shorter than
    one step, one whose step count ``t_end / dt`` overflows or exceeds
    :data:`fkfront.config.MAX_STEPS`, or ``stride < 1``.

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
    check_step_count(t_end, dt)
    n_steps = int(round(t_end / dt))
    shape = np.shape(u0)
    u = np.array(u0, dtype=float).ravel()
    work = system.workspace
    fixed = False
    yield 0.0, u.reshape(shape)
    for k in range(1, n_steps + 1):
        if not fixed:
            prev = u
            # the right-hand side prev + dt f(prev), built where the solve runs
            np.multiply(np.asarray(f(prev), dtype=float), dt, out=work)
            work += prev
            u = system.solve(work).copy()
            # the last entry gates the full compare (a nan there never
            # passes); the int64 views keep -0.0 apart from 0.0
            fixed = u[-1] == prev[-1] and np.array_equal(u.view(np.int64),
                                                         prev.view(np.int64))
            if fixed and k < n_steps:
                log.info("march: fixed point reached: the step to t=%g returned its input "
                         "bit for bit, no further solve before t_end=%g", k * dt, t_end)
        if k % stride == 0 or k == n_steps:
            yield k * dt, (u.copy() if fixed else u).reshape(shape)


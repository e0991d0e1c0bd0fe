"""Implicit/explicit time stepping for ``u_t = (a(x) u_x)_x + f(u)``.

Space: the conservative operator ``D = -W^{-1} K`` of :mod:`fkfront.stencil`,
with ``W`` the trapezoid weights and ``K`` symmetric.

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
would get alone.  The factors of a block-diagonal matrix are its blocks'
own factors, so the kept blocks, copied forward over retired ones, are the
factors of the shorter stack: :meth:`FactoredSymmetricTridiagonal.narrowed`
retires blocks in the system's own memory, and each kept block keeps its
bits.

:func:`march` is the one stepper.  It is a generator of the stored steps,
so a caller derives what it needs from each state as it comes (a front
position, a mean, a CSV row) and no run has to keep its fields; a caller
that wants every field keeps the states it yields.  Once a step returns its
input bit for bit -- a logistic run that has saturated, where the solve's
rounding absorbs the increment -- the march makes no further solve and
yields that state again at the remaining stored steps.  A consumer that no
longer needs some blocks of a stacked march sends the indices of the blocks
to keep into the generator (``keep = yield t, u``), and from the next step
on the march solves only those; a consumer that iterates with ``for`` sends
nothing and gets the full march.

LAPACK is the library numpy already links, called through
:mod:`fkfront.lapack`, so no module loads scipy.
"""

from __future__ import annotations

import ctypes
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import lapack
from .config import check_step_count

if TYPE_CHECKING:
    from .stencil import TridiagonalOperator

__all__ = [
    "FactoredSymmetricTridiagonal",
    "factor_step_matrix",
    "march",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
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
    the workspace serves one solve at a time.  A system made without a
    ``workspace`` allocates its own; :meth:`narrowed` passes a part of its
    own.  Equality and hashing are by identity.
    """

    d: np.ndarray
    e: np.ndarray
    weights: np.ndarray
    dt: float
    workspace: np.ndarray | None = field(default=None, repr=False)
    _dpttrs: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = np.size(self.d)
        lapack.checked("d", self.d, np.float64, n)
        lapack.checked("e", self.e, np.float64, max(n - 1, 0))
        lapack.checked("weights", self.weights, np.float64, n)
        if self.workspace is None:
            work = np.empty(n)
        else:
            work = lapack.checked("workspace", self.workspace, np.float64, n, writable=True)
        info = lapack.INT()
        n_ref = lapack.ref_int(n)
        # n, nrhs, d, e, b, ldb, info
        args = (n_ref, lapack.ref_int(1), lapack.pointer(self.d), lapack.pointer(self.e),
                lapack.pointer(work), n_ref, ctypes.byref(info))
        object.__setattr__(self, "workspace", work)
        object.__setattr__(self, "_dpttrs", (lapack.load().routines["dpttrs"], args, info))

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
        if self._dpttrs is None:
            raise ValueError("a narrowed system's factors are spent; solve with the narrowed one")
        work *= self.weights
        routine, args, info = self._dpttrs
        routine(*args)
        if info.value != 0:  # pragma: no cover
            raise ValueError(f"dpttrs failed (info {info.value})")
        return work

    def narrowed(self, keep: list[int], blocks: int) -> FactoredSymmetricTridiagonal:
        """The factors of the blocks ``keep`` (ascending indices, as :func:`march`
        checks them) of the ``blocks`` stacked here, in this system's memory.

        Block ``keep[j]`` is copied to block ``j`` of :attr:`d`, :attr:`e` and
        :attr:`weights` (the seam entries of ``e`` are zero already), and the
        returned system solves on the leading parts of them and of
        :attr:`workspace`: no new array, and each kept block solves bit for
        bit as before.  This system is spent: its :meth:`solve` raises
        ``ValueError``.
        """
        size = self.d.size // blocks
        for j, b in enumerate(keep):
            if j < b:
                for a, width in ((self.d, size), (self.weights, size), (self.e, size - 1)):
                    a[j * size:j * size + width] = a[b * size:b * size + width]
        n = len(keep) * size
        object.__setattr__(self, "_dpttrs", None)
        return FactoredSymmetricTridiagonal(self.d[:n], self.e[:n - 1], self.weights[:n],
                                            self.dt, self.workspace[:n])


def factor_step_matrix(
    ops: Sequence[TridiagonalOperator], dt: float
) -> FactoredSymmetricTridiagonal:
    """Factor ``I - dt D`` for one or more operators stacked block-diagonally.

    The B operators, at least one, must share a grid size ``n``
    (``ValueError`` otherwise); unknown ``b * n + i`` is node ``i`` of block
    ``b``.  The couplings across block seams are zero, so
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
    if len({op.grid.n for op in ops}) != 1:  # also no operator at all
        raise ValueError(f"stacked operators must share one grid size, got "
                         f"{[op.grid.n for op in ops]}")
    # built in place and factored there: no state-sized temporaries
    weights = np.concatenate([op.weights for op in ops])
    d = np.concatenate([op.neighbour_sums for op in ops])
    d *= dt
    d += weights
    n = d.size // len(ops)
    e = np.zeros(d.size)  # the last entry of each block is a seam
    for b, op in enumerate(ops):
        np.multiply(op.coupling, -dt, out=e[b * n:(b + 1) * n - 1])
    d, e, info = lapack.load().dpttrf(d, e[:-1])
    if info != 0:
        raise ValueError(f"step matrix is not positive definite (dpttrf info {info})")
    return FactoredSymmetricTridiagonal(d=d, e=e, weights=weights, dt=dt)


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

    A consumer of a stacked march may send, at any stored step, the
    ascending indices of the blocks to keep (``keep = yield t, u``).  From
    the next step on, only those are solved, in the part of ``system`` that
    :meth:`FactoredSymmetricTridiagonal.narrowed` leaves them (so
    ``system`` is spent), and the yielded states have shape
    ``(len(keep), n)``, row ``j`` being block ``keep[j]``.  Each kept block
    keeps the bits it had in the full march.  A request that is not an
    ascending selection of the live blocks raises ``ValueError`` before any
    further solve.  A ``for`` loop sends nothing.
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
    del u0  # a caller's temporary is freed, not held for the whole march
    work = system.workspace
    fixed = False
    for k in range(n_steps + 1):
        if k and not fixed:
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
            keep = yield k * dt, (u.copy() if fixed else u).reshape(shape)
            if keep is not None:
                blocks = u.size // shape[-1]
                keep = [operator.index(b) for b in keep]
                if not keep or keep != sorted(set(keep)) or not 0 <= keep[0] <= keep[-1] < blocks:
                    raise ValueError(f"blocks to keep must be ascending indices of the {blocks} "
                                     f"marched, at least one, got {keep}")
                if len(keep) < blocks:
                    system = system.narrowed(keep, blocks)
                    work = system.workspace
                    # the consumer may hold u: the kept rows go to a new state
                    u = u.reshape(blocks, -1)[keep].ravel()
                    shape = (len(keep), shape[-1])

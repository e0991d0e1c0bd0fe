"""Implicit/explicit time stepping for ``u_t = (a(x) u_x)_x + f(u)``.

Space: the conservative operator ``D = -W^{-1} K`` of :mod:`fkfront.stencil`,
with ``W`` the trapezoid weights and ``K`` symmetric.

Time: backward Euler on the diffusion, forward Euler on the reaction
(first order).  Each step solves one tridiagonal system

    (I - dt D) u_{k+1} = u_k + dt f(u_k).

``I - dt D`` is an M-matrix with unit row sums, and the explicit logistic
map keeps ``[0, 1]`` invariant for ``dt <= 1``, so iterates respect the
maximum principle ``0 <= u <= 1``.

:func:`march` is the one entry.  The matrix does not change between steps,
so it is factored once, when :func:`march` is called, and each step is a
single solve against the factors.  The weighted matrix
``W (I - dt D) = W + dt K`` is symmetric and positive definite; it is
factored as ``L D L^T`` (LAPACK ``dpttrf``), and each step multiplies the
right-hand side by ``W`` and calls ``dpttrs``, whose back substitution keeps
the division off the sequential dependency chain.  A run is a row: the march
takes and yields ``(B, n)`` states, a lone run as one row, and its runs -- an
epsilon sweep on one grid and ``dt`` -- are laid end to end as one
block-diagonal tridiagonal system; a zero at the end of each off-diagonal row
uncouples the blocks, so each run's solution is bit for bit the one it would
get alone.  A block-diagonal matrix's factors are its blocks' own, so when a
consumer retires runs, the kept rows, copied up over the retired ones in
place, are the factors of the shorter stack, and each keeps its bits.  The
factors never leave the march.

The march is a generator of the stored steps, so a caller derives what it
needs from each state as it comes (a front position, a mean, a CSV row) and
no run has to keep its fields; a caller that wants every field keeps the
states it yields.  Once a step returns its input bit for bit -- a logistic
run that has saturated, where the solve's rounding absorbs the increment --
the march makes no further solve and yields that state again at the
remaining stored steps.  A consumer that no longer needs some runs of a
stacked march sends the indices of the rows to keep into the generator
(``keep = yield t, u``), and from the next step on the march solves only
those; a consumer that iterates with ``for`` sends nothing and gets the full
march.

LAPACK is the library numpy already links, called through
:mod:`fkfront.lapack`, so no module loads scipy.
"""

from __future__ import annotations

import logging
import operator
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import lapack
from .domain import check_march

if TYPE_CHECKING:
    from .stencil import TridiagonalOperator

__all__ = ["march"]

log = logging.getLogger(__name__)


def march(
    ops: Sequence[TridiagonalOperator],
    dt: float,
    u0: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    stride: int = 1,
) -> Iterator[tuple[float, np.ndarray]]:
    """Advance ``u0`` to ``t_end`` in ``round(t_end / dt)`` steps of ``dt``.

    ``D`` is the B operators ``ops`` stacked block-diagonally.  They must
    share a grid size ``n``; each run is one row, node ``i`` of run ``b``
    being entry ``(b, i)``, and ``u0`` has shape ``(B, n)``, a single run
    too (``profile[None]``).  The couplings across the seams between rows
    are zero, so each row's solution is bit-for-bit that of its own march,
    unless some row's solution overflows (``0 * inf`` at a seam then spreads
    ``nan``).

    The call checks its arguments and factors the step matrix, so every
    error below is raised before the generator it returns is drawn.  Each
    row of ``W + dt K`` has the diagonal ``W + dt (c_{i-1} + c_i)`` and the
    off-diagonal ``-dt c``; it is built in place and factored there, once
    (``dpttrf``), and each step is one ``dpttrs`` solve.  ``ValueError`` is
    raised for a ``dt`` outside ``0 < dt <= 1``; a ``t_end`` that is not
    finite, a negative one, or a positive one shorter than one step;
    ``stride < 1``; a step count ``t_end / dt`` that overflows or exceeds
    :data:`fkfront.domain.MAX_STEPS` (these by
    :func:`fkfront.domain.check_march`, which ``load_config`` runs on
    ``[solver]``); operators without one grid size; a ``u0`` of another
    shape; and a weighted step matrix that ``dpttrf`` finds not positive
    definite (couplings so large that rounding loses it).

    Yields ``(t, u)`` at ``t = 0``, every ``stride``-th step, and the final
    step, with ``u`` of shape ``(B, n)``; the state between those steps is
    never kept.  Each yielded state is a new array, so a consumer may
    keep it.  Step ``k`` is stamped ``t = k * dt``, free of the rounding
    that a running sum of ``dt`` accumulates.  ``t_end = 0`` yields the
    initial state only.

    The reaction ``f`` must be a pure function of the state, which it gets
    as the ``(B, n)`` stack.  The step map is then deterministic, so once a
    solve returns its input bit for bit every later step would too: no
    further solve is made, the remaining stored steps yield fresh copies of
    that state, and one INFO line on the ``fkfront.solver`` logger names the
    time.  The yielded bits are those of the full march.  The check compares
    the last entry first (a scalar) and only on a match the whole state, as
    ``int64`` bits.

    A consumer of a stacked march may send, at any stored step, the
    ascending indices of the rows to keep (``keep = yield t, u``).  From the
    next step on, only those are solved, and row ``j`` of each state is run
    ``keep[j]``, with the bits it had in the full march.  A request that is
    not an ascending selection of the live rows raises ``ValueError`` before
    any further solve.  A ``for`` loop sends nothing.
    """
    check_march(dt, t_end, stride)
    if len({op.grid.n for op in ops}) != 1:  # also no operator at all
        raise ValueError(f"stacked operators must share one grid size, got "
                         f"{[op.grid.n for op in ops]}")
    n = ops[0].grid.n
    if np.shape(u0) != (len(ops), n):
        raise ValueError(f"u0 must have shape (B, n) = ({len(ops)}, {n}), got {np.shape(u0)}")
    # one row per run, built in place and factored there: no state-sized temporaries
    weights = np.stack([op.weights for op in ops])
    d = np.stack([op.neighbour_sums for op in ops])
    d *= dt
    d += weights
    e = np.zeros_like(d)  # the last column is the seam between runs
    for row, op in zip(e, ops):
        np.multiply(op.coupling, -dt, out=row[:-1])
    *_, info = lapack.load().dpttrf(d.ravel(), e.ravel()[:-1])
    if info != 0:
        raise ValueError(f"step matrix is not positive definite (dpttrf info {info})")
    u = np.array(u0, dtype=float, order="C")
    return _steps(d, e, weights, dt, u, f, t_end, int(round(t_end / dt)), stride)


def _steps(d, e, weights, dt, u, f, t_end, n_steps, stride):
    """The generator :func:`march` returns, on the factors ``d, e`` it made."""
    # each right-hand side is built where the solve runs
    work = np.empty(u.shape)
    solve = lapack.load().dpttrs(d.ravel(), e.ravel()[:-1], work.ravel())
    fixed = False
    for k in range(n_steps + 1):
        if k and not fixed:
            prev = u
            np.multiply(np.asarray(f(prev), dtype=float), dt, out=work)
            work += prev
            work *= weights
            solve()
            u = work.copy()
            # the last entry gates the full compare (a nan there never
            # passes); the int64 views keep -0.0 apart from 0.0
            fixed = u[-1, -1] == prev[-1, -1] and np.array_equal(u.view(np.int64),
                                                                 prev.view(np.int64))
            if fixed and k < n_steps:
                log.info("march: fixed point reached: the step to t=%g returned its input "
                         "bit for bit, no further solve before t_end=%g", k * dt, t_end)
        if k % stride == 0 or k == n_steps:
            keep = yield k * dt, u.copy() if fixed else u
            if keep is not None:
                keep = [operator.index(b) for b in keep]
                if not keep or keep != sorted(set(keep)) or not 0 <= keep[0] <= keep[-1] < len(u):
                    raise ValueError(f"blocks to keep must be ascending indices of the {len(u)} "
                                     f"marched, at least one, got {keep}")
                if len(keep) < len(u):
                    # row keep[j] moves to row j; the seam column of e is zero in every row
                    for a in (d, e, weights):
                        a[:len(keep)] = a[keep]
                    d, e, weights, work = (a[:len(keep)] for a in (d, e, weights, work))
                    solve = lapack.load().dpttrs(d.ravel(), e.ravel()[:-1], work.ravel())
                    # the consumer may hold u: the kept rows go to a new state
                    u = u[keep]

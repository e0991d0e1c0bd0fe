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
symmetric under ``W`` is rejected.  :func:`tridiagonal_solve` is a separate
general solve (LAPACK ``dgtsv``) that the steppers do not use.  Several
runs that share a grid and ``dt`` -- an epsilon sweep -- march together as
one block-diagonal tridiagonal system whose blocks are uncoupled (zero
entries at the seams); each block's solution is bit-for-bit the one its
run would get alone.

LAPACK comes from ``scipy.linalg``, which is imported inside the functions
that call it, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DiffusionProfile,
    Field,
    FrontSpec,
    Grid,
    ReactionTerm,
    step_initial_condition,
)

__all__ = [
    "SingularSystemError",
    "TridiagonalOperator",
    "FactoredSymmetricTridiagonal",
    "SolverConfig",
    "Trajectory",
    "build_operator",
    "factor_step_matrix",
    "tridiagonal_solve",
    "imex_step",
    "march",
    "simulate",
]


class SingularSystemError(RuntimeError):
    """Tridiagonal elimination hit a zero pivot (singular system)."""


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

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``D u``."""
        out = self.main * u
        out[1:] += self.sub[1:] * u[:-1]
        out[:-1] += self.sup[:-1] * u[1:]
        return out


def build_operator(grid: Grid, diffusion: DiffusionProfile) -> TridiagonalOperator:
    """Assemble the conservative stencil for ``(a(x) u_x)_x`` on ``grid``."""
    dx = grid.dx
    # a at the n-1 half points x_i + dx/2
    a_half = np.asarray(diffusion.a(grid.x[:-1] + 0.5 * dx), dtype=float) / dx**2
    if np.any(a_half <= 0):
        raise ValueError("diffusion coefficient must be positive at all half-points")
    sub = np.zeros(grid.n)
    sup = np.zeros(grid.n)
    sub[1:] = a_half
    sup[:-1] = a_half
    # mirror-image ghost closes the zero-flux ends without breaking symmetry
    sup[0] = 2.0 * a_half[0]
    sub[-1] = 2.0 * a_half[-1]
    main = -(sub + sup)
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


def tridiagonal_solve(
    sub: np.ndarray, main: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    Diagonal layout matches :class:`TridiagonalOperator`: all three arrays
    have the same length, at least 3, and ``sub[0]``/``sup[-1]`` are
    ignored.  ``rhs`` is left untouched.  This is the general solve for any
    nonsingular system (LAPACK ``dgtsv``); it shares no code with the time
    steppers, which solve against :func:`factor_step_matrix`.

    Raises
    ------
    SingularSystemError
        If elimination encounters a zero pivot.
    """
    from scipy.linalg import lapack

    main = np.asarray(main, dtype=float)
    if main.size < 3:
        raise ValueError(f"a tridiagonal system needs at least 3 unknowns, got {main.size}")
    _, _, _, x, info = lapack.dgtsv(np.asarray(sub, dtype=float)[1:], main,
                                    np.asarray(sup, dtype=float)[:-1],
                                    np.asarray(rhs, dtype=float))
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info - 1}: singular system")
    return x


def _advance(
    system: FactoredSymmetricTridiagonal,
    u: np.ndarray,
    reaction: ReactionTerm,
    dt: float,
) -> np.ndarray:
    """``u_{k+1}`` from ``(I - dt D) u_{k+1} = u_k + dt f(u_k)``, in a new array."""
    return system.solve(u + dt * np.asarray(reaction.f(u), dtype=float), overwrite=True)


def imex_step(
    field: Field, op: TridiagonalOperator, reaction: ReactionTerm, dt: float
) -> Field:
    """One step of implicit diffusion / explicit reaction.

    Solves ``(I - dt D) u_{k+1} = u_k + dt f(u_k)``.  ``dt`` must satisfy the
    explicit-logistic positivity bound ``0 < dt <= 1``.  A run of many steps
    should use :func:`march`, which factors the matrix only once.
    """
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"dt must satisfy 0 < dt <= 1, got {dt}")
    u_next = _advance(factor_step_matrix([op], dt), field.values, reaction, dt)
    return Field(grid=field.grid, values=u_next, time=field.time + dt)


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and snapshot cadence for :func:`simulate`.

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


@dataclass(frozen=True)
class Trajectory:
    """Stored fields of one run, oldest first, plus the config that made them."""

    fields: tuple[Field, ...]
    config: SolverConfig

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("a trajectory holds at least the initial field")
        object.__setattr__(self, "fields", tuple(self.fields))
        grid = self.fields[0].grid
        if any(f.grid is not grid and f.grid != grid for f in self.fields):
            raise ValueError("all fields of a trajectory share one grid")
        times = [f.time for f in self.fields]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([f.time for f in self.fields])


def march(
    system: FactoredSymmetricTridiagonal,
    u0: np.ndarray,
    reaction: ReactionTerm,
    config: SolverConfig,
    observe: Callable[[float, np.ndarray], None],
) -> None:
    """Advance ``u0`` to ``config.t_end`` in ``round(t_end / dt)`` steps of ``dt``.

    ``system`` holds the ``L D L^T`` factors of the trapezoid-weighted
    ``I - dt D`` from :func:`factor_step_matrix`, so each step is one
    ``dpttrs`` solve; ``u0`` has shape ``(n,)`` or, for B stacked blocks,
    ``(B, n)``.  ``observe(t, u)`` is called at ``t = 0``, every
    ``snapshot_stride``-th step, and the final step, with ``u`` in the shape
    of ``u0``.  Each step's state is a new array, so an observer may keep it.
    Step ``k`` is stamped ``t = k * dt``, free of the rounding that a running
    sum of ``dt`` accumulates.
    """
    dt = config.dt
    stride = config.snapshot_stride
    n_steps = int(round(config.t_end / dt))
    shape = np.shape(u0)
    u = np.array(u0, dtype=float).ravel()
    observe(0.0, u.reshape(shape))
    for k in range(1, n_steps + 1):
        u = _advance(system, u, reaction, dt)
        if k % stride == 0 or k == n_steps:
            observe(k * dt, u.reshape(shape))


def simulate(
    grid: Grid,
    diffusion: DiffusionProfile,
    reaction: ReactionTerm,
    front: FrontSpec,
    config: SolverConfig,
) -> Trajectory:
    """March the step initial condition to ``t_end``, storing snapshots.

    Integration proceeds in ``round(t_end / dt)`` steps of exactly ``dt``.
    Snapshots are kept at ``t = 0``, every ``snapshot_stride``-th step, and at
    the final step.  The run is deterministic: identical inputs reproduce
    identical trajectories bit for bit.
    """
    system = factor_step_matrix([build_operator(grid, diffusion)], config.dt)
    fields: list[Field] = []
    march(system, step_initial_condition(grid, front).values, reaction, config,
          lambda t, u: fields.append(Field(grid=grid, values=u, time=t)))
    return Trajectory(fields=tuple(fields), config=config)

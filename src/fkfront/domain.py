"""Ingredients of the heterogeneous logistic reaction-diffusion model.

The model is ``u_t = (a(x) u_x)_x + f(u)`` on ``[-L, L]`` with zero-flux
(Neumann) ends, advanced from a sharp step profile.  This module collects the
pieces every other module consumes: the diffusion coefficient ``a`` as a
plain function of ``x``, the reaction term, the uniform node grid and the
step initial condition, an array of nodal values.  A :class:`Grid` is
immutable after construction and safe to share across threads.

For the quadratic coefficient :func:`xi_of_x` and :func:`x_of_xi` map
between ``x`` and ``xi = asinh(x / sqrt(epsilon))``.  There
``dx/dxi = sqrt(a)``, and the model reads, exactly,
``u_t = u_xixi + tanh(xi) u_xi + u (1 - u)``.  The floor ``epsilon`` is the
only number in the model.

The module also holds every range rule of the library, one function each,
called by its library entry and by :func:`fkfront.config.load_config`: the
floor, the start, the half-width, the march, the window radius, the modes
and the rays.

Importing the module does not load numpy: the functions that build or
take arrays import it when called, and :func:`make_quadratic_diffusion`
needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Grid", "MAX_STEPS", "check_floor", "check_start", "check_half_width",
           "check_step_count", "check_march", "check_radius", "check_modes", "check_htilde",
           "check_ray_steps", "make_quadratic_diffusion", "make_constant_diffusion",
           "logistic_reaction", "step_initial_condition", "xi_of_x", "x_of_xi"]


def check_floor(epsilon: float) -> float:
    """``epsilon`` as a float; ``ValueError`` unless it is finite and positive.

    The floor of the coefficient is its uniform parabolicity bound
    ``a(x) >= epsilon > 0``.
    """
    epsilon = float(epsilon)
    # also rejects nan, which fails every comparison
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"diffusion floor must be finite and positive, got {epsilon}")
    return epsilon


def check_start(x_c0: float, L: float) -> None:
    """``ValueError`` unless the initial front ``x_c0`` lies strictly inside ``(-L, L)``."""
    if not -L < x_c0 < L:
        raise ValueError(f"initial front {x_c0} must lie strictly inside ({-L}, {L})")


def check_half_width(L: float) -> None:
    """``ValueError`` unless the half-width ``L`` and the width ``2L`` are finite and positive."""
    # also rejects nan, which fails every comparison, and a finite L
    # whose width 2L overflows (dx would be inf)
    if not 0.0 < 2.0 * L < math.inf:
        raise ValueError(f"half-width L must be finite and positive (2L too), got {L}")


# Largest step count t_end / dt of solver.march and wkb.characteristic_steps.
# Both stream their steps, so memory does not grow with the count, but a march
# of 1e7 steps already runs for many minutes; a larger count would not finish
# in useful time, and an infinite one never, so it is rejected before any output.
MAX_STEPS = 10_000_000


def check_step_count(t_end: float, dt: float) -> None:
    """Raise ``ValueError`` unless ``t_end / dt`` is finite and at most ``MAX_STEPS``."""
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end / dt must be a finite step count, got t_end={t_end}, dt={dt}")
    if steps > MAX_STEPS:
        raise ValueError(f"t_end / dt must be at most {MAX_STEPS} steps, "
                         f"got t_end={t_end}, dt={dt}")


def check_march(dt: float, t_end: float, stride: int) -> None:
    """``ValueError`` naming the first broken rule of :func:`fkfront.solver.march`."""
    # also rejects nan, which fails every comparison
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"dt must satisfy the positivity bound 0 < dt <= 1, got {dt}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if 0.0 < t_end < dt:
        raise ValueError(f"positive t_end must be at least one step dt={dt}, got {t_end}")
    if stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")
    check_step_count(t_end, dt)


def check_radius(radius: float) -> None:
    """``ValueError`` unless the window radius of :func:`fkfront.front.window_transits`
    is finite and positive."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")


def check_modes(m: int, n: int, vectors: Iterable[int] | None) -> list[int]:
    """The modes of :func:`fkfront.spectral.solve_eigenproblem`'s ``vectors`` (None: all
    ``m``), sorted once each; ``ValueError`` naming its first rule they or ``m`` break."""
    if not 1 <= m < n:
        raise ValueError(f"mode count must satisfy 1 <= m < {n}, got {m}")
    if vectors is None:
        return list(range(m))
    vectors = list(vectors)
    for k in vectors:
        if not -math.inf < k < math.inf or int(k) != k:
            raise ValueError(f"eigenfunction modes must be integers, got {k}")
    # a sorted set, not np.unique, which loads numpy.ma on its first call
    modes = sorted({int(k) for k in vectors})
    if modes and not (modes[0] >= 0 and modes[-1] < m):
        raise ValueError(f"eigenfunction modes must satisfy 0 <= k < {m}, got {modes}")
    return modes


def check_htilde(Htilde: float) -> None:
    """``ValueError`` unless the ray label of :mod:`fkfront.wkb` is finite and non-negative."""
    if not 0.0 <= Htilde < math.inf:
        raise ValueError(f"Htilde must be finite and non-negative, got {Htilde}")


def check_ray_steps(t_end: float, dt: float) -> None:
    """``ValueError`` naming the first broken step rule of
    :func:`fkfront.wkb.characteristic_steps`."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    check_step_count(t_end, dt)


def make_quadratic_diffusion(epsilon: float) -> Callable:
    """The quadratic well ``a(x) = x**2 + epsilon``, on scalars and arrays.

    The coefficient nearly vanishes at the origin -- the slow spot the front
    has to cross -- while growing like ``x**2`` toward the ends of the domain;
    ``epsilon > 0`` keeps the problem uniformly parabolic.  A floor that is
    not finite and positive raises ``ValueError``.
    """
    eps = check_floor(epsilon)
    return lambda x: x * x + eps


def xi_of_x(x: "float | np.ndarray", epsilon: float) -> "float | np.ndarray":
    """Stretched coordinate ``xi = asinh(x / sqrt(epsilon))``; inverse of :func:`x_of_xi`.

    Odd in ``x`` and exact at 0.  Takes scalars or arrays and works for
    every ``x`` with ``|x| / sqrt(epsilon)`` finite.
    """
    import numpy as np

    return np.arcsinh(x / math.sqrt(epsilon))


def x_of_xi(xi: "float | np.ndarray", epsilon: float) -> "float | np.ndarray":
    """Physical coordinate ``x = sqrt(epsilon) sinh(xi)``; inverse of :func:`xi_of_x`.

    Odd in ``xi`` and exact at 0.  The round trip ``x_of_xi(xi_of_x(x))``
    returns ``x`` to a few units in the last place of ``xi``: ``sinh``
    turns the rounding of ``xi`` into the relative error of ``x``.
    """
    import numpy as np

    return math.sqrt(epsilon) * np.sinh(xi)


def make_constant_diffusion(level: float) -> Callable:
    """Spatially uniform ``a(x) = level``, as an array shaped like ``x``.

    The analytically solvable control case: no slow spot, so a front
    settles at the pulled speed ``2 sqrt(level)``.  A level that is not
    finite and positive raises ``ValueError``.
    """
    import numpy as np

    level = check_floor(level)
    return lambda x: np.full_like(np.asarray(x, dtype=float), level)


def logistic_reaction(u: np.ndarray) -> np.ndarray:
    """Logistic growth ``f(u) = u (1 - u)``: unstable at 0, saturating at 1."""
    # one new array, not two: the march evaluates this on every step
    f = 1.0 - u
    f *= u
    return f


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on ``[-L, L]`` with ``n`` nodes, ``dx = 2L/(n-1)``."""

    L: float
    n: int

    def __post_init__(self) -> None:
        check_half_width(self.L)
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        import numpy as np

        nodes = np.linspace(-self.L, self.L, self.n)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights; their sum is the domain length ``2 L`` exactly."""
        import numpy as np

        w = np.full(self.n, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        w.flags.writeable = False
        return w


def step_initial_condition(grid: Grid, x_c0: float) -> np.ndarray:
    """Sharp step on ``grid.x``: ``u = 1`` for ``x <= x_c0``, ``u = 0`` beyond (ties go to 1)."""
    check_start(x_c0, grid.L)
    import numpy as np

    return np.where(grid.x <= x_c0, 1.0, 0.0)

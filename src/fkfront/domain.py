"""Ingredients of the heterogeneous logistic reaction-diffusion model.

The model is ``u_t = (a(x) u_x)_x + f(u)`` on ``[-L, L]`` with zero-flux
(Neumann) ends, advanced from a sharp step profile.  This module collects the
pieces every other module consumes: the diffusion coefficient with its
derivative, the reaction term, the uniform node grid, sampled fields, and the
step initial condition.  Instances are immutable after construction and safe
to share across threads.

For the quadratic coefficient :func:`xi_of_x` and :func:`x_of_xi` map
between ``x`` and ``xi = asinh(x / sqrt(epsilon))``.  There
``dx/dxi = sqrt(a)``, and the model reads, exactly,
``u_t = u_xixi + tanh(xi) u_xi + u (1 - u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "DiffusionProfile",
    "Grid",
    "Field",
    "make_quadratic_diffusion",
    "make_constant_diffusion",
    "logistic_reaction",
    "step_initial_condition",
    "xi_of_x",
    "x_of_xi",
]


@dataclass(frozen=True)
class DiffusionProfile:
    """Spatially varying diffusion coefficient ``a(x)`` and its derivative.

    ``epsilon`` is the floor value of the coefficient (the uniform
    parabolicity bound ``a(x) >= epsilon > 0``); one that is not finite and
    positive raises ``ValueError``.  Both evaluators must accept scalars and
    numpy arrays and evaluate pointwise.
    """

    epsilon: float
    a: Callable[[np.ndarray], np.ndarray]
    aprime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        # also rejects nan, which fails every comparison
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"diffusion floor must be finite and positive, got {self.epsilon}")


def make_quadratic_diffusion(epsilon: float) -> DiffusionProfile:
    """Quadratic well ``a(x) = x**2 + epsilon`` with ``a'(x) = 2 x``.

    The coefficient nearly vanishes at the origin -- the slow spot the front
    has to cross -- while growing like ``x**2`` toward the ends of the domain;
    ``epsilon > 0`` keeps the problem uniformly parabolic.
    """
    eps = float(epsilon)
    return DiffusionProfile(
        epsilon=eps,
        a=lambda x: x * x + eps,
        aprime=lambda x: 2.0 * x,
    )


def xi_of_x(x: "float | np.ndarray", epsilon: float) -> "float | np.ndarray":
    """Stretched coordinate ``xi = asinh(x / sqrt(epsilon))``; inverse of :func:`x_of_xi`.

    Odd in ``x`` and exact at 0.  Takes scalars or arrays and works for
    every ``x`` with ``|x| / sqrt(epsilon)`` finite.
    """
    return np.arcsinh(x / math.sqrt(epsilon))


def x_of_xi(xi: "float | np.ndarray", epsilon: float) -> "float | np.ndarray":
    """Physical coordinate ``x = sqrt(epsilon) sinh(xi)``; inverse of :func:`xi_of_x`.

    Odd in ``xi`` and exact at 0.  The round trip ``x_of_xi(xi_of_x(x))``
    returns ``x`` to a few units in the last place of ``xi``: ``sinh``
    turns the rounding of ``xi`` into the relative error of ``x``.
    """
    return math.sqrt(epsilon) * np.sinh(xi)


def make_constant_diffusion(level: float) -> DiffusionProfile:
    """Spatially uniform ``a(x) = level`` with ``a'(x) = 0``.

    The analytically solvable control case: no slow spot, so a front
    settles at the pulled speed ``2 sqrt(level)``.
    """
    return DiffusionProfile(
        epsilon=level,
        a=lambda x: np.full_like(np.asarray(x, dtype=float), level),
        aprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def logistic_reaction(u: np.ndarray) -> np.ndarray:
    """Logistic growth ``f(u) = u (1 - u)``: unstable at 0, saturating at 1."""
    return u * (1.0 - u)


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on ``[-L, L]`` with ``n`` nodes, ``dx = 2L/(n-1)``."""

    L: float
    n: int

    def __post_init__(self) -> None:
        # also rejects nan, which fails every comparison, and a finite L
        # whose width 2L overflows (dx would be inf)
        if not 0.0 < 2.0 * self.L < math.inf:
            raise ValueError(f"half-width L must be finite and positive (2L too), got {self.L}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.linspace(-self.L, self.L, self.n)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights; their sum is the domain length ``2 L`` exactly."""
        w = np.full(self.n, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class Field:
    """Nodal samples of the concentration at one instant."""

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with {self.grid.n} nodes"
            )
        object.__setattr__(self, "values", v)


def step_initial_condition(grid: Grid, x_c0: float) -> Field:
    """Sharp step: ``u = 1`` for ``x <= x_c0``, ``u = 0`` beyond (ties go to 1)."""
    if not -grid.L < x_c0 < grid.L:
        raise ValueError(f"initial front {x_c0} must lie strictly inside (-{grid.L}, {grid.L})")
    values = np.where(grid.x <= x_c0, 1.0, 0.0)
    return Field(grid=grid, values=values, time=0.0)

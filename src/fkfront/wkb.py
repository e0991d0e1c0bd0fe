"""Exponential-tail transport: rays of the phase equation.

Ahead of the front the profile is exponentially small.  With
``u = exp(-psi)`` the linearized model is, exactly,

    psi_t + a(x) psi_x**2 + 1 = (a(x) psi_x)_x,        a(x) = x**2 + epsilon.

The ray fan drops the right side and keeps the Hamilton-Jacobi equation of
the phase in ``u ~ A exp(-phi)``, ``phi_t + a phi_x**2 + 1 = 0``.  Its
Hamiltonian ``H = 1 + a p**2`` is conserved along rays, ``Htilde =
sqrt(H - 1)`` labels the ray family, and rays obey ``dx/dt = s 2 Htilde
sqrt(a(x))`` with momentum ``p = s Htilde / sqrt(a)``, where ``s = +1`` for
``Branch.PLUS`` (moving right) and ``-1`` for ``Branch.MINUS``.  In the
``xi`` of :func:`fkfront.domain.xi_of_x`, where ``dx/dxi = sqrt(a)``, the
flow is uniform motion ``xi = xi0 + s 2 Htilde t`` and the phase a plane
wave ``phi = s Htilde xi - (Htilde**2 + 1) t``.  :func:`characteristic_label`
and :func:`phase_along` are these exact forms; :func:`integrate_characteristic`
integrates the ray equation independently (Runge-Kutta) for cross-checks.

In ``xi`` the dropped right side is ``psi_xixi + tanh(xi) psi_xi``.  On a
plane wave ``psi_xixi = 0``, so the fan drops the drift ``tanh(xi) psi_xi``,
which tends to ``-/+ psi_xi`` far left / right of the origin.  So rays move
at ``2 Htilde`` in ``xi`` on both sides, while with the drift kept the
pulled speed is ``2 - tanh(xi)``: 3 on the way in and 1 on the way out,
which is what the solver's front does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import DiffusionProfile, x_of_xi, xi_of_x

__all__ = [
    "Branch",
    "WkbParams",
    "CharacteristicPath",
    "characteristic_label",
    "integrate_characteristic",
    "phase_along",
]


class Branch(Enum):
    """Ray direction: PLUS moves right (``dx/dt = +2 Htilde sqrt(a)``), MINUS left."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def direction(self) -> int:
        return 1 if self is Branch.PLUS else -1


@dataclass(frozen=True)
class WkbParams:
    """Ray-family label ``Htilde``, diffusion floor ``epsilon``, and direction."""

    Htilde: float
    epsilon: float
    sign: Branch

    def __post_init__(self) -> None:
        # also rejects nan, which fails every comparison
        if not 0.0 < self.Htilde < math.inf:
            raise ValueError(f"Htilde must be finite and positive, got {self.Htilde}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


def characteristic_label(
    x: "float | np.ndarray", t: float, params: WkbParams
) -> "float | np.ndarray":
    """Starting point ``x0`` of the ray that reaches ``x`` at time ``t``.

    Exact inverse of the ray flow, uniform motion in ``xi``:

        x0 = x_of_xi(xi_of_x(x) - s 2 Htilde t),   s = +/- 1 per branch.

    At ``t = 0`` this returns ``x`` up to the rounding of the round trip;
    at fixed ``t`` it is strictly increasing in ``x``, so rays never cross.
    """
    shift = params.sign.direction * 2.0 * params.Htilde * t
    return x_of_xi(xi_of_x(x, params.epsilon) - shift, params.epsilon)


@dataclass(frozen=True)
class CharacteristicPath:
    """Uniformly sampled ray ``(times, positions)`` from a numerical integration."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError("times and positions must be 1-d arrays of equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)


def integrate_characteristic(
    x0: float,
    Htilde: float,
    diffusion: DiffusionProfile,
    sign: Branch,
    t_end: float,
    dt: float,
) -> CharacteristicPath:
    """Classical fourth-order Runge-Kutta integration of the ray equation.

    Integrates ``dx/dt = s 2 Htilde sqrt(a(x))`` with fixed step; the number
    of steps is ``round(t_end/dt)`` and the step is adjusted to land on
    ``t_end`` exactly.  ``Htilde = 0`` yields a stationary ray.  This is the
    oracle the closed forms are checked against, so it deliberately shares
    no code with them.
    """
    # also rejects nan, which fails every comparison
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if not 0.0 <= Htilde < math.inf:
        raise ValueError(f"Htilde must be finite and non-negative, got {Htilde}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if t_end == 0.0:
        return CharacteristicPath(times=np.zeros(1), positions=np.full(1, float(x0)))
    rate = sign.direction * 2.0 * Htilde

    def velocity(x: float) -> float:
        return rate * math.sqrt(diffusion.a(x))

    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    times = np.empty(n + 1)
    positions = np.empty(n + 1)
    times[0] = 0.0
    positions[0] = x = float(x0)
    for k in range(1, n + 1):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[k] = k * h
        positions[k] = x
    return CharacteristicPath(times=times, positions=positions)


def phase_along(x: float, t: float, params: WkbParams) -> float:
    """Phase of the ray family at ``(x, t)``: ``s Htilde xi - (Htilde**2 + 1) t``.

    This is ``phi = (Htilde**2 - 1) t + phi0(x0)`` transported along the rays
    from the initial phase consistent with them, ``phi0'(x0) = s Htilde /
    sqrt(a(x0))`` (the ray momentum at ``t = 0``), i.e.
    ``phi0 = s Htilde xi_of_x(x0)``.  With ``xi0 = xi - s 2 Htilde t`` the
    transport is a plane wave in ``xi`` and solves the phase equation exactly.
    """
    scale = params.sign.direction * params.Htilde
    return float(scale * xi_of_x(x, params.epsilon) - (params.Htilde**2 + 1.0) * t)

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
and :func:`phase_along` are these exact forms; :func:`characteristic_steps`
integrates the ray equation independently (Runge-Kutta) for cross-checks, as
a stream of ``(t, x)`` floats.  All three take the ray as plain values,
``Htilde`` then ``epsilon`` then the branch, and apply one input rule:
``Htilde`` finite and non-negative (``0`` is the stationary ray), ``epsilon``
finite and positive.  The rules live in :func:`fkfront.domain.check_htilde`,
:func:`fkfront.domain.check_floor` and, for the steps,
:func:`fkfront.domain.check_ray_steps`, which ``load_config`` runs on
``[wkb]``.  Importing the module does not load numpy, and neither does the
stream: the ``wkb`` command writes it without numpy.

In ``xi`` the dropped right side is ``psi_xixi + tanh(xi) psi_xi``.  On a
plane wave ``psi_xixi = 0``, so the fan drops the drift ``tanh(xi) psi_xi``,
which tends to ``-/+ psi_xi`` far left / right of the origin.  So rays move
at ``2 Htilde`` in ``xi`` on both sides, while with the drift kept the
pulled speed is ``2 - tanh(xi)``: 3 on the way in and 1 on the way out,
which is what the solver's front does.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from .domain import (check_floor, check_htilde, check_ray_steps, make_quadratic_diffusion,
                     x_of_xi, xi_of_x)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Branch", "characteristic_label", "characteristic_steps", "phase_along"]


class Branch(Enum):
    """Ray direction: PLUS moves right (``dx/dt = +2 Htilde sqrt(a)``), MINUS left."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def direction(self) -> int:
        return 1 if self is Branch.PLUS else -1


def _check_ray(Htilde: float, epsilon: float, t: float = 0.0) -> None:
    """Raise ``ValueError`` unless ``Htilde >= 0``, ``epsilon > 0`` and ``t``, all finite."""
    check_htilde(Htilde)
    check_floor(epsilon)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")


def characteristic_label(
    x: "float | np.ndarray", t: float, Htilde: float, epsilon: float, sign: Branch
) -> "float | np.ndarray":
    """Starting point ``x0`` of the ray that reaches ``x`` at time ``t``.

    Exact inverse of the ray flow, uniform motion in ``xi``:

        x0 = x_of_xi(xi_of_x(x) - s 2 Htilde t),   s = +/- 1 per branch.

    At ``t = 0`` or ``Htilde = 0`` this returns ``x`` up to the rounding of
    the round trip; at fixed ``t`` it is strictly increasing in ``x``, so
    rays never cross.  Raises ``ValueError`` for ``Htilde`` or ``epsilon``
    out of range and for a ``t`` that is not finite.
    """
    _check_ray(Htilde, epsilon, t)
    shift = sign.direction * 2.0 * Htilde * t
    return x_of_xi(xi_of_x(x, epsilon) - shift, epsilon)


def characteristic_steps(
    x0: float,
    Htilde: float,
    epsilon: float,
    sign: Branch,
    t_end: float,
    dt: float,
) -> Iterator[tuple[float, float]]:
    """Classical fourth-order Runge-Kutta integration of the ray equation.

    Integrates ``dx/dt = s 2 Htilde sqrt(a(x))``, ``a = x**2 + epsilon``,
    with fixed step and yields ``(t, x)`` as floats, from ``(0, x0)`` to
    ``t_end``; the ray is this stream, and ``list`` of it is the whole path.
    The number of steps is ``round(t_end/dt)``, at most
    :data:`fkfront.domain.MAX_STEPS`, and the step is adjusted to land on
    ``t_end`` exactly; step ``k`` is stamped ``k * h``.  ``t_end = 0``
    yields the start only and ``Htilde = 0`` a stationary ray.  The first
    draw raises ``ValueError`` for an input that is not finite, a negative
    ``t_end`` or ``Htilde``, a non-positive ``epsilon`` or ``dt`` and a
    step count out of range.  This is the oracle
    :func:`characteristic_label` and :func:`phase_along` are checked
    against, so it shares their input rule but none of their arithmetic;
    it evaluates the coefficient on floats, without numpy.
    """
    check_ray_steps(t_end, dt)
    _check_ray(Htilde, epsilon)
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    x = float(x0)
    yield 0.0, x
    if t_end == 0.0:
        return
    rate = sign.direction * 2.0 * Htilde
    a = make_quadratic_diffusion(epsilon)

    def velocity(x: float) -> float:
        return rate * math.sqrt(a(x))

    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    for k in range(1, n + 1):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield k * h, x


def phase_along(x: float, t: float, Htilde: float, epsilon: float, sign: Branch) -> float:
    """Phase of the ray family at ``(x, t)``: ``s Htilde xi - (Htilde**2 + 1) t``.

    This is ``phi = (Htilde**2 - 1) t + phi0(x0)`` transported along the rays
    from the initial phase consistent with them, ``phi0'(x0) = s Htilde /
    sqrt(a(x0))`` (the ray momentum at ``t = 0``), i.e.
    ``phi0 = s Htilde xi_of_x(x0)``.  With ``xi0 = xi - s 2 Htilde t`` the
    transport is a plane wave in ``xi`` and solves the phase equation exactly.
    Raises ``ValueError`` for ``Htilde`` or ``epsilon`` out of range and for
    a ``t`` that is not finite.
    """
    _check_ray(Htilde, epsilon, t)
    return float(sign.direction * Htilde * xi_of_x(x, epsilon) - (Htilde**2 + 1.0) * t)

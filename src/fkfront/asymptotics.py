"""Closed-form front motion in the drift-dominated regime.

Where the profile is soft (``|a u_xx| << |a' u_x|``) the diffusion term acts
as pure drift and the model collapses to the hyperbolic equation

    u_t = a'(x) u_x + f(u),        a'(x) = 2 x.

Its characteristics contract exponentially toward the origin,
``x(t) = x0 * exp(-2 (t - t0))``, and the logistic reaction integrates
exactly along them, which gives the evolution rule implemented by
:func:`sfa_evolve`.

In ``xi = asinh(x / sqrt(epsilon))`` (:func:`fkfront.domain.xi_of_x`) the
full model reads ``u_t = u_xixi + tanh(xi) u_xi + u (1 - u)``.  Far from the
origin ``xi ~ +/- ln|x| + const`` and the drift ``s = tanh(xi)`` tends to
``-1`` (entry side) or ``+1`` (exit side); it is 0 at the origin.  With
``s`` held fixed and ``eta = xi + c t`` the model linearized about ``u = 0``
is a constant-coefficient wave problem, whose exponential tails are
classified by :func:`stationary_roots`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .domain import DiffusionProfile, Field

__all__ = [
    "sfa_evolve",
    "stationary_roots",
    "sfa_residual",
]


def _interpolate(field: Field, x: "float | np.ndarray") -> "float | np.ndarray":
    """``field`` at ``x``, piecewise linear, clamped to its cell (see :func:`sfa_evolve`)."""
    xp, fp = field.grid.x, field.values
    # np.interp can round past the far end of a cell (slope * dx + fp[j]
    # need not equal fp[j + 1]); clamping to the cell keeps the promises.
    # j is the cell np.interp uses: xp[j] <= x < xp[j + 1], ends clamped.
    j = np.searchsorted(xp[1:-1], x, side="right")
    left, right = fp[j], fp[j + 1]
    return np.clip(np.interp(x, xp, fp), np.minimum(left, right), np.maximum(left, right))


def sfa_evolve(field: Field, x: "float | np.ndarray", t: float) -> "float | np.ndarray":
    """Evolve a field frozen at ``field.time`` under the drift-plus-logistic reduced model.

    Trace the contracting characteristic through ``x`` back to the snapshot
    time (hitting it at ``x * exp(2 dt)``), interpolate the field there and
    apply the logistic flow for the elapsed time.  At ``t = field.time`` this
    is the interpolant, bit for bit: piecewise linear, exact on the nodes,
    clamped to the end values outside the grid, and between the two nodal
    values around it, so samples in ``[0, 1]`` give values in ``[0, 1]`` and
    monotone samples a monotone function.  Later, values in ``[0, 1]`` stay
    there; 0 and 1 are fixed points; monotone profiles stay monotone, up to a
    few units in the last place of the logistic map's rounding.  Any elapsed
    time is accepted: past ``t - field.time = 354`` the stretch ``exp(2 dt)``
    is held at ``exp(708)``, which still carries every foot with
    ``|x| >= 1e-307 * L`` off the grid, and the logistic decay stays positive
    (at least ``exp(-745)``), so 0 stays fixed.
    """
    if not t >= field.time:
        raise ValueError(f"cannot evolve backwards: need t >= snapshot time {field.time}, "
                         f"got t={t}")
    delta = t - field.time
    with np.errstate(over="ignore"):  # an infinite foot lies off the grid like a finite one
        u0 = _interpolate(field, np.asarray(x, dtype=float) * math.exp(2.0 * min(delta, 354.0)))
    if delta == 0.0:
        return u0
    decay = math.exp(-min(delta, 745.0))
    return u0 / (u0 + (1.0 - u0) * decay)


def stationary_roots(c: float, s: float) -> tuple[tuple[complex, complex], str]:
    """Tail exponents: the roots of ``lambda**2 - (c - s) lambda + 1 = 0``.

    ``u = U(eta)``, ``eta = xi + c t``, solves ``u_t = u_xixi + s u_xi + u``,
    the model in ``xi`` linearized about 0 with the drift ``s = tanh(xi)``
    held fixed, when ``U = e^{lambda eta}``.  ``s`` lies in ``[-1, 1]``: -1
    far on the entry side, 0 at the origin, +1 far on the exit side.
    Returns ``((r1, r2), kind)``, ``kind`` one of ``real_distinct``,
    ``real_double``, ``complex``: real roots larger first, complex ones with
    the positive imaginary part first.  They multiply to 1 and sum to
    ``c - s``.

    Both roots are real and negative, a monotone tail ahead of a front
    moving right at speed ``-c``, iff ``c <= s - 2``.  The double root -1
    sits at ``c = s - 2``, the pulled speed ``2 - s``: 3, 2 and 1 for ``s``
    = -1, 0 and 1.  A non-finite ``c`` or an ``s`` outside ``[-1, 1]``
    raises ``ValueError``.
    """
    c, s = float(c), float(s)
    if not math.isfinite(c):
        raise ValueError(f"speed c must be finite, got {c}")
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"drift s must lie in [-1, 1], got {s}")
    half = (c - s) / 2.0
    # sqrt|half**2 - 1| as a product, which cannot overflow for a finite c
    root = math.sqrt(abs(half - 1.0)) * math.sqrt(abs(half + 1.0))
    if abs(half) < 1.0:
        return (complex(half, root), complex(half, -root)), "complex"
    if abs(half) == 1.0:
        return (complex(half), complex(half)), "real_double"
    big = half + math.copysign(root, half)  # the root of larger size; the other is 1/big
    r1, r2 = sorted((big, 1.0 / big), reverse=True)
    return (complex(r1), complex(r2)), "real_distinct"


def sfa_residual(
    field: Field,
    diffusion: DiffusionProfile,
    f: Callable[[np.ndarray], np.ndarray],
    t: float,
    xs: np.ndarray,
    space_step: float,
    time_step: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Check how well :func:`sfa_evolve` of ``field`` satisfies the reduced model at ``t``.

    Returns ``(residual, validity_ratio)`` at the probes ``xs``.
    ``residual`` is ``u_t - a'(x) u_x - f(u)`` of the evolved field;
    ``validity_ratio`` is ``|a u_xx| / |a' u_x|``, the size of the neglected
    curvature term against the drift term (NaN where both vanish, +inf where
    only the drift does).

    ``f`` is the reaction.  Derivatives are second-order central differences
    with probe spacings ``space_step`` (in x) and ``time_step`` (in t,
    defaulting to ``space_step``); the temporal stencil must not reach behind
    the snapshot, so ``t >= field.time + time_step`` is required.  A stencil
    that starts at the snapshot up to rounding (``t - time_step`` within two
    ulps of ``t`` below it) is accepted, and its lower time is taken at the
    snapshot.
    """
    if not 0.0 < space_step < math.inf:
        raise ValueError(f"space_step must be positive and finite, got {space_step}")
    ht = space_step if time_step is None else float(time_step)
    if not 0.0 < ht < math.inf:
        raise ValueError(f"time_step must be positive and finite, got {time_step}")
    t_lo = t - ht
    if t_lo < field.time:
        # t = field.time + ht is rounded, so t - ht may fall an ulp behind
        if field.time - t_lo > 2.0 * math.ulp(t):
            raise ValueError(
                f"central time stencil at t={t} reaches before the snapshot; "
                f"need t >= {field.time + ht}"
            )
        t_lo = field.time
    xs = np.asarray(xs, dtype=float)
    hx = float(space_step)

    u_mid = np.asarray(sfa_evolve(field, xs, t), dtype=float)
    u_xp = sfa_evolve(field, xs + hx, t)
    u_xm = sfa_evolve(field, xs - hx, t)
    u_tp = sfa_evolve(field, xs, t + ht)
    u_tm = sfa_evolve(field, xs, t_lo)

    u_t = (u_tp - u_tm) / (2.0 * ht)
    u_x = (u_xp - u_xm) / (2.0 * hx)
    u_xx = (u_xp - 2.0 * u_mid + u_xm) / hx**2

    residual = u_t - np.asarray(diffusion.aprime(xs), dtype=float) * u_x - f(u_mid)
    curvature = np.abs(np.asarray(diffusion.a(xs), dtype=float) * u_xx)
    drift = np.abs(np.asarray(diffusion.aprime(xs), dtype=float) * u_x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = curvature / drift
    return residual, ratio

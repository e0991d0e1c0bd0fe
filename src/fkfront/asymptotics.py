"""Closed-form front motion in the drift-dominated regime.

Where the profile is soft (``|a u_xx| << |a' u_x|``) the diffusion term acts
as pure drift and the model collapses to the hyperbolic equation

    u_t = a'(x) u_x + f(u),        a'(x) = 2 x.

Its characteristics contract exponentially toward the origin,
``x(t) = x0 * exp(-2 (t - t0))``, and the logistic reaction integrates
exactly along them, which gives the evolution rule implemented by
:func:`sfa_evolve`.  In the coordinate ``eta = +/- ln|x| + c t`` the same
model becomes a constant-coefficient wave problem whose exponential tails
are classified by :func:`stationary_roots`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .domain import DiffusionProfile, Field

__all__ = [
    "TwcBranch",
    "RootPair",
    "SfaResidualReport",
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
    if t < field.time:
        raise ValueError(f"cannot evolve backwards: t={t} < snapshot time {field.time}")
    delta = t - field.time
    with np.errstate(over="ignore"):  # an infinite foot lies off the grid like a finite one
        u0 = _interpolate(field, np.asarray(x, dtype=float) * math.exp(2.0 * min(delta, 354.0)))
    if delta == 0.0:
        return u0
    decay = math.exp(-min(delta, 745.0))
    return u0 / (u0 + (1.0 - u0) * decay)


class TwcBranch(Enum):
    """Sign case of the logarithmic coordinate ``eta = +/- ln|x| + c t``."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class RootPair:
    """Decay exponents of ``u'' + (-c +/- 1) u' + u = 0`` linearized tails.

    ``kind`` is one of ``real_distinct``, ``real_double``, ``complex``;
    ``non_oscillatory`` flags the strict speed range (``c < -1`` on the plus
    branch, ``c > 1`` on the minus branch) where the decay is monotone.
    """

    branch: TwcBranch
    c: float
    roots: tuple[complex, complex]
    kind: str
    non_oscillatory: bool


def stationary_roots(c: float, branch: TwcBranch) -> RootPair:
    """Roots of ``lambda**2 + (-c +/- 1) lambda + 1 = 0`` for speed ``c``.

    The two roots multiply to 1 and sum to ``c - 1`` (plus branch) or
    ``c + 1`` (minus branch).
    """
    c = float(c)
    branch = TwcBranch(branch)
    beta = c - 1.0 if branch is TwcBranch.PLUS else c + 1.0
    disc = beta * beta - 4.0
    if disc > 0.0:
        r = math.sqrt(disc)
        roots = (complex((beta + r) / 2.0), complex((beta - r) / 2.0))
        kind = "real_distinct"
    elif disc == 0.0:
        roots = (complex(beta / 2.0), complex(beta / 2.0))
        kind = "real_double"
    else:
        r = math.sqrt(-disc)
        roots = (complex(beta / 2.0, r / 2.0), complex(beta / 2.0, -r / 2.0))
        kind = "complex"
    non_osc = c < -1.0 if branch is TwcBranch.PLUS else c > 1.0
    return RootPair(branch=branch, c=c, roots=roots, kind=kind, non_oscillatory=non_osc)


@dataclass(frozen=True)
class SfaResidualReport:
    """Pointwise diagnostics of the reduced model at probe locations.

    ``residual`` is ``u_t - a'(x) u_x - f(u)`` of the evolved field by
    central differences; ``validity_ratio`` is ``|a u_xx| / |a' u_x|``, the
    size of the neglected curvature term against the drift term (NaN where
    both vanish, +inf where only the drift does).
    """

    xs: np.ndarray
    residual: np.ndarray
    validity_ratio: np.ndarray


def sfa_residual(
    field: Field,
    diffusion: DiffusionProfile,
    f: Callable[[np.ndarray], np.ndarray],
    t: float,
    xs: np.ndarray,
    space_step: float,
    time_step: float | None = None,
) -> SfaResidualReport:
    """Check how well :func:`sfa_evolve` of ``field`` satisfies the reduced model at ``t``.

    ``f`` is the reaction.  Derivatives are second-order central differences
    with probe spacings ``space_step`` (in x) and ``time_step`` (in t,
    defaulting to ``space_step``); the temporal stencil must not reach behind
    the snapshot, so ``t >= field.time + time_step`` is required.  A stencil
    that starts at the snapshot up to rounding (``t - time_step`` within two
    ulps of ``t`` below it) is accepted, and its lower time is taken at the
    snapshot.
    """
    if space_step <= 0:
        raise ValueError(f"space_step must be positive, got {space_step}")
    ht = space_step if time_step is None else float(time_step)
    if ht <= 0:
        raise ValueError(f"time_step must be positive, got {time_step}")
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
    return SfaResidualReport(xs=xs, residual=residual, validity_ratio=ratio)

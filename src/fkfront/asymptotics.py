"""Closed-form front motion in the drift-dominated regime.

Where the profile is soft (``|a u_xx| << |a' u_x|``) the diffusion term acts
as pure drift and the model collapses to the hyperbolic equation

    u_t = a'(x) u_x + f(u),        a'(x) = 2 x.

Its characteristics contract exponentially toward the origin,
``x(t) = x0 * exp(-2 (t - t0))``, and the logistic reaction integrates
exactly along them, which gives the evolution rule implemented by
:func:`sfa_evolve`.  It takes a snapshot as plain arrays, its nodes and
values, and the time elapsed since it; :func:`sfa_residual` checks the
result against the equation above and measures the neglected curvature term.

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

import numpy as np

from .domain import make_quadratic_diffusion

__all__ = [
    "sfa_evolve",
    "stationary_roots",
    "sfa_residual",
]


def _interpolate(xp: np.ndarray, fp: np.ndarray, x: "float | np.ndarray") -> "float | np.ndarray":
    """``fp`` on the nodes ``xp`` at ``x``, linear, clamped to its cell (:func:`sfa_evolve`)."""
    # np.interp can round past the far end of a cell (slope * dx + fp[j]
    # need not equal fp[j + 1]); clamping to the cell keeps the promises.
    # j is the cell np.interp uses: xp[j] <= x < xp[j + 1], ends clamped.
    j = np.searchsorted(xp[1:-1], x, side="right")
    left, right = fp[j], fp[j + 1]
    return np.clip(np.interp(x, xp, fp), np.minimum(left, right), np.maximum(left, right))


def sfa_evolve(
    nodes: np.ndarray, values: np.ndarray, x: "float | np.ndarray", elapsed: float
) -> "float | np.ndarray":
    """Evolve a snapshot under the drift-plus-logistic reduced model for ``elapsed``.

    The snapshot is ``values`` on the increasing ``nodes``, one value per
    node and at least two nodes; other shapes raise ``ValueError``.  Trace
    the contracting characteristic through ``x`` back to the snapshot
    (hitting it at ``x * exp(2 elapsed)``), interpolate there and apply the
    logistic flow for ``elapsed``.  At ``elapsed = 0`` this is the
    interpolant, bit for bit: piecewise linear, exact on the nodes, clamped
    to the end values outside the grid, and between the two nodal values
    around it, so samples in ``[0, 1]`` give values in ``[0, 1]`` and
    monotone samples a monotone function.  Later, values in ``[0, 1]`` stay
    there; 0 and 1 are fixed points; monotone profiles stay monotone, in
    floating point too, as each operation of the logistic map is monotone.
    A negative or NaN ``elapsed`` raises ``ValueError``; any other is accepted:
    past ``elapsed = 354`` the stretch ``exp(2 elapsed)`` is held at
    ``exp(708)``, which still carries every foot with
    ``|x| >= 1e-307 * max|nodes|`` off the grid, and the logistic decay
    stays positive (at least ``exp(-745)``), so 0 stays fixed.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != nodes.shape or nodes.ndim != 1 or nodes.size < 2:
        raise ValueError(f"values shape {values.shape} does not match nodes shape "
                         f"{nodes.shape}: need one value per node, at least two nodes")
    # also rejects nan, which fails every comparison
    if not elapsed >= 0.0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    with np.errstate(over="ignore"):  # an infinite foot lies off the grid like a finite one
        u0 = _interpolate(nodes, values,
                          np.asarray(x, dtype=float) * math.exp(2.0 * min(elapsed, 354.0)))
    if elapsed == 0.0:
        return u0
    with np.errstate(divide="ignore", over="ignore"):  # u0 = 0 or subnormal: 1 / inf = 0
        return 1.0 / (1.0 + math.exp(-min(elapsed, 745.0)) * (1.0 / u0 - 1.0))


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
    nodes: np.ndarray,
    values: np.ndarray,
    epsilon: float,
    t: float,
    xs: np.ndarray,
    space_step: float,
    time_step: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Check how well :func:`sfa_evolve` of a snapshot satisfies the reduced model.

    The snapshot is ``values`` on ``nodes``, evolved for the time ``t``.
    Returns ``(residual, validity_ratio)`` at the probes ``xs``.
    ``residual`` is ``u_t - 2 x u_x - u (1 - u)`` of the evolved field, the
    model :func:`sfa_evolve` solves; ``validity_ratio`` is
    ``|a u_xx| / |2 x u_x|`` for ``a = x**2 + epsilon``, the size of the
    neglected curvature term against the drift term ``a' u_x`` (NaN where
    both vanish, +inf where only the drift does).  A floor ``epsilon`` that
    is not finite and positive, or a ``t`` that is not finite, raises
    ``ValueError``.

    Derivatives are second-order central differences with probe spacings
    ``space_step`` (in x) and ``time_step`` (in t, defaulting to
    ``space_step``); the temporal stencil must not reach behind the
    snapshot, so ``t >= time_step`` is required.  A stencil that starts at
    the snapshot up to rounding (``t - time_step`` within two ulps of ``t``
    below 0) is accepted, and its lower time is taken at the snapshot.
    """
    a = make_quadratic_diffusion(epsilon)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not 0.0 < space_step < math.inf:
        raise ValueError(f"space_step must be positive and finite, got {space_step}")
    ht = space_step if time_step is None else float(time_step)
    if not 0.0 < ht < math.inf:
        raise ValueError(f"time_step must be positive and finite, got {time_step}")
    t_lo = t - ht
    if t_lo < 0.0:
        # t = ht is rounded, so t - ht may fall an ulp behind the snapshot
        if -t_lo > 2.0 * math.ulp(t):
            raise ValueError(
                f"central time stencil at t={t} reaches before the snapshot; need t >= {ht}"
            )
        t_lo = 0.0
    xs = np.asarray(xs, dtype=float)
    hx = float(space_step)

    u_mid = np.asarray(sfa_evolve(nodes, values, xs, t), dtype=float)
    u_xp = sfa_evolve(nodes, values, xs + hx, t)
    u_xm = sfa_evolve(nodes, values, xs - hx, t)
    u_tp = sfa_evolve(nodes, values, xs, t + ht)
    u_tm = sfa_evolve(nodes, values, xs, t_lo)

    u_t = (u_tp - u_tm) / (2.0 * ht)
    u_x = (u_xp - u_xm) / (2.0 * hx)
    u_xx = (u_xp - 2.0 * u_mid + u_xm) / hx**2

    drift = 2.0 * xs * u_x
    residual = u_t - drift - u_mid * (1.0 - u_mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(a(xs) * u_xx) / np.abs(drift)
    return residual, ratio

"""Front tracking and the trapping-time statistic.

The front position is the rightmost point where the linearly interpolated
profile crosses a reference level (1/2 by default).  As the diffusion floor
``epsilon`` shrinks, the front lingers longer inside the slow window
``|x| < radius`` around the origin.  :func:`window_transits` follows the
1/2 front of a stream of states through that window in one pass, keeping
only its entry and exit instants, and :func:`fit_power_law` fits the growth
of the residence against ``epsilon``.  The fit is a straight line in log
space, solved in closed form with numpy sums.  numpy's least-squares
polynomial fit would solve it with an SVD, the only call into numpy's own
LAPACK that a command would make, and initialising that LAPACK costs
``trap-sweep`` about 1 MB of peak RSS for a fit of a few points.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["front_positions", "window_transits", "fit_power_law"]


def front_positions(values: np.ndarray, x: np.ndarray, level: float = 0.5) -> np.ndarray:
    """Front position of each row of ``values`` (shape ``(B, n)``) on the nodes ``x``.

    A row's front is the rightmost ``x`` where its linearly interpolated
    profile crosses ``level``.  A cell is a crossing when the signs (-, 0, +)
    of ``u - level`` at its two ends differ: a cell with both ends identically
    at the level is not one, and a cell with one end at the level crosses at
    that end.  Returns the B positions, NaN for a row without a crossing
    (e.g. a constant row).

    Raises
    ------
    ValueError
        If ``values`` is not 2-D, if ``x`` is not 1-D with one node per
        column, or if any value or the level is not finite.
    """
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    u = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.ndim != 2 or x.shape != u.shape[1:]:
        raise ValueError(f"values of shape (B, n) need nodes x of shape (n,), "
                         f"got {u.shape} and {x.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("field values must be finite")
    # The rightmost crossing cell starts at the last node whose sign class
    # (-, 0, +) of u - level differs from the last node's: every node to its
    # right shares the last node's class.  Comparisons, not a product, which
    # can underflow to 0 for same signs.
    end = u[:, -1:]
    differs = ((u < level) != (end < level)) | ((u > level) != (end > level))
    rows = np.arange(u.shape[0])
    last = differs.shape[1] - 1 - np.argmax(differs[:, ::-1], axis=1)
    found = differs[rows, last]
    rows, i = rows[found], last[found]
    positions = np.full(u.shape[0], math.nan)
    left, right = u[rows, i] - level, u[rows, i + 1] - level
    theta = left / (left - right)
    positions[rows] = x[i] + theta * (x[i + 1] - x[i])
    return positions


def _boundary_crossing(
    t_prev: float, x_prev: float, t_next: float, x_next: float, outside: float, radius: float
) -> float:
    """Time at which the linear segment crosses ``|x| = radius``.

    ``outside`` is the endpoint lying outside the window; it selects which
    boundary (+radius or -radius) is crossed.
    """
    b = math.copysign(radius, outside)
    theta = (b - x_prev) / (x_next - x_prev)
    return t_prev + theta * (t_next - t_prev)


def window_transits(
    steps: Iterable[tuple[float, np.ndarray]], x: np.ndarray, radius: float
) -> tuple[list[tuple[float | None, float | None, float | None]], float]:
    """Entry and exit of each row's 1/2 front through the window ``|x| < radius``.

    ``steps`` streams ``(t, u)`` states, typically from
    :func:`fkfront.solver.march`; ``u`` has shape ``(n,)`` or, for B stacked
    runs, ``(B, n)`` on the nodes ``x``.  Only the front positions of each
    state are read (:func:`front_positions`); a state in which a row has no
    front (NaN) is skipped for that row, and so is every state after the
    row's exit.  Each row gets one record ``(entry, exit, last)``:

    - ``entry``: the time the front first lies inside the window, linearly
      interpolated to its crossing of ``|x| = radius`` from the row's
      previous position; the time of that state if it is the row's first
      position.  None if the front never enters.
    - ``exit``: the same for the first position outside the window after
      the entry.  None if the front never leaves.
    - ``last``: the time of the last position read; None if there is none.

    A row's record is therefore the same whether it is marched alone or
    stacked with others.  The residence is ``exit - entry``; for a front
    that enters and does not leave, ``last - entry`` is a lower bound on it.
    No further state is drawn once every row's front has left the window.
    Returns the records and the time of the last state drawn (NaN for an
    empty stream).
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rows: list[list] = []  # per row: entry, exit, time and position of the last front read
    t = math.nan
    for t, u in steps:
        found = front_positions(np.atleast_2d(u), x).tolist()
        if not rows:
            rows = [[None, None, None, None] for _ in found]
        # plain floats: a few rows cost well under a microsecond, array ops ~8 us
        for row, position in zip(rows, found):
            entry, exit_, t_prev, x_prev = row
            if exit_ is not None or math.isnan(position):
                continue
            inside = abs(position) < radius
            if entry is None and inside:
                row[0] = t if t_prev is None else _boundary_crossing(
                    t_prev, x_prev, t, position, outside=x_prev, radius=radius)
            elif entry is not None and not inside:
                row[1] = _boundary_crossing(
                    t_prev, x_prev, t, position, outside=position, radius=radius)
            row[2], row[3] = t, position
        if all(row[1] is not None for row in rows):
            break
    return [(entry, exit_, last) for entry, exit_, last, _ in rows], t


def fit_power_law(
    pairs: "list[tuple[float, float]] | np.ndarray", exponent: float | None = None
) -> dict:
    """Least-squares fit of ``duration = C * epsilon**p`` in log space.

    ``pairs`` holds ``(epsilon, duration)`` rows, all finite and strictly
    positive, at least two of them.  With ``exponent=None`` both ``C`` and
    ``p`` are free (``mode`` "free"): with ``z = log(epsilon)`` and
    ``y = log(duration)``, ``p = sum((z - mean z)(y - mean y)) /
    sum((z - mean z)**2)`` is the slope of the least-squares line through
    the points ``(z, y)``, and it needs at least two distinct ``z``.
    Passing ``exponent`` (e.g. ``-0.5``) pins ``p`` and fits only ``C``
    ("fixed").  Either way ``log C = mean(y - p z)``.  Returns the
    JSON-ready report: ``C``, ``p``, the log-space ``residuals``, the
    ``epsilons`` and the ``mode``, all as plain floats and lists.

    Raises
    ------
    ValueError
        If ``pairs`` is not a list of at least two ``(epsilon, duration)``
        pairs of finite positive numbers, if ``exponent`` is not finite, or,
        for the free fit, if every ``log(epsilon)`` is equal.
    """
    if exponent is not None and not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    data = np.asarray(pairs, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (epsilon, duration) tuples")
    if data.shape[0] < 2:
        raise ValueError("need at least two (epsilon, duration) pairs")
    eps, dur = data[:, 0], data[:, 1]
    if not np.all((data > 0) & (data < np.inf)):
        raise ValueError("epsilons and durations must be strictly positive and finite")
    z = np.log(eps)
    y = np.log(dur)
    if exponent is None:
        if z.min() == z.max():
            raise ValueError("the free power-law fit needs at least two distinct epsilons, "
                             f"got log(epsilon) = {float(z[0])!r} for all {z.size}")
        dz = z - z.mean()
        p = float(np.sum(dz * (y - y.mean())) / np.sum(dz * dz))
        mode = "free"
    else:
        p = float(exponent)
        mode = "fixed"
    log_c = float(np.mean(y - p * z))
    residuals = y - (log_c + p * z)
    return {"C": float(np.exp(log_c)), "p": p, "residuals": residuals.tolist(),
            "epsilons": eps.tolist(), "mode": mode}

"""Front tracking and the trapping-time statistic.

The front position is the rightmost point where the linearly interpolated
profile crosses the level :data:`LEVEL`, 1/2.  As the diffusion floor
``epsilon`` shrinks, the front lingers longer inside the slow window
``|x| < radius`` around the origin.  :func:`window_transits` follows the
front of each row of a stream of ``(B, n)`` states through that window in
one pass, keeping its entry and exit instants, and :func:`fit_power_law`
fits the growth of the residence against ``epsilon``, as a straight line in
log space solved in closed form with numpy sums.  numpy's least-squares
polynomial fit would solve it with an SVD, the only call into numpy's own
LAPACK that a command would make, and initialising that LAPACK costs
``trap-sweep`` about 1 MB of peak RSS for a fit of a few points.

Each position is read by one search of the row: one comparison against
:data:`LEVEL` and one ``bytes.rfind`` of its mask, the same for
:func:`front_positions` and :func:`window_transits`.  Once a row's front has
left the window, :func:`window_transits` asks a stream with a ``send`` (such
as :func:`fkfront.solver.march`) to drop that row, and the stream must.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .domain import check_radius

__all__ = ["LEVEL", "front_positions", "window_transits", "fit_power_law"]

LEVEL = 0.5  # the front is where u crosses this, halfway between the states 0 and 1


def front_positions(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Front position of each row of ``values`` (shape ``(B, n)``) on the nodes ``x``.

    A row's front is the rightmost ``x`` where its linearly interpolated
    profile crosses :data:`LEVEL`.  A cell is a crossing when the signs
    (-, 0, +) of ``u - LEVEL`` at its two ends differ: a cell with both ends
    identically at the level is not one, and a cell with one end at the
    level crosses at that end.  Returns the B positions, NaN for a row
    without a crossing (e.g. a constant row).

    Raises
    ------
    ValueError
        If ``values`` is not 2-D or has no column, if ``x`` is not 1-D
        with one node per column, or if any value is not finite.
    """
    u, x = _checked_states(values, x)
    return np.array([_front(row, x) for row in u], dtype=float)


def _checked_states(values, x) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and ``x`` as float arrays, once ``values`` is checked to be
    finite and of shape ``(B, n)`` with ``n >= 1`` and ``x`` of shape ``(n,)``."""
    u = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.ndim != 2 or x.shape != u.shape[1:]:
        raise ValueError(f"values of shape (B, n) need nodes x of shape (n,), "
                         f"got {u.shape} and {x.shape}")
    if not x.size:
        raise ValueError(f"values need at least one node, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("field values must be finite")
    return u, x


def _front(row: np.ndarray, x: np.ndarray) -> float:
    """:func:`front_positions` of one checked ``row`` on the nodes ``x``."""
    # The rightmost crossing cell starts at the last node whose sign class
    # (-, 0, +) of u - LEVEL differs from the last node's: every node to its
    # right shares the last node's class.
    end = row[-1].item()
    differs = (row >= LEVEL if end < LEVEL else row <= LEVEL if end > LEVEL
               else row != LEVEL)
    i = differs.tobytes().rfind(1)  # one byte per node, 1 where it differs
    if i < 0:
        return math.nan
    left, right = row[i:i + 2].tolist()
    left, right = left - LEVEL, right - LEVEL
    theta = left / (left - right)
    x_left, x_right = x[i:i + 2].tolist()
    return x_left + theta * (x_right - x_left)


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


def _read_front(record: list, t: float, row: np.ndarray, x: np.ndarray, radius: float) -> None:
    """Update a :func:`window_transits` ``record`` with the front of ``row`` at ``t``."""
    position = _front(row, x)
    if math.isnan(position):
        return
    entry, _, t_prev, x_prev = record
    inside = abs(position) < radius
    if entry is None and inside:
        record[0] = t if t_prev is None else _boundary_crossing(
            t_prev, x_prev, t, position, outside=x_prev, radius=radius)
    elif entry is not None and not inside:
        record[1] = _boundary_crossing(
            t_prev, x_prev, t, position, outside=position, radius=radius)
    record[2], record[3] = t, position


def window_transits(
    steps: Iterable[tuple[float, np.ndarray]], x: np.ndarray, radius: float
) -> tuple[list[tuple[float | None, float | None, float | None]], float]:
    """Entry and exit of each row's front through the window ``|x| < radius``.

    ``steps`` streams ``(t, u)`` states, typically from
    :func:`fkfront.solver.march`, with ``u`` of shape ``(B, n)`` on the nodes
    ``x``, one row per run; another shape raises ``ValueError``.  Only the
    front positions of each state are read; a state in which a row has no
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

    Each position is that of :func:`front_positions`, from one search of
    the row, and every state is checked whole to be finite.

    Once rows have exited, a ``steps`` with a ``send`` (a generator such as
    :func:`~fkfront.solver.march`) is drawn with ``steps.send`` and the
    ascending indices of the rows still live, and must drop the other rows
    from its next state, which a generator expression does not.  A ``steps``
    without a ``send`` is read whole.  A state whose row count is not that
    of the rows kept raises ``ValueError``.
    """
    check_radius(radius)
    steps = iter(steps)
    send = getattr(steps, "send", None)
    # per row: entry, exit, and the time and position of the last front read
    records = rows = None  # rows: the records of the rows of the states drawn
    asked = False
    t = math.nan
    state = next(steps, None)
    while state is not None:
        t, u = state
        u, x = _checked_states(u, x)
        if rows is None:
            records = rows = [[None] * 4 for _ in u]
        elif len(u) != len(rows):
            found = f"the state at t={t:g} has {len(u)} rows, after"
            raise ValueError(f"a stream with a send must drop the rows it is asked to drop, "
                             f"but {found} a request to keep {len(rows)}" if asked
                             else f"{found} {len(rows)}")
        for record, row in zip(rows, u):
            if record[1] is None:
                _read_front(record, t, row, x, radius)
        live = [j for j, record in enumerate(rows) if record[1] is None]
        if not live:
            break
        u = state = None  # a narrowing march may free this state as it gathers the next
        asked = send is not None and len(live) < len(rows)
        if asked:
            rows = [rows[j] for j in live]
        try:
            state = send(live) if asked else next(steps)
        except StopIteration:
            state = None
    return [tuple(record[:3]) for record in records or ()], t


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
    if data.size and (data.ndim != 2 or data.shape[1] != 2):
        raise ValueError("pairs must be a sequence of (epsilon, duration) tuples")
    if data.size < 4:  # fewer than two pairs, or none
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

"""Front tracking and the trapping-time statistic.

The front position is the rightmost point where the linearly interpolated
profile crosses a reference level (1/2 by default).  As the diffusion floor
``epsilon`` shrinks, the front lingers longer inside the slow window
``|x| < radius`` around the origin; :func:`trapping_time` measures that
residence and :func:`fit_power_law` fits its growth against ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "FrontNotTransitedError",
    "FrontPath",
    "FitReport",
    "front_positions",
    "track_front",
    "trapping_time",
    "fit_power_law",
]


class FrontNotTransitedError(Exception):
    """The front never entered the window, or entered but never left it.

    ``entered`` records whether the window was reached at all; when it was,
    ``partial`` carries the residence time seen up to the end of the data
    (a lower bound on the true trapping time).
    """

    def __init__(self, message: str, entered: bool, partial: float | None = None):
        super().__init__(message)
        self.entered = entered
        self.partial = partial


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
        If any value is not finite.
    """
    u = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("field values must be finite")
    s = u - level
    left, right = s[:, :-1], s[:, 1:]
    # a cell brackets the level when the signs (-, 0, +) of its ends differ;
    # comparisons, not a product, which can underflow to 0 for same signs
    bracket = ((left <= 0.0) != (right <= 0.0)) | ((left >= 0.0) != (right >= 0.0))
    rows = np.arange(u.shape[0])
    last = bracket.shape[1] - 1 - np.argmax(bracket[:, ::-1], axis=1)
    found = bracket[rows, last]
    rows, i = rows[found], last[found]
    positions = np.full(u.shape[0], math.nan)
    theta = left[rows, i] / (left[rows, i] - right[rows, i])
    positions[rows] = x[i] + theta * (x[i + 1] - x[i])
    return positions


@dataclass(frozen=True)
class FrontPath:
    """Front position against time; NaN marks snapshots without a crossing."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError("times and positions must be 1-d arrays of equal length")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)


def track_front(
    steps: Iterable[tuple[float, np.ndarray]],
    x: np.ndarray,
    level: float = 0.5,
    radius: float | None = None,
) -> list[FrontPath]:
    """Front path of each row of a stream of ``(t, u)`` states.

    The stream is typically :func:`fkfront.solver.march`.  ``u`` has shape
    ``(n,)`` or, for B stacked runs, ``(B, n)`` on the nodes ``x``.  Returns
    one :class:`FrontPath` per row; only the front positions of each state
    are kept, not the state.

    With ``radius=None`` the whole stream is drawn.  With a ``radius``, no
    further state is drawn once every row's front has left the window
    ``|x| < radius``: a finite position outside it after the first finite
    position inside it.  The paths then end at that state.  This loses
    nothing :func:`trapping_time` reads with the same ``radius``: it uses
    the first finite sample inside the window, the first finite sample
    outside after it and the finite sample just before each, all of which are
    drawn by then, so it returns the same value bit for bit.  A row that
    never enters or never leaves keeps the stream going to its end, so its
    :class:`FrontNotTransitedError` and ``partial`` are unchanged too.
    """
    if radius is not None and radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    times: list[float] = []
    positions: list[np.ndarray] = []
    entered = left = None
    for t, u in steps:
        times.append(t)
        found = front_positions(np.atleast_2d(u), x, level)
        positions.append(found)
        if radius is None:
            continue
        if entered is None:
            entered, left = [False] * found.size, [False] * found.size
        # plain floats: a few rows cost well under a microsecond, array ops ~8 us
        for row, position in enumerate(found.tolist()):
            if abs(position) < radius:
                entered[row] = True
            elif abs(position) >= radius and entered[row]:  # NaN fails both tests
                left[row] = True
        if all(left):
            break
    table = np.array(positions)
    return [FrontPath(times=np.array(times), positions=column) for column in table.T]


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


def trapping_time(path: FrontPath, radius: float = 0.4) -> float:
    """Residence time of the front inside the window ``|x| < radius``.

    Entry and exit instants are linearly interpolated between samples.  The
    first entry and the first subsequent exit define the residence; samples
    without a position (NaN) are ignored.

    Raises
    ------
    FrontNotTransitedError
        If no sample ever lies inside the window (``entered=False``), or the
        front enters but the data ends before it leaves (``entered=True``,
        with ``partial`` holding the lower bound seen so far).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    keep = np.isfinite(path.positions)
    t = path.times[keep]
    x = path.positions[keep]
    inside = np.abs(x) < radius
    if t.size == 0 or not inside.any():
        raise FrontNotTransitedError(
            f"front never entered |x| < {radius}", entered=False
        )
    k_in = int(np.argmax(inside))
    if k_in == 0:
        t_enter = float(t[0])
    else:
        t_enter = _boundary_crossing(
            t[k_in - 1], x[k_in - 1], t[k_in], x[k_in], outside=x[k_in - 1], radius=radius
        )
    leaves = np.nonzero(~inside[k_in:])[0]
    if leaves.size == 0:
        raise FrontNotTransitedError(
            f"front entered |x| < {radius} but the data ends before it leaves",
            entered=True,
            partial=float(t[-1] - t_enter),
        )
    k_out = k_in + int(leaves[0])
    t_exit = _boundary_crossing(
        t[k_out - 1], x[k_out - 1], t[k_out], x[k_out], outside=x[k_out], radius=radius
    )
    return float(t_exit - t_enter)


@dataclass(frozen=True)
class FitReport:
    """Power-law fit ``duration = C * epsilon**p`` with log-space residuals."""

    C: float
    p: float
    residuals: np.ndarray
    epsilons: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        object.__setattr__(self, "epsilons", np.asarray(self.epsilons, dtype=float))


def fit_power_law(
    pairs: "list[tuple[float, float]] | np.ndarray", exponent: float | None = None
) -> FitReport:
    """Least-squares fit of ``duration = C * epsilon**p`` in log space.

    ``pairs`` holds ``(epsilon, duration)`` rows, all strictly positive, at
    least two of them.  With ``exponent=None`` both ``C`` and ``p`` are free;
    passing ``exponent`` (e.g. ``-0.5``) pins ``p`` and fits only ``C``.
    """
    data = np.asarray(pairs, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (epsilon, duration) tuples")
    if data.shape[0] < 2:
        raise ValueError("need at least two (epsilon, duration) pairs")
    eps, dur = data[:, 0], data[:, 1]
    if np.any(eps <= 0) or np.any(dur <= 0):
        raise ValueError("epsilons and durations must be strictly positive")
    z = np.log(eps)
    y = np.log(dur)
    if exponent is None:
        p, log_c = np.polyfit(z, y, 1)
        mode = "free"
    else:
        p = float(exponent)
        log_c = float(np.mean(y - p * z))
        mode = "fixed"
    residuals = y - (log_c + p * z)
    return FitReport(C=float(np.exp(log_c)), p=float(p), residuals=residuals,
                     epsilons=eps, mode=mode)

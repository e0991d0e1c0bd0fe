"""Front location, tracking, trapping durations, power-law fitting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import first_exit, front_path, steps_of, times_of
from fkfront.domain import Grid, step_initial_condition
from fkfront.front import (
    FitReport,
    FrontNotTransitedError,
    FrontPath,
    fit_power_law,
    front_positions,
    track_front,
    trapping_time,
)


class TestLocateFront:
    """Hand cases of :func:`front_positions` on a single row."""

    def test_linear_interpolation_hand_case(self):
        g = Grid(L=0.4, n=3)  # nodes -0.4, 0, 0.4
        found = front_positions(np.array([[0.8, 0.8, 0.2]]), g.x, level=0.5)[0]
        assert found == pytest.approx(0.2, abs=1e-14)

    def test_default_step_crossing(self):
        g = Grid(L=100.0, n=501)
        f = step_initial_condition(g, -35.0)
        assert front_positions(f.values[np.newaxis], g.x)[0] == pytest.approx(-35.0, abs=1e-12)

    @pytest.mark.parametrize("value", [0.2, 0.8])
    def test_constant_field_has_no_crossing(self, value):
        g = Grid(L=1.0, n=9)
        assert math.isnan(front_positions(np.full((1, 9), value), g.x)[0])

    def test_rightmost_crossing_wins(self):
        g = Grid(L=2.0, n=5)  # nodes -2, -1, 0, 1, 2
        u = np.array([[0.9, 0.2, 0.8, 0.3, 0.1]])
        # downward crossings in (-2,-1) and (0,1); the rightmost one is reported
        expected = 0.0 + 1.0 * (0.8 - 0.5) / (0.8 - 0.3)
        assert front_positions(u, g.x)[0] == pytest.approx(expected, abs=1e-14)

    def test_custom_level(self):
        g = Grid(L=0.4, n=3)
        # level 0.65: quarter of the way down the last cell
        found = front_positions(np.array([[0.8, 0.8, 0.2]]), g.x, level=0.65)[0]
        assert found == pytest.approx(0.1, abs=1e-14)

    def test_rejects_non_finite_values(self):
        g = Grid(L=1.0, n=3)
        with pytest.raises(ValueError):
            front_positions(np.array([[1.0, np.nan, 0.0]]), g.x)


def scalar_locate(u, x, level):
    """Reference: rightmost bracketing cell of one row, found by a scan."""
    s = u - level
    for i in range(u.size - 2, -1, -1):
        if s[i] * s[i + 1] <= 0.0 and not (s[i] == 0.0 and s[i + 1] == 0.0):
            return x[i] + s[i] / (s[i] - s[i + 1]) * (x[i + 1] - x[i])
    return math.nan


class TestFrontPositions:
    # Levels and exact ties are drawn often, so rows with plateaus at the
    # level, touching cells and no crossing at all all occur.
    values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_match_scalar_scan(self, data):
        rows = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(3, 9))
        u = np.array(data.draw(st.lists(st.lists(self.values, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)))
        grid = Grid(L=2.0, n=n)
        got = front_positions(u, grid.x)
        expected = [scalar_locate(row, grid.x, 0.5) for row in u]
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("row", [[-1.0, 1e-200, 1e-200], [-1.0, 1e-200, 3e-200]])
    def test_same_sign_cell_with_underflowing_product_is_no_crossing(self, row):
        # 1e-200 * 1e-200 underflows to 0; the crossing is the first cell's
        assert front_positions(np.array([row]), np.array([0.0, 1.0, 2.0]), level=0.0)[0] == 1.0

    # Magnitudes log-uniform in [1e-300, 1], so that products of same-sign
    # ends often underflow.
    tiny = st.tuples(st.floats(-300.0, 0.0), st.sampled_from([1.0, -1.0])).map(
        lambda p: p[1] * 10.0 ** p[0])
    signed = st.one_of(st.just(0.0), tiny)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_position_lies_in_its_cell(self, data):
        n = data.draw(st.integers(3, 9))
        u = np.array(data.draw(st.lists(st.lists(self.signed, min_size=n, max_size=n),
                                        min_size=1, max_size=4)))
        x = Grid(L=data.draw(st.floats(0.1, 1e3)), n=n).x
        sign = np.sign(u)
        for row_sign, pos in zip(sign, front_positions(u, x, level=0.0)):
            cells = [i for i in range(n - 1) if row_sign[i] != row_sign[i + 1]]
            if not cells:
                assert math.isnan(pos)
            else:
                assert x[cells[-1]] <= pos <= x[cells[-1] + 1]

    def test_rejects_non_finite_row(self):
        u = np.array([[1.0, 0.5, 0.0], [1.0, np.inf, 0.0]])
        with pytest.raises(ValueError):
            front_positions(u, Grid(L=1.0, n=3).x)


class TestTrackFront:
    def test_matches_per_snapshot_location(self, default_run):
        path = front_path(default_run)
        assert np.array_equal(path.times, times_of(default_run))
        x = default_run[0].grid.x
        for k in (0, 5, 12):
            expected = scalar_locate(default_run[k].values, x, 0.5)
            assert path.positions[k] == pytest.approx(expected, abs=1e-14)

    def test_missing_front_marked_nan(self, default_run):
        path = front_path(default_run)
        # the profile saturates to 1 everywhere late in the run: no crossing
        assert np.isnan(path.positions[-1])
        assert np.isfinite(path.positions[0])

    def test_stacked_rows_tracked_alone(self, default_run):
        x = default_run[0].grid.x
        stacked = ((t, np.stack([u, u[::-1]])) for t, u in steps_of(default_run))
        mirrored = ((t, u[::-1]) for t, u in steps_of(default_run))
        paths = track_front(stacked, x)
        assert len(paths) == 2
        for path, alone in zip(paths, (front_path(default_run), *track_front(mirrored, x))):
            assert np.array_equal(path.times, alone.times)
            assert np.array_equal(path.positions, alone.positions, equal_nan=True)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            FrontPath(times=np.array([0.0, 1.0]), positions=np.array([1.0]))
        with pytest.raises(ValueError):
            FrontPath(times=np.array([0.0, 0.0]), positions=np.array([1.0, 2.0]))


WINDOW = 0.4
outside_window = st.builds(lambda r, s: s * r, st.floats(WINDOW, 10.0), st.sampled_from([-1.0, 1.0]))
inside_window = st.floats(-WINDOW, WINDOW, exclude_min=True, exclude_max=True)


class TestTrappingTime:
    def test_linear_path_hand_case(self):
        ts = np.arange(0.0, 20.0 + 1e-12, 0.5)
        path = FrontPath(times=ts, positions=-1.0 + 0.1 * ts)
        # enters |x|<0.4 at t=6, exits at t=14
        assert trapping_time(path, radius=0.4) == pytest.approx(8.0, abs=1e-12)

    def test_refinement_invariance_smooth_path(self):
        exact = math.sqrt(110.0) - math.sqrt(70.0)

        def duration(dt):
            ts = np.arange(0.0, 15.0 + 1e-12, dt)
            return trapping_time(FrontPath(times=ts, positions=0.02 * ts**2 - 1.8), 0.4)

        assert abs(duration(0.01) - exact) <= 1e-5
        assert abs(duration(0.25) - duration(0.01)) <= 3e-3

    def test_default_run_duration(self, default_run):
        duration = trapping_time(front_path(default_run), radius=0.4)
        assert 3.2 <= duration <= 3.5

    def test_never_enters(self):
        ts = np.arange(0.0, 8.0 + 1e-12, 0.5)
        with pytest.raises(FrontNotTransitedError) as exc_info:
            trapping_time(FrontPath(times=ts, positions=-10.0 + 0.1 * ts), 0.4)
        assert exc_info.value.entered is False
        assert exc_info.value.partial is None

    def test_enters_without_exiting(self):
        ts = np.arange(0.0, 8.0 + 1e-12, 0.5)
        with pytest.raises(FrontNotTransitedError) as exc_info:
            trapping_time(FrontPath(times=ts, positions=-1.0 + 0.1 * ts), 0.4)
        assert exc_info.value.entered is True
        assert exc_info.value.partial == pytest.approx(2.0, abs=1e-9)

    def test_rejects_nonpositive_radius(self):
        ts = np.array([0.0, 1.0])
        path = FrontPath(times=ts, positions=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            trapping_time(path, radius=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        before=st.lists(outside_window, max_size=5),
        during=st.lists(inside_window, min_size=1, max_size=5),
        after=st.lists(outside_window, min_size=1, max_size=5),
        tail=st.lists(st.floats(-10.0, 10.0), max_size=5),
        t0=st.floats(-100.0, 100.0),
        steps=st.lists(st.floats(1e-3, 10.0), min_size=20, max_size=20),
        shift=st.floats(-1e3, 1e3),
    )
    def test_invariant_under_time_shift(self, before, during, after, tail, t0, steps, shift):
        x = np.array(before + during + after + tail)
        t = t0 + np.cumsum(steps[: x.size])
        shifted = t + shift
        duration = trapping_time(FrontPath(times=t, positions=x), WINDOW)
        moved = trapping_time(FrontPath(times=shifted, positions=x), WINDOW)
        # each crossing time rounds a few times at the scale of the largest |t|
        scale = max(np.max(np.abs(t)), np.max(np.abs(shifted)))
        assert abs(moved - duration) <= 1e-14 * scale


# The row below crosses 1/2 once, at about p and exactly at p when p is a
# node, so positions on the window's edges occur; a constant row has no
# crossing (NaN).
NODES = np.array([-20.0, -WINDOW, WINDOW, 20.0])


def row_crossing_at(p: float) -> np.ndarray:
    if math.isnan(p):
        return np.ones(NODES.size)
    return 0.5 - (NODES - p) / 64.0


sample = st.one_of(st.just(math.nan), inside_window, outside_window)
streams = st.integers(1, 25).flatmap(
    lambda length: st.lists(st.lists(sample, min_size=length, max_size=length),
                            min_size=1, max_size=3))
nan = math.nan


class TestTrackFrontStop:
    @staticmethod
    def stream(rows, drawn):
        for k, column in enumerate(zip(*rows)):
            drawn.append(k)
            yield 0.1 * k, np.array([row_crossing_at(p) for p in column])

    @settings(max_examples=200, deadline=None)
    @given(rows=streams)
    @example(rows=[[-1.0, 0.1, nan, nan, 0.2, 1.0, 2.0]])  # NaN positions between entry and exit
    @example(rows=[[0.0, 0.3, 0.5, 1.0]])  # first sample already inside
    @example(rows=[[-1.0, 0.0, 1.0, 0.0, -1.0, 0.1]])  # re-entry after the first exit
    @example(rows=[[-5.0, -4.0, -3.0, -2.0], [-1.0, 0.0, 1.0, 2.0]])  # one never enters
    @example(rows=[[-1.0, 0.0, 0.1, 0.2]])  # enters, never leaves
    @example(rows=[[-1.0, 0.0, WINDOW, 1.0], [-WINDOW, 0.0, -WINDOW, 1.0]])  # on the edge
    @example(rows=[[-1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
                   [-1.0, 0.0, 0.1, 0.2, 1.0, 2.0]])  # rows leave at different steps
    def test_stopped_paths_keep_trapping_time(self, rows):
        drawn_full, drawn_stopped = [], []
        full = track_front(self.stream(rows, drawn_full), NODES)
        stopped = track_front(self.stream(rows, drawn_stopped), NODES, radius=WINDOW)
        exits = [first_exit(path.positions, WINDOW) for path in full]
        length = len(rows[0]) if None in exits else max(exits) + 1
        assert len(drawn_stopped) == length
        assert len(drawn_full) == len(rows[0])
        for path, whole in zip(stopped, full):
            assert np.array_equal(path.times, whole.times[:length])
            assert np.array_equal(path.positions, whole.positions[:length], equal_nan=True)
            try:
                expected = trapping_time(whole, WINDOW)
            except FrontNotTransitedError as exc:
                with pytest.raises(FrontNotTransitedError) as got:
                    trapping_time(path, WINDOW)
                assert (got.value.entered, got.value.partial) == (exc.entered, exc.partial)
            else:
                assert trapping_time(path, WINDOW) == expected

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            track_front(iter([]), NODES, radius=0.0)


class TestFitPowerLaw:
    def test_exact_recovery_free_exponent(self):
        pairs = [(e, 3.0 * e**-0.5) for e in (0.1, 0.05, 0.025)]
        rep = fit_power_law(pairs)
        assert rep.C == pytest.approx(3.0, abs=1e-10)
        assert rep.p == pytest.approx(-0.5, abs=1e-10)
        assert np.max(np.abs(rep.residuals)) <= 1e-10
        assert rep.mode == "free"

    def test_exact_recovery_inverse_law(self):
        pairs = [(e, 2.0 / e) for e in (0.1, 0.05, 0.025)]
        rep = fit_power_law(pairs)
        assert rep.C == pytest.approx(2.0, abs=1e-10)
        assert rep.p == pytest.approx(-1.0, abs=1e-10)

    def test_fixed_exponent_mode(self):
        pairs = [(e, 3.0 * e**-0.5) for e in (0.1, 0.05, 0.025, 0.0125)]
        rep = fit_power_law(pairs, exponent=-0.5)
        assert rep.mode == "fixed"
        assert rep.p == -0.5
        assert rep.C == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(rep.residuals)) <= 1e-10

    def test_reports_sweep_epsilons(self):
        pairs = [(0.1, 3.0), (0.05, 4.0)]
        rep = fit_power_law(pairs)
        assert isinstance(rep, FitReport)
        assert tuple(rep.epsilons) == (0.1, 0.05)
        assert rep.residuals.shape == (2,)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 3.0)])

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 3.0), (-0.05, 4.0)])
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 3.0), (0.05, 0.0)])

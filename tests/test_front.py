"""Front location, window transits, trapping durations, power-law fitting."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import first_exit, read_whole, stored_positions
from fkfront.domain import Grid, step_initial_condition
from fkfront.front import fit_power_law, front_positions, window_transits


class TestLocateFront:
    """Hand cases of :func:`front_positions` on a single row."""

    def test_linear_interpolation_hand_case(self):
        g = Grid(L=0.4, n=3)  # nodes -0.4, 0, 0.4
        found = front_positions(np.array([[0.8, 0.8, 0.2]]), g.x)[0]
        assert found == pytest.approx(0.2, abs=1e-14)

    def test_default_step_crossing(self):
        g = Grid(L=100.0, n=501)
        u = step_initial_condition(g, -35.0)
        assert front_positions(u[np.newaxis], g.x)[0] == pytest.approx(-35.0, abs=1e-12)

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
        n = data.draw(st.integers(3, 300))
        u = np.array(data.draw(st.lists(st.lists(self.values, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)))
        # the rows as a Fortran-ordered copy, or as every other column of a
        # wider array whose other columns must not be read
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        if layout == "F":
            u = np.asfortranarray(u)
        elif layout == "strided":
            wide = np.empty((rows, 2 * n))
            wide[:, ::2], wide[:, 1::2] = u, 1.0 - u
            u = wide[:, ::2]
        grid = Grid(L=2.0, n=n)
        got = front_positions(u, grid.x)
        expected = [scalar_locate(row, grid.x, 0.5) for row in u]
        assert np.array_equal(got, expected, equal_nan=True)

    # Offsets from the level 1/2, of magnitude log-uniform in [1e-18, 1], so
    # that offsets lost to rounding (ties at the level) and tiny ones occur.
    tiny = st.tuples(st.floats(-18.0, 0.0), st.sampled_from([1.0, -1.0])).map(
        lambda p: p[1] * 10.0 ** p[0])
    signed = st.one_of(st.just(0.0), tiny)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_position_lies_in_its_cell(self, data):
        n = data.draw(st.integers(3, 9))
        u = 0.5 + np.array(data.draw(st.lists(st.lists(self.signed, min_size=n, max_size=n),
                                              min_size=1, max_size=4)))
        x = Grid(L=data.draw(st.floats(0.1, 1e3)), n=n).x
        sign = np.sign(u - 0.5)
        for row_sign, pos in zip(sign, front_positions(u, x)):
            cells = [i for i in range(n - 1) if row_sign[i] != row_sign[i + 1]]
            if not cells:
                assert math.isnan(pos)
            else:
                assert x[cells[-1]] <= pos <= x[cells[-1] + 1]

    def test_rejects_non_finite_row(self):
        u = np.array([[1.0, 0.5, 0.0], [1.0, np.inf, 0.0]])
        with pytest.raises(ValueError):
            front_positions(u, Grid(L=1.0, n=3).x)

    # before: 1.5, a position read off the first three of four nodes; and an
    # IndexError for a 2-D x
    @pytest.mark.parametrize("x", [np.arange(4.0), np.arange(3.0)[np.newaxis]])
    def test_rejects_nodes_not_matching_columns(self, x):
        u = np.array([[1.0, 0.5, 0.0]])
        with pytest.raises(ValueError, match=r"need nodes x of shape \(n,\)"):
            front_positions(u, x)
        with pytest.raises(ValueError, match=r"need nodes x of shape \(n,\)"):
            window_transits([(0.0, u)], x, WINDOW)

    # before: numpy's "attempt to get argmax of an empty sequence"
    def test_rejects_states_without_nodes(self):
        with pytest.raises(ValueError, match=r"at least one node, got shape \(2, 0\)"):
            front_positions(np.zeros((2, 0)), np.zeros(0))
        with pytest.raises(ValueError, match=r"at least one node, got shape \(1, 0\)"):
            window_transits([(0.0, np.zeros((1, 0)))], np.zeros(0), WINDOW)

    @pytest.mark.parametrize("value", [0.2, 0.5, 0.8])
    def test_one_node_has_no_crossing(self, value):
        assert math.isnan(front_positions(np.array([[value]]), np.zeros(1))[0])

    def test_rejects_one_dimensional_values(self):
        with pytest.raises(ValueError, match=r"values of shape \(B, n\)"):
            front_positions(np.array([1.0, 0.5, 0.0]), np.arange(3.0))

    # before: a state of shape (n,) was read as one row
    def test_window_transits_rejects_one_dimensional_state(self):
        with pytest.raises(ValueError, match=re.escape(
                "values of shape (B, n) need nodes x of shape (n,), got (3,) and (3,)")):
            window_transits([(0.0, np.array([1.0, 0.5, 0.0]))], np.arange(3.0), WINDOW)


WINDOW = 0.4


class TestTrackFront:
    """Front positions of a stored run, and stacked rows tracked alone."""

    def test_matches_per_snapshot_location(self, default_run, default_grid):
        x = default_grid.x
        positions = stored_positions(default_run, x)
        for k in (0, 5, 12):
            expected = scalar_locate(default_run[k][1][0], x, 0.5)
            assert positions[k] == pytest.approx(expected, abs=1e-14)

    def test_missing_front_marked_nan(self, default_run, default_grid):
        positions = stored_positions(default_run, default_grid.x)
        # the profile saturates to 1 everywhere late in the run: no crossing
        assert np.isnan(positions[-1])
        assert np.isfinite(positions[0])

    def test_stacked_rows_tracked_alone(self, default_run, default_grid):
        x = default_grid.x
        stacked = read_whole((t, np.concatenate([u, u[:, ::-1]])) for t, u in default_run)
        mirrored = ((t, u[:, ::-1]) for t, u in default_run)
        records, _ = window_transits(stacked, x, WINDOW)
        [alone], _ = window_transits(default_run, x, WINDOW)
        [mirror], _ = window_transits(mirrored, x, WINDOW)
        assert None not in alone and None not in mirror
        assert records == [alone, mirror]


def front_stream(times, rows, drawn=None, rising=(), send=False):
    """Nodes ``x`` and a ``(t, u)`` stream whose row ``b`` has its 1/2 front at
    exactly ``rows[b][k]`` in state ``k``, and none where that is NaN.

    Each position is a node at which its row is exactly 1/2, with 1 to the
    left and 0 to the right (0 and 1 for a row in ``rising``, whose last
    node is above 1/2), so :func:`front_positions` returns it bit for bit.
    The nodes are the positions, the ends ±1e3 and a grid of spacing 1/4
    over [-10, 10].
    ``drawn`` collects the index of every state drawn.  With ``send``, the
    stream is a generator and a request sent into it keeps only the rows it
    names, as :func:`fkfront.solver.march` does; otherwise it has no
    ``send`` (:func:`conftest.read_whole`) and keeps every row.
    """
    positions = [p for row in rows for p in row if not math.isnan(p)]
    x = np.unique(positions + list(np.linspace(-10.0, 10.0, 81)) + [-1e3, 1e3])

    def states():
        live = list(range(len(rows)))
        for k, t in enumerate(times):
            if drawn is not None:
                drawn.append(k)
            u = np.array([np.where(x < rows[b][k], 1.0, np.where(x == rows[b][k], 0.5, 0.0))
                          for b in live])
            flip = [j for j, b in enumerate(live) if b in rising]
            u[flip] = 1.0 - u[flip]
            keep = yield t, u
            if keep is not None:
                live = [live[j] for j in keep]

    return x, states() if send else read_whole(states())


def transit(times, positions, radius=WINDOW):
    """The ``(entry, exit, last)`` record of one front path."""
    x, stream = front_stream(times, [positions])
    [record], _ = window_transits(stream, x, radius)
    return record


def oracle(times, positions, radius):
    """The record of one row, restated on whole arrays, and the index of its
    exit state (:func:`conftest.first_exit`; None if it never leaves).

    Entry is at the first finite position inside the window, exit at the
    first finite one outside after it; each is interpolated on the segment
    from the finite position before it.  ``last`` is the time of the last
    finite position up to the exit.
    """
    t, x = np.asarray(times, dtype=float), np.asarray(positions, dtype=float)
    k_out = first_exit(x, radius)
    read = np.isfinite(x)
    if k_out is not None:
        read[k_out + 1:] = False
    last = float(t[read][-1]) if read.any() else None
    inside = read & (np.abs(x) < radius)
    if not inside.any():
        return (None, None, last), k_out

    def crossing(k, entering):
        j = np.nonzero(read[:k])[0][-1]  # the finite position before k
        b = math.copysign(radius, x[j] if entering else x[k])
        return float(t[j] + (b - x[j]) / (x[k] - x[j]) * (t[k] - t[j]))

    k_in = int(np.argmax(inside))
    entry = crossing(k_in, entering=True) if read[:k_in].any() else float(t[k_in])
    exit_ = None if k_out is None else crossing(k_out, entering=False)
    return (entry, exit_, last), k_out


outside_window = st.builds(lambda r, s: s * r, st.floats(WINDOW, 10.0), st.sampled_from([-1.0, 1.0]))
inside_window = st.floats(-WINDOW, WINDOW, exclude_min=True, exclude_max=True)
sample = st.one_of(st.just(math.nan), inside_window, outside_window)
streams = st.integers(1, 25).flatmap(
    lambda length: st.lists(st.lists(sample, min_size=length, max_size=length),
                            min_size=1, max_size=3))
nan = math.nan


class TestTrappingTime:
    def test_linear_path_hand_case(self):
        ts = np.arange(0.0, 20.0 + 1e-12, 0.5)
        entry, exit_, _ = transit(ts, -1.0 + 0.1 * ts)
        # enters |x|<0.4 at t=6, exits at t=14
        assert entry == pytest.approx(6.0, abs=1e-12)
        assert exit_ - entry == pytest.approx(8.0, abs=1e-12)

    def test_refinement_invariance_smooth_path(self):
        exact = math.sqrt(110.0) - math.sqrt(70.0)

        def duration(dt):
            ts = np.arange(0.0, 15.0 + 1e-12, dt)
            entry, exit_, _ = transit(ts, 0.02 * ts**2 - 1.8)
            return exit_ - entry

        assert abs(duration(0.01) - exact) <= 1e-5
        assert abs(duration(0.25) - duration(0.01)) <= 3e-3

    def test_default_run_duration(self, default_run, default_grid):
        [(entry, exit_, _)], _ = window_transits(default_run, default_grid.x, radius=0.4)
        assert 3.2 <= exit_ - entry <= 3.5

    def test_never_enters(self):
        ts = np.arange(0.0, 8.0 + 1e-12, 0.5)
        assert transit(ts, -10.0 + 0.1 * ts) == (None, None, 8.0)

    def test_enters_without_exiting(self):
        ts = np.arange(0.0, 8.0 + 1e-12, 0.5)
        entry, exit_, last = transit(ts, -1.0 + 0.1 * ts)
        assert exit_ is None
        assert last - entry == pytest.approx(2.0, abs=1e-9)

    def test_rejects_nonpositive_radius(self):
        for radius in (0.0, -WINDOW):
            with pytest.raises(ValueError, match="radius must be positive"):
                window_transits(iter([]), np.array([-1.0, 0.0, 1.0]), radius)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, radius):
        # a NaN radius would report every front as never entered
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            window_transits(iter([]), np.array([-1.0, 0.0, 1.0]), radius)

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
        x = before + during + after + tail
        t = t0 + np.cumsum(steps[: len(x)])
        shifted = t + shift
        entry, exit_, _ = transit(t, x)
        moved_entry, moved_exit, _ = transit(shifted, x)
        # each crossing time rounds a few times at the scale of the largest |t|
        scale = max(np.max(np.abs(t)), np.max(np.abs(shifted)))
        assert abs((moved_exit - moved_entry) - (exit_ - entry)) <= 1e-14 * scale

    # Each stream is read whole, without a send, with every row falling, and
    # through requests to drop rows, with rows 0 and 2 rising to the right
    # (their last node above the level).
    @pytest.mark.parametrize("send, rising", [(False, set()), (True, {0, 2})])
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
    # a middle row leaves first, then the last
    @example(rows=[[-1.0, 0.0, 0.1, 0.2, 0.3, 2.0], [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
                   [-1.0, 0.0, 0.1, 3.0, 4.0, 5.0]])
    @example(rows=[[-9.0, -3.0, 0.0, 9.0], [9.0, 0.1, -8.0, 0.2]])  # jumps past the cells read first
    @example(rows=[[-1.0, 0.0, nan, nan, -7.0, -0.1, 6.0]])  # vanishes, returns far away
    # the last node at the level: a front on the far wall
    @example(rows=[[-1.0, 0.0, 1e3, 1e3], [-1.0, -0.3, 0.0, 0.3]])
    def test_matches_first_exit_oracle(self, send, rising, rows):
        times = [0.1 * k for k in range(len(rows[0]))]
        drawn = []
        x, stream = front_stream(times, rows, drawn, rising, send)
        records, t_stop = window_transits(stream, x, WINDOW)
        expected = [oracle(times, row, WINDOW) for row in rows]
        exits = [k_out for _, k_out in expected]
        # drawing stops at the state in which the last front leaves
        length = len(times) if None in exits else max(exits) + 1
        assert drawn == list(range(length))
        assert t_stop == times[length - 1]
        assert records == [record for record, _ in expected]


class TestTrackFrontStop:
    def test_rejects_nonpositive_radius(self):
        # the radius is checked before the stream is touched: no state is drawn
        for radius in (0.0, -WINDOW):
            drawn = []
            x, stream = front_stream([0.0, 0.1], [[-1.0, 0.0]], drawn)
            with pytest.raises(ValueError, match="radius must be positive"):
                window_transits(stream, x, radius)
            assert drawn == []


class TestStreamContract:
    """A stream with a ``send`` drops the rows each request leaves out; one
    without is read whole.  Any other row count raises."""

    def states(self):
        # row 0 enters at once and leaves in state 1; the others stay inside
        x, stream = front_stream([0.0, 0.1, 0.2, 0.3], [[0.0, 1.0, 2.0, 3.0],
                                                        [0.0, 0.1, 0.2, 0.2],
                                                        [0.0, 0.1, 0.2, 0.2]])
        return x, list(stream)

    def test_request_is_sent_once_a_row_has_left(self):
        x, states = self.states()
        sent = []

        def stream():
            live = [0, 1, 2]
            for t, u in states:
                keep = yield t, u[live]
                sent.append(keep)
                if keep is not None:
                    live = [live[j] for j in keep]

        records, _ = window_transits(stream(), x, WINDOW)
        # by the rows' indices in the stream, and not again
        assert sent == [None, [1, 2], None, None]
        assert records == window_transits(iter(states), x, WINDOW)[0]

    def test_ignored_request_raises(self):
        x, states = self.states()

        def stream():
            for t, u in states:
                yield t, u

        with pytest.raises(ValueError, match=r"the state at t=0.2 has 3 rows, after a request "
                                             r"to keep 2$"):
            window_transits(stream(), x, WINDOW)

    def test_generator_expression_names_the_ignored_request(self):
        # a generator expression has a send, but keeps yielding every row
        x, states = self.states()
        with pytest.raises(ValueError, match=re.escape(
                "a stream with a send must drop the rows it is asked to drop, but the state "
                "at t=0.2 has 3 rows, after a request to keep 2")):
            window_transits((state for state in states), x, WINDOW)

    def test_stream_without_send_that_drops_a_row_raises(self):
        x, states = self.states()
        with pytest.raises(ValueError, match=r"the state at t=0.1 has 2 rows, after 3$"):
            window_transits(iter([states[0], (0.1, states[1][1][1:])]), x, WINDOW)


class TestFitPowerLaw:
    def test_exact_recovery_free_exponent(self):
        pairs = [(e, 3.0 * e**-0.5) for e in (0.1, 0.05, 0.025)]
        rep = fit_power_law(pairs)
        assert rep["C"] == pytest.approx(3.0, abs=1e-10)
        assert rep["p"] == pytest.approx(-0.5, abs=1e-10)
        assert np.max(np.abs(rep["residuals"])) <= 1e-10
        assert rep["mode"] == "free"

    def test_exact_recovery_inverse_law(self):
        pairs = [(e, 2.0 / e) for e in (0.1, 0.05, 0.025)]
        rep = fit_power_law(pairs)
        assert rep["C"] == pytest.approx(2.0, abs=1e-10)
        assert rep["p"] == pytest.approx(-1.0, abs=1e-10)

    def test_fixed_exponent_mode(self):
        pairs = [(e, 3.0 * e**-0.5) for e in (0.1, 0.05, 0.025, 0.0125)]
        rep = fit_power_law(pairs, exponent=-0.5)
        assert rep["mode"] == "fixed"
        assert rep["p"] == -0.5
        assert rep["C"] == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(rep["residuals"])) <= 1e-10

    def test_reports_sweep_epsilons(self):
        pairs = [(0.1, 3.0), (0.05, 4.0)]
        rep = fit_power_law(pairs)
        assert rep["epsilons"] == [0.1, 0.05]
        assert len(rep["residuals"]) == 2
        # JSON-ready: plain floats, not numpy scalars
        values = (rep["C"], rep["p"], *rep["residuals"], *rep["epsilons"])
        assert {type(v) for v in values} == {float}

    @pytest.mark.parametrize("pairs", [[(0.1, 3.0)], []], ids=["one", "none"])
    def test_needs_two_pairs(self, pairs):
        with pytest.raises(ValueError, match=re.escape(
                "need at least two (epsilon, duration) pairs")):
            fit_power_law(pairs)

    @pytest.mark.parametrize("other", [0.1, 0.10000000000000002])
    def test_free_fit_needs_two_distinct_epsilons(self, other):
        # before: polyfit warned and returned a minimum-norm line, p = -0.2698;
        # 0.10000000000000002 is another float with the same log as 0.1
        pairs = [(0.1, 3.0), (other, 4.0)]
        with pytest.raises(ValueError, match="at least two distinct epsilons"):
            fit_power_law(pairs)
        # a pinned exponent still fits C: the mean of log(duration) + log(epsilon)/2
        rep = fit_power_law(pairs, exponent=-0.5)
        assert rep["C"] == pytest.approx(math.sqrt(12.0 * 0.1), rel=1e-14)

    # Well conditioned: epsilon in [1e-3, 1] with log(epsilon) spread over at
    # least 1, durations in [e**-2, e**5].  Near the degenerate fit any two
    # least-squares solvers disagree, and |log C| scales the error of C.
    well_conditioned = st.lists(
        st.tuples(st.floats(-6.9, 0.0), st.floats(-2.0, 5.0)), min_size=2, max_size=8
    ).filter(lambda rows: max(r[0] for r in rows) - min(r[0] for r in rows) >= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(well_conditioned)
    def test_free_fit_matches_polyfit(self, logs):
        pairs = [(math.exp(z), math.exp(y)) for z, y in logs]
        rep = fit_power_law(pairs)
        z, y = np.log(np.array(pairs)).T
        p, log_c = np.polyfit(z, y, 1)
        assert rep["C"] == pytest.approx(math.exp(log_c), rel=1e-12, abs=0)
        assert rep["p"] == pytest.approx(p, rel=0, abs=1e-12)
        assert rep["residuals"] == pytest.approx(y - (log_c + p * z), rel=0, abs=1e-12)

    @pytest.mark.parametrize("pairs", [[0.1, 0.05], [(0.1, 3.0, 1.0), (0.05, 4.0, 1.0)]],
                             ids=["flat", "triples"])
    def test_rejects_pairs_not_of_shape_k_by_2(self, pairs):
        with pytest.raises(ValueError, match=re.escape(
                "pairs must be a sequence of (epsilon, duration) tuples")):
            fit_power_law(pairs)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 3.0), (-0.05, 4.0)])
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 3.0), (0.05, 0.0)])

    @pytest.mark.parametrize("pair", [(0.05, math.nan), (0.05, math.inf), (math.inf, 4.0),
                                      (math.nan, 4.0)])
    def test_rejects_non_finite_data(self, pair):
        # unchecked, a NaN or infinite duration makes the fit all NaN, and an
        # infinite epsilon makes log(epsilon) infinite, so the free slope is NaN
        with pytest.raises(ValueError, match="strictly positive and finite"):
            fit_power_law([(0.1, 3.0), pair])

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, exponent):
        # before: exponent=nan returned C = p = nan
        with pytest.raises(ValueError, match=f"exponent must be finite, got {exponent}"):
            fit_power_law([(0.1, 3.0), (0.05, 4.0)], exponent=exponent)

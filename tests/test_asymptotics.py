"""Reduced drift model, logarithmic-coordinate front laws, tail algebra."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkfront.asymptotics import sfa_evolve, sfa_residual, stationary_roots
from fkfront.domain import Field, Grid, logistic_reaction, make_quadratic_diffusion


def sigmoid_snapshot(steepness: float, center: float, n: int = 20001, L: float = 10.0):
    g = Grid(L=L, n=n)
    u = 1.0 / (1.0 + np.exp(np.clip(steepness * (g.x - center), -500, 500)))
    return Field(g, u, 0.0)


def interpolant(snap: Field, x):
    """The frozen field at ``x``: :func:`sfa_evolve` with no elapsed time."""
    return sfa_evolve(snap, x, snap.time)


class TestSnapshot:
    """The interpolant that :func:`sfa_evolve` transports."""

    def test_interpolates_nodes(self):
        g = Grid(L=1.0, n=5)
        snap = Field(g, np.array([1.0, 0.8, 0.5, 0.2, 0.0]), 0.0)
        assert interpolant(snap, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert interpolant(snap, 0.25) == pytest.approx(0.35, abs=1e-14)

    def test_clamps_outside_domain(self):
        g = Grid(L=1.0, n=5)
        snap = Field(g, np.array([1.0, 0.8, 0.5, 0.2, 0.0]), 0.0)
        assert interpolant(snap, 5.0) == 0.0
        assert interpolant(snap, -5.0) == 1.0


    def test_stays_between_the_values_of_its_cell(self):
        # np.interp alone gives 0.09999999999999998 just left of the node at 0,
        # below both ends of that cell, and then 0.1 at the node
        g = Grid(L=0.1, n=3)
        snap = Field(g, np.array([0.7, 0.1, 0.1]), 0.0)
        assert np.array_equal(interpolant(snap, np.array([-5e-324, 0.0])), [0.1, 0.1])
        # and -5e-324 here, below the unit interval
        snap = Field(Grid(L=1.8, n=3), np.array([1.0, 5e-324, 0.0]), 0.0)
        assert interpolant(snap, 1.5) == 0.0


class TestSfaEvolve:
    def test_uniform_half_after_log_two(self):
        g = Grid(L=10.0, n=101)
        snap = Field(g, np.full(101, 0.5), 0.0)
        assert sfa_evolve(snap, 0.0, math.log(2.0)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_fixed_points_preserved(self):
        g = Grid(L=10.0, n=101)
        for value in (0.0, 1.0):
            snap = Field(g, np.full(101, value), 0.0)
            assert sfa_evolve(snap, 1.3, 0.7) == value

    def test_zero_elapsed_time_is_identity(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        g = snap.grid
        assert np.array_equal(np.asarray(sfa_evolve(snap, g.x, 0.0)), snap.values)
        xs = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(sfa_evolve(snap, xs, 0.0), np.interp(xs, g.x, snap.values),
                           rtol=0.0, atol=1e-15)

    def test_range_and_monotonicity_preserved(self):
        snap = sigmoid_snapshot(2.5, -1.0)
        xs = np.linspace(-8.0, 8.0, 401)
        out = np.asarray(sfa_evolve(snap, xs, 0.8))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) <= 1e-12)

    def test_semigroup_within_interpolation_error(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        g = snap.grid
        mid = Field(g, np.asarray(sfa_evolve(snap, g.x, 0.25)), 0.25)
        xs = np.linspace(-2.0, 2.0, 101)
        direct = np.asarray(sfa_evolve(snap, xs, 0.6))
        stepped = np.asarray(sfa_evolve(mid, xs, 0.6))
        assert np.max(np.abs(direct - stepped)) <= 1e-10 + g.dx**2

    def test_rejects_backward_time(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError):
            sfa_evolve(snap, 0.0, -0.1)

    def test_rejects_nan_time_and_accepts_infinite_time(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError, match="cannot evolve backwards"):
            sfa_evolve(snap, snap.grid.x, math.nan)
        # every foot lies off the grid and the logistic flow reaches 1
        assert np.array_equal(np.asarray(sfa_evolve(snap, snap.grid.x, math.inf)),
                              np.ones(snap.grid.n))

    @settings(max_examples=300, deadline=None)
    @given(
        profile=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=40),
        L=st.floats(1e-3, 1e3),
        t0=st.floats(0.0, 100.0),
        elapsed=st.floats(0.0, 1e6),
        extra=st.lists(st.floats(-1.5, 1.5), max_size=20),
    )
    def test_monotone_profiles_stay_monotone_in_unit_interval(self, profile, L, t0, elapsed,
                                                             extra):
        grid = Grid(L=L, n=len(profile))
        u = np.sort(profile)[::-1]
        xs = np.sort(np.concatenate([grid.x, L * np.array(extra)]))
        t = t0 + elapsed
        out = np.asarray(sfa_evolve(Field(grid, u, t0), xs, t))
        assert np.all((out >= 0.0) & (out <= 1.0))
        # non-increasing up to the rounding of the logistic map: a few units
        # in the last place, relative, or one subnormal step near zero
        tol = 4.0 * np.finfo(float).eps * out[1:] + np.nextafter(0.0, 1.0)
        assert np.all(np.diff(out) <= tol)
        for value in (0.0, 1.0):
            flat = Field(grid, np.full(grid.n, value), t0)
            assert np.all(np.asarray(sfa_evolve(flat, xs, t)) == value)


# Drifts of the far field on the entry side, at the origin, on the exit side.
DRIFTS = (-1.0, 0.0, 1.0)


@st.composite
def speeds_and_drifts(draw):
    """A drift ``s`` in [-1, 1] and a finite speed ``c``, often near ``s - 2``."""
    s = draw(st.floats(-1.0, 1.0))
    c = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-6, 1e-6).map(lambda d: s - 2.0 + d),
    ))
    return c, s


class TestStationaryRoots:
    def test_hand_case_minus_branch(self):
        (r1, r2), kind = stationary_roots(1.5, -1.0)
        assert sorted((r1.real, r2.real)) == pytest.approx([0.5, 2.0], abs=1e-12)
        assert kind == "real_distinct"

    def test_double_roots_at_unit(self):
        for c, s in ((3.0, 1.0), (1.0, -1.0)):
            (r1, r2), kind = stationary_roots(c, s)
            assert kind == "real_double"
            assert r1 == pytest.approx(1.0, abs=1e-14)
            assert r2 == pytest.approx(1.0, abs=1e-14)

    def test_double_root_minus_one_at_the_pulled_speed(self):
        # the front moves right at -c: speeds 3, 2 and 1 in xi
        for s in DRIFTS:
            assert stationary_roots(s - 2.0, s) == ((-1.0, -1.0), "real_double")

    def test_vieta_relations_random_speeds(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(-6.0, 6.0, 1000):
            for s in DRIFTS:
                (r1, r2), _ = stationary_roots(float(c), s)
                assert abs(r1 * r2 - 1.0) <= 1e-12
                assert abs(r1 + r2 - (c - s)) <= 1e-12

    def test_classification_flips(self):
        d = 1e-12
        kinds = [stationary_roots(-1.0 + e, 1.0)[1] for e in (-d, 0.0, d)]
        assert kinds == ["real_distinct", "real_double", "complex"]
        kinds = [stationary_roots(1.0 + e, -1.0)[1] for e in (-d, 0.0, d)]
        assert kinds == ["complex", "real_double", "real_distinct"]

    def test_complex_roots_are_conjugate(self):
        (r1, r2), kind = stationary_roots(0.0, 1.0)
        assert kind == "complex"
        assert r1 == r2.conjugate()
        assert r1.imag > 0.0

    def test_monotone_tail_range_is_closed(self):
        # the exit side: monotone below c = -1 and at it, not above
        for c, monotone in ((-1.5, True), (-1.0, True), (-0.5, False)):
            (r1, r2), _ = stationary_roots(c, 1.0)
            assert (r1.imag == r2.imag == 0.0 and r1.real < 0.0 and r2.real < 0.0) == monotone
        # the entry side: positive roots at c = 1.5, the monotone range is c <= -3
        (r1, r2), _ = stationary_roots(1.5, -1.0)
        assert r1.real > 0.0 and r2.real > 0.0
        (r1, r2), _ = stationary_roots(-3.5, -1.0)
        assert r1.real < 0.0 and r2.real < 0.0

    @settings(max_examples=500, deadline=None)
    @given(speeds_and_drifts())
    def test_roots_real_and_negative_iff_c_at_most_s_minus_2(self, case):
        c, s = case
        # c - s rounds: within a few ulps of -2 either answer is allowed
        assume(abs((c - s) + 2.0) > 4.0 * np.finfo(float).eps * (abs(c) + 2.0))
        (r1, r2), kind = stationary_roots(c, s)
        real_negative = kind != "complex" and r1.real < 0.0 and r2.real < 0.0
        assert real_negative == (c <= s - 2.0)
        if kind == "complex":
            assert r1 == r2.conjugate() and r1.imag > 0.0
        else:
            assert r1.imag == r2.imag == 0.0 and r1.real >= r2.real

    @pytest.mark.parametrize("c, s", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 1.0),
                                      (0.0, math.nan), (0.0, 1.0 + 1e-15), (0.0, -1.5)])
    def test_rejects_non_finite_speed_and_drift_outside_unit_interval(self, c, s):
        with pytest.raises(ValueError):
            stationary_roots(c, s)


class TestSfaResidual:
    def test_residual_small_on_smooth_snapshot(self):
        snap = sigmoid_snapshot(4.0, -3.0)
        residual, ratio = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            0.3,
            np.linspace(-2.0, -0.5, 7),
            space_step=1e-2,
        )
        assert np.max(np.abs(residual)) <= 2e-2

    def test_validity_ratio_power_law_tail(self):
        g = Grid(L=50.0, n=100001)
        lam = 0.05
        u = np.power(np.maximum(np.abs(g.x), 1e-9), -lam)
        snap = Field(g, u, 0.0)
        residual, ratio = sfa_residual(
            snap,
            make_quadratic_diffusion(1e-8),
            logistic_reaction,
            0.001,
            np.array([-10.0]),
            space_step=1e-3,
            time_step=1e-3,
        )
        # |a u_xx| / |a' u_x| for u = |x|^-lam tends to (lam + 1) / 2
        assert ratio[0] == pytest.approx(0.525, abs=1e-3)

    def test_validity_ratio_large_at_steep_profile(self):
        snap = sigmoid_snapshot(400.0, -3.0)
        residual, ratio = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            0.001,
            np.array([-3.0]),
            space_step=1e-4,
            time_step=1e-4,
        )
        assert ratio[0] > 10.0

    def test_rejects_stencil_behind_snapshot(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError):
            sfa_residual(
                snap,
                make_quadratic_diffusion(0.1),
                logistic_reaction,
                0.005,
                np.array([-2.0]),
                space_step=1e-2,
            )

    def test_accepts_stencil_starting_at_snapshot_up_to_rounding(self):
        g = Grid(L=10.0, n=2001)
        u = 1.0 / (1.0 + np.exp(3.0 * (g.x + 2.0)))
        snap = Field(g, u, 1.0)
        t = 1.0 + 0.001
        assert t - 0.001 < 1.0  # the stencil's lower end rounds behind the snapshot
        residual, ratio = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            t,
            np.array([-2.0]),
            space_step=1e-2,
            time_step=0.001,
        )
        assert np.all(np.isfinite(residual))
        assert np.all(np.isfinite(ratio))

    def test_rejects_nonpositive_steps(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError):
            sfa_residual(
                snap, make_quadratic_diffusion(0.1), logistic_reaction, 0.5,
                np.array([-2.0]), space_step=0.0,
            )
        with pytest.raises(ValueError):
            sfa_residual(
                snap, make_quadratic_diffusion(0.1), logistic_reaction, 0.5,
                np.array([-2.0]), space_step=1e-2, time_step=-1e-3,
            )

    @pytest.mark.parametrize("steps", [{"space_step": math.nan}, {"space_step": math.inf},
                                       {"space_step": 1e-2, "time_step": math.nan},
                                       {"space_step": 1e-2, "time_step": math.inf}])
    def test_rejects_non_finite_steps(self, steps):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            sfa_residual(snap, make_quadratic_diffusion(0.1), logistic_reaction, 0.5,
                         np.array([-2.0]), **steps)

"""Reduced drift model, logarithmic-coordinate front laws, tail algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkfront.asymptotics import (
    TwcBranch,
    sfa_evolve,
    sfa_residual,
    stationary_roots,
    tail_exponents,
)
from fkfront.domain import Field, Grid, logistic_reaction, make_quadratic_diffusion
from fkfront.wkb import Branch, outer_characteristic


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


class TestCharacteristics:
    """``wkb.outer_characteristic`` on the plus branch: a path of constant speed
    ``c = 2 Htilde`` in the coordinate ``ln|x| + c t``, at ``Htilde = 1`` the
    drift model's characteristic."""

    def test_contracting_characteristic(self):
        assert outer_characteristic(-35.0, math.log(2.0) / 2.0, 1.0, Branch.PLUS) == (
            pytest.approx(-17.5, abs=1e-12)
        )

    def test_front_path_in_log_coordinate(self):
        assert outer_characteristic(-35.0, 1.0, 1.0, Branch.PLUS) == pytest.approx(
            -35.0 * math.exp(-2.0), abs=1e-12
        )

    def test_front_path_shift_invariance(self):
        # the path depends on the elapsed time only: 3.5 - 2.0 = 1.5 - 0.0
        a = outer_characteristic(-7.0, 3.5 - 2.0, 0.6, Branch.PLUS)
        b = outer_characteristic(-7.0, 1.5 - 0.0, 0.6, Branch.PLUS)
        assert a == pytest.approx(b, rel=1e-14)


class TestStationaryRoots:
    def test_hand_case_minus_branch(self):
        pair = stationary_roots(1.5, TwcBranch.MINUS)
        roots = sorted(r.real for r in pair.roots)
        assert roots == pytest.approx([0.5, 2.0], abs=1e-12)
        assert pair.kind == "real_distinct"

    def test_double_roots_at_unit(self):
        for c, branch in ((3.0, TwcBranch.PLUS), (1.0, TwcBranch.MINUS)):
            pair = stationary_roots(c, branch)
            assert pair.kind == "real_double"
            assert pair.roots[0] == pytest.approx(1.0, abs=1e-14)
            assert pair.roots[1] == pytest.approx(1.0, abs=1e-14)

    def test_vieta_relations_random_speeds(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(-6.0, 6.0, 1000):
            for branch in (TwcBranch.PLUS, TwcBranch.MINUS):
                pair = stationary_roots(float(c), branch)
                beta = c - 1.0 if branch is TwcBranch.PLUS else c + 1.0
                r1, r2 = pair.roots
                assert abs(r1 * r2 - 1.0) <= 1e-12
                assert abs(r1 + r2 - beta) <= 1e-12

    def test_classification_flips(self):
        d = 1e-12
        kinds = [stationary_roots(-1.0 + s, TwcBranch.PLUS).kind for s in (-d, 0.0, d)]
        assert kinds == ["real_distinct", "real_double", "complex"]
        kinds = [stationary_roots(1.0 + s, TwcBranch.MINUS).kind for s in (-d, 0.0, d)]
        assert kinds == ["complex", "real_double", "real_distinct"]

    def test_complex_roots_are_conjugate(self):
        pair = stationary_roots(0.0, TwcBranch.PLUS)
        assert pair.kind == "complex"
        assert pair.roots[0] == pair.roots[1].conjugate()

    def test_non_oscillatory_range_is_strict(self):
        assert stationary_roots(-1.5, TwcBranch.PLUS).non_oscillatory is True
        assert stationary_roots(-1.0, TwcBranch.PLUS).non_oscillatory is False
        assert stationary_roots(1.5, TwcBranch.MINUS).non_oscillatory is True
        assert stationary_roots(1.0, TwcBranch.MINUS).non_oscillatory is False

    def test_accepts_branch_names(self):
        assert stationary_roots(1.5, "minus").kind == "real_distinct"
        with pytest.raises(ValueError):
            stationary_roots(1.5, "sideways")


class TestTailExponents:
    def test_double_root_at_threshold(self):
        assert tail_exponents(0.75) == (-0.5, -0.5)

    def test_known_values(self):
        assert tail_exponents(1.0) == pytest.approx((0.0, -1.0), abs=1e-14)
        assert tail_exponents(3.0) == pytest.approx((1.0, -2.0), abs=1e-14)

    def test_exponents_sum_to_minus_one(self):
        rng = np.random.default_rng(5)
        for c_bar in rng.uniform(0.75, 10.0, 200):
            mu1, mu2 = tail_exponents(float(c_bar))
            assert mu1 + mu2 == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_subthreshold(self):
        with pytest.raises(ValueError):
            tail_exponents(0.7)


class TestSfaResidual:
    def test_residual_small_on_smooth_snapshot(self):
        snap = sigmoid_snapshot(4.0, -3.0)
        rep = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            0.3,
            np.linspace(-2.0, -0.5, 7),
            space_step=1e-2,
        )
        assert np.max(np.abs(rep.residual)) <= 2e-2

    def test_validity_ratio_power_law_tail(self):
        g = Grid(L=50.0, n=100001)
        lam = 0.05
        u = np.power(np.maximum(np.abs(g.x), 1e-9), -lam)
        snap = Field(g, u, 0.0)
        rep = sfa_residual(
            snap,
            make_quadratic_diffusion(1e-8),
            logistic_reaction,
            0.001,
            np.array([-10.0]),
            space_step=1e-3,
            time_step=1e-3,
        )
        # |a u_xx| / |a' u_x| for u = |x|^-lam tends to (lam + 1) / 2
        assert rep.validity_ratio[0] == pytest.approx(0.525, abs=1e-3)

    def test_validity_ratio_large_at_steep_profile(self):
        snap = sigmoid_snapshot(400.0, -3.0)
        rep = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            0.001,
            np.array([-3.0]),
            space_step=1e-4,
            time_step=1e-4,
        )
        assert rep.validity_ratio[0] > 10.0

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
        rep = sfa_residual(
            snap,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            t,
            np.array([-2.0]),
            space_step=1e-2,
            time_step=0.001,
        )
        assert np.all(np.isfinite(rep.residual))
        assert np.all(np.isfinite(rep.validity_ratio))

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

"""Reduced drift model, logarithmic-coordinate front laws, tail algebra."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fkfront.asymptotics import sfa_evolve, sfa_residual, stationary_roots
from fkfront.domain import Grid


def sigmoid_snapshot(steepness: float, center: float, n: int = 20001, L: float = 10.0):
    """``(nodes, values)`` of a decreasing sigmoid on a uniform grid."""
    x = Grid(L=L, n=n).x
    return x, 1.0 / (1.0 + np.exp(np.clip(steepness * (x - center), -500, 500)))


def interpolant(nodes, values, x):
    """The snapshot at ``x``: :func:`sfa_evolve` with no elapsed time."""
    return sfa_evolve(nodes, values, x, 0.0)


class TestSnapshot:
    """The interpolant that :func:`sfa_evolve` transports."""

    def test_interpolates_nodes(self):
        snap = Grid(L=1.0, n=5).x, np.array([1.0, 0.8, 0.5, 0.2, 0.0])
        assert interpolant(*snap, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert interpolant(*snap, 0.25) == pytest.approx(0.35, abs=1e-14)

    def test_clamps_outside_domain(self):
        snap = Grid(L=1.0, n=5).x, np.array([1.0, 0.8, 0.5, 0.2, 0.0])
        assert interpolant(*snap, 5.0) == 0.0
        assert interpolant(*snap, -5.0) == 1.0

    def test_stays_between_the_values_of_its_cell(self):
        # np.interp alone gives 0.09999999999999998 just left of the node at 0,
        # below both ends of that cell, and then 0.1 at the node
        snap = Grid(L=0.1, n=3).x, np.array([0.7, 0.1, 0.1])
        assert np.array_equal(interpolant(*snap, np.array([-5e-324, 0.0])), [0.1, 0.1])
        # and -5e-324 here, below the unit interval
        snap = Grid(L=1.8, n=3).x, np.array([1.0, 5e-324, 0.0])
        assert interpolant(*snap, 1.5) == 0.0

    def test_takes_plain_sequences(self):
        assert interpolant([-1.0, 0.0, 1.0], [1.0, 0.5, 0.0], 0.5) == 0.25


class TestSfaEvolve:
    def test_uniform_half_after_log_two(self):
        x = Grid(L=10.0, n=101).x
        assert sfa_evolve(x, np.full(101, 0.5), 0.0, math.log(2.0)) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_fixed_points_preserved(self):
        x = Grid(L=10.0, n=101).x
        for value in (0.0, 1.0):
            assert sfa_evolve(x, np.full(101, value), 1.3, 0.7) == value

    def test_zero_elapsed_time_is_identity(self):
        nodes, values = sigmoid_snapshot(3.0, -2.0)
        assert np.array_equal(np.asarray(sfa_evolve(nodes, values, nodes, 0.0)), values)
        xs = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(sfa_evolve(nodes, values, xs, 0.0), np.interp(xs, nodes, values),
                           rtol=0.0, atol=1e-15)

    def test_range_and_monotonicity_preserved(self):
        snap = sigmoid_snapshot(2.5, -1.0)
        xs = np.linspace(-8.0, 8.0, 401)
        out = np.asarray(sfa_evolve(*snap, xs, 0.8))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) <= 1e-12)

    def test_semigroup_within_interpolation_error(self):
        nodes, values = sigmoid_snapshot(3.0, -2.0)
        mid = np.asarray(sfa_evolve(nodes, values, nodes, 0.25))
        xs = np.linspace(-2.0, 2.0, 101)
        direct = np.asarray(sfa_evolve(nodes, values, xs, 0.6))
        stepped = np.asarray(sfa_evolve(nodes, mid, xs, 0.35))
        assert np.max(np.abs(direct - stepped)) <= 1e-10 + (nodes[1] - nodes[0]) ** 2

    @pytest.mark.parametrize("elapsed", [-0.1, -5e-324, -math.inf, math.nan])
    def test_rejects_negative_or_nan_elapsed_time(self, elapsed):
        snap = sigmoid_snapshot(3.0, -2.0)
        message = f"elapsed time must be non-negative, got {elapsed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sfa_evolve(*snap, 0.0, elapsed)

    def test_accepts_infinite_elapsed_time(self):
        nodes, values = sigmoid_snapshot(3.0, -2.0)
        # every foot lies off the grid and the logistic flow reaches 1
        assert np.array_equal(np.asarray(sfa_evolve(nodes, values, nodes, math.inf)),
                              np.ones(nodes.size))

    @pytest.mark.parametrize("nodes, values", [
        (Grid(L=1.0, n=5).x, np.zeros(4)),
        (Grid(L=1.0, n=5).x, np.zeros(6)),
        (Grid(L=1.0, n=5).x, np.zeros((1, 5))),
        (Grid(L=1.0, n=5).x, 0.5),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.array([0.0]), np.array([0.0])),
    ])
    def test_rejects_values_not_one_per_node(self, nodes, values):
        # without the check the interpolation indexes out of range or broadcasts
        with pytest.raises(ValueError, match="need one value per node, at least two nodes"):
            sfa_evolve(nodes, values, 0.0, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        profile=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=40),
        L=st.floats(1e-3, 1e3),
        elapsed=st.floats(0.0, 1e6),
        extra=st.lists(st.floats(-1.5, 1.5), max_size=20),
    )
    # adjacent doubles that u / (u + (1 - u) exp(-1)) rounded out of order
    @example(profile=[0.23310971660853463, 0.2331097166085346, 0.0], L=1.0, elapsed=1.0,
             extra=[])
    def test_monotone_profiles_stay_monotone_in_unit_interval(self, profile, L, elapsed,
                                                             extra):
        nodes = Grid(L=L, n=len(profile)).x
        u = np.sort(profile)[::-1]
        xs = np.sort(np.concatenate([nodes, L * np.array(extra)]))
        out = np.asarray(sfa_evolve(nodes, u, xs, elapsed))
        assert np.all((out >= 0.0) & (out <= 1.0))
        # non-increasing without tolerance: each correctly rounded operation
        # of the logistic map is monotone
        assert np.all(np.diff(out) <= 0.0)
        for value in (0.0, 1.0):
            flat = np.full(nodes.size, value)
            assert np.all(np.asarray(sfa_evolve(nodes, flat, xs, elapsed)) == value)


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


def tanh_front(x):
    """A smooth decreasing front centred at -2: ``(1 - tanh(x + 2)) / 2``."""
    return 0.5 * (1.0 - np.tanh(x + 2.0))


class TestSfaResidual:
    def test_residual_small_on_smooth_snapshot(self):
        snap = sigmoid_snapshot(4.0, -3.0)
        residual, ratio = sfa_residual(*snap, 0.1, 0.3, np.linspace(-2.0, -0.5, 7),
                                       space_step=1e-2)
        assert np.max(np.abs(residual)) <= 2e-2

    @pytest.mark.parametrize("epsilon", [1e-8, 1.0, 100.0])
    def test_residual_is_that_of_the_model_sfa_evolve_solves(self, epsilon):
        # u_t - 2 x u_x - u (1 - u): the floor enters only the curvature
        # ratio, and on a smooth front the residual is the stencils'
        # truncation error (without the drift term 2 x u_x it reads 1.5 to
        # 2.1 here)
        x = Grid(L=10.0, n=20001).x
        xs = np.array([-2.5, -2.0, -1.5])
        residual, ratio = sfa_residual(x, tanh_front(x), epsilon, 0.05, xs,
                                       space_step=1e-3, time_step=1e-3)
        reference, _ = sfa_residual(x, tanh_front(x), 0.1, 0.05, xs,
                                    space_step=1e-3, time_step=1e-3)
        assert np.array_equal(residual, reference)
        assert np.max(np.abs(residual)) <= 1e-4
        assert np.all(np.isfinite(ratio))

    def test_validity_ratio_is_curvature_over_drift(self):
        # at elapsed time 0+ the field is the snapshot: |a u_xx| / |2 x u_x|
        x = Grid(L=10.0, n=200001).x
        xs = np.array([-2.5, -1.5])
        _, ratio = sfa_residual(x, tanh_front(x), 0.3, 1e-6, xs, space_step=1e-3,
                                time_step=1e-6)
        th = np.tanh(xs + 2.0)
        u_x = -0.5 * (1.0 - th**2)
        u_xx = th * (1.0 - th**2)
        expected = np.abs((xs * xs + 0.3) * u_xx) / np.abs(2.0 * xs * u_x)
        assert np.allclose(ratio, expected, rtol=1e-3)

    def test_validity_ratio_power_law_tail(self):
        x = Grid(L=50.0, n=100001).x
        lam = 0.05
        u = np.power(np.maximum(np.abs(x), 1e-9), -lam)
        residual, ratio = sfa_residual(x, u, 1e-8, 0.001, np.array([-10.0]),
                                       space_step=1e-3, time_step=1e-3)
        # |a u_xx| / |a' u_x| for u = |x|^-lam tends to (lam + 1) / 2
        assert ratio[0] == pytest.approx(0.525, abs=1e-3)

    def test_validity_ratio_large_at_steep_profile(self):
        snap = sigmoid_snapshot(400.0, -3.0)
        residual, ratio = sfa_residual(*snap, 0.1, 0.001, np.array([-3.0]),
                                       space_step=1e-4, time_step=1e-4)
        assert ratio[0] > 10.0

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_floor_out_of_range(self, epsilon):
        message = f"diffusion floor must be finite and positive, got {epsilon}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sfa_residual(*sigmoid_snapshot(3.0, -2.0), epsilon, 0.5, np.array([-2.0]),
                         space_step=1e-2)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        # before: t = inf gave the residual 0 and the ratio nan, and t = nan
        # an error about the elapsed time
        with pytest.raises(ValueError, match=re.escape(f"t must be finite, got {t}")):
            sfa_residual(*sigmoid_snapshot(3.0, -2.0), 0.1, t, np.array([-2.0]),
                         space_step=1e-2)

    def test_rejects_stencil_behind_snapshot(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError, match="reaches before the snapshot; need t >= 0.01"):
            sfa_residual(*snap, 0.1, 0.005, np.array([-2.0]), space_step=1e-2)

    def test_accepts_stencil_starting_at_snapshot_up_to_rounding(self):
        snap = sigmoid_snapshot(3.0, -2.0, n=2001)
        t, ht = 0.3, 3 * 0.1
        assert 0.0 > t - ht >= -2.0 * math.ulp(t)  # the stencil's lower end rounds behind 0
        residual, ratio = sfa_residual(*snap, 0.1, t, np.array([-2.0]), space_step=1e-2,
                                       time_step=ht)
        assert np.all(np.isfinite(residual))
        assert np.all(np.isfinite(ratio))

    def test_rejects_stencil_beyond_the_slack(self):
        snap = sigmoid_snapshot(3.0, -2.0, n=2001)
        t = 0.3
        ht = t + 3.0 * math.ulp(t)
        with pytest.raises(ValueError, match="reaches before the snapshot"):
            sfa_residual(*snap, 0.1, t, np.array([-2.0]), space_step=1e-2, time_step=ht)

    def test_rejects_nonpositive_steps(self):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError):
            sfa_residual(*snap, 0.1, 0.5, np.array([-2.0]), space_step=0.0)
        with pytest.raises(ValueError):
            sfa_residual(*snap, 0.1, 0.5, np.array([-2.0]), space_step=1e-2, time_step=-1e-3)

    @pytest.mark.parametrize("steps", [{"space_step": math.nan}, {"space_step": math.inf},
                                       {"space_step": 1e-2, "time_step": math.nan},
                                       {"space_step": 1e-2, "time_step": math.inf}])
    def test_rejects_non_finite_steps(self, steps):
        snap = sigmoid_snapshot(3.0, -2.0)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            sfa_residual(*snap, 0.1, 0.5, np.array([-2.0]), **steps)

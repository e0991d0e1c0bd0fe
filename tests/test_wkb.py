"""Exponential-tail transport: labels, the ray oracle, the plane-wave phase."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkfront.domain import MAX_STEPS, x_of_xi, xi_of_x
from fkfront.wkb import Branch, characteristic_label, characteristic_steps, phase_along

from conftest import log_uniform

EPS = np.finfo(float).eps


RAY_FUNCTIONS = {
    "characteristic_label": lambda Htilde, epsilon: characteristic_label(
        0.3, 0.5, Htilde, epsilon, Branch.PLUS),
    "phase_along": lambda Htilde, epsilon: phase_along(0.3, 0.5, Htilde, epsilon, Branch.PLUS),
    "characteristic_steps": lambda Htilde, epsilon: next(characteristic_steps(
        0.3, Htilde, epsilon, Branch.PLUS, 0.5, 1e-2)),
}


class TestRayInputRule:
    """The three ray functions share one rule: ``Htilde`` finite and >= 0,
    ``epsilon`` finite and > 0."""

    @pytest.mark.parametrize("function", RAY_FUNCTIONS)
    @pytest.mark.parametrize("Htilde", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_htilde_out_of_range(self, function, Htilde):
        message = f"Htilde must be finite and non-negative, got {Htilde}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RAY_FUNCTIONS[function](Htilde, 0.1)

    @pytest.mark.parametrize("function", RAY_FUNCTIONS)
    @pytest.mark.parametrize("epsilon", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_epsilon_out_of_range(self, function, epsilon):
        # nan fails every comparison, so "<= 0" alone does not reject it
        message = f"diffusion floor must be finite and positive, got {epsilon}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RAY_FUNCTIONS[function](1.0, epsilon)

    @pytest.mark.parametrize("function", [characteristic_label, phase_along],
                             ids=lambda function: function.__name__)
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_exact_forms_reject_non_finite_time(self, function, t):
        # before: nan gave nan, and phase_along(1, inf, 0, 0.1, PLUS) gave -inf;
        # the oracle rejects a non-finite t_end already
        with pytest.raises(ValueError, match=re.escape(f"t must be finite, got {t}")):
            function(1.0, t, 0.0, 0.1, Branch.PLUS)

    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_zero_htilde_labels_the_stationary_ray(self, branch):
        # the `wkb` command writes these rays for `htilde = 0`
        eps = 0.01
        for x0 in (-2.0, -0.05, 0.0, 0.3):
            steps = characteristic_steps(x0, 0.0, eps, branch, 1.0, 1e-3)
            path = np.array(list(steps))
            assert np.all(path[:, 1] == x0)
            for t, x in path[::100]:
                assert characteristic_label(x, t, 0.0, eps, branch) == pytest.approx(
                    x0, rel=1e-12, abs=1e-12)
                assert phase_along(x, t, 0.0, eps, branch) == -t

    def test_branch_directions(self):
        assert Branch.PLUS.direction == 1
        assert Branch.MINUS.direction == -1


class TestCharacteristicLabel:
    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_identity_at_zero_time(self, branch):
        for x in (-1e8, -3.2, -1e-3, 0.0, 0.7, 1e8):
            label = characteristic_label(x, 0.0, 1.0, 0.1, branch)
            assert label == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_strictly_increasing_in_x(self):
        xs = np.linspace(-4.0, 4.0, 801)
        labels = np.array([characteristic_label(float(x), 0.7, 0.8, 0.05, Branch.MINUS)
                           for x in xs])
        assert np.all(np.diff(labels) > 0)

    def test_agrees_with_ray_integration(self):
        # start at x0 = 1, integrate the leftgoing ray, invert the label
        eps = 0.01
        steps = characteristic_steps(1.0, 1.0, eps, Branch.MINUS, 0.5, 1e-3)
        path = np.array(list(steps))
        label = characteristic_label(path[-1, 1], 0.5, 1.0, eps, Branch.MINUS)
        assert abs(label - 1.0) <= 1e-6

    def test_constant_along_integrated_paths(self):
        eps = 0.01
        for x0, Htilde, branch in ((-2.0, 1.0, Branch.PLUS), (0.5, 0.7, Branch.MINUS),
                                   (1.5, 1.3, Branch.PLUS)):
            path = np.array(list(characteristic_steps(x0, Htilde, eps, branch, 1.0, 1e-3)))
            drift = max(
                abs(characteristic_label(x, t, Htilde, eps, branch) - x0)
                for t, x in path[::100]
            )
            assert drift <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(
        x=log_uniform(-300.0, 300.0),
        negative=st.booleans(),
        epsilon=log_uniform(-300.0, 0.0),
        Htilde=log_uniform(-6.0, 6.0),
        t=log_uniform(-6.0, 6.0),
        branch=st.sampled_from(Branch),
    )
    def test_uniform_motion_in_xi(self, x, negative, epsilon, Htilde, t, branch):
        x = -x if negative else x
        assume(abs(x) / math.sqrt(epsilon) < 1e300)
        shift = branch.direction * 2.0 * Htilde * t
        xi0 = xi_of_x(x, epsilon) - shift
        assume(abs(xi0) < 690.0)  # the label stays a finite float
        got = xi_of_x(characteristic_label(x, t, Htilde, epsilon, branch), epsilon)
        assert abs(got - xi0) <= 4.0 * EPS * (1.0 + abs(xi0))

    @settings(max_examples=300, deadline=None)
    @given(
        x=log_uniform(-300.0, 300.0),
        negative=st.booleans(),
        epsilon=log_uniform(-300.0, 0.0),
        Htilde=log_uniform(-3.0, 3.0),
        t1=log_uniform(-6.0, 2.0),
        t2=log_uniform(-6.0, 2.0),
        branch=st.sampled_from(Branch),
    )
    def test_composes_over_time(self, x, negative, epsilon, Htilde, t1, t2, branch):
        # label(label(x, t1), t2) = label(x, t1 + t2), to the rounding of xi
        # carried into x by dx/dxi = sqrt(a(x))
        x = -x if negative else x
        assume(abs(x) / math.sqrt(epsilon) < 1e300)
        xi = xi_of_x(x, epsilon)
        assume(max(abs(xi - 2.0 * Htilde * s * (t1 + t2)) for s in (-1, 1)) < 690.0)
        ray_args = (Htilde, epsilon, branch)
        twice = characteristic_label(characteristic_label(x, t1, *ray_args), t2, *ray_args)
        once = characteristic_label(x, t1 + t2, *ray_args)
        rounding = 8.0 * EPS * (1.0 + abs(xi) + 2.0 * Htilde * (t1 + t2))
        assert abs(twice - once) <= rounding * math.hypot(once, math.sqrt(epsilon))


class TestCharacteristicSteps:
    def test_zero_rate_is_stationary(self):
        steps = characteristic_steps(-3.0, 0.0, 1.0, Branch.MINUS, 1.0, 1e-3)
        path = np.array(list(steps))
        assert np.all(path[:, 1] == -3.0)

    @pytest.mark.parametrize("branch, sign", [(Branch.PLUS, 1.0), (Branch.MINUS, -1.0)])
    @pytest.mark.parametrize("epsilon", [1e-4, 1.0, 1e4])
    def test_follows_uniform_motion_in_xi(self, branch, sign, epsilon):
        # the closed form x = x_of_xi(xi0 + s 2 Htilde t), to the RK4 error
        steps = characteristic_steps(-3.0, 0.7, epsilon, branch, 1.0, 1e-3)
        times, positions = np.array(list(steps)).T
        expected = x_of_xi(xi_of_x(-3.0, epsilon) + sign * 2.0 * 0.7 * times, epsilon)
        assert np.max(np.abs(positions - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_time_axis(self):
        steps = characteristic_steps(1.0, 1.0, 0.1, Branch.PLUS, 0.5, 1e-2)
        path = np.array(list(steps))
        assert path[0, 0] == 0.0
        assert path[-1, 0] == pytest.approx(0.5, abs=1e-12)
        assert path[0, 1] == 1.0

    def test_zero_horizon(self):
        steps = list(characteristic_steps(1.0, 1.0, 0.1, Branch.PLUS, 0.0, 1e-2))
        assert steps == [(0.0, 1.0)]

    @pytest.mark.parametrize("epsilon", [0.01, 7])
    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    @pytest.mark.parametrize("t_end", [0.0, 1e-9, 0.75])
    def test_yields_python_floats(self, epsilon, branch, t_end):
        steps = list(characteristic_steps(-0.8, 1.3, epsilon, branch, t_end, 1e-2))
        assert all(type(t) is float and type(x) is float for t, x in steps)

    def test_validation(self):
        for t_end, dt, Htilde in ((1.0, 0.0, 1.0), (-1.0, 1e-3, 1.0), (1.0, 1e-3, -0.5)):
            with pytest.raises(ValueError):
                next(characteristic_steps(1.0, Htilde, 0.1, Branch.PLUS, t_end, dt))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name, message", [
        ("x0", "x0 must be finite"),
        ("Htilde", "Htilde must be finite and non-negative"),
        ("epsilon", "diffusion floor must be finite and positive"),
        ("t_end", "t_end must be finite and non-negative"),
        ("dt", "dt must be finite and positive"),
    ])
    def test_rejects_non_finite_inputs(self, name, message, value):
        # before: an all-nan path for x0 or Htilde = nan, and OverflowError /
        # "cannot convert float NaN to integer" for t_end = inf / dt = nan
        kwargs = {"x0": 1.0, "Htilde": 1.0, "epsilon": 0.1,
                  "sign": Branch.PLUS, "t_end": 1.0, "dt": 1e-2, name: value}
        with pytest.raises(ValueError, match=message):
            next(characteristic_steps(**kwargs))

    def test_rejects_an_overflowing_step_count(self):
        # before: OverflowError "cannot convert float infinity to integer"
        steps = characteristic_steps(1.0, 1.0, 0.1, Branch.PLUS,
                                     1e300, 1e-10)
        with pytest.raises(ValueError, match="t_end / dt must be a finite step count"):
            next(steps)

    def test_rejects_more_steps_than_the_config_allows(self):
        message = f"t_end / dt must be at most {MAX_STEPS} steps, got t_end={1e15}, dt={1e-3}"
        steps = characteristic_steps(1.0, 1.0, 0.1, Branch.PLUS,
                                     1e15, 1e-3)
        with pytest.raises(ValueError, match=re.escape(message)):
            next(steps)

    def test_accepts_the_largest_step_count(self):
        steps = characteristic_steps(1.0, 1.0, 0.1, Branch.PLUS,
                                     0.5 * MAX_STEPS, 0.5)
        assert next(steps) == (0.0, 1.0)


class TestPhase:
    def test_zero_time_returns_initial_phase(self):
        # the consistent initial phase is s Htilde xi
        params = (0.8, 0.01, Branch.MINUS)  # Htilde, epsilon, sign
        for x in (-1.0, 0.2):
            phi0 = -0.8 * math.asinh(x / 0.1)
            assert phase_along(x, 0.0, *params) == pytest.approx(phi0, abs=1e-14)

    def test_affine_time_dependence(self):
        params = (1.4, 0.01, Branch.PLUS)  # Htilde, epsilon, sign
        x, t = -0.7, 0.6
        label = characteristic_label(x, t, *params)
        transported = phase_along(x, t, *params) - phase_along(label, 0.0, *params)
        assert transported == pytest.approx((1.4**2 - 1.0) * t, abs=1e-12)

    def test_unit_rate_transports_initial_phase(self):
        params = (1.0, 0.01, Branch.MINUS)  # Htilde, epsilon, sign
        label = characteristic_label(0.4, 0.9, *params)
        assert phase_along(0.4, 0.9, *params) == pytest.approx(
            phase_along(label, 0.0, *params), abs=1e-14
        )

    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_consistent_phase_slope_matches_ray_momentum(self, branch):
        params = (0.8, 0.04, branch)  # Htilde, epsilon, sign
        h = 1e-6
        for x0 in (-1.5, -0.2, 0.3, 2.0):
            rise = phase_along(x0 + h, 0.0, *params) - phase_along(x0 - h, 0.0, *params)
            slope = rise / (2 * h)
            expected = branch.direction * 0.8 / math.sqrt(x0**2 + 0.04)
            assert slope == pytest.approx(expected, rel=1e-8)

    def test_solves_leading_order_phase_equation(self):
        # residual of phi_t + a(x) phi_x^2 + 1 under central differences
        params = (0.8, 0.01, Branch.MINUS)  # Htilde, epsilon, sign

        def residual(h):
            worst = 0.0
            for x in (-1.0, -0.3, 0.2, 0.9):
                for t in (0.2, 0.5):
                    phi_t = (phase_along(x, t + h, *params) - phase_along(x, t - h, *params)) / (2 * h)
                    phi_x = (phase_along(x + h, t, *params) - phase_along(x - h, t, *params)) / (2 * h)
                    worst = max(worst, abs(phi_t + (x * x + 0.01) * phi_x**2 + 1.0))
            return worst

        assert residual(1e-2) <= 1e-3

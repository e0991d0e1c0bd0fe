"""Exponential-tail transport: labels, the ray oracle, the plane-wave phase."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkfront.domain import make_constant_diffusion, make_quadratic_diffusion, xi_of_x
from fkfront.wkb import (
    Branch,
    WkbParams,
    characteristic_label,
    integrate_characteristic,
    phase_along,
)

from conftest import log_uniform

EPS = np.finfo(float).eps


class TestWkbParams:
    @pytest.mark.parametrize("kwargs", [
        {"Htilde": 0.0, "epsilon": 0.1, "sign": Branch.PLUS},
        {"Htilde": -1.0, "epsilon": 0.1, "sign": Branch.PLUS},
        {"Htilde": 1.0, "epsilon": 0.0, "sign": Branch.MINUS},
        {"Htilde": 1.0, "epsilon": -0.5, "sign": Branch.MINUS},
    ])
    def test_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WkbParams(**kwargs)

    @pytest.mark.parametrize("field", ["Htilde", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        # nan fails every comparison, so "<= 0" alone does not reject it
        kwargs = {"Htilde": 1.0, "epsilon": 0.1, "sign": Branch.PLUS, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            WkbParams(**kwargs)

    def test_branch_directions(self):
        assert Branch.PLUS.direction == 1
        assert Branch.MINUS.direction == -1


class TestCharacteristicLabel:
    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_identity_at_zero_time(self, branch):
        params = WkbParams(Htilde=1.0, epsilon=0.1, sign=branch)
        for x in (-1e8, -3.2, -1e-3, 0.0, 0.7, 1e8):
            label = characteristic_label(x, 0.0, params)
            assert label == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_strictly_increasing_in_x(self):
        params = WkbParams(Htilde=0.8, epsilon=0.05, sign=Branch.MINUS)
        xs = np.linspace(-4.0, 4.0, 801)
        labels = np.array([characteristic_label(float(x), 0.7, params) for x in xs])
        assert np.all(np.diff(labels) > 0)

    def test_agrees_with_ray_integration(self):
        # start at x0 = 1, integrate the leftgoing ray, invert the label
        eps = 0.01
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.MINUS)
        path = integrate_characteristic(
            1.0, 1.0, make_quadratic_diffusion(eps), Branch.MINUS, 0.5, 1e-3
        )
        label = characteristic_label(float(path.positions[-1]), 0.5, params)
        assert abs(label - 1.0) <= 1e-6

    def test_constant_along_integrated_paths(self):
        eps = 0.01
        diffusion = make_quadratic_diffusion(eps)
        for x0, Htilde, branch in ((-2.0, 1.0, Branch.PLUS), (0.5, 0.7, Branch.MINUS),
                                   (1.5, 1.3, Branch.PLUS)):
            params = WkbParams(Htilde=Htilde, epsilon=eps, sign=branch)
            path = integrate_characteristic(x0, Htilde, diffusion, branch, 1.0, 1e-3)
            drift = max(
                abs(characteristic_label(float(x), float(t), params) - x0)
                for t, x in zip(path.times[::100], path.positions[::100])
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
        params = WkbParams(Htilde=Htilde, epsilon=epsilon, sign=branch)
        got = xi_of_x(characteristic_label(x, t, params), epsilon)
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
        params = WkbParams(Htilde=Htilde, epsilon=epsilon, sign=branch)
        twice = characteristic_label(characteristic_label(x, t1, params), t2, params)
        once = characteristic_label(x, t1 + t2, params)
        rounding = 8.0 * EPS * (1.0 + abs(xi) + 2.0 * Htilde * (t1 + t2))
        assert abs(twice - once) <= rounding * math.hypot(once, math.sqrt(epsilon))


class TestIntegrateCharacteristic:
    def test_zero_rate_is_stationary(self):
        path = integrate_characteristic(
            -3.0, 0.0, make_constant_diffusion(1.0), Branch.MINUS, 1.0, 1e-3
        )
        assert np.all(path.positions == -3.0)

    @pytest.mark.parametrize("branch, sign", [(Branch.PLUS, 1.0), (Branch.MINUS, -1.0)])
    def test_exact_on_uniform_diffusion(self, branch, sign):
        path = integrate_characteristic(
            -3.0, 0.7, make_constant_diffusion(1.0), branch, 1.0, 1e-3
        )
        expected = -3.0 + sign * 2.0 * 0.7 * path.times
        assert np.max(np.abs(path.positions - expected)) <= 1e-12

    def test_time_axis(self):
        path = integrate_characteristic(
            1.0, 1.0, make_quadratic_diffusion(0.1), Branch.PLUS, 0.5, 1e-2
        )
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(0.5, abs=1e-12)
        assert path.positions[0] == 1.0

    def test_zero_horizon(self):
        path = integrate_characteristic(
            1.0, 1.0, make_quadratic_diffusion(0.1), Branch.PLUS, 0.0, 1e-2
        )
        assert path.times.shape == (1,)
        assert path.positions[0] == 1.0

    def test_validation(self):
        d = make_quadratic_diffusion(0.1)
        with pytest.raises(ValueError):
            integrate_characteristic(1.0, 1.0, d, Branch.PLUS, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_characteristic(1.0, 1.0, d, Branch.PLUS, -1.0, 1e-3)
        with pytest.raises(ValueError):
            integrate_characteristic(1.0, -0.5, d, Branch.PLUS, 1.0, 1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name, message", [
        ("x0", "x0 must be finite"),
        ("Htilde", "Htilde must be finite and non-negative"),
        ("t_end", "t_end must be finite and non-negative"),
        ("dt", "dt must be finite and positive"),
    ])
    def test_rejects_non_finite_inputs(self, name, message, value):
        # before: an all-nan path for x0 or Htilde = nan, and OverflowError /
        # "cannot convert float NaN to integer" for t_end = inf / dt = nan
        kwargs = {"x0": 1.0, "Htilde": 1.0, "diffusion": make_quadratic_diffusion(0.1),
                  "sign": Branch.PLUS, "t_end": 1.0, "dt": 1e-2, name: value}
        with pytest.raises(ValueError, match=message):
            integrate_characteristic(**kwargs)


class TestPhase:
    def test_zero_time_returns_initial_phase(self):
        # the consistent initial phase is s Htilde xi
        params = WkbParams(Htilde=0.8, epsilon=0.01, sign=Branch.MINUS)
        for x in (-1.0, 0.2):
            phi0 = -0.8 * math.asinh(x / 0.1)
            assert phase_along(x, 0.0, params) == pytest.approx(phi0, abs=1e-14)

    def test_affine_time_dependence(self):
        params = WkbParams(Htilde=1.4, epsilon=0.01, sign=Branch.PLUS)
        x, t = -0.7, 0.6
        label = characteristic_label(x, t, params)
        transported = phase_along(x, t, params) - phase_along(label, 0.0, params)
        assert transported == pytest.approx((1.4**2 - 1.0) * t, abs=1e-12)

    def test_unit_rate_transports_initial_phase(self):
        params = WkbParams(Htilde=1.0, epsilon=0.01, sign=Branch.MINUS)
        label = characteristic_label(0.4, 0.9, params)
        assert phase_along(0.4, 0.9, params) == pytest.approx(
            phase_along(label, 0.0, params), abs=1e-14
        )

    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_consistent_phase_slope_matches_ray_momentum(self, branch):
        params = WkbParams(Htilde=0.8, epsilon=0.04, sign=branch)
        h = 1e-6
        for x0 in (-1.5, -0.2, 0.3, 2.0):
            slope = (phase_along(x0 + h, 0.0, params) - phase_along(x0 - h, 0.0, params)) / (2 * h)
            expected = branch.direction * 0.8 / math.sqrt(x0**2 + 0.04)
            assert slope == pytest.approx(expected, rel=1e-8)

    def test_solves_leading_order_phase_equation(self):
        # residual of phi_t + a(x) phi_x^2 + 1 under central differences
        params = WkbParams(Htilde=0.8, epsilon=0.01, sign=Branch.MINUS)

        def residual(h):
            worst = 0.0
            for x in (-1.0, -0.3, 0.2, 0.9):
                for t in (0.2, 0.5):
                    phi_t = (phase_along(x, t + h, params) - phase_along(x, t - h, params)) / (2 * h)
                    phi_x = (phase_along(x + h, t, params) - phase_along(x - h, t, params)) / (2 * h)
                    worst = max(worst, abs(phi_t + (x * x + 0.01) * phi_x**2 + 1.0))
            return worst

        assert residual(1e-2) <= 1e-3

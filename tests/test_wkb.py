"""Exponential-tail transport: labels, ray formulas, phase construction."""

import math

import numpy as np
import pytest

from fkfront.domain import make_constant_diffusion, make_quadratic_diffusion
from fkfront.wkb import (
    Branch,
    WkbParams,
    characteristic_label,
    consistent_initial_phase,
    inner_characteristic,
    integrate_characteristic,
    outer_characteristic,
    phase_along,
)


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


class TestOuterCharacteristic:
    def test_identity_at_zero_time(self):
        assert outer_characteristic(-10.0, 0.0, 1.0, Branch.PLUS) == -10.0
        assert outer_characteristic(3.0, 0.0, 0.5, Branch.MINUS) == 3.0

    def test_contracting_map_hand_case(self):
        got = outer_characteristic(-10.0, math.log(2.0) / 2.0, 1.0, Branch.PLUS)
        assert got == pytest.approx(-5.0, abs=1e-12)

    def test_sign_flip_is_time_reversal(self):
        for x0, t in ((-10.0, 0.3), (4.0, 1.2)):
            assert outer_characteristic(x0, t, 1.1, Branch.MINUS) == outer_characteristic(
                x0, -t, 1.1, Branch.PLUS
            )

    def test_zero_rate_is_stationary(self):
        assert outer_characteristic(-7.0, 5.0, 0.0, Branch.PLUS) == -7.0

    def test_inverts_label_far_from_origin(self):
        # left of the well the contracting map inverts the label formula
        eps = 0.01
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.PLUS)
        x = outer_characteristic(-10.0, 0.5, 1.0, Branch.PLUS)
        assert characteristic_label(x, 0.5, params) == pytest.approx(-10.0, rel=1e-3)


class TestInnerCharacteristic:
    def test_identity_at_zero_time(self):
        eps = 0.01
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.PLUS)
        for x0 in (-0.003, 0.001, 0.0):
            res = inner_characteristic(x0, 0.0, params)
            assert res.valid
            assert abs(res.position - x0) <= x0**2 / math.sqrt(eps) + 1e-15

    def test_negative_side_monotone_to_well_edge(self):
        eps = 0.01
        se = math.sqrt(eps)
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.PLUS)
        ts = np.linspace(0.0, 0.26, 14)
        positions = [inner_characteristic(-0.001, float(t), params) for t in ts]
        assert all(r.valid for r in positions)
        xs = [r.position for r in positions]
        assert all(b < a for a, b in zip(xs, xs[1:]))
        assert all(x >= -se - 1e-12 for x in xs)

    def test_well_edge_reached_at_vanishing_radicand(self):
        eps = 0.01
        se = math.sqrt(eps)
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.PLUS)
        lo, hi = 0.26, 0.32  # radicand changes sign in here for x0 = -0.001
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inner_characteristic(-0.001, mid, params).radicand >= 0:
                lo = mid
            else:
                hi = mid
        res = inner_characteristic(-0.001, lo, params)
        assert res.valid
        assert res.position == pytest.approx(-se, abs=1e-6)

    def test_invalid_beyond_validity_window(self):
        params = WkbParams(Htilde=1.0, epsilon=0.01, sign=Branch.PLUS)
        res = inner_characteristic(-0.001, 0.6, params)
        assert not res.valid
        assert res.radicand < 0
        assert math.isnan(res.position)

    def test_origin_start_follows_params_sign(self):
        params_r = WkbParams(Htilde=1.0, epsilon=0.01, sign=Branch.PLUS)
        params_l = WkbParams(Htilde=1.0, epsilon=0.01, sign=Branch.MINUS)
        assert inner_characteristic(0.0, 0.05, params_r).position > 0
        assert inner_characteristic(0.0, 0.05, params_l).position < 0

    def test_against_ray_integration(self):
        # the formula tracks the ray leaving the well on the side of x0
        eps = 0.01
        se = math.sqrt(eps)
        x0 = 0.01 * se
        params = WkbParams(Htilde=1.0, epsilon=eps, sign=Branch.PLUS)
        path = integrate_characteristic(
            x0, 1.0, make_quadratic_diffusion(eps), Branch.PLUS, 0.3, 1e-4
        )
        x_ref = float(path.positions[-1])
        res = inner_characteristic(x0, 0.3, params)
        assert abs(res.position - x_ref) <= x_ref**2 / se


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


class TestPhase:
    def test_zero_time_returns_initial_phase(self):
        params = WkbParams(Htilde=0.8, epsilon=0.01, sign=Branch.MINUS)
        phi0 = consistent_initial_phase(params)
        for x in (-1.0, 0.2):
            res = phase_along(x, 0.0, params, phi0)
            assert res.phi == pytest.approx(phi0(x), abs=1e-14)
            assert res.x0 == pytest.approx(x, abs=1e-12)

    def test_affine_time_dependence(self):
        params = WkbParams(Htilde=1.4, epsilon=0.01, sign=Branch.PLUS)
        phi0 = consistent_initial_phase(params)
        x, t = -0.7, 0.6
        res = phase_along(x, t, params, phi0)
        label = characteristic_label(x, t, params)
        assert res.phi - phi0(label) == pytest.approx((1.4**2 - 1.0) * t, abs=1e-12)
        assert res.x0 == pytest.approx(label, abs=1e-14)

    def test_unit_rate_transports_initial_phase(self):
        params = WkbParams(Htilde=1.0, epsilon=0.01, sign=Branch.MINUS)
        phi0 = consistent_initial_phase(params)
        res = phase_along(0.4, 0.9, params, phi0)
        assert res.phi == pytest.approx(phi0(res.x0), abs=1e-14)

    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_consistent_phase_slope_matches_ray_momentum(self, branch):
        params = WkbParams(Htilde=0.8, epsilon=0.04, sign=branch)
        phi0 = consistent_initial_phase(params)
        h = 1e-6
        for x0 in (-1.5, -0.2, 0.3, 2.0):
            slope = (phi0(x0 + h) - phi0(x0 - h)) / (2 * h)
            expected = branch.direction * 0.8 / math.sqrt(x0**2 + 0.04)
            assert slope == pytest.approx(expected, rel=1e-8)

    def test_solves_leading_order_phase_equation(self):
        # residual of phi_t + a(x) phi_x^2 + 1 under central differences
        params = WkbParams(Htilde=0.8, epsilon=0.01, sign=Branch.MINUS)
        phi0 = consistent_initial_phase(params)

        def residual(h):
            worst = 0.0
            for x in (-1.0, -0.3, 0.2, 0.9):
                for t in (0.2, 0.5):
                    phi_t = (
                        phase_along(x, t + h, params, phi0).phi
                        - phase_along(x, t - h, params, phi0).phi
                    ) / (2 * h)
                    phi_x = (
                        phase_along(x + h, t, params, phi0).phi
                        - phase_along(x - h, t, params, phi0).phi
                    ) / (2 * h)
                    worst = max(worst, abs(phi_t + (x * x + 0.01) * phi_x**2 + 1.0))
            return worst

        assert residual(1e-2) <= 1e-3

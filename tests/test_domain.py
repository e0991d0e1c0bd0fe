"""Domain primitives: diffusion coefficients, grids, initial data."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkfront.domain import (
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
    x_of_xi,
    xi_of_x,
)

from conftest import log_uniform

EPS = np.finfo(float).eps


class TestQuadraticDiffusion:
    def test_floor_at_origin(self):
        assert make_quadratic_diffusion(0.1)(0.0) == 0.1

    def test_values(self):
        a = make_quadratic_diffusion(0.1)
        assert a(1.0) == pytest.approx(1.1, abs=1e-15)
        assert a(-2.0) == pytest.approx(4.1, abs=1e-15)

    def test_vectorized(self):
        a = make_quadratic_diffusion(0.25)
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(a(x), x * x + 0.25)

    def test_positive_everywhere(self):
        a = make_quadratic_diffusion(1e-6)
        x = np.linspace(-100, 100, 1001)
        assert np.all(a(x) > 0)


class TestConstantDiffusion:
    def test_an_array_shaped_like_x(self):
        a = make_constant_diffusion(0.7)
        assert np.array_equal(a(np.array([-2.0, 0.0, 3.0])), [0.7, 0.7, 0.7])
        assert a(5.0).shape == ()
        assert a(5.0) == 0.7


class TestFloorCheck:
    """Both coefficients reject a floor or level that is not finite and positive."""

    @pytest.mark.parametrize("make", [make_quadratic_diffusion, make_constant_diffusion])
    @pytest.mark.parametrize("value", [0.0, -0.1, -math.inf, math.nan, math.inf])
    def test_rejects_floor_out_of_range(self, make, value):
        # nan fails every comparison, so "<= 0" alone does not reject it
        message = f"diffusion floor must be finite and positive, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make(value)


class TestStretchedCoordinate:
    """``xi = asinh(x / sqrt(epsilon))`` and its inverse ``x = sqrt(epsilon) sinh(xi)``."""

    # |x| and epsilon log-uniform over the normal floats, with |x|/sqrt(eps) finite
    magnitudes = log_uniform(-300.0, 300.0)
    floors = log_uniform(-300.0, 0.0)

    def test_hand_values(self):
        assert xi_of_x(0.0, 0.01) == 0.0
        assert x_of_xi(0.0, 0.01) == 0.0
        assert xi_of_x(0.1, 0.01) == pytest.approx(math.asinh(1.0), rel=1e-15)
        assert x_of_xi(math.log(2.0), 4.0) == pytest.approx(1.5, rel=1e-15)

    def test_arrays_match_scalars(self):
        x = np.array([-1e8, -3.0, 0.0, 1e-9, 2.5])
        xi = xi_of_x(x, 1e-6)
        assert xi.shape == x.shape
        assert list(xi) == [xi_of_x(float(v), 1e-6) for v in x]
        assert list(x_of_xi(xi, 1e-6)) == [x_of_xi(float(v), 1e-6) for v in xi]

    @settings(max_examples=500, deadline=None)
    @given(x=magnitudes, negative=st.booleans(), epsilon=floors)
    def test_round_trip(self, x, negative, epsilon):
        # sinh carries the rounding of xi into the relative error of x
        x = -x if negative else x
        assume(abs(x) / math.sqrt(epsilon) < 1e300)
        xi = xi_of_x(x, epsilon)
        assert abs(x_of_xi(xi, epsilon) - x) <= 4.0 * EPS * (1.0 + abs(xi)) * abs(x)

    @settings(max_examples=500, deadline=None)
    @given(x=magnitudes, epsilon=floors)
    def test_both_maps_are_odd(self, x, epsilon):
        assume(x / math.sqrt(epsilon) < 1e300)
        xi = xi_of_x(x, epsilon)
        assert xi_of_x(-x, epsilon) == -xi
        assert x_of_xi(-xi, epsilon) == -x_of_xi(xi, epsilon)


class TestLogisticReaction:
    def test_fixed_points(self):
        assert logistic_reaction(0.0) == 0.0
        assert logistic_reaction(1.0) == 0.0

    def test_midpoint_and_slope(self):
        assert logistic_reaction(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_vectorized(self):
        u = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.allclose(logistic_reaction(u), u * (1 - u), atol=1e-15)


class TestGrid:
    def test_default_spacing(self):
        g = Grid(L=100.0, n=501)
        assert g.dx == pytest.approx(0.4, abs=1e-15)
        assert g.dx == pytest.approx(2 * g.L / (g.n - 1), abs=1e-15)

    def test_node_coordinates(self):
        g = Grid(L=100.0, n=501)
        assert g.x[0] == -100.0
        assert g.x[-1] == 100.0
        assert g.x[250] == 0.0
        assert g.x.shape == (501,)

    def test_quadrature_weights_trapezoid(self):
        g = Grid(L=100.0, n=501)
        w = g.quadrature_weights
        assert w[0] == pytest.approx(g.dx / 2, abs=1e-15)
        assert w[-1] == pytest.approx(g.dx / 2, abs=1e-15)
        assert np.allclose(w[1:-1], g.dx, atol=1e-15)
        assert float(w.sum()) == pytest.approx(2 * g.L, rel=1e-13)

    def test_weights_integrate_constant_exactly(self):
        g = Grid(L=7.0, n=29)
        assert float(g.quadrature_weights @ np.ones(29)) == pytest.approx(14.0, rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Grid(L=0.0, n=11)
        with pytest.raises(ValueError):
            Grid(L=-5.0, n=11)
        with pytest.raises(ValueError):
            Grid(L=10.0, n=2)

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_rejects_non_finite_half_width(self, L):
        # an infinite L would give the nodes [nan ... inf]
        with pytest.raises(ValueError, match="half-width L must be finite and positive"):
            Grid(L=L, n=5)

    def test_rejects_half_width_whose_width_overflows(self):
        # L = 1e308 is finite, but dx = 2L/(n-1) would be inf
        with pytest.raises(ValueError, match=r"half-width L must be finite and positive \(2L"):
            Grid(L=1e308, n=3)
        assert Grid(L=8e307, n=3).dx == 8e307


class TestStepInitialCondition:
    def test_indicator_values(self):
        g = Grid(L=100.0, n=501)
        u = step_initial_condition(g, -35.0)
        assert u.shape == (501,) and u.dtype == np.float64
        assert set(np.unique(u)) == {0.0, 1.0}
        assert np.all(u[g.x <= -35.0] == 1.0)
        assert np.all(u[g.x > -35.0] == 0.0)

    def test_default_jump_sits_between_nodes(self):
        g = Grid(L=100.0, n=501)
        u = step_initial_condition(g, -35.0)
        i = int(np.searchsorted(g.x, -35.0))
        assert g.x[i - 1] == pytest.approx(-35.2, abs=1e-12)
        assert g.x[i] == pytest.approx(-34.8, abs=1e-12)
        assert u[i - 1] == 1.0
        assert u[i] == 0.0

    def test_jump_on_a_node_included_left(self):
        g = Grid(L=100.0, n=501)
        u = step_initial_condition(g, float(g.x[162]))
        assert u[162] == 1.0
        assert u[163] == 0.0

    def test_front_outside_domain_rejected(self):
        g = Grid(L=10.0, n=21)
        with pytest.raises(ValueError):
            step_initial_condition(g, -10.0)
        with pytest.raises(ValueError):
            step_initial_condition(g, 15.0)

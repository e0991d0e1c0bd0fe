"""Domain primitives: diffusion profiles, grids, fields, initial data."""

import math

import numpy as np
import pytest

from fkfront.domain import (
    DiffusionProfile,
    Field,
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
)


class TestQuadraticDiffusion:
    def test_floor_at_origin(self):
        assert make_quadratic_diffusion(0.1).a(0.0) == 0.1

    def test_values_and_slope(self):
        d = make_quadratic_diffusion(0.1)
        assert d.a(1.0) == pytest.approx(1.1, abs=1e-15)
        assert d.aprime(-2.0) == pytest.approx(-4.0, abs=1e-15)
        assert d.epsilon == 0.1

    def test_vectorized(self):
        d = make_quadratic_diffusion(0.25)
        x = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(d.a(x), x * x + 0.25, atol=1e-15)
        assert np.allclose(d.aprime(x), 2 * x, atol=1e-15)

    def test_positive_everywhere(self):
        d = make_quadratic_diffusion(1e-6)
        x = np.linspace(-100, 100, 1001)
        assert np.all(d.a(x) > 0)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_rejects_nonpositive_floor(self, eps):
        with pytest.raises(ValueError):
            make_quadratic_diffusion(eps)
        with pytest.raises(ValueError):
            DiffusionProfile(epsilon=eps, a=lambda x: x, aprime=lambda x: x)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_floor(self, eps):
        # nan fails every comparison, so "eps <= 0" alone does not reject it
        with pytest.raises(ValueError, match="diffusion floor must be finite and positive"):
            make_quadratic_diffusion(eps)
        with pytest.raises(ValueError, match="diffusion floor must be finite and positive"):
            make_constant_diffusion(eps)


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


class TestField:
    def test_holds_grid_values_time(self):
        g = Grid(L=1.0, n=5)
        f = Field(g, np.zeros(5), 1.5)
        assert f.time == 1.5
        assert f.values.shape == (5,)

    def test_rejects_length_mismatch(self):
        g = Grid(L=1.0, n=5)
        with pytest.raises(ValueError):
            Field(g, np.zeros(4), 0.0)


class TestStepInitialCondition:
    def test_indicator_values(self):
        g = Grid(L=100.0, n=501)
        f = step_initial_condition(g, -35.0)
        assert set(np.unique(f.values)) == {0.0, 1.0}
        assert np.all(f.values[g.x <= -35.0] == 1.0)
        assert np.all(f.values[g.x > -35.0] == 0.0)
        assert f.time == 0.0

    def test_default_jump_sits_between_nodes(self):
        g = Grid(L=100.0, n=501)
        f = step_initial_condition(g, -35.0)
        i = int(np.searchsorted(g.x, -35.0))
        assert g.x[i - 1] == pytest.approx(-35.2, abs=1e-12)
        assert g.x[i] == pytest.approx(-34.8, abs=1e-12)
        assert f.values[i - 1] == 1.0
        assert f.values[i] == 0.0

    def test_jump_on_a_node_included_left(self):
        g = Grid(L=100.0, n=501)
        f = step_initial_condition(g, float(g.x[162]))
        assert f.values[162] == 1.0
        assert f.values[163] == 0.0

    def test_front_outside_domain_rejected(self):
        g = Grid(L=10.0, n=21)
        with pytest.raises(ValueError):
            step_initial_condition(g, -10.0)
        with pytest.raises(ValueError):
            step_initial_condition(g, 15.0)

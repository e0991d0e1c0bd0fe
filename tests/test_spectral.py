"""Diffusion-operator spectrum and the logistic prediction of the domain mean."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import bits, dense_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkfront.domain import (
    Grid,
    make_constant_diffusion,
    make_quadratic_diffusion,
)
from fkfront.spectral import average_prediction, solve_eigenproblem
from fkfront.stencil import build_operator


def stacked(phis, m):
    """The eigenfunctions of modes ``0 .. m - 1`` as the rows of one array."""
    return np.stack([phis[k] for k in range(m)])


class TestSolveEigenproblem:
    def test_uniform_diffusion_oracle(self):
        # Neumann walls on [-10, 10]: lambda_n = -(n pi / 20)^2
        grid = Grid(L=10.0, n=201)
        vals, _ = solve_eigenproblem(make_constant_diffusion(1.0), grid, m=11)
        assert abs(vals[0]) <= 1e-10
        n = np.arange(1, 11)
        exact = -((n * math.pi / 20.0) ** 2)
        rel = np.abs(vals[1:] - exact) / np.abs(exact)
        assert np.max(rel) <= 1e-2

    def test_eigenvalues_descend(self, default_eigen):
        # high even/odd mode pairs of the symmetric profile are degenerate
        # below double precision, so only non-strict ordering can hold overall
        vals, phis = default_eigen
        assert np.all(np.diff(vals) <= 0)
        assert np.all(np.diff(vals[:8]) < 0)
        assert vals.shape == (64,)
        assert list(phis) == list(range(64))
        assert all(phi.shape == (501,) for phi in phis.values())

    def test_ground_mode_is_positive_constant(self, default_eigen):
        vals, phis = default_eigen
        assert abs(vals[0]) <= 1e-10
        assert np.max(np.abs(phis[0] - math.sqrt(1.0 / 200.0))) <= 1e-8

    def test_orthonormal_under_quadrature(self, default_grid, default_eigen):
        w = default_grid.quadrature_weights
        funcs = stacked(default_eigen[1], 64)
        gram = funcs @ (w[:, None] * funcs.T)
        defect = np.max(np.abs(gram - np.eye(64)))
        assert defect <= 1e-12

    def test_rayleigh_identity(self, default_grid, default_diffusion, default_eigen):
        # lambda_n <phi_n, phi_n> equals the (negative) weighted Dirichlet form
        vals, phis = default_eigen
        w = default_grid.quadrature_weights
        dx = default_grid.dx
        a_half = default_diffusion(default_grid.x[:-1] + 0.5 * dx)
        for k in (1, 3, 10):
            phi = phis[k]
            lhs = vals[k] * float(w @ (phi * phi))
            rhs = -float(np.sum(a_half * np.diff(phi) ** 2 / dx))
            assert abs(lhs - rhs) <= 1e-9

    def test_modes_diagonalize_operator(self, default_grid, default_diffusion, default_eigen):
        vals, phis = default_eigen
        op = build_operator(default_grid, default_diffusion)
        for k in (0, 2, 7):
            resid = dense_matrix(op) @ phis[k] - vals[k] * phis[k]
            assert np.max(np.abs(resid)) <= 1e-9

    @pytest.mark.parametrize("m", [0, -3, 501, 600])
    def test_rejects_bad_mode_counts(self, m):
        with pytest.raises(ValueError):
            solve_eigenproblem(make_quadratic_diffusion(0.1), Grid(L=100.0, n=501), m=m)


def eigh_tridiagonal_reference(diffusion, grid, m):
    """The leading ``m`` eigenpairs through ``scipy.linalg.eigh_tridiagonal``,
    mapped back and signed as ``solve_eigenproblem`` documents."""
    from scipy.linalg import eigh_tridiagonal

    dense = dense_matrix(build_operator(grid, diffusion))
    sqrt_w = np.sqrt(grid.quadrature_weights)
    vals, vecs = eigh_tridiagonal(np.diag(dense).copy(),
                                  np.diag(dense, k=1) * sqrt_w[:-1] / sqrt_w[1:],
                                  select="i", select_range=(grid.n - m, grid.n - 1))
    funcs = (vecs[:, ::-1] / sqrt_w[:, None]).T
    funcs[funcs[:, 0] < 0.0] *= -1.0
    return vals[::-1], funcs


@st.composite
def eigen_cases(draw):
    """A grid of up to 301 nodes, a quadratic or constant profile, a mode count
    and a dump list with repeats in any order."""
    n = draw(st.integers(3, 301))
    grid = Grid(L=draw(st.floats(0.1, 300.0)), n=n)
    if draw(st.booleans()):
        diffusion = make_quadratic_diffusion(draw(st.floats(1e-8, 1.0)))
    else:
        diffusion = make_constant_diffusion(draw(st.floats(0.01, 100.0)))
    m = draw(st.integers(1, n - 1))
    dump = draw(st.lists(st.integers(0, m - 1), max_size=8))
    return grid, diffusion, m, dump


# Gap to the neighbouring eigenvalues, relative to the spectral radius, above
# which a mode computed alone must match its all-modes row.  Inverse
# iteration puts about eps/gap of the neighbours into a vector: a scan of
# 600 random cases measured error * gap <= 1.3e-17, so this gap keeps the
# error under 1.3e-10, inside the 1e-9 the check allows.
ISOLATED_GAP = 1e-7
# The span a clustered mode must lie in: every eigenvector within this
# relative distance of its eigenvalue.
CLUSTER_WINDOW = 1e-6


class TestEigenvectorSubset:
    @settings(max_examples=60, deadline=None)
    @given(eigen_cases())
    def test_subset_matches_all_modes(self, case):
        grid, diffusion, m, dump = case
        vals, full = solve_eigenproblem(diffusion, grid, m=m)
        sub_vals, sub = solve_eigenproblem(diffusion, grid, m=m, vectors=dump)
        assert np.array_equal(bits(sub_vals), bits(vals))
        assert list(sub) == sorted(set(dump))

        # every eigenpair of the weighted operator, for neighbours and spans
        dense = dense_matrix(build_operator(grid, diffusion))
        w = grid.quadrature_weights
        sqrt_w = np.sqrt(w)
        sym = dense * sqrt_w[:, None] / sqrt_w[None, :]
        all_vals, all_vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        all_vals, all_funcs = all_vals[::-1], (all_vecs[:, ::-1] / sqrt_w[:, None]).T
        radius = max(np.abs(all_vals).max(), np.finfo(float).tiny)
        scale = np.abs(np.diag(dense)).max()

        for k, phi in sub.items():
            amp = np.abs(phi).max()
            lam = vals[k]
            gap = np.abs(np.delete(all_vals, k) - all_vals[k]).min() / radius
            if gap > ISOLATED_GAP:
                assert np.abs(phi - full[k]).max() <= 1e-9 * amp
                continue
            resid = dense @ phi - lam * phi
            assert np.abs(resid).max() <= 1e-9 * (2.0 * scale + abs(lam)) * amp
            assert abs(float(w @ (phi * phi)) - 1.0) <= 1e-9
            others = [other for j, other in sub.items() if j != k]
            assert all(abs(float(other @ (w * phi))) <= 1e-9 for other in others)
            near = np.abs(all_vals - lam) <= CLUSTER_WINDOW * radius
            span = all_funcs[near]
            left = phi - (span @ (w * phi)) @ span
            assert np.abs(left).max() <= 1e-9 * amp

    @settings(max_examples=30, deadline=None)
    @given(eigen_cases())
    def test_default_is_eigh_tridiagonal_bit_for_bit(self, case):
        grid, diffusion, m, _ = case
        vals, phis = solve_eigenproblem(diffusion, grid, m=m)
        ref_vals, ref_funcs = eigh_tridiagonal_reference(diffusion, grid, m)
        assert np.array_equal(bits(vals), bits(ref_vals))
        assert list(phis) == list(range(m))
        assert np.array_equal(bits(stacked(phis, m)), bits(ref_funcs))

    def test_symmetric_pair_is_degenerate_below_rounding(self):
        """Modes 199 and 200 of the symmetric well at n = 2001 have equal
        eigenvalues; mode 200 computed alone is another unit vector of their
        eigenspace."""
        grid = Grid(L=100.0, n=2001)
        diffusion = make_quadratic_diffusion(0.1)
        vals, full = solve_eigenproblem(diffusion, grid, m=256)
        phi = solve_eigenproblem(diffusion, grid, m=256, vectors=[200])[1][200]
        assert np.abs(phi - full[200]).max() > 0.1
        w = grid.quadrature_weights
        assert vals[199] == vals[200]
        pair = np.stack([full[199], full[200]])
        left = phi - (pair @ (w * phi)) @ pair
        assert np.abs(left).max() <= 1e-9 * np.abs(phi).max()

    def test_no_vectors(self, default_grid, default_diffusion, default_eigen):
        vals, phis = solve_eigenproblem(default_diffusion, default_grid, m=64, vectors=[])
        assert np.array_equal(vals, default_eigen[0])
        assert phis == {}

    @pytest.mark.parametrize("vectors", [[-1], [64], [0, 64]])
    def test_rejects_modes_outside_the_count(self, default_grid, default_diffusion, vectors):
        with pytest.raises(ValueError):
            solve_eigenproblem(default_diffusion, default_grid, m=64, vectors=vectors)

    def test_missing_mode_is_refused(self, default_grid, default_diffusion):
        _, phis = solve_eigenproblem(default_diffusion, default_grid, m=8, vectors=[1, 3])
        assert set(phis) == {1, 3}

    def test_unsorted_repeated_request(self, default_grid, default_diffusion):
        """Order and repeats in ``vectors`` change nothing: the modes are computed
        as the sorted set.  A mode computed beside others matches it computed
        alone only to rounding, since ``dstein`` starts each inverse iteration
        from the next vector of one pseudo-random stream."""
        _, phis = solve_eigenproblem(default_diffusion, default_grid, m=8, vectors=[3, 0, 3, 1])
        _, ordered = solve_eigenproblem(default_diffusion, default_grid, m=8, vectors=[0, 1, 3])
        assert set(phis) == {0, 1, 3}
        for k, phi in phis.items():
            assert np.array_equal(bits(phi), bits(ordered[k]))
            alone = solve_eigenproblem(default_diffusion, default_grid, m=8, vectors=[k])[1][k]
            assert np.abs(phi - alone).max() <= 1e-9 * np.abs(phi).max()


class TestAveragePrediction:
    def test_initial_value_is_covered_fraction(self):
        assert average_prediction(0.0, -35.0, 100.0) == pytest.approx(0.325, abs=1e-15)

    def test_centered_front_is_pure_logistic(self):
        for t in (0.0, 0.7, 2.5):
            assert average_prediction(t, 0.0, 100.0) == pytest.approx(
                1.0 / (1.0 + math.exp(-t)), abs=1e-12
            )

    def test_monotone_to_saturation(self):
        # past t ~ 35 the prediction rounds to exactly 1.0, so strict growth
        # is only checkable before saturation
        ts = np.linspace(0.0, 30.0, 301)
        vals = np.array([average_prediction(float(t), -35.0, 100.0) for t in ts])
        assert np.all(np.diff(vals) > 0)
        assert average_prediction(40.0, -35.0, 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_logistic_ode_residual(self):
        h = 1e-3
        d = (average_prediction(0.7 + h, -35.0, 100.0)
             - average_prediction(0.7 - h, -35.0, 100.0)) / (2 * h)
        u = average_prediction(0.7, -35.0, 100.0)
        assert abs(d - u * (1.0 - u)) <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e6), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1e3), st.floats(0.0, 1e3))
    def test_bounded_monotone_from_the_step_mean(self, L, side, t1, t2):
        x_c = side * L
        assume(-L < x_c < L)
        early, late = (average_prediction(t, x_c, L) for t in sorted((t1, t2)))
        assert 0.0 < early <= late <= 1.0
        start = Fraction(average_prediction(0.0, x_c, L))
        exact = (Fraction(L) + Fraction(x_c)) / (2 * Fraction(L))
        # five roundings (L - x_c, L + x_c, the ratio, 1 + ratio, 1 / ...),
        # each within eps/2; that is up to about 5 ulp, not 1
        assert abs(start - exact) <= 3 * Fraction(np.finfo(float).eps) * exact

    def test_validation(self):
        with pytest.raises(ValueError):
            average_prediction(1.0, -35.0, 0.0)
        with pytest.raises(ValueError):
            average_prediction(1.0, -120.0, 100.0)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_rejects_non_finite_length(self, L):
        # unchecked, an infinite L makes the prediction NaN, and a NaN one
        # fails the x_c bounds with a message about x_c, not L
        with pytest.raises(ValueError, match="L must be positive and finite"):
            average_prediction(1.0, 0.0, L)

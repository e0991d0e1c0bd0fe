"""Conservative operator assembly, tridiagonal solves, IMEX stepping."""

import math

import numpy as np
import pytest
from conftest import constant_diffusion, diffuse_smooth, unit_floor_quadratic, zero_reaction

from fkfront.domain import (
    Field,
    FrontSpec,
    Grid,
    logistic_reaction,
    make_quadratic_diffusion,
    step_initial_condition,
)
from fkfront.solver import (
    SingularSystemError,
    SolverConfig,
    Trajectory,
    TridiagonalOperator,
    build_operator,
    factor_step_matrix,
    imex_step,
    simulate,
    tridiagonal_solve,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def diagonals(draw, n):
    """Three random diagonals of length ``n`` in the TridiagonalOperator layout."""
    return tuple(np.array(draw(st.lists(unit, min_size=n, max_size=n))) for _ in range(3))


def dense_matrix(op):
    n = op.main.size
    mat = np.diag(op.main)
    mat += np.diag(op.sup[:-1], k=1)
    mat += np.diag(op.sub[1:], k=-1)
    return mat


class TestBuildOperator:
    def test_row_at_origin_hand_values(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        i = 250  # node x = 0; half-point coefficients a(+-0.2) = 0.14
        assert op.sub[i] == pytest.approx(0.875, abs=1e-12)
        assert op.main[i] == pytest.approx(-1.75, abs=1e-12)
        assert op.sup[i] == pytest.approx(0.875, abs=1e-12)

    def test_interior_row_uniform_diffusion(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, constant_diffusion(1.0))
        inv_dx2 = 1.0 / g.dx**2
        assert op.sub[5] == pytest.approx(inv_dx2, rel=1e-13)
        assert op.main[5] == pytest.approx(-2 * inv_dx2, rel=1e-13)
        assert op.sup[5] == pytest.approx(inv_dx2, rel=1e-13)

    def test_boundary_rows_mirror_ghost(self):
        g = Grid(L=2.0, n=9)
        op = build_operator(g, make_quadratic_diffusion(0.3))
        # first/last rows: [-2 a_half, +2 a_half] / dx^2
        assert op.main[0] == pytest.approx(-op.sup[0], rel=1e-14)
        assert op.main[-1] == pytest.approx(-op.sub[-1], rel=1e-14)

    def test_row_sums_vanish(self):
        g = Grid(L=3.0, n=17)
        op = build_operator(g, make_quadratic_diffusion(0.2))
        sums = dense_matrix(op) @ np.ones(17)
        assert np.max(np.abs(sums)) <= 1e-12

    def test_weighted_operator_symmetric(self):
        g = Grid(L=2.0, n=11)
        op = build_operator(g, make_quadratic_diffusion(0.3))
        wd = np.diag(g.quadrature_weights) @ dense_matrix(op)
        assert np.max(np.abs(wd - wd.T)) <= 1e-12

    def test_apply_matches_dense(self):
        g = Grid(L=5.0, n=31)
        op = build_operator(g, make_quadratic_diffusion(0.7))
        rng = np.random.default_rng(11)
        u = rng.uniform(-1, 1, 31)
        assert np.allclose(op.apply(u), dense_matrix(op) @ u, atol=1e-12)


class TestTridiagonalSolve:
    def test_hand_three_by_three(self):
        sub = np.array([0.0, -1.0, -1.0])
        main = np.array([2.0, 2.0, 2.0])
        sup = np.array([-1.0, -1.0, 0.0])
        rhs = np.array([1.0, 0.0, 1.0])
        assert np.allclose(tridiagonal_solve(sub, main, sup, rhs), [1.0, 1.0, 1.0], atol=1e-14)

    def test_random_diagonally_dominant(self):
        rng = np.random.default_rng(3)
        n = 40
        sub = rng.uniform(-1, 1, n)
        sup = rng.uniform(-1, 1, n)
        main = 4.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-2, 2, n)
        mat = np.diag(main) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1)
        expected = np.linalg.solve(mat, rhs)
        assert np.allclose(tridiagonal_solve(sub, main, sup, rhs), expected, atol=1e-10)

    def test_singular_system_raises(self):
        z = np.zeros(3)
        with pytest.raises(SingularSystemError):
            tridiagonal_solve(z, z, z, np.ones(3))

    def test_rejects_fewer_than_three_unknowns(self):
        with pytest.raises(ValueError, match="at least 3"):
            tridiagonal_solve(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))

    def test_rhs_left_untouched(self):
        rhs = np.array([1.0, 0.0, 1.0])
        tridiagonal_solve(np.full(3, -1.0), np.full(3, 2.0), np.full(3, -1.0), rhs)
        assert np.array_equal(rhs, [1.0, 0.0, 1.0])


class TestFactoredSolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_dense_solve_when_diagonally_dominant(self, data):
        n = data.draw(st.integers(3, 30))
        sub, sup, rhs = data.draw(diagonals(n))
        sub[0] = sup[-1] = 0.0
        margin = np.array(data.draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
        sign = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        main = sign * (np.abs(sub) + np.abs(sup) + margin)
        mat = np.diag(main) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1)
        expected = np.linalg.solve(mat, rhs)
        # |main| - |sub| - |sup| >= 0.5 bounds the inverse's norm by 2
        assert np.allclose(tridiagonal_solve(sub, main, sup, rhs), expected,
                           rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_stack_matches_separate_solves_bit_for_bit(self, data):
        blocks = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(3, 12))
        dt = data.draw(st.floats(1e-3, 1.0))
        grid = Grid(L=1.0, n=n)
        ops = [TridiagonalOperator(grid, *data.draw(diagonals(n))) for _ in range(blocks)]
        rhs = np.array(data.draw(st.lists(unit, min_size=blocks * n, max_size=blocks * n)))
        separate = []
        for b, op in enumerate(ops):
            try:
                separate.append(tridiagonal_solve(-dt * op.sub, 1.0 - dt * op.main,
                                                  -dt * op.sup, rhs[b * n:(b + 1) * n]))
            except SingularSystemError:
                with pytest.raises(SingularSystemError):
                    factor_step_matrix(ops, dt)
                return
        separate = np.concatenate(separate)
        # an overflowing block leaks 0 * inf = nan across the seams; see factor_step_matrix
        assume(np.all(np.isfinite(separate)))
        assert np.array_equal(factor_step_matrix(ops, dt).solve(rhs), separate)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_row_raises_singular(self, data):
        n = data.draw(st.integers(3, 20))
        sub, main, sup = data.draw(diagonals(n))
        row = data.draw(st.integers(0, n - 1))
        sub[row] = main[row] = sup[row] = 0.0
        with pytest.raises(SingularSystemError):
            tridiagonal_solve(sub, main, sup, np.ones(n))


class TestImexStep:
    def test_uniform_half_one_step(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, constant_diffusion(1.0))
        f = Field(g, np.full(501, 0.5), 0.0)
        out = imex_step(f, op, logistic_reaction(), 0.1)
        assert np.allclose(out.values, 0.525, atol=1e-13)
        assert out.time == pytest.approx(0.1)

    @pytest.mark.parametrize("value, tol", [(0.0, 0.0), (1.0, 1e-12)])
    def test_equilibria_preserved(self, value, tol):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        f = Field(g, np.full(501, value), 0.0)
        out = imex_step(f, op, logistic_reaction(), 0.01)
        assert np.max(np.abs(out.values - value)) <= tol

    def test_monotone_profile_stays_monotone(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        field = step_initial_condition(g, FrontSpec(x_c0=-35.0))
        reaction = logistic_reaction()
        for _ in range(50):
            field = imex_step(field, op, reaction, 0.01)
        assert np.all(np.diff(field.values) <= 1e-13)

    @pytest.mark.parametrize("dt", [0.0, -0.1, 1.5])
    def test_rejects_bad_dt(self, dt):
        g = Grid(L=1.0, n=5)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        f = Field(g, np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            imex_step(f, op, logistic_reaction(), dt)


class TestConservationAndBounds:
    def test_mass_conserved_without_source(self, pure_diffusion_run):
        w = pure_diffusion_run.grid.quadrature_weights
        masses = np.array([float(w @ f.values) for f in pure_diffusion_run.fields])
        drift = np.max(np.abs(masses - masses[0])) / masses[0]
        assert drift <= 1e-8

    def test_maximum_principle(self, default_run):
        lo = min(float(f.values.min()) for f in default_run.fields)
        hi = max(float(f.values.max()) for f in default_run.fields)
        assert lo >= -1e-12
        assert hi <= 1 + 1e-12


class TestConvergenceOrders:
    def test_spatial_refinement_quarters_error(self):
        diffusion = unit_floor_quadratic()
        coarse = diffuse_smooth(251, 1e-3, 0.5, diffusion)
        mid = diffuse_smooth(501, 1e-3, 0.5, diffusion)
        fine = diffuse_smooth(1001, 1e-3, 0.5, diffusion)
        e1 = np.max(np.abs(coarse.values - mid.values[::2]))
        e2 = np.max(np.abs(mid.values - fine.values[::2]))
        assert 3.5 <= e1 / e2 <= 4.6  # second order: halving dx quarters the error

    def test_temporal_refinement_halves_error(self):
        diffusion = unit_floor_quadratic()
        a = diffuse_smooth(501, 0.04, 0.4, diffusion)
        b = diffuse_smooth(501, 0.02, 0.4, diffusion)
        c = diffuse_smooth(501, 0.01, 0.4, diffusion)
        e1 = np.max(np.abs(a.values - b.values))
        e2 = np.max(np.abs(b.values - c.values))
        assert 1.8 <= e1 / e2 <= 2.2  # first order in time


class TestSimulate:
    def test_snapshot_storage_contract(self):
        traj = simulate(
            Grid(L=10.0, n=11),
            make_quadratic_diffusion(0.1),
            logistic_reaction(),
            FrontSpec(x_c0=-5.0),
            SolverConfig(dt=0.01, t_end=0.05, snapshot_stride=2),
        )
        assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.05], atol=1e-12)

    def test_final_time_stored_once(self):
        traj = simulate(
            Grid(L=10.0, n=11),
            make_quadratic_diffusion(0.1),
            logistic_reaction(),
            FrontSpec(x_c0=-5.0),
            SolverConfig(dt=0.01, t_end=0.04, snapshot_stride=2),
        )
        assert np.allclose(traj.times, [0.0, 0.02, 0.04], atol=1e-12)

    def test_zero_horizon_returns_initial_field_only(self):
        g = Grid(L=10.0, n=11)
        traj = simulate(
            g,
            make_quadratic_diffusion(0.1),
            logistic_reaction(),
            FrontSpec(x_c0=-5.0),
            SolverConfig(dt=0.01, t_end=0.0, snapshot_stride=5),
        )
        assert len(traj.fields) == 1
        expected = step_initial_condition(g, FrontSpec(x_c0=-5.0))
        assert np.array_equal(traj.fields[0].values, expected.values)

    def test_time_stamps_are_step_multiples(self, default_run):
        steps = np.arange(0, 6001, 25)
        assert np.array_equal(default_run.times, steps * 0.01)
        assert default_run.times[-1] == 60.0

    def test_grid_and_times_properties(self, default_run, default_grid):
        assert default_run.grid is default_grid
        assert default_run.times[0] == 0.0
        assert default_run.times[-1] == pytest.approx(60.0, abs=1e-9)
        assert np.all(np.diff(default_run.times) > 0)


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "t_end": 1.0},
            {"dt": -0.1, "t_end": 1.0},
            {"dt": 1.5, "t_end": 2.0},
            {"dt": 0.1, "t_end": -1.0},
            {"dt": 0.1, "t_end": 0.05},
            {"dt": 0.1, "t_end": 1.0, "snapshot_stride": 0},
        ],
    )
    def test_rejects_inconsistent_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_trajectory_validation(self):
        g = Grid(L=1.0, n=5)
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        f0 = Field(g, np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            Trajectory(fields=(), config=cfg)
        with pytest.raises(ValueError):
            Trajectory(fields=(f0, Field(Grid(L=2.0, n=5), np.zeros(5), 0.5)), config=cfg)
        with pytest.raises(ValueError):
            Trajectory(fields=(f0, Field(g, np.zeros(5), 0.0)), config=cfg)


class TestUniformDiffusionControl:
    def test_front_speed_near_two(self, constant_a_run):
        from fkfront.front import track_front

        path = track_front(constant_a_run)
        sel = (path.times >= 20.0) & np.isfinite(path.positions)
        speed = float(np.polyfit(path.times[sel], path.positions[sel], 1)[0])
        assert abs(speed - 2.0) / 2.0 <= 0.05

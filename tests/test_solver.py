"""Conservative operator assembly, factored step solves, IMEX stepping."""

import math
import re
import textwrap
import weakref

import numpy as np
import pytest
from conftest import (
    CONSTANT_A_GRID,
    bits,
    dense_matrix,
    diffuse_smooth,
    run_python,
    stored_fields,
    stored_positions,
    times_of,
    zero_reaction,
)

from fkfront.domain import (
    MAX_STEPS,
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
)
from fkfront import lapack
from fkfront.solver import march
from fkfront.stencil import TridiagonalOperator, build_operator
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st


def unit_trapezoid(n: int) -> np.ndarray:
    """``W = diag(1/2, 1, ..., 1, 1/2)`` as the solver documents it."""
    w = np.ones(n)
    w[[0, -1]] = 0.5
    return w


def stiffness_matrix(coupling: np.ndarray) -> np.ndarray:
    """``K`` as documented: ``K[i, i+1] = K[i+1, i] = -c_i`` and
    ``K[i, i] = c_{i-1} + c_i``, a missing coupling counting as 0."""
    n = coupling.size + 1
    k = np.diag(-coupling, 1) + np.diag(-coupling, -1)
    for i in range(n):
        k[i, i] = (coupling[i - 1] if i > 0 else 0.0) + (coupling[i] if i < n - 1 else 0.0)
    return k


@st.composite
def operators(draw):
    """A quadratic well or a constant profile on a random grid, or random
    couplings spread over twelve decades."""
    n = draw(st.integers(3, 120))
    grid = Grid(L=draw(st.floats(0.5, 100.0)), n=n)
    kind = draw(st.sampled_from(["quadratic", "constant", "couplings"]))
    if kind == "quadratic":
        return build_operator(grid, make_quadratic_diffusion(draw(st.floats(1e-8, 1.0))))
    if kind == "constant":
        return build_operator(grid, make_constant_diffusion(draw(st.floats(0.01, 100.0))))
    exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=n - 1, max_size=n - 1))
    return TridiagonalOperator(grid, 10.0 ** np.array(exponents))


class TestBuildOperator:
    def test_row_at_origin_hand_values(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        i = 250  # node x = 0; half-point coefficients a(+-0.2) = 0.14
        assert op.coupling[i - 1] == pytest.approx(0.875, abs=1e-12)
        assert op.coupling[i] == pytest.approx(0.875, abs=1e-12)
        assert op.neighbour_sums[i] == pytest.approx(1.75, abs=1e-12)

    def test_interior_row_uniform_diffusion(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_constant_diffusion(1.0))
        inv_dx2 = 1.0 / g.dx**2
        assert op.coupling.shape == (500,)
        assert np.allclose(op.coupling, inv_dx2, rtol=1e-13, atol=0.0)
        assert op.neighbour_sums[5] == pytest.approx(2 * inv_dx2, rel=1e-13)

    def test_boundary_rows_mirror_ghost(self):
        g = Grid(L=2.0, n=9)
        op = build_operator(g, make_quadratic_diffusion(0.3))
        # the ghost rows [-2 c_0, 2 c_0] and [2 c_{n-2}, -2 c_{n-2}] are the
        # end rows of -W^{-1} K: a single coupling over a halved weight
        assert np.array_equal(op.weights, unit_trapezoid(9))
        assert op.neighbour_sums[0] == op.coupling[0]
        assert op.neighbour_sums[-1] == op.coupling[-1]
        dense = dense_matrix(op)
        assert dense[0, 0] == -op.neighbour_sums[0] / op.weights[0]
        assert dense[-1, -1] == -op.neighbour_sums[-1] / op.weights[-1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @settings(max_examples=20, deadline=None)
    @given(exponents=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=40), data=st.data())
    def test_rejects_non_finite_or_non_positive_coefficient(self, bad, exponents, data):
        def a(x):
            return np.where(x > 0.5, bad, x * x + 0.1)

        with pytest.raises(ValueError, match="finite and positive"):
            build_operator(Grid(L=2.0, n=9), a)
        # the operator type itself holds no such coupling, wherever it sits
        coupling = 10.0 ** np.array(exponents)
        coupling[data.draw(st.integers(0, coupling.size - 1))] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            TridiagonalOperator(Grid(L=1.0, n=coupling.size + 1), coupling)

    def test_rejects_grid_whose_spacing_overflows(self):
        # dx = 1e197: dx**2 and a(x) both overflow, and no RuntimeWarning leaks
        with pytest.raises(ValueError, match="finite and positive"):
            build_operator(Grid(L=1e200, n=2001), make_quadratic_diffusion(0.1))

    @pytest.mark.parametrize("coupling", [[1e308, 1e308], [1.0, 1e308], [1e308, 1.0]])
    def test_rejects_overflowing_neighbour_sums(self, coupling):
        # c_0 + c_1 overflows, or 2 c at an end, where the weight is halved;
        # no RuntimeWarning leaks
        with pytest.raises(ValueError, match="finite and positive"):
            TridiagonalOperator(Grid(L=1.0, n=3), np.array(coupling))

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_rejects_coupling_of_wrong_length(self, length):
        with pytest.raises(ValueError, match="coupling must have length 4"):
            TridiagonalOperator(Grid(L=1.0, n=5), np.ones(length))

    @settings(max_examples=60, deadline=None)
    @given(operators())
    def test_row_sums_vanish(self, op):
        # K 1 = 0 and D 1 = 0 up to the rounding of one neighbour sum
        k = stiffness_matrix(op.coupling)
        ulp = np.spacing(np.diag(k))
        assert np.all(np.abs(k @ np.ones(op.grid.n)) <= 2 * ulp)
        assert np.all(np.abs(dense_matrix(op) @ np.ones(op.grid.n)) <= 4 * ulp)

    @settings(max_examples=60, deadline=None)
    @given(operators())
    def test_weighted_operator_symmetric(self, op):
        # W D = -K bit for bit, with D from the stencil rows and K symmetric
        w = unit_trapezoid(op.grid.n)
        k = stiffness_matrix(op.coupling)
        assert np.array_equal(w[:, None] * dense_matrix(op), -k)
        assert np.array_equal(k, k.T)
        assert np.array_equal(op.weights, w)
        assert np.array_equal(op.neighbour_sums, np.diag(k))


@st.composite
def step_operators(draw):
    """Operators of random quadratic wells sharing one random grid, and a dt."""
    n = draw(st.integers(3, 401))
    grid = Grid(L=draw(st.floats(0.5, 100.0)), n=n)
    blocks = draw(st.integers(1, 4))
    ops = [build_operator(grid, make_quadratic_diffusion(draw(st.floats(0.0125, 0.1))))
           for _ in range(blocks)]
    # the second range makes entries of dt * D subnormal
    dt = draw(st.one_of(st.floats(1e-12, 1.0), st.floats(5e-324, 1e-300)))
    return ops, dt


def one_solve(ops, dt, rhs):
    """``(I - dt D) x = rhs`` for the stacked ``ops``: one step of :func:`march`
    without a source."""
    *_, (_, x) = march(ops, dt, rhs, zero_reaction, dt)
    return x


class TestSymmetricStepFactors:
    @settings(max_examples=60, deadline=None)
    @given(step_operators(), st.integers(0, 2**32 - 1))
    def test_step_matrix_takes_symmetric_path_and_agrees_with_lu(self, case, seed):
        ops, dt = case
        n = ops[0].grid.n
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(ops), n))
        for op, block, got in zip(ops, rhs, one_solve(ops, dt, rhs)):
            expected = np.linalg.solve(np.eye(n) - dt * dense_matrix(op), block)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=60, deadline=None)
    @given(step_operators(), st.integers(0, 2**32 - 1))
    def test_stack_matches_separate_symmetric_solves_bit_for_bit(self, case, seed):
        ops, dt = case
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(ops), ops[0].grid.n))
        separate = np.stack([one_solve([op], dt, block[None])[0] for op, block in zip(ops, rhs)])
        assert np.array_equal(one_solve(ops, dt, rhs), separate)

    def test_rejects_step_matrix_not_positive_definite(self):
        # couplings of 4e16 swamp the weights, and dpttrf loses positivity
        # to rounding in the last pivot
        op = build_operator(Grid(L=1.0, n=5), make_constant_diffusion(1e16))
        with pytest.raises(ValueError, match=r"not positive definite \(dpttrf info 5\)"):
            march([op], 1.0, np.zeros((1, 5)), logistic_reaction, 1.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1, 1.5])
    def test_rejects_bad_dt(self, dt):
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        with pytest.raises(ValueError, match="dt must satisfy"):
            march([op], dt, np.zeros((1, 5)), logistic_reaction, 1.0)

    @pytest.mark.parametrize("sizes", [(5, 6), ()])
    def test_rejects_operators_without_one_grid_size(self, sizes):
        ops = [build_operator(Grid(L=1.0, n=n), make_quadratic_diffusion(0.1)) for n in sizes]
        with pytest.raises(ValueError, match="must share one grid size"):
            march(ops, 0.1, np.zeros((1, 5)), logistic_reaction, 1.0)

    @pytest.mark.parametrize("blocks, shape", [(2, (5,)), (2, (10,)), (1, (2, 5)), (1, (4,)),
                                               (2, (2, 1, 5)), (1, (1, 1, 5)), (1, (5,))])
    def test_rejects_initial_state_of_another_shape(self, blocks, shape):
        # a run is a row, a lone one too: a profile of shape (n,) is no state
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        with pytest.raises(ValueError, match=re.escape(
                f"u0 must have shape (B, n) = ({blocks}, 5), got {shape}")):
            march([op] * blocks, 0.1, np.zeros(shape), logistic_reaction, 1.0)


class TestMaximumPrincipleProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        eps=st.floats(0.0125, 0.1),
        n=st.integers(3, 401),
        L=st.floats(0.5, 100.0),
        front_at=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        steps=st.integers(1, 40),
    )
    def test_step_initial_condition_stays_in_unit_interval(self, eps, n, L, front_at, dt, steps):
        grid = Grid(L=L, n=n)
        x_c0 = -L + 2.0 * L * front_at
        assume(-L < x_c0 < L)
        u0 = step_initial_condition(grid, x_c0)[None]
        op = build_operator(grid, make_quadratic_diffusion(eps))
        lows, highs = [], []
        for _, u in march([op], dt, u0, logistic_reaction, steps * dt):
            lows.append(float(u.min()))
            highs.append(float(u.max()))
        assert len(lows) == steps + 1
        assert min(lows) >= -1e-10
        assert max(highs) <= 1.0 + 1e-10


class TestMinimumPrincipleProperty:
    """Once a stored state is above 1/2 at every node, every later one is too.

    ``I - dt D`` returns a convex combination of the right-hand side, and the
    logistic map is increasing with ``g(v) >= v`` on [0, 1] for ``dt <= 1``,
    so ``min u`` cannot fall back to a level it has passed.  The
    ``compare-sfa`` march stops on this (``cli.sfa_front_comparison``).
    """

    @settings(max_examples=80, deadline=None)
    @given(
        eps=st.floats(0.0125, 0.1),
        n=st.integers(3, 81),
        L=st.floats(0.5, 10.0),
        front_at=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        steps=st.integers(1, 300),
        stride=st.integers(1, 7),
    )
    def test_above_half_everywhere_stays_above(self, eps, n, L, front_at, dt, steps, stride):
        grid = Grid(L=L, n=n)
        x_c0 = -L + 2.0 * L * front_at
        assume(-L < x_c0 < L)
        u0 = step_initial_condition(grid, x_c0)[None]
        op = build_operator(grid, make_quadratic_diffusion(eps))
        above = [bool(u.min() > 0.5)
                 for _, u in march([op], dt, u0, logistic_reaction, steps * dt, stride)]
        if True in above:
            assert all(above[above.index(True):])

    def test_reaches_above_half_and_stays(self):
        # the whole field passes 1/2 well before t_end on this grid
        grid = Grid(L=4.0, n=51)
        u0 = step_initial_condition(grid, -1.0)[None]
        op = build_operator(grid, make_quadratic_diffusion(0.1))
        above = [bool(u.min() > 0.5) for _, u in march([op], 0.01, u0, logistic_reaction, 10.0)]
        first = above.index(True)
        assert 0 < first < len(above) // 2
        assert all(above[first:])


def count_solves(monkeypatch) -> list[int]:
    """The size of every ``dpttrs`` solve made from here on, as they are made."""
    sizes = []
    bind = lapack.Lapack.dpttrs

    def dpttrs(self, d, e, b):
        solve = bind(self, d, e, b)

        def counted():
            sizes.append(b.size)
            solve()

        return counted

    monkeypatch.setattr(lapack.Lapack, "dpttrs", dpttrs)
    return sizes


def signed_zero_reaction(u: np.ndarray) -> np.ndarray:
    """``f(u) = 0 * u``, which keeps the sign of a zero (unlike a plain 0.0)."""
    return 0.0 * u


def plain_march(ops, dt, u0, f, t_end, stride=1):
    """The stored ``(t, u)`` of a march that solves on every step, with no
    fixed-point skip, and the first step whose solve returned its input bit
    for bit (None if none did).  The factors are those of the weighted step
    matrix ``W + dt K`` as :func:`march` documents it."""
    weights = np.concatenate([op.weights for op in ops])
    d = np.concatenate([op.neighbour_sums for op in ops]) * dt + weights
    e = np.concatenate([np.append(op.coupling * -dt, 0.0) for op in ops])[:-1]
    assert lapack.load().dpttrf(d, e)[2] == 0
    rhs = np.empty(d.size)
    solve = lapack.load().dpttrs(d, e, rhs)
    n_steps = int(round(t_end / dt))
    u = np.array(u0, dtype=float).ravel()
    stored, first_fixed = [(0.0, u.copy())], None
    for k in range(1, n_steps + 1):
        prev = u
        rhs[:] = (prev + dt * np.asarray(f(prev), dtype=float)) * weights
        solve()
        u = rhs.copy()
        if first_fixed is None and np.array_equal(u.view(np.int64), prev.view(np.int64)):
            first_fixed = k
        if k % stride == 0 or k == n_steps:
            stored.append((k * dt, u.copy()))
    return stored, first_fixed


def assert_same_bits(steps, expected):
    steps = list(steps)
    assert [t for t, _ in steps] == [t for t, _ in expected]
    for (_, u), (_, v) in zip(steps, expected):
        assert np.array_equal(np.ravel(u).view(np.int64), v.view(np.int64))


class TestFixedPointSkip:
    """Once a solve returns its input bit for bit, ``march`` solves no more
    and yields what a march that kept solving would have yielded."""

    @settings(max_examples=40, deadline=None)
    @given(
        epsilons=st.lists(st.floats(0.0125, 0.1), min_size=1, max_size=3),
        n=st.integers(3, 61),
        L=st.floats(0.5, 10.0),
        front_at=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        dt=st.floats(0.05, 1.0),
        horizon=st.floats(40.0, 150.0),
        stride=st.integers(1, 7),
    )
    def test_yields_the_bits_of_a_march_without_the_skip(self, epsilons, n, L, front_at, dt,
                                                          horizon, stride):
        grid = Grid(L=L, n=n)
        x_c0 = -L + 2.0 * L * front_at
        assume(-L < x_c0 < L)
        ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in epsilons]
        u0 = np.tile(step_initial_condition(grid, x_c0), (len(ops), 1))
        t_end = max(1, round(horizon / dt)) * dt
        expected, first_fixed = plain_march(ops, dt, u0, logistic_reaction, t_end, stride)
        event("fixed point reached" if first_fixed else "no fixed point")
        with pytest.MonkeyPatch.context() as patch:
            solves = count_solves(patch)
            steps = list(march(ops, dt, u0, logistic_reaction, t_end, stride))
        assert all(np.shape(u) == u0.shape for _, u in steps)
        assert_same_bits(steps, expected)
        n_steps = int(round(t_end / dt))
        assert len(solves) == (first_fixed or n_steps)

    def test_saturated_run_stops_solving(self, caplog, monkeypatch):
        grid = Grid(L=4.0, n=51)
        ops = [build_operator(grid, make_quadratic_diffusion(0.1))]
        u0 = step_initial_condition(grid, -1.0)[None]
        expected, first_fixed = plain_march(ops, 0.01, u0, logistic_reaction, 60.0, 25)
        solves = count_solves(monkeypatch)
        with caplog.at_level("INFO", logger="fkfront"):
            steps = list(march(ops, 0.01, u0, logistic_reaction, 60.0, 25))
        assert_same_bits(steps, expected)
        assert first_fixed is not None and len(solves) == first_fixed < 6000
        # every state after the fixed point is a fresh array
        late = [u for t, u in steps if t >= first_fixed * 0.01]
        assert len(late) > 2
        assert not any(np.shares_memory(a, b) for a, b in zip(late, late[1:]))
        assert [r.getMessage() for r in caplog.records] == [
            f"march: fixed point reached: the step to t={first_fixed * 0.01:g} returned its "
            "input bit for bit, no further solve before t_end=60"
        ]

    def test_signed_zeros_do_not_match(self, monkeypatch):
        # each solve returns its right-hand side negated, so under
        # signed_zero_reaction a zero state flips between 0.0 and -0.0, which
        # compare equal but differ in bits
        monkeypatch.setattr(lapack.Lapack, "dpttrs",
                            lambda self, d, e, b: lambda: np.negative(b, out=b))
        op = build_operator(Grid(L=1.0, n=4), make_constant_diffusion(1.0))
        states = [u for _, u in march([op], 0.5, np.zeros((1, 4)), signed_zero_reaction, 3.0)]
        assert [np.signbit(u[0]).tolist() for u in states] == [
            [sign] * 4 for sign in [False, True] * 3 + [False]]

    def test_nan_in_the_last_entry_keeps_solving(self, monkeypatch):
        op = build_operator(Grid(L=2.0, n=5), make_constant_diffusion(1.0))
        u0 = np.array([[1.0, 1.0, 1.0, 1.0, math.nan]])
        solves = count_solves(monkeypatch)
        states = [u for _, u in march([op], 0.5, u0, zero_reaction, 3.0)]
        assert len(solves) == 6
        assert all(np.isnan(u).all() for u in states[1:])


def narrowed_march(ops, dt, u0, f, t_end, requests, stride=1):
    """Every ``(t, u)`` a march yields, sending ``requests[k]`` as the blocks
    to keep after the ``k``-th state drawn (``for`` iteration elsewhere)."""
    steps = march(ops, dt, u0, f, t_end, stride)
    states = [next(steps)]
    while True:
        keep = requests.get(len(states) - 1)
        try:
            states.append(next(steps) if keep is None else steps.send(keep))
        except StopIteration:
            return states


class TestNarrowing:
    """A consumer sends the blocks to keep; the kept blocks keep their bits."""

    epsilons = (0.1, 0.05, 0.025, 0.0125)

    def stack(self, epsilons=epsilons):
        grid = Grid(L=10.0, n=41)
        ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in epsilons]
        u0 = np.tile(step_initial_condition(grid, -5.0), (len(ops), 1))
        return ops, u0

    @pytest.mark.parametrize("stride", [1, 3])
    def test_kept_rows_keep_the_bits_of_the_full_and_solo_marches(self, stride, monkeypatch):
        ops, u0 = self.stack()
        dt, t_end = 0.05, 4.0
        full = list(march(ops, dt, u0, logistic_reaction, t_end, stride))
        solo = [list(march([op], dt, row[None], logistic_reaction, t_end, stride))
                for op, row in zip(ops, u0)]
        # a middle block retires first, then the last of those kept
        solves = count_solves(monkeypatch)
        states = narrowed_march(ops, dt, u0, logistic_reaction, t_end,
                                {5: [0, 2, 3], 12: [0, 1]}, stride)
        # 80 steps; from the requests, after 5 and 12 strides, only the kept
        # blocks are solved
        n = u0.shape[1]
        assert solves == ([4 * n] * 5 * stride + [3 * n] * 7 * stride
                          + [2 * n] * (80 - 12 * stride))
        assert [t for t, _ in states] == [t for t, _ in full]
        assert [u.shape[0] for _, u in states] == [4] * 6 + [3] * 7 + [2] * (len(full) - 13)
        for k, (_, u) in enumerate(states):
            blocks = [0, 1, 2, 3] if k <= 5 else [0, 2, 3] if k <= 12 else [0, 2]
            for row, b in zip(u, blocks):
                assert np.array_equal(bits(row), bits(full[k][1][b]))
                assert np.array_equal(bits(row), bits(solo[b][k][1][0]))

    def test_one_row_stack_keeps_its_only_row(self):
        ops, u0 = self.stack(epsilons=(0.1,))
        expected = list(march(ops, 0.1, u0, logistic_reaction, 0.5))
        states = narrowed_march(ops, 0.1, u0, logistic_reaction, 0.5, {1: [0]})
        assert [u.shape for _, u in states] == [u0.shape] * 6
        assert_same_bits(states, [(t, u[0]) for t, u in expected])

    @pytest.mark.parametrize("keep", [[], [1, 0], [0, 0], [0, 4], [-1, 2], [2, 2, 3]])
    def test_request_that_is_no_ascending_selection_raises_before_a_solve(self, keep,
                                                                           monkeypatch):
        ops, u0 = self.stack()
        solves = count_solves(monkeypatch)
        steps = march(ops, 0.05, u0, logistic_reaction, 1.0)
        next(steps)
        next(steps)
        with pytest.raises(ValueError, match="blocks to keep must be ascending indices of the 4"):
            steps.send(keep)
        assert len(solves) == 1
        assert next(steps, None) is None

    def test_narrowed_stack_stops_at_the_fixed_point_of_its_block(self, caplog):
        grid = Grid(L=4.0, n=51)
        ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in (0.05, 0.1, 0.02)]
        u0 = np.tile(step_initial_condition(grid, -1.0), (3, 1))
        solo, first_fixed = plain_march(ops[1:2], 0.01, u0[1], logistic_reaction, 60.0, 25)
        with caplog.at_level("INFO", logger="fkfront"):
            states = narrowed_march(ops, 0.01, u0, logistic_reaction, 60.0, {1: [1]}, 25)
        assert first_fixed is not None
        assert_same_bits(states[2:], solo[2:])
        assert [r.getMessage() for r in caplog.records] == [
            f"march: fixed point reached: the step to t={first_fixed * 0.01:g} returned its "
            "input bit for bit, no further solve before t_end=60"
        ]


class TestIdentity:
    """Operators compare and hash by identity: the generated ``==`` over
    array fields raised (the truth value of an array is ambiguous), and
    ``hash`` raised ``TypeError``."""

    def test_operators_compare_by_identity(self):
        grid = Grid(L=10.0, n=21)
        a, b = [build_operator(grid, make_quadratic_diffusion(0.1)) for _ in range(2)]
        assert a == a and a != b
        assert len({a, b, a}) == 2


def one_step(g, diffusion, u0, dt):
    """``(t, u)`` after one step of ``dt`` from ``u0``."""
    _, last = march([build_operator(g, diffusion)], dt, u0, logistic_reaction, dt)
    return last


class TestImexStep:
    def test_uniform_half_one_step(self):
        g = Grid(L=100.0, n=501)
        t, u = one_step(g, make_constant_diffusion(1.0), np.full((1, 501), 0.5), 0.1)
        assert np.allclose(u, 0.525, atol=1e-13)
        assert t == pytest.approx(0.1)

    @pytest.mark.parametrize("value, tol", [(0.0, 0.0), (1.0, 1e-12)])
    def test_equilibria_preserved(self, value, tol):
        g = Grid(L=100.0, n=501)
        _, u = one_step(g, make_quadratic_diffusion(0.1), np.full((1, 501), value), 0.01)
        assert np.max(np.abs(u - value)) <= tol

    def test_monotone_profile_stays_monotone(self):
        g = Grid(L=100.0, n=501)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        u0 = step_initial_condition(g, -35.0)[None]
        for _, u in march([op], 0.01, u0, logistic_reaction, 0.5):
            assert np.all(np.diff(u) <= 1e-13)

    def test_yielded_states_are_fresh_arrays(self):
        g = Grid(L=10.0, n=11)
        op = build_operator(g, make_quadratic_diffusion(0.1))
        u0 = step_initial_condition(g, -5.0)[None]
        states = [u for _, u in march([op], 0.1, u0, logistic_reaction, 0.3)]
        assert len(states) == 4
        assert np.array_equal(states[0], u0) and states[0] is not u0
        for k, u in enumerate(states):
            assert not any(np.shares_memory(u, v) for v in [u0, *states[k + 1:]])

    @pytest.mark.parametrize("dt", [0.0, -0.1, 1.5])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must satisfy"):
            one_step(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1), np.zeros((1, 5)), dt)


class TestConservationAndBounds:
    @settings(max_examples=60, deadline=None)
    @given(step_operators(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_mass_conserved_without_source(self, case, seed, steps):
        # 1^T W D = -1^T K = 0, so each block keeps sum W u
        ops, dt = case
        w = unit_trapezoid(ops[0].grid.n)
        u0 = np.random.default_rng(seed).uniform(0.0, 1.0, (len(ops), ops[0].grid.n))
        masses = np.array([u @ w for _, u in march(ops, dt, u0, zero_reaction, steps * dt)])
        drift = np.max(np.abs(masses - masses[0]) / masses[0])
        assert drift <= 1e-8

    def test_maximum_principle(self, default_run):
        lo = min(float(u.min()) for _, u in default_run)
        hi = max(float(u.max()) for _, u in default_run)
        assert lo >= -1e-12
        assert hi <= 1 + 1e-12


class TestConvergenceOrders:
    def test_spatial_refinement_quarters_error(self):
        smooth = make_quadratic_diffusion(1.0)
        coarse = diffuse_smooth(251, 1e-3, 0.5, smooth)
        mid = diffuse_smooth(501, 1e-3, 0.5, smooth)
        fine = diffuse_smooth(1001, 1e-3, 0.5, smooth)
        e1 = np.max(np.abs(coarse - mid[::2]))
        e2 = np.max(np.abs(mid - fine[::2]))
        assert 3.5 <= e1 / e2 <= 4.6  # second order: halving dx quarters the error

    def test_temporal_refinement_halves_error(self):
        smooth = make_quadratic_diffusion(1.0)
        a = diffuse_smooth(501, 0.04, 0.4, smooth)
        b = diffuse_smooth(501, 0.02, 0.4, smooth)
        c = diffuse_smooth(501, 0.01, 0.4, smooth)
        e1 = np.max(np.abs(a - b))
        e2 = np.max(np.abs(b - c))
        assert 1.8 <= e1 / e2 <= 2.2  # first order in time


class TestSimulate:
    """Which states ``march`` yields, and their time stamps."""

    def test_snapshot_storage_contract(self):
        fields = stored_fields(
            Grid(L=10.0, n=11),
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            -5.0,
            0.01,
            t_end=0.05,
            stride=2,
        )
        assert np.allclose(times_of(fields), [0.0, 0.02, 0.04, 0.05], atol=1e-12)

    def test_final_time_stored_once(self):
        fields = stored_fields(
            Grid(L=10.0, n=11),
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            -5.0,
            0.01,
            t_end=0.04,
            stride=2,
        )
        assert np.allclose(times_of(fields), [0.0, 0.02, 0.04], atol=1e-12)

    def test_zero_horizon_returns_initial_field_only(self):
        g = Grid(L=10.0, n=11)
        fields = stored_fields(
            g,
            make_quadratic_diffusion(0.1),
            logistic_reaction,
            -5.0,
            0.01,
            t_end=0.0,
            stride=5,
        )
        assert len(fields) == 1
        assert np.array_equal(fields[0][1], step_initial_condition(g, -5.0)[None])

    def test_time_stamps_are_step_multiples(self, default_run):
        steps = np.arange(0, 6001, 25)
        assert np.array_equal(times_of(default_run), steps * 0.01)
        assert default_run[-1][0] == 60.0

    def test_grid_and_times_properties(self, default_run, default_grid):
        assert all(u.shape == (1, default_grid.n) for _, u in default_run)
        times = times_of(default_run)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(60.0, abs=1e-9)
        assert np.all(np.diff(times) > 0)


class TestSolverConfigValidation:
    """The step size, the horizon and the stride are checked when the march is
    called, before its first draw."""

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
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        with pytest.raises(ValueError):
            march([op], kwargs["dt"], np.zeros((1, 5)), logistic_reaction, kwargs["t_end"],
                  kwargs.get("snapshot_stride", 1))

    @pytest.mark.parametrize(
        "t_end, stride, message",
        [
            (-1.0, 1, "t_end must be non-negative, got -1.0"),
            (0.05, 1, "positive t_end must be at least one step dt=0.1, got 0.05"),
            (1.0, 0, "snapshot_stride must be >= 1, got 0"),
            (math.nan, 1, "t_end must be finite, got nan"),
            (math.inf, 1, "t_end must be finite, got inf"),
        ],
    )
    def test_march_checks_at_the_call(self, t_end, stride, message):
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        with pytest.raises(ValueError, match=re.escape(message)):
            march([op], 0.1, np.zeros((1, 5)), logistic_reaction, t_end, stride)

    def test_march_rejects_an_overflowing_step_count(self):
        # before: OverflowError "cannot convert float infinity to integer"
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        message = "t_end / dt must be a finite step count, got t_end=1e+300, dt=1e-10"
        with pytest.raises(ValueError, match=re.escape(message)):
            march([op], 1e-10, np.zeros((1, 5)), logistic_reaction, 1e300)

    def test_march_rejects_more_steps_than_the_config_allows(self):
        # before: the first draw yielded the initial state of a 1e18-step march
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        message = f"t_end / dt must be at most {MAX_STEPS} steps, got t_end={1e15}, dt={1e-3}"
        with pytest.raises(ValueError, match=re.escape(message)):
            march([op], 1e-3, np.zeros((1, 5)), logistic_reaction, 1e15)

    def test_march_accepts_the_largest_step_count(self):
        op = build_operator(Grid(L=1.0, n=5), make_quadratic_diffusion(0.1))
        steps = march([op], 0.5, np.zeros((1, 5)), logistic_reaction, 0.5 * MAX_STEPS)
        t, u = next(steps)
        assert t == 0.0 and u.tolist() == [[0.0] * 5]


class TestUniformDiffusionControl:
    def test_front_speed_near_two(self, constant_a_run):
        times = times_of(constant_a_run)
        positions = stored_positions(constant_a_run, CONSTANT_A_GRID.x)
        sel = (times >= 20.0) & np.isfinite(positions)
        speed = float(np.polyfit(times[sel], positions[sel], 1)[0])
        assert abs(speed - 2.0) / 2.0 <= 0.05


def random_tridiagonal(seed: int, spd: bool) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """A diagonal and off-diagonal of random size and scale, and the generator
    that drew them; ``spd`` makes the matrix diagonally dominant, so
    symmetric positive definite."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    e = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 3)
    d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    if spd:
        d = np.abs(d) + np.pad(np.abs(e), (1, 0)) + np.pad(np.abs(e), (0, 1))
    return d, e, rng


class TestLapackBinding:
    """:func:`fkfront.lapack.load` calls the LAPACK numpy links and gives
    the results of ``scipy.linalg.lapack`` bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_pttrf_pttrs_match_scipy_linalg_bit_for_bit(self, seed, nrhs):
        from scipy.linalg import lapack as scipy_lapack

        d, e, rng = random_tridiagonal(seed, spd=True)
        rhs = rng.normal(size=(d.size, nrhs))
        d_f, e_f = d.copy(), e.copy()
        factors = lapack.load().dpttrf(d_f, e_f)
        # factored in place
        assert factors[0] is d_f and factors[1] is e_f and factors[2] == 0
        d_ref, e_ref, info = scipy_lapack.dpttrf(d, e)
        assert info == 0
        x_ref, info = scipy_lapack.dpttrs(d_ref, e_ref, rhs)
        assert info == 0
        # the binding solves one right-hand side at a time, the reference
        # all nrhs at once
        columns = [column.copy() for column in rhs.T]
        for column in columns:
            lapack.load().dpttrs(d_f, e_f, column)()
        x = np.stack(columns, axis=1)
        for ours, theirs in ((d_f, d_ref), (e_f, e_ref), (x, x_ref)):
            assert np.array_equal(bits(ours), bits(theirs))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_stebz_stein_match_scipy_linalg_bit_for_bit(self, seed, data):
        from scipy.linalg import lapack as scipy_lapack

        d, e, _ = random_tridiagonal(seed, spd=False)
        n = d.size
        il = data.draw(st.integers(1, n))
        iu = data.draw(st.integers(il, n))
        ours = lapack.load()
        results = []
        # scipy's wrapper takes the range (2, by index), vl, vu, the tolerance
        # and the order that the binding fixes
        for module, stebz in ((ours, ours.dstebz(d, e, il, iu)),
                              (scipy_lapack,
                               scipy_lapack.dstebz(d, e, 2, 0.0, 1.0, il, iu, 0.0, "B"))):
            found, w, iblock, isplit, info = stebz
            assert info == 0 and found == iu - il + 1
            vecs, info = module.dstein(d, e, w[:found], iblock, isplit)
            assert info == 0
            results.append((w[:found], iblock, isplit, vecs))
        (w, iblock, isplit, vecs), (w_ref, iblock_ref, isplit_ref, vecs_ref) = results
        assert np.array_equal(iblock, iblock_ref) and np.array_equal(isplit, isplit_ref)
        assert np.array_equal(bits(w), bits(w_ref))
        assert np.array_equal(bits(vecs), bits(vecs_ref))

    def test_binding_resolves_with_scipy_never_imported(self, tmp_path):
        # None in sys.modules makes every import of scipy raise ImportError
        script = textwrap.dedent("""
            import sys

            sys.modules["scipy"] = None
            import numpy as np

            from fkfront.domain import Grid, make_quadratic_diffusion
            from fkfront.solver import march
            from fkfront.spectral import solve_eigenproblem
            from fkfront.stencil import build_operator

            grid = Grid(L=4.0, n=51)
            a = make_quadratic_diffusion(0.1)
            *_, (_, x) = march([build_operator(grid, a)], 0.01, np.ones((1, 51)), lambda u: 0.0 * u,
                               0.01)
            assert np.allclose(x, 1.0), x
            eigenvalues, phis = solve_eigenproblem(a, grid, m=4)
            assert abs(eigenvalues[0]) < 1e-9, eigenvalues
            loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
            assert not loaded, loaded
        """)
        result = run_python(["-c", script], tmp_path)
        assert result.returncode == 0, result.stderr

    def test_unresolved_names_raise_import_error_naming_library_and_names(self, monkeypatch):
        from numpy.linalg import _umath_linalg

        monkeypatch.setattr(lapack, "NAMES", ("no_such_{}_64_", "nor_{}_"))
        with pytest.raises(ImportError, match=re.escape(_umath_linalg.__file__)) as caught:
            lapack.load.__wrapped__()
        assert "no_such_<r>_64_, nor_<r>_" in str(caught.value)


def refuse(*args):
    raise AssertionError("LAPACK called")


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class TestLapackArgumentChecks:
    """An array LAPACK would read or write past raises ``ValueError`` before
    the foreign call; the routines are swapped for :func:`refuse` to show it."""

    @pytest.mark.parametrize("bad", [
        np.zeros(22),
        np.zeros(21, dtype=np.float32),
        np.zeros(42)[::2],
        np.zeros(21)[:, None],
        read_only(np.zeros(21)),
    ], ids=["wrong length", "float32", "not contiguous", "2-D", "read-only"])
    def test_bad_right_hand_side_raises_before_dpttrs(self, monkeypatch, bad):
        monkeypatch.setitem(lapack.load().routines, "dpttrs", refuse)
        d, e = np.full(21, 2.0), np.full(20, -0.5)
        before = bad.copy()
        with pytest.raises(ValueError, match=r"LAPACK argument b must be a writable aligned "
                                             r"contiguous float64 array of shape \(21,\)"):
            lapack.load().dpttrs(d, e, bad)
        assert np.array_equal(bad, before)
        solve = lapack.load().dpttrs(d, e, np.zeros(21))
        with pytest.raises(AssertionError, match="LAPACK called"):
            solve()

    def test_non_array_is_named_by_its_type(self):
        with pytest.raises(ValueError, match=r"LAPACK argument b must be an aligned contiguous "
                                             r"float64 array of shape \(2,\), got list$"):
            lapack.checked("b", [1.0, 2.0], np.float64, 2)

    def test_read_only_factors_are_not_overwritten(self, monkeypatch):
        monkeypatch.setitem(lapack.load().routines, "dpttrf", refuse)
        with pytest.raises(ValueError, match=r"LAPACK argument d must be a writable"):
            lapack.load().dpttrf(read_only(np.ones(5)), np.zeros(4))

    def test_factors_of_mismatched_lengths_are_refused(self):
        with pytest.raises(ValueError, match=r"LAPACK argument e .* shape \(4,\)"):
            lapack.load().dpttrs(np.ones(5), np.ones(5), np.zeros(5))

    def test_empty_system_solves(self):
        # before: "dpttrs failed (info -6)", a leading dimension of 0
        lapack.load().dpttrs(np.empty(0), np.empty(0), np.empty(0))()

    def test_solve_keeps_its_arrays_alive(self):
        # the call holds their addresses, so it must hold the arrays
        arrays = [np.ones(5), np.zeros(4), np.zeros(5)]
        alive = [weakref.ref(a) for a in arrays]
        solve = lapack.load().dpttrs(*arrays)
        del arrays
        assert all(ref() is not None for ref in alive)
        del solve
        assert all(ref() is None for ref in alive)

    def dstein_inputs(self):
        d, e, _ = random_tridiagonal(7, spd=False)
        found, w, iblock, isplit, info = lapack.load().dstebz(d, e, 1, 3)
        assert info == 0 and found == 3
        return d, e, w[:found], iblock, isplit

    def test_short_block_index_array_raises_before_dstein(self, monkeypatch):
        d, e, w, iblock, isplit = self.dstein_inputs()
        monkeypatch.setitem(lapack.load().routines, "dstein", refuse)
        with pytest.raises(ValueError, match=rf"iblock .* shape \({d.size},\)"):
            lapack.load().dstein(d, e, w, iblock[:-1].copy(), isplit)
        with pytest.raises(AssertionError, match="LAPACK called"):
            lapack.load().dstein(d, e, w, iblock, isplit)

    def test_more_eigenvalues_than_the_order_raise_before_dstein(self, monkeypatch):
        d, e, _, iblock, isplit = self.dstein_inputs()
        monkeypatch.setitem(lapack.load().routines, "dstein", refuse)
        with pytest.raises(ValueError, match=f"dstein takes at most n={d.size} eigenvalues, "
                                             f"got {d.size + 1}"):
            lapack.load().dstein(d, e, np.zeros(d.size + 1), iblock, isplit)

    @pytest.mark.parametrize("case", ["block past n", "block 0", "ends past n"])
    def test_block_indices_out_of_range_raise_before_dstein(self, monkeypatch, case):
        d, e, w, iblock, isplit = self.dstein_inputs()
        monkeypatch.setitem(lapack.load().routines, "dstein", refuse)
        iblock, isplit = iblock.copy(), isplit.copy()
        if case == "block past n":
            iblock[: w.size] = d.size + 1
        elif case == "block 0":
            iblock[0] = 0
        else:
            isplit[int(iblock[: w.size].max()) - 1] = d.size + 1
        with pytest.raises(ValueError, match="dstein iblock must name blocks 1..n"):
            lapack.load().dstein(d, e, w, iblock, isplit)

"""Shared fixtures and helpers: reference runs reused across test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import fkfront
from fkfront.domain import (
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
)
from fkfront.front import front_positions
from fkfront.solver import march
from fkfront.spectral import solve_eigenproblem
from fkfront.stencil import build_operator


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 array ``a`` as ``int64``: equal bits, not merely equal values."""
    return np.ascontiguousarray(a).view(np.int64)


def log_uniform(lo: float, hi: float):
    """Floats whose base-10 logarithm is uniform in ``[lo, hi]``."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def zero_reaction(u: np.ndarray) -> np.ndarray:
    """No source term; isolates the diffusion part of the scheme."""
    return np.zeros_like(u)


def smooth_profile(x: np.ndarray, L: float) -> np.ndarray:
    """Even cosine blend, compatible with the no-flux walls, valued in (0, 1)."""
    return 0.5 + 0.3 * np.cos(np.pi * x / L) + 0.15 * np.cos(2 * np.pi * x / L)


def diffuse_smooth(n: int, dt: float, t_end: float, a) -> np.ndarray:
    """The smooth profile marched to ``t_end`` under diffusion ``a`` only (no source)."""
    grid = Grid(L=100.0, n=n)
    *_, (_, u) = march([build_operator(grid, a)], dt, smooth_profile(grid.x, grid.L)[None],
                       zero_reaction, t_end)
    return u[0]


def stored_fields(grid, a, f, x_c0, dt, t_end, stride=1) -> tuple[tuple[float, np.ndarray], ...]:
    """Every ``(t, u)`` state ``march`` yields from the step initial condition,
    ``u`` of shape ``(1, n)``."""
    return tuple(march([build_operator(grid, a)], dt, step_initial_condition(grid, x_c0)[None],
                       f, t_end, stride))


def read_whole(stream):
    """``stream`` as an iterator without a ``send``: no request to drop rows
    reaches it, so :func:`fkfront.front.window_transits` reads every row."""
    return iter(stream.__next__, None)


def dense_matrix(op) -> np.ndarray:
    """``D`` as a dense matrix, row by row from the documented stencil: row ``i``
    is ``[c_{i-1}, -(c_{i-1} + c_i), c_i]``, and the mirror ghost makes the end
    rows ``[-2 c_0, 2 c_0]`` and ``[2 c_{n-2}, -2 c_{n-2}]``."""
    c = op.coupling
    n = c.size + 1
    dense = np.zeros((n, n))
    dense[0, :2] = [-2.0 * c[0], 2.0 * c[0]]
    dense[-1, -2:] = [2.0 * c[-1], -2.0 * c[-1]]
    for i in range(1, n - 1):
        dense[i, i - 1:i + 2] = [c[i - 1], -(c[i - 1] + c[i]), c[i]]
    return dense


def times_of(steps) -> np.ndarray:
    return np.array([t for t, _ in steps])


def stored_positions(steps, x: np.ndarray) -> np.ndarray:
    """Front position on the nodes ``x`` of each stored state of one run (NaN where none)."""
    return front_positions(np.concatenate([u for _, u in steps]), x)


def first_exit(positions: np.ndarray, radius: float) -> int | None:
    """Index of the first finite position outside ``|x| < radius`` after the
    first finite one inside it; None when the front never enters or never leaves."""
    finite = np.isfinite(positions)
    inside = finite & (np.abs(positions) < radius)
    if not inside.any():
        return None
    k_in = int(np.argmax(inside))
    leaves = np.nonzero(finite[k_in:] & ~inside[k_in:])[0]
    return None if leaves.size == 0 else k_in + int(leaves[0])


# step size of the default_run fixture
DEFAULT_DT = 0.01


@pytest.fixture(scope="session")
def default_grid() -> Grid:
    return Grid(L=100.0, n=501)


@pytest.fixture(scope="session")
def default_diffusion():
    """The coefficient ``a(x) = x**2 + 0.1`` of the default run."""
    return make_quadratic_diffusion(0.1)


@pytest.fixture(scope="session")
def default_run(default_grid, default_diffusion):
    """Full default-configuration run: a step released at -35 crossing the well."""
    return stored_fields(
        default_grid,
        default_diffusion,
        logistic_reaction,
        -35.0,
        DEFAULT_DT,
        t_end=60.0,
        stride=25,
    )


@pytest.fixture(scope="session")
def pure_diffusion_run(default_grid, default_diffusion):
    """Sourceless run on the default grid; total mass must be conserved."""
    return stored_fields(
        default_grid,
        default_diffusion,
        zero_reaction,
        -35.0,
        0.01,
        t_end=10.0,
        stride=100,
    )


# grid of the constant_a_run fixture
CONSTANT_A_GRID = Grid(L=100.0, n=1001)


@pytest.fixture(scope="session")
def constant_a_run():
    """Uniform-diffusion control; the front must settle near the pulled speed 2."""
    return stored_fields(
        CONSTANT_A_GRID,
        make_constant_diffusion(1.0),
        logistic_reaction,
        -50.0,
        0.01,
        t_end=40.0,
        stride=100,
    )


@pytest.fixture(scope="session")
def default_eigen(default_grid, default_diffusion):
    return solve_eigenproblem(default_diffusion, default_grid, m=64)


def run_python(args, cwd):
    """Run this interpreter on ``args`` with the package under test importable."""
    src = Path(fkfront.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
    )

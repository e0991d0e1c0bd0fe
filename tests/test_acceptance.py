"""End-to-end acceptance gate.

Each test checks one release criterion, prints a single PASS/FAIL line with
the measured numbers, and then asserts.  Run with ``pytest -v`` (add ``-s``
or ``-rA`` to see the printed lines for passing criteria too).  A1's clauses
are also fed synthetic trap times, to show they reject what they replace.
"""

import csv
import json
import math

import numpy as np
import pytest

from fkfront.asymptotics import sfa_residual, stationary_roots
from fkfront.cli import main, sfa_front_comparison
from fkfront.domain import (
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
)
from fkfront.front import fit_power_law, window_transits
from fkfront.solver import factor_step_matrix, march
from fkfront.spectral import average_prediction, solve_eigenproblem
from fkfront.stencil import build_operator
from fkfront.wkb import Branch, characteristic_label, characteristic_steps, phase_along

from conftest import (
    CONSTANT_A_GRID,
    DEFAULT_DT,
    diffuse_smooth,
    stored_positions,
    times_of,
)


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def rms(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(arr * arr)))


SWEEP_TEMPLATE = """
[domain]
n = {n}
[solver]
dt = 0.01
t_end = 20
snapshot_stride = 5
[sweep]
epsilons = 0.1 0.05 0.025 0.0125
"""


def local_exponents(epsilons, times) -> np.ndarray:
    """``ln(T_{k+1}/T_k) / ln(eps_{k+1}/eps_k)`` between neighbouring sweep members."""
    eps = np.asarray(epsilons, dtype=float)
    t = np.asarray(times, dtype=float)
    return np.log(t[1:] / t[:-1]) / np.log(eps[1:] / eps[:-1])


def log_law_rms(epsilons, times) -> float:
    """Log-space RMS residual of the least-squares fit ``T = A + B ln(1/eps)``."""
    eps = np.asarray(epsilons, dtype=float)
    t = np.asarray(times, dtype=float)
    design = np.column_stack([np.ones_like(eps), np.log(1.0 / eps)])
    coef, *_ = np.linalg.lstsq(design, t, rcond=None)
    model = design @ coef
    if np.any(model <= 0):
        return math.inf
    return rms(np.log(t) - np.log(model))


def trapping_law_clauses(epsilons, times, power_rms: float) -> dict:
    """The logarithmic trapping law as three clauses on one epsilon sweep.

    A ray of the exact flow for ``a = x**2 + eps`` spends
    ``asinh(R / sqrt(eps)) / Htilde`` in ``|x| < R``: the residence time grows
    like ``ln(1/eps)``, not as a power of ``eps``.
    ``epsilons`` decrease; ``power_rms`` is the log-space RMS residual of the
    free power-law fit.
    """
    t = np.asarray(times, dtype=float)
    slopes = local_exponents(epsilons, t)
    log_rms = log_law_rms(epsilons, t)
    # a pure power law gives equal local exponents, and flat times two exact
    # fits, up to rounding; each comparison must win by more than rounding
    rounding = 1e-9
    growing = bool(np.all(np.diff(t) > 0))
    shrinking = bool(np.all(np.abs(slopes[1:]) < np.abs(slopes[:-1]) - rounding))
    log_beats_power = log_rms < power_rms - rounding
    return {
        "growing": growing,
        "slopes": slopes,
        "shrinking": shrinking,
        "log_rms": log_rms,
        "power_rms": power_rms,
        "log_beats_power": log_beats_power,
        "holds": growing and shrinking and log_beats_power,
    }


def read_trap_times(out) -> tuple[np.ndarray, np.ndarray]:
    with open(out / "trap_times.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    eps = np.array([float(row["epsilon"]) for row in rows])
    times = np.array([float(row["trap_time"]) for row in rows])
    return eps, times


def test_a1_trapping_time_scaling(tmp_path):
    reports = {}
    clauses = {}
    for n in (501, 1001):
        cfg = tmp_path / f"sweep_{n}.ini"
        cfg.write_text(SWEEP_TEMPLATE.format(n=n), encoding="utf-8")
        out = tmp_path / f"out_{n}"
        assert main(["trap-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        reports[n] = json.loads((out / "fit_report.json").read_text())
        eps, times = read_trap_times(out)
        clauses[n] = trapping_law_clauses(eps, times, rms(reports[n]["free"]["residuals"]))
    law_ok = all(c["holds"] for c in clauses.values())
    rms_coarse = rms(reports[501]["fixed"]["residuals"])
    rms_fine = rms(reports[1001]["fixed"]["residuals"])
    rms_ok = rms_fine < rms_coarse
    law_detail = "; ".join(
        f"n={n}: T increasing: {c['growing']}, local p "
        + ", ".join(f"{p:.3f}" for p in c["slopes"])
        + f" shrinking: {c['shrinking']}, log-law RMS {c['log_rms']:.4f} < "
        f"power-law RMS {c['power_rms']:.4f}: {c['log_beats_power']}"
        for n, c in clauses.items()
    )
    verdict(
        "A1 trapping-time scaling",
        law_ok and rms_ok,
        f"{law_detail}; "
        f"fixed-exponent RMS {rms_coarse:.4f} -> {rms_fine:.4f} decreasing: {rms_ok}",
    )


# A1's clauses must tell the logarithmic law from the laws it replaces: any
# pure power law (the old band's eps^-1/2, or the exponent the numerics fit)
# and trap times that do not grow.
@pytest.mark.parametrize(
    "times, logarithmic",
    [
        (lambda eps: 2.0 * eps**-0.5, False),
        (lambda eps: 2.0 * eps**-0.27, False),
        (lambda eps: np.full_like(eps, 2.0), False),
        (lambda eps: np.arcsinh(0.4 / np.sqrt(eps)) / 0.8, True),
    ],
    ids=["eps^-0.5", "eps^-0.27", "constant", "ray residence"],
)
def test_a1_clauses_tell_logarithmic_from_power_law(times, logarithmic):
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    t = times(eps)
    power_rms = rms(fit_power_law(np.column_stack([eps, t]))["residuals"])
    assert trapping_law_clauses(eps, t, power_rms)["holds"] == logarithmic


def test_a2_sfa_front_agreement(default_run, default_grid):
    rows, _ = sfa_front_comparison(default_run, default_grid)
    threshold = -5.0 * math.sqrt(0.1)
    window = [(t, xc_num, gap) for t, xc_num, _, gap in rows if xc_num < threshold]
    assert window, "no stored times inside the comparison window"
    worst_t, worst_xc, worst_gap = max(window, key=lambda item: item[2])
    tolerance = 5.0 * default_grid.dx
    ok = worst_gap <= tolerance
    # the drift model neglects a u_xx against a' u_x; report that ratio for
    # the stored field at the worst time, at its numerical front
    dt = DEFAULT_DT
    worst_u = next(u for t, u in default_run if t == worst_t)
    ratio = sfa_residual(
        default_grid.x, worst_u, 0.1, dt, np.array([worst_xc]),
        space_step=default_grid.dx, time_step=0.5 * dt,
    )[1][0]
    verdict(
        "A2 SFA front agreement",
        ok,
        f"{len(window)} stored times with xc < {threshold:.3f}; "
        f"max |xc_num - xc_sfa| = {worst_gap:.4f} at t = {worst_t:g} "
        f"(tolerance {tolerance:g}); validity ratio |a u_xx|/|a' u_x| there {ratio:.3f}",
    )


def test_a3_turning_point_behavior(default_run, default_grid):
    x = default_grid.x
    positions = stored_positions(default_run, x)
    finite = np.isfinite(positions)
    times = times_of(default_run)[finite]
    xs = positions[finite]

    inside = np.abs(xs) < 0.4
    assert inside.any(), "front never reached the slow window"
    k_in = int(np.argmax(inside))
    pre_diffs = np.diff(xs[: k_in + 1])
    monotone_ok = bool(np.all(pre_diffs > 0))

    [(entry, exit_, _)], _ = window_transits(default_run, x, 0.4)
    duration = exit_ - entry
    duration_ok = duration >= 10 * DEFAULT_DT

    exit_ok = xs[-1] > 0

    def max_gradient(k: int) -> float:
        return float(np.max(np.abs(np.gradient(default_run[k][1], x))))

    stored = {float(t): i for i, t in enumerate(times_of(default_run))}
    k_near_zero = int(np.argmin(np.abs(xs)))
    k_near_ref = int(np.argmin(np.abs(xs - (-5.0))))
    grad_mid = max_gradient(stored[float(times[k_near_zero])])
    grad_ref = max_gradient(stored[float(times[k_near_ref])])
    steepening = grad_mid / grad_ref
    steepening_ok = steepening >= 2.0

    verdict(
        "A3 turning-point behavior",
        monotone_ok and duration_ok and exit_ok and steepening_ok,
        f"monotone approach: {monotone_ok}; residence {duration:.3f} >= 0.1: "
        f"{duration_ok}; exits to x={xs[-1]:.1f} > 0: {exit_ok}; "
        f"steepening x{steepening:.2f} >= 2: {steepening_ok}",
    )


def test_a4_eigen_oracle():
    grid = Grid(L=10.0, n=401)
    vals, phis = solve_eigenproblem(make_constant_diffusion(1.0), grid, m=11)
    lam0 = abs(float(vals[0]))
    exact = -((np.arange(1, 11) * math.pi / 20.0) ** 2)
    rel = float(np.max(np.abs(vals[1:] - exact) / np.abs(exact)))
    funcs = np.stack([phis[k] for k in range(11)])
    gram = funcs @ np.diag(grid.quadrature_weights) @ funcs.T
    defect = float(np.max(np.abs(gram - np.eye(11))))
    ok = lam0 <= 1e-10 and rel <= 1e-2 and defect <= 1e-8
    verdict(
        "A4 eigen oracle",
        ok,
        f"|lambda_0| = {lam0:.2e} <= 1e-10; max rel dev = {rel:.2e} <= 1e-2; "
        f"orthonormality defect = {defect:.2e} <= 1e-8",
    )


def test_a5_characteristic_labels_and_layers():
    eps = 0.01

    rng = np.random.default_rng(7)
    worst_drift = 0.0
    for k in range(20):
        x0 = float(rng.uniform(-3.0, 3.0))
        ht = float(rng.uniform(0.3, 1.2))
        branch = Branch.PLUS if k % 2 == 0 else Branch.MINUS
        path = np.array(list(characteristic_steps(x0, ht, eps, branch, t_end=1.0, dt=1e-3)))
        for t, x in path[::100]:
            lab = characteristic_label(float(x), float(t), ht, eps, branch)
            worst_drift = max(worst_drift, abs(lab - x0))
    # two rays start inside the slow spot |x| < sqrt(eps) = 0.1, the rest outside it
    ok = worst_drift <= 1e-6
    verdict("A5 characteristic labels and layers", ok, f"label drift {worst_drift:.2e} <= 1e-6")


def test_a6_closed_form_residuals():
    steps = (1e-2, 5e-3, 2.5e-3)

    def orders(residuals):
        return [math.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)]

    t0 = 0.7
    res_mean = []
    for h in steps:
        du = (average_prediction(t0 + h, -35.0, 100.0)
              - average_prediction(t0 - h, -35.0, 100.0)) / (2 * h)
        u = average_prediction(t0, -35.0, 100.0)
        res_mean.append(abs(du - u * (1.0 - u)))

    grid = Grid(L=10.0, n=20001)
    u = 1.0 / (1.0 + np.exp(np.clip(4.0 * (grid.x + 3.0), -500, 500)))
    xs = np.linspace(-2.0, -0.5, 7)
    res_sfa = [
        float(np.max(np.abs(sfa_residual(
            grid.x, u, 0.1, 0.3, xs, space_step=h, time_step=h,
        )[0])))
        for h in steps
    ]

    params = (0.8, 0.01, Branch.MINUS)  # Htilde, epsilon, sign

    def phase_residual(h):
        worst = 0.0
        for x in (-1.0, -0.3, 0.2, 0.9):
            for t in (0.2, 0.5):
                phi_t = (phase_along(x, t + h, *params) - phase_along(x, t - h, *params)) / (2 * h)
                phi_x = (phase_along(x + h, t, *params) - phase_along(x - h, t, *params)) / (2 * h)
                worst = max(worst, abs(phi_t + (x * x + 0.01) * phi_x**2 + 1.0))
        return worst

    res_phase = [phase_residual(h) for h in steps]

    measured = {
        "mean": min(orders(res_mean)),
        "sfa": min(orders(res_sfa)),
        "phase": min(orders(res_phase)),
    }
    ok = all(order >= 1.9 for order in measured.values())
    verdict(
        "A6 closed-form residuals",
        ok,
        "second-order stencil convergence: "
        + ", ".join(f"{name} {order:.2f}" for name, order in measured.items())
        + " (all >= 1.9)",
    )


def test_a7_solver_properties(default_grid, default_run, pure_diffusion_run, constant_a_run):
    grid = default_grid
    op = build_operator(grid, make_quadratic_diffusion(0.1))
    # ten steps of 0.1 from the two equilibria, marched as one stacked system
    *_, (_, (zero, one)) = march(factor_step_matrix([op, op], 0.1),
                                 np.stack([np.zeros(grid.n), np.ones(grid.n)]),
                                 logistic_reaction, 1.0)
    eq_dev0 = float(np.max(np.abs(zero)))
    eq_dev1 = float(np.max(np.abs(one - 1.0)))
    equilibria_ok = eq_dev0 == 0.0 and eq_dev1 <= 1e-12

    w = grid.quadrature_weights
    masses = np.array([w @ u for _, u in pure_diffusion_run])
    drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    mass_ok = drift <= 1e-8

    lo = min(float(u.min()) for _, u in default_run)
    hi = max(float(u.max()) for _, u in default_run)
    bounds_ok = lo >= -1e-12 and hi <= 1.0 + 1e-12

    smooth = make_quadratic_diffusion(1.0)
    coarse = diffuse_smooth(251, 1e-3, 0.5, smooth)
    mid = diffuse_smooth(501, 1e-3, 0.5, smooth)
    fine = diffuse_smooth(1001, 1e-3, 0.5, smooth)
    e1 = np.max(np.abs(coarse - mid[::2]))
    e2 = np.max(np.abs(mid - fine[::2]))
    spatial_order = math.log2(e1 / e2)
    a = diffuse_smooth(501, 0.04, 0.4, smooth)
    b = diffuse_smooth(501, 0.02, 0.4, smooth)
    c = diffuse_smooth(501, 0.01, 0.4, smooth)
    temporal_order = math.log2(
        np.max(np.abs(a - b)) / np.max(np.abs(b - c))
    )
    orders_ok = spatial_order >= 1.9 and 0.9 <= temporal_order <= 1.1

    times = times_of(constant_a_run)
    positions = stored_positions(constant_a_run, CONSTANT_A_GRID.x)
    keep = np.isfinite(positions) & (times >= 20.0)
    speed = float(np.polyfit(times[keep], positions[keep], 1)[0])
    speed_ok = abs(speed - 2.0) / 2.0 <= 0.05

    verdict(
        "A7 solver properties",
        equilibria_ok and mass_ok and bounds_ok and orders_ok and speed_ok,
        f"equilibria dev ({eq_dev0:.1e}, {eq_dev1:.1e}); mass drift {drift:.1e}; "
        f"range [{lo:.1e}, 1+{hi - 1.0:.1e}]; orders spatial {spatial_order:.2f} / "
        f"temporal {temporal_order:.2f}; control speed {speed:.3f}",
    )


def test_a8_stationary_root_algebra():
    rng = np.random.default_rng(11)
    worst_prod = 0.0
    worst_sum = 0.0
    for c in rng.uniform(-6.0, 6.0, size=1000):
        for s, beta in ((1.0, c - 1.0), (-1.0, c + 1.0)):
            (r1, r2), _ = stationary_roots(float(c), s)
            worst_prod = max(worst_prod, abs(r1 * r2 - 1.0))
            worst_sum = max(worst_sum, abs(r1 + r2 - beta))
    vieta_ok = worst_prod <= 1e-12 and worst_sum <= 1e-12

    delta = 1e-12
    exit_kinds = tuple(
        stationary_roots(c, 1.0)[1] for c in (-1.0 - delta, -1.0, -1.0 + delta)
    )
    entry_kinds = tuple(
        stationary_roots(c, -1.0)[1] for c in (1.0 - delta, 1.0, 1.0 + delta)
    )
    flips_ok = exit_kinds == ("real_distinct", "real_double", "complex") and entry_kinds == (
        "complex",
        "real_double",
        "real_distinct",
    )

    verdict(
        "A8 stationary-root algebra",
        vieta_ok and flips_ok,
        f"Vieta dev (prod {worst_prod:.1e}, sum {worst_sum:.1e}) <= 1e-12; "
        f"classification flips at c = -1 (s = +1) and c = +1 (s = -1): {flips_ok}",
    )


def test_a9_average_growth(default_run, default_grid):
    grid = default_grid
    w = grid.quadrature_weights
    avgs = np.array([w @ u / (2.0 * grid.L) for _, u in default_run])
    exact_start = (grid.L + (-35.0)) / (2.0 * grid.L)
    start_ok = avgs[0] == exact_start
    monotone_ok = bool(np.all(np.diff(avgs) >= -1e-12))
    reach = np.nonzero(avgs >= 0.9)[0]
    reach_ok = reach.size > 0
    t_reach = float(default_run[reach[0]][0]) if reach_ok else math.inf
    verdict(
        "A9 domain-average growth",
        start_ok and monotone_ok and reach_ok,
        f"avg(0) == {exact_start} exactly: {start_ok}; monotone: {monotone_ok}; "
        f"reaches 0.9 at t = {t_reach:g}",
    )

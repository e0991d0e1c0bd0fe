"""Command-line front: one subcommand per experiment, CSV + JSON out.

Subcommands
-----------
simulate      full solver run, long-format field dump
compare-sfa   numerical front against the drift-model prediction
trap-sweep    trapping times over an epsilon sweep, with power-law fits
eigen         diffusion-operator spectrum and selected modes
wkb           ray fan of the exponential-tail transport
average       domain mean against its logistic prediction

Exit codes: 0 on success, 1 on configuration errors (nothing is written),
2 on runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .asymptotics import Snapshot, sfa_evolve
from .config import ConfigError, ExperimentConfig, config_digest, load_config
from .domain import (
    Field,
    FrontSpec,
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
)
from .front import (
    FrontNotTransitedError,
    FrontPath,
    fit_power_law,
    front_positions,
    locate_front,
    trapping_time,
)
from .solver import SolverConfig, Trajectory, build_operator, factor_step_matrix, march, simulate
from .spectral import average_prediction, solve_eigenproblem
from .wkb import Branch, integrate_characteristic

__all__ = ["main", "sfa_front_comparison"]

log = logging.getLogger("fkfront")


def _grid(cfg: ExperimentConfig) -> Grid:
    return Grid(L=cfg.L, n=cfg.n)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(dt=cfg.dt, t_end=cfg.t_end, snapshot_stride=cfg.snapshot_stride)


def _warn_if_under_resolved(grid: Grid, epsilons) -> None:
    """Warn when ``dx > sqrt(epsilon)``: the slow spot then spans less than a cell.

    A warning, not a configuration error: the default grid trips it.
    """
    coarse = [eps for eps in epsilons if grid.dx > math.sqrt(eps)]
    if coarse:
        log.warning("grid under-resolved: dx=%g exceeds sqrt(epsilon) for epsilon %s",
                    grid.dx, ", ".join(f"{eps:g}" for eps in coarse))


def _run(cfg: ExperimentConfig, epsilon: float | None = None) -> Trajectory:
    eps = cfg.epsilon if epsilon is None else epsilon
    _warn_if_under_resolved(_grid(cfg), [eps])
    return simulate(
        _grid(cfg),
        make_quadratic_diffusion(eps),
        logistic_reaction(),
        FrontSpec(x_c0=cfg.x_c0),
        _solver_config(cfg),
    )


def _meta(cfg: ExperimentConfig, command: str, **extra) -> dict:
    grid = _grid(cfg)
    meta = {
        "command": command,
        "config_sha256": config_digest(cfg),
        "L": cfg.L,
        "n": cfg.n,
        "dx": grid.dx,
        "dt": cfg.dt,
        "epsilon": cfg.epsilon,
        "x_c0": cfg.x_c0,
        "t_end": cfg.t_end,
    }
    meta.update(extra)
    return meta


def cmd_simulate(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    traj = _run(cfg)
    io.export_trajectory(traj, out / "trajectory.csv", _meta(cfg, "simulate"))


def sfa_front_comparison(traj: Trajectory, level: float = 0.5) -> list[tuple]:
    """Rows ``(t, xc_numeric, xc_sfa, abs_diff)`` where both fronts exist.

    The prediction evolves the *initial* stored field under the reduced
    drift model and locates the same level crossing on the result.
    """
    snap = Snapshot(traj.fields[0])
    grid = traj.grid
    rows = []
    for field in traj.fields:
        xc_num = locate_front(field, level)
        predicted = Field(grid, np.asarray(sfa_evolve(snap, grid.x, field.time)), field.time)
        xc_sfa = locate_front(predicted, level)
        if xc_num is None or xc_sfa is None:
            continue
        rows.append((field.time, xc_num, xc_sfa, abs(xc_num - xc_sfa)))
    return rows


def cmd_compare_sfa(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    rows = sfa_front_comparison(_run(cfg))
    csv_path = out / "front_comparison.csv"
    io.write_csv(csv_path, ("t", "xc_numeric", "xc_sfa", "abs_diff"), rows)
    io.write_json(io.sidecar_path(csv_path), _meta(cfg, "compare-sfa"))


def _front_paths(cfg: ExperimentConfig, epsilons: list[float]) -> list[FrontPath]:
    """Front paths of the sweep members, marched together as one stacked system.

    Only the front position is kept from each stored step; no field is stored.
    """
    grid = _grid(cfg)
    ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in epsilons]
    u0 = step_initial_condition(grid, FrontSpec(x_c0=cfg.x_c0)).values
    times: list[float] = []
    positions: list[np.ndarray] = []

    def observe(t: float, u: np.ndarray) -> None:
        times.append(t)
        positions.append(front_positions(u, grid.x))

    march(factor_step_matrix(ops, cfg.dt), np.tile(u0, (len(ops), 1)), logistic_reaction(),
          _solver_config(cfg), observe)
    table = np.array(positions)
    return [FrontPath(times=np.array(times), positions=table[:, b]) for b in range(len(ops))]


def cmd_trap_sweep(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    epsilons = []
    for eps in cfg.sweep_epsilons:
        if eps in epsilons:
            log.warning("duplicate epsilon %g in sweep; keeping first occurrence", eps)
            continue
        epsilons.append(eps)
    _warn_if_under_resolved(_grid(cfg), epsilons)
    if workers > 1 and len(epsilons) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [c.tolist() for c in np.array_split(epsilons, min(workers, len(epsilons)))]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            paths = [p for chunk in pool.map(_front_paths, [cfg] * len(chunks), chunks)
                     for p in chunk]
    else:
        paths = _front_paths(cfg, epsilons)

    statuses = {}
    rows = []
    pairs = []
    for eps, path in zip(epsilons, paths):
        try:
            duration = trapping_time(path, radius=cfg.trap_radius)
        except FrontNotTransitedError as exc:
            status = "not-exited" if exc.entered else "not-entered"
            statuses[io.format_cell(eps)] = (
                status if exc.partial is None else f"{status} (>= {exc.partial:.6g})"
            )
            rows.append((eps, math.nan))
            log.warning("epsilon %g: front %s within t_end=%g", eps, status, cfg.t_end)
            continue
        statuses[io.format_cell(eps)] = "transited"
        rows.append((eps, duration))
        pairs.append((eps, duration))

    meta = _meta(cfg, "trap-sweep", radius=cfg.trap_radius, statuses=statuses)
    csv_path = out / "trap_times.csv"
    io.write_csv(csv_path, ("epsilon", "trap_time"), rows)
    io.write_json(io.sidecar_path(csv_path), meta)

    fits = {}
    error = None
    if len(pairs) >= 2:
        fits["free"] = fit_power_law(pairs)
        fits["fixed"] = fit_power_law(pairs, exponent=-0.5)
    else:
        error = f"power-law fit needs at least two transited epsilons, have {len(pairs)}"
        log.warning("%s", error)
    io.export_fit_reports(fits, out / "fit_report.json", meta, error=error)


def cmd_eigen(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    if cfg.eigen_constant_a is not None:
        diffusion = make_constant_diffusion(cfg.eigen_constant_a)
    else:
        diffusion = make_quadratic_diffusion(cfg.epsilon)
        _warn_if_under_resolved(_grid(cfg), [cfg.epsilon])
    eig = solve_eigenproblem(diffusion, _grid(cfg), m=cfg.eigen_modes)
    meta = _meta(cfg, "eigen", modes=cfg.eigen_modes, constant_a=cfg.eigen_constant_a)
    io.export_eigen_system(eig, cfg.eigen_dump, out, meta)


def cmd_wkb(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    branches = {
        "plus": (Branch.PLUS,),
        "minus": (Branch.MINUS,),
        "both": (Branch.PLUS, Branch.MINUS),
    }[cfg.wkb_branch]
    diffusion = make_quadratic_diffusion(cfg.epsilon)

    def rows():
        for x0 in cfg.wkb_x0:
            for branch in branches:
                path = integrate_characteristic(
                    x0, cfg.wkb_htilde, diffusion, branch, cfg.wkb_t_end, cfg.wkb_dt
                )
                for t, x in zip(path.times, path.positions):
                    yield (t, x, x0, branch.value)

    csv_path = out / "characteristics.csv"
    io.write_csv(csv_path, ("t", "x", "x0", "branch"), rows())
    io.write_json(
        io.sidecar_path(csv_path),
        _meta(cfg, "wkb", htilde=cfg.wkb_htilde, branch=cfg.wkb_branch,
              wkb_t_end=cfg.wkb_t_end, wkb_dt=cfg.wkb_dt),
    )


def cmd_average(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    traj = _run(cfg)
    grid = traj.grid
    w = grid.quadrature_weights
    length = 2.0 * grid.L
    rows = [
        (
            field.time,
            float(w @ field.values) / length,
            float(average_prediction(field.time, cfg.x_c0, cfg.L)),
        )
        for field in traj.fields
    ]
    csv_path = out / "average.csv"
    io.write_csv(csv_path, ("t", "avg_numeric", "avg_predicted"), rows)
    io.write_json(io.sidecar_path(csv_path), _meta(cfg, "average"))


_COMMANDS = {
    "simulate": (cmd_simulate, "run the solver and dump the stored fields"),
    "compare-sfa": (cmd_compare_sfa, "front position: numerics vs drift-model prediction"),
    "trap-sweep": (cmd_trap_sweep, "trapping times across epsilons, with power-law fits"),
    "eigen": (cmd_eigen, "diffusion-operator spectrum and selected modes"),
    "wkb": (cmd_wkb, "ray fan of the exponential-tail transport"),
    "average": (cmd_average, "domain mean vs its logistic prediction"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkfront",
        description="Front propagation through a quadratic diffusion well.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the experiment config")
        sp.add_argument("--out", default="./out", help="output directory (default ./out)")
        sp.add_argument("--workers", type=int, default=1,
                        help="parallel workers for sweeps (default 1)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.workers < 1:
        print(f"config error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 1
    command, _ = _COMMANDS[args.command]
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        command(cfg, out, args.workers)
    except Exception as exc:  # noqa: BLE001 -- boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

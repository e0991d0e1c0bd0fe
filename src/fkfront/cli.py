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
from typing import Iterable, Iterator

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
    fit_power_law,
    front_positions,
    track_front,
    trapping_time,
)
from .solver import SolverConfig, build_operator, factor_step_matrix, march
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


def _march(cfg: ExperimentConfig, epsilons: list[float]) -> Iterator[tuple[float, np.ndarray]]:
    """Stored steps ``(t, u)`` of one run per epsilon, marched as one stacked system.

    ``u`` has shape ``(len(epsilons), n)``; row ``b`` is bit for bit the run
    for ``epsilons[b]`` alone.  The grid is checked for resolution and the
    matrix factored here, before the first step is drawn.
    """
    grid = _grid(cfg)
    _warn_if_under_resolved(grid, epsilons)
    ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in epsilons]
    u0 = step_initial_condition(grid, FrontSpec(x_c0=cfg.x_c0)).values
    return march(factor_step_matrix(ops, cfg.dt), np.tile(u0, (len(ops), 1)),
                 logistic_reaction(), _solver_config(cfg))


def _log_early_stop(command: str, t: float, cfg: ExperimentConfig, reason: str) -> None:
    """Log, at INFO, that ``command`` stopped marching at ``t`` before ``t_end``."""
    if t + 0.5 * cfg.dt < cfg.t_end:
        log.info("%s: stopped marching at t=%g, before t_end=%g: %s",
                 command, t, cfg.t_end, reason)


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


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> None:
    grid = _grid(cfg)
    steps = _march(cfg, [cfg.epsilon])
    rows = ((t, xi, ui) for t, u in steps for xi, ui in zip(grid.x, u[0]))
    csv_path = out / "trajectory.csv"
    io.write_csv(csv_path, ("t", "x", "u"), rows)
    io.write_json(io.sidecar_path(csv_path), _meta(cfg, "simulate"))


def sfa_front_comparison(
    steps: Iterable[tuple[float, np.ndarray]], grid: Grid, level: float = 0.5
) -> list[tuple]:
    """Rows ``(t, xc_numeric, xc_sfa, abs_diff)`` where both fronts exist.

    ``steps`` streams the ``(t, u)`` states of one run on ``grid``, with
    ``u`` of shape ``(n,)`` or ``(1, n)``.  The prediction evolves the
    *first* state under the reduced drift model and locates the same level
    crossing on the result.

    No further state is drawn after the first one with ``u > level`` at
    every node.  That state has no numerical front, and for ``0 < level < 1``
    and a stream from :func:`~fkfront.solver.march` with the logistic
    reaction no later state has one either, so no row is lost:

    - each step solves ``(I - dt D) u' = g(u)`` with
      ``g(v) = v + dt v (1 - v)``; ``I - dt D`` is an M-matrix with unit row
      sums, so ``u'`` is a convex combination of the entries of ``g(u)`` and
      ``min u' >= min g(u)``;
    - for ``dt <= 1``, which :class:`~fkfront.solver.SolverConfig` enforces,
      ``g`` is increasing on ``[0, 1]`` with ``g(v) >= v``, so
      ``min g(u) = g(min u) >= min u``;
    - so once ``min u > level``, ``min u`` stays above ``level`` and no
      crossing can return.  This holds in exact arithmetic; in floating
      point each solve moves ``min u`` by a few ulps, against the
      ``dt v (1 - v)`` that ``g`` adds near the level.

    The states a stream holds after that one are not read, so a stream
    whose field can fall back to the level must not be passed.
    """
    snap = None
    rows = []
    for t, u in steps:
        u = np.reshape(u, grid.n)
        if snap is None:
            snap = Snapshot(Field(grid, u, t))
        predicted = np.asarray(sfa_evolve(snap, grid.x, t))
        xc_num, xc_sfa = front_positions(np.stack([u, predicted]), grid.x, level).tolist()
        if math.isnan(xc_num) or math.isnan(xc_sfa):
            if u.min() > level:
                break
            continue
        rows.append((t, xc_num, xc_sfa, abs(xc_num - xc_sfa)))
    return rows


def cmd_compare_sfa(cfg: ExperimentConfig, out: Path) -> None:
    grid = _grid(cfg)
    t_stop = 0.0

    def steps():
        nonlocal t_stop
        for t_stop, u in _march(cfg, [cfg.epsilon]):
            yield t_stop, u

    rows = sfa_front_comparison(steps(), grid)
    _log_early_stop("compare-sfa", t_stop, cfg, "u > 0.5 at every node, no front can return")
    csv_path = out / "front_comparison.csv"
    io.write_csv(csv_path, ("t", "xc_numeric", "xc_sfa", "abs_diff"), rows)
    io.write_json(io.sidecar_path(csv_path), _meta(cfg, "compare-sfa"))


def cmd_trap_sweep(cfg: ExperimentConfig, out: Path) -> None:
    epsilons = []
    for eps in cfg.sweep_epsilons:
        if eps in epsilons:
            log.warning("duplicate epsilon %g in sweep; keeping first occurrence", eps)
            continue
        epsilons.append(eps)
    # The march stops once every front has left the trapping window, which
    # changes no trapping time; all rows share one time axis.
    paths = track_front(_march(cfg, epsilons), _grid(cfg).x, radius=cfg.trap_radius)
    _log_early_stop("trap-sweep", paths[0].times[-1], cfg,
                    f"every front has left |x| < {cfg.trap_radius:g}")

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


def cmd_eigen(cfg: ExperimentConfig, out: Path) -> None:
    if cfg.eigen_constant_a is not None:
        diffusion = make_constant_diffusion(cfg.eigen_constant_a)
    else:
        diffusion = make_quadratic_diffusion(cfg.epsilon)
        _warn_if_under_resolved(_grid(cfg), [cfg.epsilon])
    eig = solve_eigenproblem(diffusion, _grid(cfg), m=cfg.eigen_modes, vectors=cfg.eigen_dump)
    meta = _meta(cfg, "eigen", modes=cfg.eigen_modes, constant_a=cfg.eigen_constant_a)
    io.export_eigen_system(eig, cfg.eigen_dump, out, meta)


def cmd_wkb(cfg: ExperimentConfig, out: Path) -> None:
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


def cmd_average(cfg: ExperimentConfig, out: Path) -> None:
    grid = _grid(cfg)
    w = grid.quadrature_weights
    length = 2.0 * grid.L
    rows = (
        (t, float(w @ u[0]) / length, float(average_prediction(t, cfg.x_c0, cfg.L)))
        for t, u in _march(cfg, [cfg.epsilon])
    )
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
                        help="accepted for compatibility, must be >= 1; has no effect")
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
        command(cfg, out)
    except Exception as exc:  # noqa: BLE001 -- boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front: one subcommand per experiment, CSV + JSON out.

Subcommands
-----------
simulate      full solver run, long-format field dump
compare-sfa   numerical front against the drift-model prediction
trap-sweep    trapping times over an epsilon sweep, with power-law fits
eigen         diffusion-operator spectrum and selected modes
wkb           ray fan of the exponential-tail transport
average       domain mean against its logistic prediction

A command that solves marches each epsilon as one row of a ``(B, n)`` stack.
Each command writes each CSV with its JSON sidecar in one
:func:`fkfront.io.write_table` call, as plain ``float``, ``int`` and ``str``
cells.  Exit codes: 0 on success, 1 on configuration errors (nothing is
written), 2 on runtime failures.

:func:`entry` is the process entry behind both ``python -m fkfront.cli``
and the ``fkfront`` console script.  It runs :func:`main`, freezes the
collector's view of the heap with ``gc.freeze`` and exits, so that
interpreter finalization does not walk and free the tens of thousands of
objects numpy leaves behind (about 0.1 s after a solve).  :func:`main`
itself does not freeze: tests and library callers collect as usual.

At module level only the standard library, :mod:`fkfront.config` and
:mod:`fkfront.io` are imported; each command imports the layers it runs
when it runs.  So ``--help`` and ``wkb`` never load numpy, and no command
loads a layer it does not use.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import io
from .config import ConfigError, ExperimentConfig, config_digest, load_config

if TYPE_CHECKING:
    import numpy as np

    from .domain import Grid

__all__ = ["entry", "main", "sfa_front_comparison"]

log = logging.getLogger("fkfront")


def _grid(cfg: ExperimentConfig) -> Grid:
    from .domain import Grid

    return Grid(L=cfg.L, n=cfg.n)


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
    for ``epsilons[b]`` alone.  The grid is checked for resolution, and
    :func:`~fkfront.solver.march` checks its arguments and factors the step
    matrix, here, before the first step is drawn.
    """
    import numpy as np

    from .domain import logistic_reaction, make_quadratic_diffusion, step_initial_condition
    from .solver import march
    from .stencil import build_operator

    grid = _grid(cfg)
    _warn_if_under_resolved(grid, epsilons)
    ops = [build_operator(grid, make_quadratic_diffusion(eps)) for eps in epsilons]
    u0 = step_initial_condition(grid, cfg.x_c0)
    return march(ops, cfg.dt, np.tile(u0, (len(ops), 1)), logistic_reaction, cfg.t_end,
                 cfg.snapshot_stride)


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
    x = grid.x.tolist()
    rows = ((t, xi, ui) for t, u in steps for xi, ui in zip(x, u[0].tolist()))
    io.write_table(out / "trajectory.csv", ("t", "x", "u"), rows, _meta(cfg, "simulate"))


def sfa_front_comparison(steps: Iterable[tuple[float, np.ndarray]],
                         x: np.ndarray) -> tuple[list[tuple], float]:
    """Rows ``(t, xc_numeric, xc_sfa, abs_diff)`` where both fronts exist.

    ``steps`` streams the ``(t, u)`` states of one run on the nodes ``x``,
    ``u`` of shape ``(1, n)``; another shape raises ``ValueError``.  The
    prediction evolves the *first* state under the reduced drift model and
    locates the same :data:`~fkfront.front.LEVEL` crossing, 1/2, on it.

    No further state is drawn after the first one with ``u > 1/2`` at every
    node.  That state has no numerical front, and for a stream from
    :func:`~fkfront.solver.march` with the logistic reaction no later state
    has one either, so no row is lost:

    - each step solves ``(I - dt D) u' = g(u)`` with
      ``g(v) = v + dt v (1 - v)``; ``I - dt D`` is an M-matrix with unit row
      sums, so ``u'`` is a convex combination of the entries of ``g(u)`` and
      ``min u' >= min g(u)``;
    - for ``dt <= 1``, which :func:`~fkfront.solver.march` enforces, ``g``
      is increasing on ``[0, 1]`` with ``g(v) >= v``, so
      ``min g(u) = g(min u) >= min u``;
    - so once ``min u > 1/2``, ``min u`` stays above 1/2 and no crossing
      can return.  This holds in exact arithmetic; in floating point each
      solve moves ``min u`` by a few ulps, against the ``dt v (1 - v)``
      that ``g`` adds near 1/2.

    The states a stream holds after that one are not read, so a stream
    whose field can fall back to 1/2 must not be passed.  Returns the
    rows and the time of the last state drawn (NaN for an empty stream).
    """
    import numpy as np

    from .asymptotics import sfa_evolve
    from .front import LEVEL, front_positions

    first = None
    rows = []
    t = math.nan
    for t, u in steps:
        if np.shape(u) != (1, len(x)):
            raise ValueError(f"one run's state must have shape (1, {len(x)}), got {np.shape(u)}")
        if first is None:
            first, t0 = u[0], t
        predicted = np.asarray(sfa_evolve(x, first, x, t - t0))
        xc_num, xc_sfa = front_positions(np.stack([u[0], predicted]), x).tolist()
        if math.isnan(xc_num) or math.isnan(xc_sfa):
            if u.min() > LEVEL:
                break
            continue
        rows.append((t, xc_num, xc_sfa, abs(xc_num - xc_sfa)))
    return rows, t


def cmd_compare_sfa(cfg: ExperimentConfig, out: Path) -> None:
    rows, t_stop = sfa_front_comparison(_march(cfg, [cfg.epsilon]), _grid(cfg).x)
    _log_early_stop("compare-sfa", t_stop, cfg, "u > 0.5 at every node, no front can return")
    io.write_table(out / "front_comparison.csv", ("t", "xc_numeric", "xc_sfa", "abs_diff"), rows,
                   _meta(cfg, "compare-sfa"))


def cmd_trap_sweep(cfg: ExperimentConfig, out: Path) -> None:
    from .front import fit_power_law, window_transits

    # the CSV rows and the statuses name an epsilon by its cell, so epsilons
    # that print alike (0.1 and 0.10000000000000002) are one epsilon
    epsilons = {}
    for eps in cfg.sweep_epsilons:
        cell = io.format_cell(eps)
        if cell in epsilons:
            log.warning("duplicate epsilon %g in sweep; keeping first occurrence", eps)
            continue
        epsilons[cell] = eps
    # The march stops once every front has left the trapping window, which
    # changes no trapping time.
    transits, t_stop = window_transits(_march(cfg, list(epsilons.values())), _grid(cfg).x,
                                       cfg.trap_radius)
    _log_early_stop("trap-sweep", t_stop, cfg, f"every front has left |x| < {cfg.trap_radius:g}")

    statuses = {}
    rows = []
    pairs = []
    for (cell, eps), (entry, exit_, last) in zip(epsilons.items(), transits):
        if exit_ is not None:
            duration = exit_ - entry
            statuses[cell] = "transited"
            rows.append((eps, duration))
            pairs.append((eps, duration))
            continue
        status = "not-entered" if entry is None else "not-exited"
        statuses[cell] = status if entry is None else f"{status} (>= {last - entry:.6g})"
        rows.append((eps, math.nan))
        log.warning("epsilon %g: front %s within t_end=%g", eps, status, cfg.t_end)

    meta = _meta(cfg, "trap-sweep", radius=cfg.trap_radius, statuses=statuses)
    io.write_table(out / "trap_times.csv", ("epsilon", "trap_time"), rows, meta)

    report = dict(meta)
    try:
        if len(pairs) < 2:
            raise ValueError(
                f"power-law fit needs at least two transited epsilons, have {len(pairs)}")
        report.update(free=fit_power_law(pairs), fixed=fit_power_law(pairs, exponent=-0.5))
    except ValueError as exc:
        report["fit_error"] = str(exc)
        log.warning("%s", exc)
    io.write_json(out / "fit_report.json", report)


def cmd_eigen(cfg: ExperimentConfig, out: Path) -> None:
    from .domain import make_constant_diffusion, make_quadratic_diffusion
    from .spectral import solve_eigenproblem

    grid = _grid(cfg)
    if cfg.eigen_constant_a is not None:
        a = make_constant_diffusion(cfg.eigen_constant_a)
    else:
        a = make_quadratic_diffusion(cfg.epsilon)
        _warn_if_under_resolved(grid, [cfg.epsilon])
    eigenvalues, phis = solve_eigenproblem(a, grid, cfg.eigen_modes, cfg.eigen_dump)
    meta = _meta(cfg, "eigen", modes=cfg.eigen_modes, constant_a=cfg.eigen_constant_a)
    io.write_table(out / "eigenvalues.csv", ("n", "lambda"), enumerate(eigenvalues.tolist()), meta)
    x = grid.x.tolist()
    for k in cfg.eigen_dump:
        io.write_table(out / f"phi_{k}.csv", ("x", "phi"), zip(x, phis[k].tolist()),
                       {**meta, "mode": k})


def cmd_wkb(cfg: ExperimentConfig, out: Path) -> None:
    from .wkb import Branch, characteristic_steps

    branches = {
        "plus": (Branch.PLUS,),
        "minus": (Branch.MINUS,),
        "both": (Branch.PLUS, Branch.MINUS),
    }[cfg.wkb_branch]

    def rows():
        for x0 in cfg.wkb_x0:
            for branch in branches:
                label = branch.value
                for t, x in characteristic_steps(
                    x0, cfg.wkb_htilde, cfg.epsilon, branch, cfg.wkb_t_end, cfg.wkb_dt
                ):
                    yield (t, x, x0, label)

    io.write_table(out / "characteristics.csv", ("t", "x", "x0", "branch"), rows(),
                   _meta(cfg, "wkb", htilde=cfg.wkb_htilde, branch=cfg.wkb_branch,
                         wkb_t_end=cfg.wkb_t_end, wkb_dt=cfg.wkb_dt))


def cmd_average(cfg: ExperimentConfig, out: Path) -> None:
    from .spectral import average_prediction

    grid = _grid(cfg)
    w = grid.quadrature_weights
    length = 2.0 * grid.L
    rows = (
        (t, float(w @ u[0]) / length, float(average_prediction(t, cfg.x_c0, cfg.L)))
        for t, u in _march(cfg, [cfg.epsilon])
    )
    io.write_table(out / "average.csv", ("t", "avg_numeric", "avg_predicted"), rows,
                   _meta(cfg, "average"))


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


def entry() -> None:
    """Run :func:`main` as the whole process, then exit without a last collection.

    Safe because every output file is closed by the time :func:`main`
    returns, and ``sys.exit`` still runs the atexit handlers
    (``logging.shutdown`` among them) and flushes the std streams.  Only the
    collector's walk is skipped; the OS takes the memory back anyway.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

"""Workload definitions and the seeded INI generator.

A workload is a fixed list of ``fkfront`` commands run against one INI file.
The program sees only that file; everything it varies comes from the seed.

Seed ``DEFAULT_SEED`` writes exactly the configurations below, whose outputs
are pinned in ``reference.json``.  Any other seed draws the physics from a
fixed range -- sweep epsilons log-uniform in [0.0125, 0.1], the single-run
epsilon likewise, ``x_c0`` uniform in [-40, -30] -- and keeps the grid, the
step counts and the snapshot counts, so the work per command does not move
with the seed.  Every drawn front still enters and leaves the trapping
window before ``t_end`` (checked at the corners of the range).

Usage: ``python3 bench/workloads.py <workload> [--seed N] [--tiny]`` prints
the INI text.
"""

from __future__ import annotations

import argparse
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
EPSILON_RANGE = (0.0125, 0.1)
X_C0_RANGE = (-40.0, -30.0)


# Every key the commands read, at the program's defaults.  Writing them out
# makes each INI self-describing (the checks derive their expectations from
# it) and keeps the workloads fixed if a default changes later.
BASE = {
    "domain": {"L": "100", "n": "501"},
    "physics": {"epsilon": "0.1", "x_c0": "-35"},
    "solver": {"dt": "0.01", "t_end": "60", "snapshot_stride": "25"},
    "sweep": {"epsilons": "0.1 0.05 0.025 0.0125"},
    "trap": {"radius": "0.4"},
    "eigen": {"modes": "64", "dump": "0 1 2 3"},
    "wkb": {
        "htilde": "1",
        "x0": "-10 -5 -2 -1 -0.5 0.5 1 2 5 10",
        "branch": "plus",
        "t_end": "1",
        "dt": "0.001",
    },
}


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    ini: dict[str, dict[str, str]]


WORKLOADS = {
    # sweep -- trap-sweep, n=2001, snapshot_stride=1, default epsilons
    # (0.1 0.05 0.025 0.0125), dt=0.01, t_end=60: the resolved-grid A1 run.
    # Loads the solver: 24,000 IMEX steps are ~85% of wall time, plus
    # locate_front on 24,004 stored fields and ~96 MB of snapshots.  Its
    # output is two tiny files, so io does almost nothing.
    # Shows: factor-once stepping, the batched sweep, the streaming stepper
    # (solver.us_per_step, front.track_s, peak_rss_mb).
    # Control for: the fast CSV writer (predicted no change here).
    "sweep": Workload(
        commands=("trap-sweep",),
        ini={"domain": {"n": "2001"}, "solver": {"snapshot_stride": "1"}},
    ),
    # dump -- simulate, n=1001, snapshot_stride=10: 601 snapshots written as
    # 601,601 CSV rows (~24 MB).  Loads io: write_csv/format_cell are ~80%
    # of wall time against one 6,000-step solve.
    # Shows: the fast CSV writer (io.csv_s, io.csv_mb_per_s).
    # Control for: the batched sweep (one epsilon, predicted no change); a
    # solver-only change moves this workload by only about a tenth.
    # Not gated in BENCHMARK.json: its run-to-run spread is too wide on the
    # reference machine (see bench/README.md, "Steadiness").
    "dump": Workload(
        commands=("simulate",),
        ini={"domain": {"n": "1001"}, "solver": {"snapshot_stride": "10"}},
    ),
    # models -- compare-sfa, eigen, wkb, average with n=2001,
    # snapshot_stride=5, 256 eigenmodes and both ray branches.  Four process
    # starts (~0.55 s of imports each) make set-up the largest share, and the
    # asymptotics, spectral and wkb layers run only here.  io writes many
    # small CSV/JSON files plus one 20k-row ray file.
    # Shows: import-time and set-up work (cli.import_s, setup_s), and any
    # change to the model layers.
    # Control for: the batched sweep (two single-epsilon solves, predicted no
    # change); the fast CSV writer moves it only slightly.
    "models": Workload(
        commands=("compare-sfa", "eigen", "wkb", "average"),
        ini={
            "domain": {"n": "2001"},
            "solver": {"snapshot_stride": "5"},
            "eigen": {"modes": "256"},
            "wkb": {"branch": "both"},
        },
    ),
}

# Smoke-test scale: the same commands on a 51-node grid.  The horizon stays
# long enough for every epsilon in range to transit the trapping window.
TINY = {
    "domain": {"L": "4", "n": "51"},
    "physics": {"x_c0": "-1"},
    "solver": {"t_end": "10"},
    "eigen": {"modes": "8"},
    "wkb": {"dt": "0.01"},
}


def command_env(src: Path) -> dict[str, str]:
    """Environment of every spawned command: the checkout's sources first on
    the import path, and BLAS pinned to one thread so that one command uses
    one core of a two-core box."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _seeded_physics(seed: int) -> dict[str, dict[str, str]]:
    rng = random.Random(seed)
    epsilons: list[str] = []
    while len(epsilons) < 4:  # cli drops duplicate epsilons, which would change the work
        eps = f"{_log_uniform(rng, *EPSILON_RANGE):.6g}"
        if eps not in epsilons:
            epsilons.append(eps)
    return {
        "physics": {
            "epsilon": f"{_log_uniform(rng, *EPSILON_RANGE):.6g}",
            "x_c0": f"{rng.uniform(*X_C0_RANGE):.6g}",
        },
        "sweep": {"epsilons": " ".join(epsilons)},
    }


def config_sections(name: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> dict:
    """Sections of the INI file for workload ``name`` under ``seed``."""
    layers = [BASE, WORKLOADS[name].ini]
    if seed != DEFAULT_SEED:
        layers.append(_seeded_physics(seed))
    if tiny:
        layers.append(TINY)
    sections: dict[str, dict[str, str]] = {}
    for layer in layers:
        for section, entries in layer.items():
            sections.setdefault(section, {}).update(entries)
    return sections


def ini_text(sections: dict) -> str:
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in sorted(sections[section].items()))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    print(ini_text(config_sections(args.workload, args.seed, args.tiny)), end="")

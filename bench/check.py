"""Correctness checks for the outputs of each fkfront command.

Each command's outputs are parsed once.  The parse checks invariants that
hold for any seed (row counts, grids and time stamps implied by the INI,
``0 <= u <= 1``, finite values, sidecars present) and extracts the values
pinned in ``reference.json``.  For the default seed those values must match
the reference within the tolerances in ``TOLERANCES``; other seeds are
checked on the invariants alone.  Byte identity with the reference outputs
is reported separately and is not part of the verdict.

``python3 bench/check.py record`` reruns the default-seed workloads and
rewrites ``reference.json``.  Run it only on the commit whose outputs are the
reference (the seed commit); on any other commit it would hide changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# (rel_tol, abs_tol) per extracted value.  Loose enough for a change that
# reorders floating-point work in the solver (factored or batched solves,
# k*dt time stamps), tight enough to catch any change of the numerics.
TOLERANCES = {
    "trap-sweep": {"trap_time": (1e-6, 0.0), "free_p": (0.0, 1e-6),
                   "free_C": (1e-6, 0.0), "fixed_C": (1e-6, 0.0)},
    "simulate": {"rows": None, "t": (0.0, 1e-9), "u_probe": (0.0, 1e-8)},
    "compare-sfa": {"rows": None, "sample": (0.0, 1e-6)},
    "eigen": {"lambda": (1e-9, 1e-9)},
    "wkb": {"endpoints": (0.0, 1e-9)},
    "average": {"rows": None, "sample": (0.0, 1e-9)},
}

PROBE_NODES = 7  # evenly spaced nodes, both walls included
PROBE_SNAPSHOTS = 11  # evenly spaced stored times, first and last included
SAMPLE_ROWS = 25
# Rounding slack on the maximum principle 0 <= u <= 1.  Rounding in the
# implicit solve lifts u above 1 by up to 2.1e-12 at n=1001 and 1.3e-11 at
# n=2001 (seed commit, seeds 0-15), past the 1e-12 that tests/test_solver.py
# allows on its smaller grid.  A real break of the scheme is orders larger.
U_SLACK = 1e-9


class Params:
    """The settings the checks need, read from the workload's INI sections."""

    def __init__(self, sections: dict) -> None:
        def get(section, key):
            return sections[section][key]

        def floats(section, key):
            return [float(v) for v in get(section, key).split()]

        self.L = float(get("domain", "L"))
        self.n = int(get("domain", "n"))
        self.x_c0 = float(get("physics", "x_c0"))
        self.dt = float(get("solver", "dt"))
        self.t_end = float(get("solver", "t_end"))
        self.stride = int(get("solver", "snapshot_stride"))
        self.epsilons = floats("sweep", "epsilons")
        self.modes = int(get("eigen", "modes"))
        self.dump = [int(k) for k in floats("eigen", "dump")]
        self.wkb_x0 = floats("wkb", "x0")
        self.wkb_branches = {"both": ["plus", "minus"]}.get(get("wkb", "branch"),
                                                           [get("wkb", "branch")])
        self.wkb_t_end = float(get("wkb", "t_end"))
        self.wkb_dt = float(get("wkb", "dt"))

    @property
    def stored_steps(self) -> list[int]:
        steps = int(round(self.t_end / self.dt))
        return [0] + [k for k in range(1, steps + 1) if k % self.stride == 0 or k == steps]

    def x(self, i: int) -> float:
        return -self.L + i * (2.0 * self.L / (self.n - 1))


def outputs(command: str, p: Params) -> list[str]:
    """File names a command must leave in its output directory."""
    csvs = {
        "trap-sweep": ["trap_times.csv"],
        "simulate": ["trajectory.csv"],
        "compare-sfa": ["front_comparison.csv"],
        "eigen": ["eigenvalues.csv"] + [f"phi_{k}.csv" for k in p.dump],
        "wkb": ["characteristics.csv"],
        "average": ["average.csv"],
    }[command]
    names = [f for c in csvs for f in (c, c[:-4] + ".json")]
    return names + (["fit_report.json"] if command == "trap-sweep" else [])


def _rows(path: Path, header: str, problems: list):
    """Yield each data row as a list of strings, after checking the header."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{path.name}: header {first!r}, expected {header!r}")
            return
        for line in fh:
            yield line.rstrip("\n").split(",")


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _evenly(count: int, k: int) -> list[int]:
    return sorted({round(j * (count - 1) / (k - 1)) for j in range(k)}) if count > 1 else [0]


def _trap_sweep(out: Path, p: Params, problems: list) -> dict:
    rows = [[float(v) for v in r] for r in _rows(out / "trap_times.csv", "epsilon,trap_time", problems)]
    eps = [r[0] for r in rows]
    times = [r[1] for r in rows]
    if len(eps) != len(p.epsilons) or not all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(eps, p.epsilons)):
        problems.append(f"trap_times.csv: epsilons {eps}, expected {p.epsilons}")
    if not all(math.isfinite(t) and t > 0 for t in times):
        problems.append(f"trap_times.csv: trap times not all finite and positive: {times}")
    meta = json.loads((out / "trap_times.json").read_text(encoding="utf-8"))
    if any(s != "transited" for s in meta.get("statuses", {}).values()) or not meta.get("statuses"):
        problems.append(f"trap_times.json: not every front transited: {meta.get('statuses')}")
    fits = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    free, fixed = fits.get("free"), fits.get("fixed")
    if free is None or fixed is None:
        problems.append("fit_report.json: free or fixed fit missing")
        return {"trap_time": times}
    if not (math.isfinite(free["p"]) and free["p"] < 0.0):
        problems.append(f"fit_report.json: free exponent {free['p']} is not negative")
    if fixed["p"] != -0.5:
        problems.append(f"fit_report.json: pinned exponent {fixed['p']}, expected -0.5")
    return {"trap_time": times, "free_p": free["p"], "free_C": free["C"], "fixed_C": fixed["C"]}


def _simulate(out: Path, p: Params, problems: list) -> dict:
    stored = p.stored_steps
    probe_nodes = set(_evenly(p.n, PROBE_NODES))
    probe_snaps = set(_evenly(len(stored), PROBE_SNAPSHOTS))
    times, u_probe = [], []
    xs = [p.x(i) for i in range(p.n)]
    count = 0
    lo, hi = math.inf, -math.inf
    bad_x = 0
    for row in _rows(out / "trajectory.csv", "t,x,u", problems):
        snap, i = divmod(count, p.n)
        count += 1
        u = float(row[2])
        lo, hi = min(lo, u), max(hi, u)
        if abs(float(row[1]) - xs[i]) > 1e-9 * p.L:
            bad_x += 1
        if i == 0:
            times.append(float(row[0]))
        if snap in probe_snaps and i in probe_nodes:
            u_probe.append(u)
    if count != len(stored) * p.n:
        problems.append(f"trajectory.csv: {count} rows, expected {len(stored) * p.n}")
    if bad_x:
        problems.append(f"trajectory.csv: {bad_x} rows off the grid")
    if not -U_SLACK <= lo <= hi <= 1.0 + U_SLACK:
        problems.append(f"trajectory.csv: u spans [{lo}, {hi}], outside [0, 1]")
    expected_t = [k * p.dt for k in stored]
    if len(times) != len(stored) or any(abs(a - b) > 1e-9 for a, b in zip(times, expected_t)):
        problems.append("trajectory.csv: stored times are not the expected multiples of dt")
    return {"rows": count, "t": times, "u_probe": u_probe}


def _compare_sfa(out: Path, p: Params, problems: list) -> dict:
    rows = [[float(v) for v in r] for r in _rows(
        out / "front_comparison.csv", "t,xc_numeric,xc_sfa,abs_diff", problems)]
    if not rows:
        problems.append("front_comparison.csv: no rows")
        return {"rows": 0, "sample": []}
    if not all(_finite(r) and -p.L <= r[1] <= p.L and -p.L <= r[2] <= p.L
               and math.isclose(r[3], abs(r[1] - r[2]), rel_tol=1e-12, abs_tol=1e-12)
               for r in rows):
        problems.append("front_comparison.csv: a row is non-finite, off the domain, "
                        "or has abs_diff != |xc_numeric - xc_sfa|")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])) or not 0 <= rows[0][0] <= p.t_end:
        problems.append("front_comparison.csv: times not increasing within [0, t_end]")
    return {"rows": len(rows), "sample": [rows[j][:3] for j in _evenly(len(rows), SAMPLE_ROWS)]}


def _eigen(out: Path, p: Params, problems: list) -> dict:
    rows = list(_rows(out / "eigenvalues.csv", "n,lambda", problems))
    lam = [float(r[1]) for r in rows]
    if [r[0] for r in rows] != [str(k) for k in range(p.modes)]:
        problems.append(f"eigenvalues.csv: expected modes 0..{p.modes - 1}")
    scale = max((abs(v) for v in lam), default=0.0)
    if not _finite(lam) or any(b > a for a, b in zip(lam, lam[1:])) \
            or any(v > 1e-9 * scale for v in lam):
        problems.append("eigenvalues.csv: eigenvalues not finite, non-positive and descending")
    for k in p.dump:
        phi = list(_rows(out / f"phi_{k}.csv", "x,phi", problems))
        if len(phi) != p.n or not all(
                abs(float(x) - p.x(i)) <= 1e-9 * p.L and math.isfinite(float(v))
                for i, (x, v) in enumerate(phi)):
            problems.append(f"phi_{k}.csv: not {p.n} finite values on the grid")
    return {"lambda": lam}


def _wkb(out: Path, p: Params, problems: list) -> dict:
    steps = max(1, int(round(p.wkb_t_end / p.wkb_dt)))
    rows = list(_rows(out / "characteristics.csv", "t,x,x0,branch", problems))
    rays = len(p.wkb_x0) * len(p.wkb_branches)
    if len(rows) != rays * (steps + 1):
        problems.append(f"characteristics.csv: {len(rows)} rows, expected {rays * (steps + 1)}")
        return {"endpoints": []}
    endpoints = []
    for r in range(rays):
        ray = rows[r * (steps + 1):(r + 1) * (steps + 1)]
        t = [float(row[0]) for row in ray]
        x = [float(row[1]) for row in ray]
        if not (_finite(x) and t[0] == 0.0 and abs(t[-1] - p.wkb_t_end) <= 1e-12
                and ray[-1][3] in ("plus", "minus")):
            problems.append(f"characteristics.csv: ray {r} is malformed")
        endpoints.append([float(ray[-1][2]), ray[-1][3], x[-1]])
    return {"endpoints": endpoints}


def _average(out: Path, p: Params, problems: list) -> dict:
    rows = [[float(v) for v in r] for r in _rows(
        out / "average.csv", "t,avg_numeric,avg_predicted", problems)]
    if len(rows) != len(p.stored_steps):
        problems.append(f"average.csv: {len(rows)} rows, expected {len(p.stored_steps)}")
        return {"rows": len(rows), "sample": []}
    if not all(-U_SLACK <= r[1] <= 1.0 + U_SLACK and 0.0 < r[2] <= 1.0 for r in rows):
        problems.append("average.csv: averages outside [0, 1]")
    start = (p.L + p.x_c0) / (2.0 * p.L)
    if abs(rows[0][2] - start) > 1e-12:
        problems.append(f"average.csv: predicted start {rows[0][2]}, expected {start}")
    return {"rows": len(rows), "sample": [rows[j] for j in _evenly(len(rows), SAMPLE_ROWS)]}


_PARSERS = {
    "trap-sweep": _trap_sweep,
    "simulate": _simulate,
    "compare-sfa": _compare_sfa,
    "eigen": _eigen,
    "wkb": _wkb,
    "average": _average,
}


def _flatten(value):
    if isinstance(value, list):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def _compare(command: str, values: dict, reference: dict) -> list[str]:
    problems = []
    for key, tol in TOLERANCES[command].items():
        got, want = list(_flatten(values.get(key))), list(_flatten(reference[key]))
        if len(got) != len(want):
            problems.append(f"{command}: {key} has {len(got)} values, reference {len(want)}")
            continue
        for j, (a, b) in enumerate(zip(got, want)):
            if isinstance(b, float) and tol is not None:
                ok = isinstance(a, float) and math.isclose(a, b, rel_tol=tol[0], abs_tol=tol[1])
            else:
                ok = a == b
            if not ok:
                problems.append(f"{command}: {key}[{j}] = {a!r}, reference {b!r}")
                break
    return problems


def check_command(command: str, out: Path, p: Params, reference: dict | None) -> list[str]:
    """Problems with one command's outputs; empty when they are correct."""
    missing = [name for name in outputs(command, p) if not (out / name).is_file()]
    if missing:
        return [f"{command}: missing outputs {missing}"]
    problems: list[str] = []
    for name in outputs(command, p):
        if name.endswith(".json") and name != "fit_report.json":
            meta = json.loads((out / name).read_text(encoding="utf-8"))
            if meta.get("command") != command:
                problems.append(f"{name}: sidecar command {meta.get('command')!r}")
    try:
        values = _PARSERS[command](out, p, problems)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"{command}: unparseable output: {exc!r}"]
    if reference is not None:
        problems += _compare(command, values, reference["values"][command])
    return problems


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _record() -> None:
    from workloads import WORKLOADS, command_env, config_sections, ini_text

    work = HERE / ".work" / "reference"
    env = command_env(HERE.parent / "src")
    reference = {"values": {}, "sha256": {}}
    for name, workload in WORKLOADS.items():
        sections = config_sections(name)
        p = Params(sections)
        out = work / name
        out.mkdir(parents=True, exist_ok=True)
        ini = work / f"{name}.ini"
        ini.write_text(ini_text(sections), encoding="utf-8")
        for command in workload.commands:
            subprocess.run([sys.executable, "-m", "fkfront.cli", command, "--config", str(ini),
                            "--out", str(out), "--workers", "1"], env=env, check=True)
            problems: list[str] = []
            reference["values"][command] = _PARSERS[command](out, p, problems)
            if problems:
                raise SystemExit(f"{command}: {problems}")
            reference["sha256"][command] = {f: sha256(out / f) for f in outputs(command, p)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit(f"usage: {sys.argv[0]} record")
    _record()

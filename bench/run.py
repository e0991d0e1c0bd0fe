"""Benchmark of the fkfront CLI: one workload per run, measured from outside.

Usage::

    python3 bench/run.py --workload {sweep,dump,models} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the checkout's ``src/``.

How it loads the program: a closed loop with one client.  A pass spawns the
workload's commands one after another as ``python -m fkfront.cli ...
--workers 1``; each starts only after the previous one has exited.  Passes
repeat until the next one would overrun ``--seconds``.  This process starts
no other processes and no threads; BLAS in the commands is pinned to one
thread so the two-core box is not oversubscribed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_norm`` -- ``wall_s``, the median wall time of one pass (interpreter
  starts included), divided by ``calibration_s``, the median time of
  ``CALIBRATION_PROBE``, a fixed task that uses no fkfront code.  One probe
  runs before each pass.  The speed of a shared VM drifts by up to 1.5x over
  minutes, which moved ``wall_s`` by 0.11-0.29 (interquartile range over
  median, ten seeds) while the ratio moved by 0.05-0.12;
* ``setup_s`` -- median wall time of a fresh interpreter that imports
  ``fkfront.cli``, loads the workload's INI and exits (the fixed cost every
  command pays), one spawn before each pass and at least
  ``MIN_SETUP_SAMPLES``;
* ``peak_rss_mb`` -- median over passes of the largest peak RSS of any
  command in the pass (``wait4`` rusage, so the command's children count).

``wall_s``, ``calibration_s`` and ``failed_frac`` (failed / attempted
commands) are printed with them; in the JSON result ``failed_frac`` is the
``failed`` and ``attempted`` fields.  A command fails if it exits non-zero,
leaves an expected output missing or fails ``check.py``.

``--trace 1`` alternates untraced passes with traced ones, in which each
command runs under ``tracer.py`` instead, and reports the per-layer metrics
(see ``LAYER_UNITS``) as medians over the traced passes, plus the tracing
overhead.  Every ``*_s`` layer time is self time: the span minus the spans
nested in it.  The spans of a traced pass tile its wall time, so the layer
budget printed with them adds up to ``trace.wall_s``.

The last line of standard output is the JSON result; the lines above it
repeat the metrics with units, sample counts and the machine.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import REFERENCE, Params, check_command, outputs, sha256
from workloads import DEFAULT_SEED, WORKLOADS, command_env, config_sections, ini_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 120
SETUP_PROBE = "import sys, fkfront.cli as cli; cli.load_config(sys.argv[1])"
# A fixed task that uses none of fkfront: interpreter start, the numpy and
# scipy.linalg imports, array arithmetic and a pure-Python loop, the same
# kinds of work a command does.  Its time tracks how fast the machine is
# running at that moment.
CALIBRATION_PROBE = (
    "import numpy, scipy.linalg\n"
    "x = numpy.arange(100000.0)\n"
    "for _ in range(100): x = numpy.sqrt(x * x + 1.0)\n"
    "s = 0\n"
    "for i in range(400000): s += i * i\n"
)

END_TO_END_UNITS = {"wall_norm": "x", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_linalg_s": "s",
    "cli.import_fkfront_s": "s",
    "cli.main_self_s": "s",
    "cli.exit_s": "s",
    "cli.cpu_s": "s",
    "cli.outputs_byte_identical": "count",
    "config.load_s": "s",
    "solver.build_operator_s": "s",
    "solver.build_operator_calls": "count",
    "solver.simulate_self_s": "s",
    "solver.steps": "count",
    "solver.node_steps": "count",
    "solver.us_per_step": "us",
    "solver.ns_per_node_step": "ns",
    "solver.snapshots": "count",
    "solver.snapshot_mb": "MB",
    "front.track_s": "s",
    "front.locate_calls": "count",
    "front.trap_fit_s": "s",
    "asymptotics.sfa_compare_self_s": "s",
    "asymptotics.sfa_evolve_s": "s",
    "asymptotics.sfa_evolve_calls": "count",
    "spectral.eigen_s": "s",
    "spectral.modes": "count",
    "spectral.average_s": "s",
    "wkb.integrate_s": "s",
    "wkb.rk4_steps": "count",
    "wkb.us_per_rk4_step": "us",
    "io.csv_s": "s",
    "io.csv_rows": "count",
    "io.csv_bytes": "B",
    "io.csv_mb_per_s": "MB/s",
    "io.json_s": "s",
    "io.files": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Layer of each span name, for the budget table.
BUDGET_LAYER = {
    "pass": "trace", "command": "trace", "trace.install": "trace",
    "cli.startup": "interpreter", "cli.exit": "interpreter",
    "cli.import": "import", "import.numpy": "import", "import.scipy_linalg": "import",
    "import.fkfront": "import", "cli.main": "cli",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (as opposed to the program failing)."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", q1 {q1:.4g} q3 {q3:.4g}"


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": 1,
        "loadavg_1m": os.getloadavg()[0],
    }


class Command:
    """Outcome of one spawned command."""

    def __init__(self, name: str, start: float, end: float, code: int, rusage) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.code = code
        self.rss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.cpu_s = rusage.ru_utime + rusage.ru_stime


def _alarm(signum, frame):
    raise TimeoutError


def spawn(name: str, argv: list[str], env: dict, cwd: Path, log: Path) -> Command:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            status = 1 << 8
        finally:
            signal.alarm(0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(name, start, end, proc.returncode, rusage)


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        src = ROOT / "src"
        if not (src / "fkfront" / "cli.py").is_file():
            raise BenchmarkError(f"no fkfront sources under {src}")
        self.commands = WORKLOADS[workload].commands
        self.sections = config_sections(workload, seed, tiny)
        self.params = Params(self.sections)
        self.reference = None
        if seed == DEFAULT_SEED and not tiny:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.work = HERE / ".work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "spans").mkdir(parents=True)
        self.ini = self.work / "workload.ini"
        self.ini.write_text(ini_text(self.sections), encoding="utf-8")
        self.env = command_env(src)
        self.verdicts: dict = {}  # (command, output hashes) -> problems
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unbound: set[str] = set()

    def probe_times(self, code: str, samples: int) -> list[float]:
        argv = [sys.executable, "-c", code, str(self.ini)]
        runs = [spawn("probe", argv, self.env, self.work, self.work / "probe.log")
                for _ in range(samples)]
        if any(r.code != 0 for r in runs):
            raise BenchmarkError(f"probe failed; see {self.work / 'probe.log'}")
        return [r.end - r.start for r in runs]

    def run_pass(self, index: int, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        commands = []
        for i, name in enumerate(self.commands):
            args = [name, "--config", str(self.ini), "--out", str(out), "--workers", "1"]
            spans = self.work / "spans" / f"{index}-{i}.json"
            argv = ([sys.executable, str(HERE / "tracer.py"), str(spans)] if traced
                    else [sys.executable, "-m", "fkfront.cli"]) + args
            commands.append(spawn(name, argv, self.env, self.work, self.work / f"{name}.log"))
        result = {"wall": commands[-1].end - commands[0].start, "commands": commands,
                  "identical": self.verify(commands, out)}
        if traced:
            result["layers"] = self.layers(index, commands)
        return result

    def verify(self, commands: list[Command], out: Path) -> int:
        """Check each command's outputs; return how many files match the reference bytes."""
        identical = 0
        for cmd in commands:
            self.attempted += 1
            names = outputs(cmd.name, self.params)
            hashes = tuple(sha256(out / f) if (out / f).is_file() else None for f in names)
            if self.reference is not None:
                ref = self.reference["sha256"][cmd.name]
                identical += sum(h == ref.get(f) for f, h in zip(names, hashes))
            if cmd.code != 0:
                problems = [f"{cmd.name}: exit code {cmd.code}; see {self.work / cmd.name}.log"]
            else:
                key = (cmd.name, hashes)
                if key not in self.verdicts:
                    self.verdicts[key] = check_command(cmd.name, out, self.params, self.reference)
                problems = self.verdicts[key]
            if problems:
                self.failed += 1
                self.problems += problems
        return identical

    def layers(self, index: int, commands: list[Command]) -> dict:
        """Build the span tree of a traced pass and reduce it to layer metrics."""
        spans = [["pass", commands[0].start, commands[-1].end, -1, None]]
        counts: dict[str, int] = {}
        for i, cmd in enumerate(commands):
            parent = len(spans)
            spans.append(["command", cmd.start, cmd.end, 0, {"command": cmd.name}])
            path = self.work / "spans" / f"{index}-{i}.json"
            if not path.is_file():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            spans.append(["cli.startup", cmd.start, data["entry"], parent, None])
            offset = len(spans)
            for name, start, end, up, attrs in data["spans"]:
                spans.append([name, start, end, parent if up < 0 else up + offset, attrs])
            spans.append(["cli.exit", data["main_end"], cmd.end, parent, None])
            for name, count in data["counts"].items():
                counts[name] = counts.get(name, 0) + count
            self.unbound.update(data["unbound"])
        check_nesting(spans)
        (self.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        return reduce_spans(spans, counts, self.work)


def check_nesting(spans: list) -> None:
    """Each span lies inside its parent and overlaps none of its siblings."""
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            raise BenchmarkError(f"span {i} ({name}) is not closed")
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        if not p_start <= start <= end <= p_end:
            raise BenchmarkError(f"span {i} ({name}) leaves its parent {spans[parent][0]}")
        if start < last_end.get(parent, start):
            raise BenchmarkError(f"span {i} ({name}) overlaps an earlier sibling")
        last_end[parent] = end


def reduce_spans(spans: list, counts: dict, work: Path) -> dict:
    """Per-layer metrics and the self-time budget of one traced pass."""
    self_s = [s[2] - s[1] for s in spans]
    for _, start, end, parent, _ in spans[1:]:
        self_s[parent] -= end - start
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    budget: dict[str, float] = {}
    for (name, start, end, _, extra), own in zip(spans, self_s):
        by_name[name] = by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if extra:
            attrs.setdefault(name, []).append(extra)
        layer = BUDGET_LAYER.get(name, name.split(".")[0])
        budget[layer] = budget.get(layer, 0.0) + own

    def self_time(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def span_time(name: str) -> float:
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    sims = attrs.get("solver.simulate", [])
    steps = sum(a["steps"] for a in sims)
    node_steps = sum(a["steps"] * a["n"] for a in sims)
    csv_bytes = csv_rows = 0
    for a in attrs.get("io.write_csv", []):
        path = work / a["path"]
        csv_bytes += path.stat().st_size
        with open(path, "rb") as fh:
            csv_rows += sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
    rk4 = sum(a["rk4_steps"] for a in attrs.get("wkb.integrate_characteristic", []))
    simulate_s = self_time("solver.simulate")
    csv_s = self_time("io.write_csv")
    metrics = {
        "cli.startup_s": self_time("cli.startup"),
        "cli.import_s": span_time("cli.import"),
        "cli.import_numpy_s": span_time("import.numpy"),
        "cli.import_scipy_linalg_s": span_time("import.scipy_linalg"),
        "cli.import_fkfront_s": span_time("import.fkfront"),
        "cli.main_self_s": self_time("cli.main"),
        "cli.exit_s": self_time("cli.exit"),
        "config.load_s": self_time("config.load_config"),
        "solver.build_operator_s": self_time("solver.build_operator"),
        "solver.build_operator_calls": calls.get("solver.build_operator", 0),
        "solver.simulate_self_s": simulate_s,
        "solver.steps": steps,
        "solver.node_steps": node_steps,
        "solver.us_per_step": _ratio(simulate_s, steps, 1e6),
        "solver.ns_per_node_step": _ratio(simulate_s, node_steps, 1e9),
        "solver.snapshots": sum(a["snapshots"] for a in sims),
        # computed, not measured: the largest trajectory held at once
        "solver.snapshot_mb": max((a["snapshots"] * a["n"] * 8 / 1e6 for a in sims), default=0.0),
        "front.track_s": self_time("front.track_front"),
        "front.locate_calls": counts.get("front.locate_front", 0),
        "front.trap_fit_s": self_time("front.trapping_time", "front.fit_power_law"),
        "asymptotics.sfa_compare_self_s": self_time("asymptotics.sfa_front_comparison"),
        "asymptotics.sfa_evolve_s": self_time("asymptotics.sfa_evolve"),
        "asymptotics.sfa_evolve_calls": calls.get("asymptotics.sfa_evolve", 0),
        "spectral.eigen_s": self_time("spectral.solve_eigenproblem"),
        "spectral.modes": sum(a["modes"] for a in attrs.get("spectral.solve_eigenproblem", [])),
        "spectral.average_s": self_time("spectral.average_prediction"),
        "wkb.integrate_s": self_time("wkb.integrate_characteristic"),
        "wkb.rk4_steps": rk4,
        "wkb.us_per_rk4_step": _ratio(self_time("wkb.integrate_characteristic"), rk4, 1e6),
        "io.csv_s": csv_s,
        "io.csv_rows": csv_rows,
        "io.csv_bytes": csv_bytes,
        "io.csv_mb_per_s": _ratio(csv_bytes, csv_s, 1e-6),
        "io.json_s": self_time("io.write_json"),
        "io.files": calls.get("io.write_csv", 0) + calls.get("io.write_json", 0),
        "trace.wall_s": spans[0][2] - spans[0][1],
    }
    return {"metrics": metrics, "budget": budget}


def run(args) -> dict:
    bench = Bench(args.workload, args.seed, args.tiny)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "machine": machine(),
            "config": ini_text(bench.sections)}
    # the first import in a fresh checkout compiles bytecode; users pay that once
    bench.probe_times(SETUP_PROBE, 1)
    # probes are spread between the passes rather than taken in one burst,
    # so they sample the same stretch of machine time as the passes
    setup: list[float] = []
    calibration: list[float] = []
    kinds = [False] if args.trace == 0 else [False, True]
    passes: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        if args.trace == 0:
            setup += bench.probe_times(SETUP_PROBE, 1)
            calibration += bench.probe_times(CALIBRATION_PROBE, 1)
        for traced in kinds:
            passes[traced].append(bench.run_pass(len(passes[False]) + len(passes[True]), traced))
        cycle = sum(_median(x) for x in (setup, calibration)) + sum(
            _median([p["wall"] for p in passes[t]]) for t in kinds)
        if time.perf_counter() - start + cycle > args.seconds:
            break
    if args.trace == 0 and len(setup) < MIN_SETUP_SAMPLES:
        setup += bench.probe_times(SETUP_PROBE, MIN_SETUP_SAMPLES - len(setup))

    plain = passes[False]
    walls = [p["wall"] for p in plain]
    per_command = {
        name: {
            "wall_s": _median([c.end - c.start for p in plain for c in p["commands"] if c.name == name]),
            "peak_rss_mb": max(c.rss_mb for p in plain for c in p["commands"] if c.name == name),
            "cpu_s": _median([c.cpu_s for p in plain for c in p["commands"] if c.name == name]),
        }
        for name in bench.commands
    }
    info.update(passes=len(plain), traced_passes=len(passes[True]), pass_walls=walls,
                per_command=per_command, attempted=bench.attempted, failed=bench.failed,
                problems=bench.problems[:20])
    if args.trace == 0:
        info.update(setup_samples=setup, calibration_samples=calibration,
                    wall_s=_median(walls), calibration_s=_median(calibration))
        samples = {"wall_norm": [w / info["calibration_s"] for w in walls], "setup_s": setup,
                   "peak_rss_mb": [max(c.rss_mb for c in p["commands"]) for p in plain]}
        units = END_TO_END_UNITS
    else:
        traced = [p["layers"] for p in passes[True]]
        samples = {name: [t["metrics"][name] for t in traced] for name in traced[0]["metrics"]}
        samples["cli.cpu_s"] = [sum(c.cpu_s for c in p["commands"]) for p in plain]
        samples["cli.outputs_byte_identical"] = [p["identical"] for p in passes[True]]
        samples["trace.overhead_s"] = [_median(samples["trace.wall_s"]) - _median(walls)]
        layers = {layer for t in traced for layer in t["budget"]}
        info["budget_s"] = {layer: _median([t["budget"].get(layer, 0.0) for t in traced])
                            for layer in layers}
        info["unbound"] = sorted(bench.unbound)
        units = LAYER_UNITS
    info["metrics"] = {name: {"value": _median(samples[name]), "unit": unit,
                              "samples": len(samples[name])}
                       for name, unit in units.items()}
    report(info, samples)
    return info


def report(info: dict, samples: dict) -> None:
    m = info["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, BLAS threads {m['blas_threads']}, load {m['loadavg_1m']:.2f}")
    print(f"workload {info['workload']} seed {info['seed']}: {info['passes']} passes"
          f" + {info['traced_passes']} traced, one client, closed loop")
    for name, metric in info["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}"
              f"  (median of {metric['samples']}{_quartiles(samples[name])})")
    if "wall_s" in info:
        walls, calibration = info["pass_walls"], info["calibration_samples"]
        print(f"  {'wall_s':32s} {info['wall_s']:.6g} s  (median of {len(walls)}{_quartiles(walls)})")
        print(f"  {'calibration_s':32s} {info['calibration_s']:.6g} s  "
              f"(median of {len(calibration)}{_quartiles(calibration)})")
    frac = info["failed"] / info["attempted"]
    print(f"  {'failed_frac':32s} {frac:.6g} fraction  ({info['failed']} of {info['attempted']} commands)")
    for name, c in info["per_command"].items():
        print(f"  command {name:12s} wall {c['wall_s']:.4g} s, peak RSS {c['peak_rss_mb']:.4g} MB, "
              f"cpu {c['cpu_s']:.4g} s")
    if "budget_s" in info:
        total = info["metrics"]["trace.wall_s"]["value"]
        print("  layer budget (median self time over traced passes):")
        for layer, own in sorted(info["budget_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {own:9.4f} s  {100 * _ratio(own, total):5.1f} %")
    if info.get("unbound"):
        print(f"  unbound layer entry points (their metrics read 0): {info['unbound']}")
    for problem in info["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fkfront CLI benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="51-node smoke-test configs instead of the real workloads")
    parser.add_argument("--save", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        info = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.save:
        args.save.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in info["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

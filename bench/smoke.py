"""Smoke test of the benchmark on 51-node configs, with no wall-clock bound.

Usage: ``python3 bench/smoke.py`` (exit code 0 when every check passes).

For each workload, on the default seed and on one drawn seed, it runs
``run.py --tiny`` untraced and traced and checks that:

* the run exits 0 and its last line is the JSON result, with every command
  correct;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) names of ``BENCHMARK.json``, each with the unit listed there;
* the spans of the last traced pass nest (each inside its parent, siblings
  disjoint) and account for the traced wall time, leaving under 5% of it
  outside every layer span.

Finally it checks that the benchmark refuses to run, printing no result, in
a directory holding only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import check_nesting
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, seed: int, trace: int, spec: dict) -> list[str]:
    label = f"{workload} seed {seed} trace {trace}"
    proc = bench(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < len(WORKLOADS[workload].commands):
        problems.append(f"{label}: {result['failed']} of {result['attempted']} commands failed\n"
                        f"{proc.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    if trace:
        spans = json.loads((HERE / ".work" / workload / "spans.json").read_text(encoding="utf-8"))
        try:
            check_nesting(spans)
        except RuntimeError as exc:
            problems.append(f"{label}: {exc}")
        wall = spans[0][2] - spans[0][1]
        children: dict[int, float] = {}
        for _, start, end, parent, _ in spans[1:]:
            children[parent] = children.get(parent, 0.0) + end - start
        # time inside the pass that no layer span claims: gaps in run.py between
        # commands and gaps inside a command around the traced layers
        gaps = sum(s[2] - s[1] - children.get(i, 0.0)
                   for i, s in enumerate(spans) if s[0] in ("pass", "command"))
        if gaps > 0.05 * wall:
            problems.append(f"{label}: spans leave {gaps:.4f} s of {wall:.4f} s unaccounted")
    return problems


def check_bare() -> list[str]:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(bare, "sweep", 0, 0)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(workload, seed, trace, spec)
                print(f"{workload} seed {seed} trace {trace}: {'FAIL' if found else 'ok'}")
                problems += found
    problems += check_bare()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: FAIL" if problems else "smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

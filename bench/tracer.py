"""Run one fkfront command in-process with spans around each layer.

Usage: ``python3 bench/tracer.py SPANS_JSON CLI_ARG...``

The script times the interpreter's imports (numpy, scipy.linalg, fkfront),
wraps each layer's public functions where ``fkfront.cli`` and ``fkfront.io``
bind them, calls ``fkfront.cli.main(argv)`` and writes the spans, call counts
and exit code to ``SPANS_JSON``.  Nothing under ``src/`` is modified: a
binding a later version no longer has is listed as ``unbound`` and its
metrics read zero.

A span is ``[name, start, end, parent, attrs]`` with ``time.perf_counter``
stamps (CLOCK_MONOTONIC on Linux, so the benchmark's own stamps for process
spawn and exit sit on the same clock) and ``parent`` an index into the list,
-1 for the top level.
"""

import time

ENTRY = time.perf_counter()

import functools  # noqa: E402 -- after the entry stamp
import sys  # noqa: E402


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.unbound: list[str] = []

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.stack[-1], None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, name: str, attrs=None, count_only: bool = False) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.unbound.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.counted(name, fn) if count_only else self.spanned(name, fn, attrs)
        setattr(module, attr, wrapped)


def _trajectory_attrs(args, traj) -> dict:
    return {
        "steps": int(round(traj.config.t_end / traj.config.dt)),
        "n": traj.grid.n,
        "snapshots": len(traj.fields),
    }


def _path_attrs(args, result) -> dict:
    return {"path": str(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the binding its caller looks up."""
    import fkfront.cli as cli
    import fkfront.front as front
    import fkfront.io as io
    import fkfront.solver as solver
    import fkfront.spectral as spectral

    patch = tracer.patch
    patch(cli, "load_config", "config.load_config")
    patch(cli, "simulate", "solver.simulate", _trajectory_attrs)
    patch(solver, "build_operator", "solver.build_operator")
    patch(spectral, "build_operator", "solver.build_operator")
    patch(cli, "track_front", "front.track_front")
    patch(cli, "trapping_time", "front.trapping_time")
    patch(cli, "fit_power_law", "front.fit_power_law")
    # ~24k calls per sweep: counted, not spanned, so their time stays in the caller
    patch(cli, "locate_front", "front.locate_front", count_only=True)
    patch(front, "locate_front", "front.locate_front", count_only=True)
    patch(cli, "sfa_front_comparison", "asymptotics.sfa_front_comparison")
    patch(cli, "sfa_evolve", "asymptotics.sfa_evolve")
    patch(cli, "solve_eigenproblem", "spectral.solve_eigenproblem",
          lambda args, eig: {"modes": eig.count})
    patch(cli, "average_prediction", "spectral.average_prediction")
    patch(cli, "integrate_characteristic", "wkb.integrate_characteristic",
          lambda args, path: {"rk4_steps": len(path.times) - 1})
    patch(io, "write_csv", "io.write_csv", _path_attrs)
    patch(io, "write_json", "io.write_json", _path_attrs)


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    outer = tracer.open("cli.import")
    for name, module in (("import.numpy", "numpy"), ("import.scipy_linalg", "scipy.linalg"),
                         ("import.fkfront", "fkfront.cli")):
        idx = tracer.open(name)
        __import__(module)
        tracer.close(idx)
    tracer.close(outer)

    idx = tracer.open("trace.install")
    install(tracer)
    tracer.close(idx)

    import fkfront.cli

    idx = tracer.open("cli.main")
    try:
        code = fkfront.cli.main(argv)
    finally:
        tracer.close(idx)
    main_end = time.perf_counter()

    import json

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"entry": ENTRY, "main_end": main_end, "exit_code": code,
                   "spans": tracer.spans, "counts": tracer.counts,
                   "unbound": tracer.unbound}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))

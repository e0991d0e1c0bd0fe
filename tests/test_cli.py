"""Configuration loading and the command-line pipelines."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkfront

from conftest import first_exit, front_path, stored_fields
from fkfront.asymptotics import sfa_evolve
from fkfront.cli import _march, main, sfa_front_comparison
from fkfront.config import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    canonical_text,
    config_digest,
    load_config,
)
from fkfront.domain import Field, Grid, logistic_reaction, make_quadratic_diffusion
from fkfront.front import FrontNotTransitedError, front_positions, track_front, trapping_time


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg == ExperimentConfig()
        assert cfg.L == 100.0
        assert cfg.n == 501
        assert cfg.epsilon == 0.1
        assert cfg.x_c0 == -35.0
        assert cfg.dt == 0.01
        assert cfg.t_end == 60.0
        assert cfg.snapshot_stride == 25
        assert cfg.sweep_epsilons == (0.1, 0.05, 0.025, 0.0125)

    def test_overrides_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[domain]
n = 251
[physics]
epsilon = 0.05
x_c0 = -20
[solver]
t_end = 5
snapshot_stride = 10
[sweep]
epsilons = 0.1, 0.05
[wkb]
branch = both
x0 = -1 1
"""))
        assert cfg.n == 251
        assert cfg.epsilon == 0.05
        assert cfg.x_c0 == -20.0
        assert cfg.t_end == 5.0
        assert cfg.snapshot_stride == 10
        assert cfg.sweep_epsilons == (0.1, 0.05)
        assert cfg.wkb_branch == "both"
        assert cfg.wkb_x0 == (-1.0, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "[domain]\nwidth = 5\n"))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "[twc]\nspeed = 2\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "[turbo]\nboost = 5\n"))

    def test_bad_values_all_reported(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "[domain]\nn = 2.5\nL = tiny\n"))
        assert "n" in str(err.value) and "L" in str(err.value)

    def test_inconsistent_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="x_c0"):
            load_config(write_config(tmp_path, "[physics]\nx_c0 = 150\n"))
        with pytest.raises(ConfigError, match="dt"):
            load_config(write_config(tmp_path, "[solver]\ndt = 0\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_branch_values_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="branch"):
            load_config(write_config(tmp_path, "[wkb]\nbranch = sideways\n"))

    def test_canonical_text_is_sorted_and_stable(self):
        text = canonical_text(ExperimentConfig())
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        assert text == canonical_text(ExperimentConfig())

    def test_digest_tracks_content(self):
        base = config_digest(ExperimentConfig())
        assert len(base) == 64
        assert base == config_digest(ExperimentConfig())
        assert base != config_digest(ExperimentConfig(epsilon=0.05))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        "section, key, template",
        [
            ("physics", "epsilon", "{}"),
            ("solver", "t_end", "{}"),
            ("domain", "n", "{}"),
            ("sweep", "epsilons", "0.1 {}"),
            ("eigen", "dump", "0 {}"),
        ],
        ids=["float", "float-t_end", "int", "float-list", "int-list"],
    )
    def test_non_finite_values_rejected(self, tmp_path, section, key, template, value):
        cfg_path = write_config(tmp_path, f"[{section}]\n{key} = {template.format(value)}\n")
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            load_config(cfg_path)
        out = tmp_path / "out"
        assert main(["average", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()


def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any configuration that load_config accepts, drawn field by field."""
    positive = _finite(0.0, 1e6, exclude_min=True)
    L = draw(positive)
    n = draw(st.integers(3, 10**6))
    dt = draw(_finite(0.0, 1.0, exclude_min=True))
    modes = draw(st.integers(1, n - 1))
    return ExperimentConfig(
        L=L,
        n=n,
        epsilon=draw(positive),
        x_c0=draw(_finite(-L, L, exclude_min=True, exclude_max=True)),
        dt=dt,
        t_end=draw(st.one_of(st.just(0.0), _finite(dt, 1e6))),
        snapshot_stride=draw(st.integers(1, 10**6)),
        sweep_epsilons=tuple(draw(st.lists(positive, min_size=1, max_size=5))),
        trap_radius=draw(positive),
        eigen_modes=modes,
        eigen_dump=tuple(draw(st.lists(st.integers(0, modes - 1), max_size=5))),
        eigen_constant_a=draw(st.none() | positive),
        wkb_htilde=draw(_finite(0.0, 1e6)),
        wkb_x0=tuple(draw(st.lists(_finite(-1e6, 1e6), min_size=1, max_size=5))),
        wkb_branch=draw(st.sampled_from(["plus", "minus", "both"])),
        wkb_t_end=draw(_finite(0.0, 1e6)),
        wkb_dt=draw(positive),
    )


def ini_of(cfg: ExperimentConfig) -> str:
    """``[section]`` headers plus one ``key = value`` line per set schema entry."""
    sections: dict[str, list[str]] = {}
    for (section, key), (field_name, _) in _SCHEMA.items():
        value = getattr(cfg, field_name)
        if value is None:
            continue
        text = " ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(valid_configs())
    def test_ini_loads_back_equal(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_config(write_config(Path(tmp), ini_of(cfg)))
        assert loaded == cfg
        assert canonical_text(loaded) == canonical_text(cfg)


FAST_RUN = """
[solver]
t_end = 1
snapshot_stride = 25
"""


class TestCliSimulate:
    def test_writes_trajectory_with_sidecar(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_RUN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        assert header == ["t", "x", "u"]
        assert len(rows) == 5 * 501  # times 0, 0.25, 0.5, 0.75, 1.0
        meta = json.loads((out / "trajectory.json").read_text())
        assert meta["config_sha256"] == config_digest(load_config(cfg_path))
        assert meta["command"] == "simulate"
        assert meta["dx"] == pytest.approx(0.4)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    def test_zero_horizon_dumps_initial_state_only(self, tmp_path):
        cfg_path = write_config(tmp_path, "[solver]\nt_end = 0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert len(rows) == 501
        assert {r[0] for r in rows} == {"0"}


class TestCliErrorPaths:
    def test_malformed_config_exits_one_without_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "[solver\nt_end = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_width_exits_one_without_output(self, tmp_path, capsys):
        # L itself is finite, but dx = 2L / (n - 1) would be inf
        cfg_path = write_config(tmp_path, "[domain]\nL = 1e308\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["wkb", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "domain.L" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "[solver]\nspeed = 9\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_invalid_worker_count_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_RUN)
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--workers", "0"])
        assert rc == 1
        assert "workers" in capsys.readouterr().err

    def test_blocked_output_path_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_RUN)
        blocked = tmp_path / "occupied"
        blocked.write_text("a file, not a directory")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(blocked)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["simulate", "compare-sfa", "trap-sweep", "eigen", "average"])
    def test_overflowing_grid_exits_two_naming_the_coefficient(self, tmp_path, capsys, command):
        # dx = 1e200 / 250: dx**2 overflows, and so does a(x) = x**2 + epsilon
        cfg_path = write_config(tmp_path, "[domain]\nL = 1e200\n[solver]\nt_end = 0.1\n")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: diffusion coefficient a(x)/dx**2 must be finite and positive" in err


class TestCompareSfa:
    def test_comparison_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_RUN)
        out = tmp_path / "out"
        assert main(["compare-sfa", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_rows(out / "front_comparison.csv")
        assert header == ["t", "xc_numeric", "xc_sfa", "abs_diff"]
        assert len(rows) == 5
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(-35.0, abs=1e-9)
        assert first[3] == pytest.approx(0.0, abs=1e-9)

    def test_featureless_trajectory_yields_no_rows(self):
        grid = Grid(L=10.0, n=21)
        steps = ((0.1 * k, np.full(21, 0.8)) for k in range(3))
        assert sfa_front_comparison(steps, grid) == []


def recorded(steps, minima):
    """Pass ``steps`` through, appending ``min u`` of each state drawn to ``minima``."""
    for t, u in steps:
        minima.append(float(u.min()))
        yield t, u


def compare_every_state(steps, grid, level=0.5):
    """Comparison rows over the whole stream, with no stop: the reference."""
    first = None
    rows = []
    for t, u in steps:
        u = np.reshape(u, grid.n)
        if first is None:
            first = Field(grid, u, t)
        predicted = np.asarray(sfa_evolve(first, grid.x, t))
        xc_num, xc_sfa = front_positions(np.stack([u, predicted]), grid.x, level).tolist()
        if not (math.isnan(xc_num) or math.isnan(xc_sfa)):
            rows.append((t, xc_num, xc_sfa, abs(xc_num - xc_sfa)))
    return rows


class TestCompareSfaStop:
    """The march stops at the first state above the level at every node."""

    @staticmethod
    def check_stop(cfg):
        """Stopped and full comparisons agree; returns (drawn, stored) state counts."""
        grid = Grid(L=cfg.L, n=cfg.n)
        drawn, every = [], []
        rows = sfa_front_comparison(recorded(_march(cfg, [cfg.epsilon]), drawn), grid)
        assert rows == compare_every_state(recorded(_march(cfg, [cfg.epsilon]), every), grid)
        above = [m > 0.5 for m in every]
        stop = above.index(True) + 1 if True in above else len(every)
        assert drawn == every[:stop]
        return len(drawn), len(every)

    def test_only_a_state_above_the_level_everywhere_stops(self):
        grid = Grid(L=10.0, n=21)
        step = np.where(grid.x < 0.0, 1.0, 0.0)
        states = [step, np.full(21, 0.3), step, np.full(21, 0.8), step]
        drawn = []
        rows = sfa_front_comparison(
            recorded(((0.1 * k, u) for k, u in enumerate(states)), drawn), grid)
        # the all-below state yields no row but does not stop; the all-above one does
        assert [row[0] for row in rows] == [0.0, 0.2]
        assert drawn == [0.0, 0.3, 0.0, 0.8]

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.floats(2.0, 10.0),
        n=st.integers(11, 81),
        epsilon=st.floats(0.0125, 0.1),
        front_at=st.floats(0.1, 0.9),
        dt=st.floats(0.01, 1.0),
        steps=st.integers(1, 200),
        stride=st.integers(1, 5),
    )
    def test_matches_comparison_over_every_state(self, L, n, epsilon, front_at, dt, steps,
                                                 stride):
        cfg = ExperimentConfig(L=L, n=n, epsilon=epsilon, x_c0=-L + 2.0 * L * front_at,
                               dt=dt, t_end=steps * dt, snapshot_stride=stride)
        self.check_stop(cfg)

    def test_full_size_run_stops_early_without_losing_rows(self):
        # the seed-0 `models` benchmark run: u > 1/2 everywhere from t = 9.6 (state 193)
        assert self.check_stop(ExperimentConfig(n=2001, snapshot_stride=5)) == (193, 1201)

    def test_front_that_never_leaves_draws_every_state(self):
        drawn, stored = self.check_stop(ExperimentConfig(n=151, t_end=4.0, snapshot_stride=5))
        assert drawn == stored == 81

    @pytest.mark.parametrize("t_end, stops", [(10, True), (1, False)])
    def test_logs_early_stop(self, tmp_path, caplog, t_end, stops):
        cfg_path = write_config(tmp_path, TINY_RUN.replace("t_end = 10", f"t_end = {t_end}"))
        with caplog.at_level("INFO", logger="fkfront"):
            assert main(["compare-sfa", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0
        lines = [r for r in caplog.records if "stopped marching" in r.getMessage()]
        if not stops:
            assert lines == []
            return
        [line] = lines
        assert line.levelname == "INFO"
        assert line.getMessage().startswith("compare-sfa: stopped marching at t=")
        assert "before t_end=10:" in line.getMessage()


TRAP_BASE = """
[solver]
t_end = 10
snapshot_stride = 5
[sweep]
epsilons = {epsilons}
"""


class TestTrapSweep:
    def test_two_member_sweep_with_fits(self, tmp_path):
        cfg_path = write_config(tmp_path, TRAP_BASE.format(epsilons="0.1 0.05"))
        out = tmp_path / "out"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_rows(out / "trap_times.csv")
        assert header == ["epsilon", "trap_time"]
        assert [r[0] for r in rows] == ["0.1", "0.05"]
        durations = [float(r[1]) for r in rows]
        assert all(2.0 < d < 6.0 for d in durations)
        assert durations[1] > durations[0]  # smaller epsilon traps longer
        report = json.loads((out / "fit_report.json").read_text())
        assert report["free"]["mode"] == "free"
        assert report["fixed"]["p"] == -0.5
        assert "fit_error" not in report

    def test_duplicate_epsilons_deduplicated(self, tmp_path, caplog):
        cfg_path = write_config(tmp_path, TRAP_BASE.format(epsilons="0.1 0.1 0.05"))
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="fkfront"):
            assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "duplicate epsilon" in caplog.text
        _, rows = read_rows(out / "trap_times.csv")
        assert [r[0] for r in rows] == ["0.1", "0.05"]

    def test_single_epsilon_fit_error_surfaced(self, tmp_path):
        cfg_path = write_config(tmp_path, TRAP_BASE.format(epsilons="0.1"))
        out = tmp_path / "out"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trap_times.csv")
        assert len(rows) == 1
        assert 2.0 < float(rows[0][1]) < 6.0  # raw duration still recorded
        report = json.loads((out / "fit_report.json").read_text())
        assert "needs at least two" in report["fit_error"]
        assert "free" not in report

    def test_unfinished_transit_reported(self, tmp_path):
        cfg_path = write_config(
            tmp_path, "[solver]\nt_end = 4\nsnapshot_stride = 5\n[sweep]\nepsilons = 0.1\n"
        )
        out = tmp_path / "out"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trap_times.csv")
        assert rows[0][1] == "nan"
        meta = json.loads((out / "trap_times.json").read_text())
        assert meta["statuses"]["0.1"].startswith("not-exited")

    @pytest.mark.parametrize("stride", [1, 3])
    def test_streamed_sweep_matches_stored_runs(self, stride):
        # t_end = 4.2 on this grid: epsilon 0.1 transits, the smaller two stay trapped
        cfg = ExperimentConfig(n=151, t_end=4.2, snapshot_stride=stride,
                               sweep_epsilons=(0.1, 0.02, 0.001))
        paths = track_front(_march(cfg, list(cfg.sweep_epsilons)), Grid(L=cfg.L, n=cfg.n).x,
                            radius=cfg.trap_radius)
        statuses = []
        for eps, path in zip(cfg.sweep_epsilons, paths):
            run = stored_fields(Grid(L=cfg.L, n=cfg.n), make_quadratic_diffusion(eps),
                                logistic_reaction, cfg.x_c0, cfg.dt, cfg.t_end, stride)
            stored = front_path(run)
            assert np.array_equal(path.times, stored.times)
            assert np.array_equal(path.positions, stored.positions, equal_nan=True)
            try:
                expected = trapping_time(stored, radius=cfg.trap_radius)
            except FrontNotTransitedError as exc:
                with pytest.raises(FrontNotTransitedError) as got:
                    trapping_time(path, radius=cfg.trap_radius)
                assert (got.value.entered, got.value.partial) == (exc.entered, exc.partial)
                statuses.append("not-exited" if exc.entered else "not-entered")
                continue
            assert trapping_time(path, radius=cfg.trap_radius) == expected
            statuses.append("transited")
        assert statuses == ["transited", "not-exited", "not-exited"]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_sweep_stops_once_every_front_has_left(self, stride):
        # t_end = 8 on this grid: every epsilon leaves the window, each at its own step
        cfg = ExperimentConfig(n=151, t_end=8.0, snapshot_stride=stride,
                               sweep_epsilons=(0.1, 0.05, 0.02))
        stored = [front_path(stored_fields(Grid(L=cfg.L, n=cfg.n), make_quadratic_diffusion(eps),
                                           logistic_reaction, cfg.x_c0, cfg.dt, cfg.t_end,
                                           stride))
                  for eps in cfg.sweep_epsilons]
        exits = [first_exit(path.positions, cfg.trap_radius) for path in stored]
        assert None not in exits and len(set(exits)) == len(exits)
        stop = max(exits)
        assert stop + 1 < len(stored[0].times)
        paths = track_front(_march(cfg, list(cfg.sweep_epsilons)), Grid(L=cfg.L, n=cfg.n).x,
                            radius=cfg.trap_radius)
        for path, full in zip(paths, stored):
            assert np.array_equal(path.times, full.times[: stop + 1])
            assert np.array_equal(path.positions, full.positions[: stop + 1], equal_nan=True)
            assert (trapping_time(path, radius=cfg.trap_radius)
                    == trapping_time(full, radius=cfg.trap_radius))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t_end, stops", [(8, True), (4, False)])
    def test_logs_early_stop(self, tmp_path, caplog, workers, t_end, stops):
        # on this grid every front has left by t = 8; at t = 4 some front has not
        cfg_path = write_config(tmp_path, f"""
[domain]
n = 151
[solver]
t_end = {t_end}
snapshot_stride = 5
[sweep]
epsilons = 0.1 0.05 0.02
""")
        with caplog.at_level("INFO", logger="fkfront"):
            assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--workers", str(workers)]) == 0
        lines = [r for r in caplog.records if "stopped marching" in r.getMessage()]
        if not stops:
            assert lines == []
            return
        [line] = lines
        assert line.levelname == "INFO"
        assert line.getMessage().startswith("trap-sweep: stopped marching at t=")
        assert line.getMessage().endswith("before t_end=8: every front has left |x| < 0.4")

    def test_parallel_matches_serial(self, tmp_path):
        cfg_path = write_config(tmp_path, TRAP_BASE.format(epsilons="0.1 0.05"))
        out_serial, out_par = tmp_path / "s", tmp_path / "p"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out_serial)]) == 0
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out_par),
                     "--workers", "2"]) == 0
        assert (out_serial / "trap_times.csv").read_bytes() == (
            out_par / "trap_times.csv"
        ).read_bytes()


class TestResolutionWarning:
    @staticmethod
    def resolution_warnings(caplog):
        return [r.getMessage() for r in caplog.records if "under-resolved" in r.getMessage()]

    def test_sweep_names_each_unresolved_epsilon(self, tmp_path, caplog):
        # default n=501 gives dx=0.4: sqrt(0.2) > 0.4 > sqrt(0.1)
        cfg_path = write_config(tmp_path, "[solver]\nt_end = 0.1\n[sweep]\nepsilons = 0.2 0.1 0.05\n")
        with caplog.at_level("WARNING", logger="fkfront"):
            assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert self.resolution_warnings(caplog) == [
            "grid under-resolved: dx=0.4 exceeds sqrt(epsilon) for epsilon 0.1, 0.05"
        ]

    @pytest.mark.parametrize("command", ["simulate", "eigen"])
    @pytest.mark.parametrize("n, warned", [(501, True), (1001, False)])
    def test_single_run_commands(self, tmp_path, caplog, command, n, warned):
        cfg_path = write_config(tmp_path, f"[domain]\nn = {n}\n[solver]\nt_end = 0.1\n")
        with caplog.at_level("WARNING", logger="fkfront"):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert bool(self.resolution_warnings(caplog)) is warned


class TestEigenCommand:
    def test_uniform_diffusion_oracle_via_cli(self, tmp_path):
        cfg_path = write_config(tmp_path, """
[domain]
L = 10
n = 201
[physics]
x_c0 = -5
[eigen]
modes = 11
dump = 0 1
constant_a = 1
""")
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "eigenvalues.csv")
        lams = np.array([float(r[1]) for r in rows])
        assert abs(lams[0]) <= 1e-10
        exact = -((np.arange(1, 11) * math.pi / 20.0) ** 2)
        assert np.max(np.abs(lams[1:] - exact) / np.abs(exact)) <= 1e-2
        for k in (0, 1):
            header, mode_rows = read_rows(out / f"phi_{k}.csv")
            assert header == ["x", "phi"]
            assert len(mode_rows) == 201
        meta = json.loads((out / "eigenvalues.json").read_text())
        assert meta["constant_a"] == 1.0

    def test_dump_must_index_computed_modes(self, tmp_path):
        cfg_path = write_config(tmp_path, "[eigen]\nmodes = 4\ndump = 0 7\n")
        assert main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


class TestWkbCommand:
    def test_zero_rate_keeps_rays_at_rest(self, tmp_path):
        cfg_path = write_config(tmp_path, """
[wkb]
htilde = 0
x0 = -2 1
t_end = 0.1
dt = 0.01
""")
        out = tmp_path / "out"
        assert main(["wkb", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_rows(out / "characteristics.csv")
        assert header == ["t", "x", "x0", "branch"]
        for row in rows:
            assert float(row[1]) == float(row[2])

    def test_both_branches_emitted(self, tmp_path):
        cfg_path = write_config(tmp_path, """
[wkb]
branch = both
x0 = 1
t_end = 0.05
dt = 0.01
""")
        out = tmp_path / "out"
        assert main(["wkb", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "characteristics.csv")
        assert {row[3] for row in rows} == {"plus", "minus"}


class TestAverageCommand:
    def test_initial_row_equals_covered_fraction(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_RUN)
        out = tmp_path / "out"
        assert main(["average", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_rows(out / "average.csv")
        assert header == ["t", "avg_numeric", "avg_predicted"]
        t0 = rows[0]
        assert float(t0[0]) == 0.0
        assert float(t0[1]) == pytest.approx(0.325, abs=1e-14)
        assert float(t0[2]) == pytest.approx(0.325, abs=1e-14)
        assert t0[1] == t0[2]

    def test_logs_fixed_point(self, tmp_path, caplog):
        cfg_path = write_config(tmp_path, TINY_RUN.replace("t_end = 10", "t_end = 60"))
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="fkfront"):
            assert main(["average", "--config", str(cfg_path), "--out", str(out)]) == 0
        [line] = [r.getMessage() for r in caplog.records if "fixed point" in r.getMessage()]
        assert line.startswith("march: fixed point reached: the step to t=")
        assert line.endswith("no further solve before t_end=60")
        _, rows = read_rows(out / "average.csv")
        assert len(rows) == 241
        assert len({tuple(r[1:]) for r in rows[-40:]}) == 1


TINY_RUN = """
[domain]
L = 4
n = 51
[physics]
x_c0 = -1
[solver]
t_end = 10
[eigen]
modes = 8
[wkb]
dt = 0.01
"""


# SHA-256 of each command's CSV on TINY_RUN, recorded before the commands
# streamed their rows from the stepper; a refactor keeps these bytes, and a
# change of the numbers says which bytes move and why.
TINY_CSV_SHA256 = {
    "simulate": ("trajectory.csv",
                 "2f553248d5efda26f354537b30b594eeb37d270b655b09e495f302644907ed9f"),
    "compare-sfa": ("front_comparison.csv",
                    "468561004c202749b43a908de94abf740232fccc9ab6c044190335c15da03364"),
    "average": ("average.csv",
                "e51d42eb1486cd51ae24b07daf19e83f5683b656149747748e912fb0e9c6211c"),
    "trap-sweep": ("trap_times.csv",
                   "eedb9cb5832b1833362d4c6f016ccf54003262c8e2b33d8d59cdab143d264038"),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command", sorted(TINY_CSV_SHA256))
    def test_csv_bytes(self, tmp_path, command):
        cfg_path = write_config(tmp_path, TINY_RUN)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        name, digest = TINY_CSV_SHA256[command]
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestImportFootprint:
    def test_commands_without_lapack_leave_scipy_unloaded(self, tmp_path):
        """Only the commands that factor or eigensolve load scipy; none loads a process pool."""
        cfg_path = write_config(tmp_path, TINY_RUN)
        script = textwrap.dedent("""
            import sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            cfg, out = sys.argv[1:]
            import fkfront
            assert not scipy_modules(), ("import fkfront", scipy_modules())
            from fkfront.cli import main
            assert not scipy_modules(), ("import fkfront.cli", scipy_modules())
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            assert not scipy_modules(), ("--help", scipy_modules())
            assert main(["wkb", "--config", cfg, "--out", out]) == 0
            assert not scipy_modules(), ("wkb", scipy_modules())
            assert main(["trap-sweep", "--config", cfg, "--out", out, "--workers", "2"]) == 0
            pools = sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                           if m in sys.modules)
            assert not pools, ("trap-sweep --workers 2", pools)
            assert main(["eigen", "--config", cfg, "--out", out]) == 0
            assert "scipy.linalg" in sys.modules
        """)
        src = Path(fkfront.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", script, str(cfg_path), str(tmp_path / "out")],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        )
        assert result.returncode == 0, result.stderr
        for name in ("characteristics.csv", "trap_times.csv", "eigenvalues.csv"):
            assert (tmp_path / "out" / name).is_file()

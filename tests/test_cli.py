"""Configuration loading and the command-line pipelines."""

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

from fkfront.cli import _front_paths, _run, main, sfa_front_comparison
from fkfront.config import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    canonical_text,
    config_digest,
    load_config,
)
from fkfront.domain import Field, Grid
from fkfront.front import FrontNotTransitedError, track_front, trapping_time
from fkfront.solver import SolverConfig, Trajectory


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
        cfg = SolverConfig(dt=0.1, t_end=0.2, snapshot_stride=1)
        fields = tuple(Field(grid, np.full(21, 0.8), 0.1 * k) for k in range(3))
        assert sfa_front_comparison(Trajectory(fields=fields, config=cfg)) == []


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
        statuses = []
        for eps, path in zip(cfg.sweep_epsilons, _front_paths(cfg, list(cfg.sweep_epsilons))):
            stored = track_front(_run(cfg, eps))
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


class TestImportFootprint:
    def test_commands_without_lapack_leave_scipy_unloaded(self, tmp_path):
        """Only the commands that factor or eigensolve load scipy."""
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
            assert main(["trap-sweep", "--config", cfg, "--out", out]) == 0
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

"""Configuration loading and the command-line pipelines."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    first_exit,
    read_whole,
    run_python,
    stored_fields,
    stored_positions,
    times_of,
)
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
from fkfront.domain import MAX_STEPS, Grid, logistic_reaction, make_quadratic_diffusion
from fkfront.front import front_positions, window_transits


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
        # a known section with no keys is valid
        assert load_config(write_config(tmp_path, "[domain]\n")) == ExperimentConfig()

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
        # before: a key-less unknown section loaded as the defaults
        for name in ("turbo", "DEFAULT"):
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, f"[{name}]\n"))
            assert str(err.value) == f"unknown section [{name}]"

    def test_default_section_is_an_unknown_section(self, tmp_path):
        # before: [DEFAULT] alone loaded with n = 501, and its keys leaked
        # into every other section ("unknown key [physics] n")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "[DEFAULT]\nn = 7\ntypo = 3\n"))
        assert str(err.value) == "unknown key [DEFAULT] n; unknown key [DEFAULT] typo"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "[DEFAULT]\nn = 7\n[physics]\nepsilon = 0.05\n"))
        assert str(err.value) == "unknown key [DEFAULT] n"

    @pytest.mark.parametrize("text", ["5%", "%(x_c0)s", "%%"])
    def test_percent_is_a_literal_character(self, tmp_path, text):
        # before: "5%" raised InterpolationSyntaxError, and "%(x_c0)s" was
        # quietly replaced by the value of x_c0
        cfg_path = write_config(tmp_path, f"[physics]\nepsilon = {text}\nx_c0 = -20\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"bad value for [physics] epsilon: could not convert string to float: {text!r}")):
            load_config(cfg_path)

    @pytest.mark.parametrize("text, message", [
        ("[DEFAULT]\nn = 7\n", "unknown key [DEFAULT] n"),
        ("[physics]\nepsilon = 5%\n", "bad value for [physics] epsilon"),
        ("[turbo]\n", "unknown section [turbo]"),
        ("[DEFAULT]\n", "unknown section [DEFAULT]"),
    ])
    def test_config_error_exits_one_without_output(self, tmp_path, capsys, text, message):
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["wkb", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_values_all_reported(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "[domain]\nn = 2.5\nL = tiny\n"))
        assert "n" in str(err.value) and "L" in str(err.value)

    def test_inconsistent_values_rejected(self, tmp_path):
        # the messages are the library's, under the section of the setting
        with pytest.raises(ConfigError, match=re.escape(
                "[physics] initial front 150.0 must lie strictly inside (-100.0, 100.0)")):
            load_config(write_config(tmp_path, "[physics]\nx_c0 = 150\n"))
        with pytest.raises(ConfigError, match=re.escape("[solver] dt must satisfy")):
            load_config(write_config(tmp_path, "[solver]\ndt = 0\n"))

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=re.escape("bad value for [sweep] epsilons: empty list")):
            load_config(write_config(tmp_path, "[sweep]\nepsilons =\n"))

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

    def test_digest_without_builtin_sha256_falls_back_to_hashlib(self, tmp_path):
        """An interpreter built without ``_sha2`` and ``_sha256`` hashes
        through ``hashlib``, to the same digest."""
        script = textwrap.dedent("""
            import sys

            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from fkfront.config import ExperimentConfig, config_digest
            assert "hashlib" in sys.modules
            print(config_digest(ExperimentConfig()))
        """)
        result = run_python(["-c", script], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == config_digest(ExperimentConfig())

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


# One out-of-range value per range rule, and the library's message for it.
OUT_OF_RANGE = [
    ("domain", "L", "-1", "half-width L must be finite and positive (2L too), got -1.0"),
    ("domain", "L", "1e308", "half-width L must be finite and positive (2L too), got 1e+308"),
    ("domain", "n", "2", "need at least 3 nodes, got 2"),
    ("physics", "epsilon", "0", "diffusion floor must be finite and positive, got 0.0"),
    ("physics", "x_c0", "-100", "initial front -100.0 must lie strictly inside (-100.0, 100.0)"),
    ("solver", "dt", "1.5", "dt must satisfy the positivity bound 0 < dt <= 1, got 1.5"),
    ("solver", "t_end", "-1", "t_end must be non-negative, got -1.0"),
    ("solver", "t_end", "0.001", "positive t_end must be at least one step dt=0.01, got 0.001"),
    ("solver", "snapshot_stride", "0", "snapshot_stride must be >= 1, got 0"),
    ("sweep", "epsilons", "0.1 -0.05", "diffusion floor must be finite and positive, got -0.05"),
    ("trap", "radius", "0", "radius must be positive and finite, got 0.0"),
    ("eigen", "modes", "0", "mode count must satisfy 1 <= m < 501, got 0"),
    ("eigen", "dump", "0 64", "eigenfunction modes must satisfy 0 <= k < 64, got [0, 64]"),
    ("eigen", "constant_a", "0", "diffusion floor must be finite and positive, got 0.0"),
    ("wkb", "htilde", "-1", "Htilde must be finite and non-negative, got -1.0"),
    ("wkb", "t_end", "-1", "t_end must be finite and non-negative, got -1.0"),
    ("wkb", "dt", "0", "dt must be finite and positive, got 0.0"),
]


class TestRangeRules:
    """``load_config`` runs the library's own checks: each rule is written
    once, and a file that breaks it gets the library's message."""

    @pytest.mark.parametrize("section, key, value, message", OUT_OF_RANGE,
                             ids=[f"{row[0]}.{row[1]}={row[2]}" for row in OUT_OF_RANGE])
    def test_out_of_range_value_exits_one_with_the_library_message(
            self, tmp_path, capsys, section, key, value, message):
        cfg_path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["wkb", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"config error: [{section}] {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_every_ranged_key_has_a_case(self):
        # x0 takes any finite numbers, and branch is checked as it is parsed
        assert {(section, key) for section, key, _, _ in OUT_OF_RANGE} == (
            set(_SCHEMA) - {("wkb", "x0"), ("wkb", "branch")})


def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any configuration that load_config accepts, drawn field by field."""
    positive = _finite(0.0, 1e6, exclude_min=True)
    L = draw(positive)
    n = draw(st.integers(3, 10**6))
    dt = draw(_finite(0.0, 1.0, exclude_min=True))
    wkb_dt = draw(positive)
    modes = draw(st.integers(1, n - 1))
    return ExperimentConfig(
        L=L,
        n=n,
        epsilon=draw(positive),
        x_c0=draw(_finite(-L, L, exclude_min=True, exclude_max=True)),
        dt=dt,
        # t_end / dt must stay at most MAX_STEPS; one step short of it keeps
        # the quotient's rounding inside the bound
        t_end=draw(st.one_of(st.just(0.0), _finite(dt, min(1e6, (MAX_STEPS - 1) * dt)))),
        snapshot_stride=draw(st.integers(1, 10**6)),
        sweep_epsilons=tuple(draw(st.lists(positive, min_size=1, max_size=5))),
        trap_radius=draw(positive),
        eigen_modes=modes,
        eigen_dump=tuple(draw(st.lists(st.integers(0, modes - 1), max_size=5))),
        eigen_constant_a=draw(st.none() | positive),
        wkb_htilde=draw(_finite(0.0, 1e6)),
        wkb_x0=tuple(draw(st.lists(_finite(-1e6, 1e6), min_size=1, max_size=5))),
        wkb_branch=draw(st.sampled_from(["plus", "minus", "both"])),
        wkb_t_end=draw(_finite(0.0, min(1e6, (MAX_STEPS - 1) * wkb_dt))),
        wkb_dt=wkb_dt,
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
        text = canonical_text(loaded)
        assert text == canonical_text(cfg)
        assert config_digest(loaded) == hashlib.sha256(text.encode("utf-8")).hexdigest()


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
        assert ("config error: [domain] half-width L must be finite and positive (2L too), "
                "got 1e+308") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, section", [
        ("simulate", "solver"), ("compare-sfa", "solver"), ("trap-sweep", "solver"),
        ("average", "solver"), ("wkb", "wkb"),
    ])
    def test_overflowing_step_count_exits_one_without_output(self, tmp_path, capsys, command,
                                                             section):
        # t_end / dt is inf; before: exit 2 with "cannot convert float infinity to
        # integer", after a header-only CSV
        cfg_path = write_config(tmp_path, f"[{section}]\nt_end = 1e300\ndt = 1e-10\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"config error: [{section}] t_end / dt must be a finite step count, "
                f"got t_end=1e+300, dt=1e-10") in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section", ["solver", "wkb"])
    def test_step_count_bound(self, tmp_path, section):
        # 10000 / 0.001 rounds to exactly MAX_STEPS, and 10000.01 / 0.001 is above it
        load_config(write_config(tmp_path, f"[{section}]\nt_end = 10000\ndt = 1e-3\n"))
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] t_end / dt must be at most {MAX_STEPS} steps, "
                f"got t_end=10000.01, dt=0.001")):
            load_config(write_config(tmp_path, f"[{section}]\nt_end = 10000.01\ndt = 1e-3\n"))

    @pytest.mark.parametrize("command, section", [("trap-sweep", "solver"), ("wkb", "wkb")])
    def test_huge_step_count_exits_one_without_output(self, tmp_path, capsys, command, section):
        # finite but 1e18 steps; before: wkb exited 2 with "Unable to allocate
        # 6.94 EiB" after a header-only CSV, and a solver march never ended
        cfg_path = write_config(tmp_path, f"[{section}]\nt_end = 1e15\ndt = 1e-3\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"config error: [{section}] t_end / dt must be at most {MAX_STEPS} steps, "
                f"got t_end=1000000000000000.0, dt=0.001") in err
        assert list(out.iterdir()) == []

    def test_unresolved_lapack_exits_two_naming_the_library(self, tmp_path, capsys,
                                                          monkeypatch):
        from numpy.linalg import _umath_linalg

        from fkfront import lapack

        monkeypatch.setattr(lapack, "NAMES", ("no_such_{}_64_",))
        lapack.load.cache_clear()
        try:
            cfg_path = write_config(tmp_path, TINY_RUN)
            assert main(["trap-sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        finally:
            lapack.load.cache_clear()
        assert (f"error: LAPACK routines dpttrf, dpttrs, dstebz, dstein not found in "
                f"{_umath_linalg.__file__}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare-sfa", "average", "trap-sweep"])
    def test_step_matrix_not_positive_definite_exits_two_without_output(self, tmp_path, capsys,
                                                                        command):
        # couplings of 4e16 swamp the weights, and dpttrf loses positivity to
        # rounding; the march factors when it is called, before any file opens
        cfg_path = write_config(tmp_path, "[domain]\nL = 1\nn = 5\n"
                                          "[physics]\nepsilon = 1e16\nx_c0 = -0.5\n"
                                          "[solver]\ndt = 1\nt_end = 1\n"
                                          "[sweep]\nepsilons = 1e16\n"
                                          "[eigen]\nmodes = 1\ndump = 0\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "step matrix is not positive definite (dpttrf info 5)" in capsys.readouterr().err
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
        steps = ((0.1 * k, np.full((1, 21), 0.8)) for k in range(3))
        # the first state is above the level at every node: nothing more is drawn
        assert sfa_front_comparison(steps, grid.x) == ([], 0.0)

    def test_empty_stream(self):
        rows, t_last = sfa_front_comparison(iter([]), Grid(L=10.0, n=21).x)
        assert rows == [] and math.isnan(t_last)

    # before: np.reshape raised "cannot reshape array of size 42 into shape (21,)"
    @pytest.mark.parametrize("shape", [(2, 21), (21,)])
    def test_rejects_a_state_that_is_not_one_row(self, shape):
        steps = [(0.0, np.full(shape, 0.8))]
        with pytest.raises(ValueError, match=re.escape(
                f"one run's state must have shape (1, 21), got {shape}")):
            sfa_front_comparison(steps, Grid(L=10.0, n=21).x)


def recorded(steps, minima, times=None):
    """Pass ``steps`` through, appending ``min u`` of each state drawn to ``minima``
    and, if given, its time to ``times``."""
    for t, u in steps:
        minima.append(float(u.min()))
        if times is not None:
            times.append(t)
        yield t, u


def compare_every_state(steps, x):
    """Comparison rows over the whole stream of one run, with no stop: the reference."""
    first = None
    rows = []
    for t, (u,) in steps:
        if first is None:
            first, t0 = u, t
        predicted = np.asarray(sfa_evolve(x, first, x, t - t0))
        xc_num, xc_sfa = front_positions(np.stack([u, predicted]), x).tolist()
        if not (math.isnan(xc_num) or math.isnan(xc_sfa)):
            rows.append((t, xc_num, xc_sfa, abs(xc_num - xc_sfa)))
    return rows


class TestCompareSfaStop:
    """The march stops at the first state above the level at every node."""

    @staticmethod
    def check_stop(cfg):
        """Stopped and full comparisons agree; returns (drawn, stored) state counts."""
        x = Grid(L=cfg.L, n=cfg.n).x
        drawn, every, times = [], [], []
        rows, t_last = sfa_front_comparison(
            recorded(_march(cfg, [cfg.epsilon]), drawn, times), x)
        assert rows == compare_every_state(recorded(_march(cfg, [cfg.epsilon]), every), x)
        above = [m > 0.5 for m in every]
        stop = above.index(True) + 1 if True in above else len(every)
        assert drawn == every[:stop]
        assert t_last == times[-1]
        return len(drawn), len(every)

    def test_only_a_state_above_the_level_everywhere_stops(self):
        grid = Grid(L=10.0, n=21)
        step = np.where(grid.x < 0.0, 1.0, 0.0)[None]
        states = [step, np.full((1, 21), 0.3), step, np.full((1, 21), 0.8), step]
        drawn = []
        rows, t_last = sfa_front_comparison(
            recorded(((0.1 * k, u) for k, u in enumerate(states)), drawn), grid.x)
        # the all-below state yields no row but does not stop; the all-above one does
        assert [row[0] for row in rows] == [0.0, 0.2]
        assert t_last == 0.30000000000000004  # 0.1 * 3
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

    def test_epsilons_that_print_alike_are_one_epsilon(self, tmp_path, caplog):
        # before, both ran: two CSV rows read 0.1 under a single status, and
        # the free fit found both on one log
        cfg_path = write_config(tmp_path, TRAP_BASE.format(epsilons="0.1 0.10000000000000002"))
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="fkfront"):
            assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "duplicate epsilon 0.1 in sweep; keeping first occurrence" in caplog.text
        _, rows = read_rows(out / "trap_times.csv")
        assert [r[0] for r in rows] == ["0.1"] and 2.0 < float(rows[0][1]) < 6.0
        assert json.loads((out / "trap_times.json").read_text())["statuses"] == {
            "0.1": "transited"}
        report = json.loads((out / "fit_report.json").read_text())
        assert "needs at least two transited epsilons, have 1" in report["fit_error"]
        assert "free" not in report and "fixed" not in report

    def test_fit_calls_no_numpy_lapack(self, tmp_path, monkeypatch):
        # np.polyfit solves through np.linalg.lstsq, whose first call loads
        # numpy's LAPACK: about 1 MB of peak RSS for a fit of a few points
        def refuse(*args, **kwargs):
            raise AssertionError("numpy LAPACK called")

        for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "svd")):
            monkeypatch.setattr(owner, name, refuse)
        cfg_path = write_config(tmp_path, "[domain]\nL = 10\nn = 51\n[physics]\nx_c0 = -3.5\n"
                                "[solver]\nt_end = 10\nsnapshot_stride = 1\n[eigen]\nmodes = 8\n"
                                "[sweep]\nepsilons = 0.1 0.05 0.025\n")
        out = tmp_path / "out"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert "fit_error" not in report
        assert -0.5 < report["free"]["p"] < 0.0
        assert report["fixed"]["p"] == -0.5

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
        grid = Grid(L=cfg.L, n=cfg.n)
        records, _ = window_transits(_march(cfg, list(cfg.sweep_epsilons)), grid.x,
                                     cfg.trap_radius)
        for eps, record in zip(cfg.sweep_epsilons, records):
            run = stored_fields(grid, make_quadratic_diffusion(eps), logistic_reaction,
                                cfg.x_c0, cfg.dt, cfg.t_end, stride)
            [alone], _ = window_transits(run, grid.x, cfg.trap_radius)
            assert record == alone
        assert [(entry is not None, exit_ is not None) for entry, exit_, _ in records] == [
            (True, True), (True, False), (True, False)]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_sweep_stops_once_every_front_has_left(self, stride):
        # t_end = 8 on this grid: every epsilon leaves the window, each at its own step
        cfg = ExperimentConfig(n=151, t_end=8.0, snapshot_stride=stride,
                               sweep_epsilons=(0.1, 0.05, 0.02))
        grid = Grid(L=cfg.L, n=cfg.n)
        runs = [stored_fields(grid, make_quadratic_diffusion(eps), logistic_reaction, cfg.x_c0,
                              cfg.dt, cfg.t_end, stride)
                for eps in cfg.sweep_epsilons]
        exits = [first_exit(stored_positions(run, grid.x), cfg.trap_radius) for run in runs]
        assert None not in exits and len(set(exits)) == len(exits)
        stop = max(exits)
        times = times_of(runs[0])
        assert stop + 1 < len(times)
        drawn = []

        def steps():
            for t, u in _march(cfg, list(cfg.sweep_epsilons)):
                drawn.append(t)
                yield t, u

        records, t_stop = window_transits(read_whole(steps()), grid.x, cfg.trap_radius)
        assert drawn == list(times[: stop + 1])
        assert t_stop == times[stop]
        for record, run in zip(records, runs):
            [alone], _ = window_transits(run, grid.x, cfg.trap_radius)
            assert record == alone

    @pytest.mark.parametrize("stride", [1, 3])
    def test_sweep_solves_live_rows(self, stride):
        cfg = ExperimentConfig(n=151, t_end=8.0, snapshot_stride=stride,
                               sweep_epsilons=(0.1, 0.05, 0.02))
        grid = Grid(L=cfg.L, n=cfg.n)
        exits = sorted(first_exit(stored_positions(
            stored_fields(grid, make_quadratic_diffusion(eps), logistic_reaction, cfg.x_c0,
                          cfg.dt, cfg.t_end, stride), grid.x), cfg.trap_radius)
            for eps in cfg.sweep_epsilons)
        rows = []
        steps = _march(cfg, list(cfg.sweep_epsilons))

        def forwarding():
            keep = None
            while True:
                try:
                    t, u = next(steps) if keep is None else steps.send(keep)
                except StopIteration:
                    return
                rows.append(len(u))
                keep = yield t, u

        window_transits(forwarding(), grid.x, cfg.trap_radius)
        # each exited row is solved no more
        assert rows == ([3] * (exits[0] + 1) + [2] * (exits[1] - exits[0])
                        + [1] * (exits[2] - exits[1]))

    @pytest.mark.parametrize("t_end, epsilons, statuses", [
        (4.2, "0.1 0.02 0.001", {"0.1": "transited", "0.02": "not-exited (>= 1.18204)",
                                 "0.001": "not-exited (>= 1.1638)"}),
        (1, "0.1 0.02", {"0.1": "not-entered", "0.02": "not-entered"}),
    ])
    def test_statuses_pinned(self, tmp_path, t_end, epsilons, statuses):
        cfg_path = write_config(tmp_path, f"""
[domain]
n = 151
[solver]
t_end = {t_end}
snapshot_stride = 3
[sweep]
epsilons = {epsilons}
""")
        out = tmp_path / "out"
        assert main(["trap-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "trap_times.json").read_text())["statuses"] == statuses
        _, rows = read_rows(out / "trap_times.csv")
        assert [r[1] == "nan" for r in rows] == [s != "transited" for s in statuses.values()]

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


class TestScalingSymmetry:
    """``x -> k x`` with ``epsilon -> k**2 epsilon`` leaves ``(a u_x)_x``
    unchanged, and for ``k`` a power of two it scales every product of the
    scheme without rounding: the runs agree bit for bit, with positions
    times ``k``.  ``eigen`` does not keep it yet: the ``dx`` under its
    ``sqrt`` rounds."""

    # epsilon 0.1 transits the window by t_end, 0.02 enters and stays
    BASE = ExperimentConfig(L=4.0, n=81, epsilon=0.1, x_c0=-1.4, t_end=4.0, snapshot_stride=1,
                            sweep_epsilons=(0.1, 0.02), trap_radius=0.4)

    @staticmethod
    def runs(cfg: ExperimentConfig, out: Path):
        """The sweep's states and window records, the compare-sfa rows and
        the bytes of ``average.csv`` for ``cfg``."""
        grid = Grid(L=cfg.L, n=cfg.n)
        states = list(_march(cfg, list(cfg.sweep_epsilons)))
        records, _ = window_transits(states, grid.x, cfg.trap_radius)
        rows, _ = sfa_front_comparison(_march(cfg, [cfg.epsilon]), grid.x)
        assert main(["average", "--config", str(write_config(out, ini_of(cfg))),
                     "--out", str(out)]) == 0
        return states, records, rows, (out / "average.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6))
    def test_power_of_two_rescaling_is_exact(self, j):
        k = 2.0**j
        base = self.BASE
        scaled = dataclasses.replace(
            base, L=k * base.L, epsilon=k * k * base.epsilon, x_c0=k * base.x_c0,
            sweep_epsilons=tuple(k * k * eps for eps in base.sweep_epsilons),
            trap_radius=k * base.trap_radius)
        with tempfile.TemporaryDirectory() as tmp:
            states, records, rows, average = self.runs(base, Path(tmp))
            states_k, records_k, rows_k, average_k = self.runs(scaled, Path(tmp))
        assert [t for t, _ in states_k] == [t for t, _ in states]
        assert all(np.array_equal(bits(u_k), bits(u))
                   for (_, u_k), (_, u) in zip(states_k, states))
        assert records_k == records
        assert any(exit_ is not None for _, exit_, _ in records)
        assert rows_k == [(t, k * num, k * sfa, k * gap) for t, num, sfa, gap in rows]
        assert average_k == average


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
    def test_no_command_loads_scipy(self, tmp_path):
        """No command loads scipy: the solving commands call the LAPACK numpy
        links.  None loads ``numpy.f2py``, a process pool or ``hashlib``
        (OpenSSL)."""
        cfg_path = write_config(tmp_path, TINY_RUN)
        script = textwrap.dedent("""
            import sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.startswith("scipy"))

            cfg, out = sys.argv[1:]
            import fkfront
            from fkfront.cli import main
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            assert main(["wkb", "--config", cfg, "--out", out]) == 0
            assert main(["trap-sweep", "--config", cfg, "--out", out, "--workers", "2"]) == 0
            pools = sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                           if m in sys.modules)
            assert not pools, ("trap-sweep --workers 2", pools)
            for command in ("eigen", "compare-sfa", "average", "simulate"):
                assert main([command, "--config", cfg, "--out", out]) == 0
            assert not scipy_modules(), scipy_modules()
            unwanted = sorted(m for m in ("numpy.f2py", "hashlib", "_hashlib")
                              if m in sys.modules)
            assert not unwanted, ("trap-sweep, eigen, compare-sfa, average, simulate", unwanted)
        """)
        result = run_python(["-c", script, str(cfg_path), str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        for name in ("characteristics.csv", "trap_times.csv", "eigenvalues.csv",
                     "front_comparison.csv", "average.csv", "trajectory.csv"):
            assert (tmp_path / "out" / name).is_file()

    def test_wkb_leaves_numpy_unloaded_and_eigen_numpy_ma(self, tmp_path):
        """``import fkfront``, ``import fkfront.cli``, ``--help`` and ``wkb``
        load no numpy and no ``hashlib``, and ``wkb`` only the layers it runs;
        ``eigen`` loads numpy but not ``numpy.ma``."""
        cfg_path = write_config(tmp_path, TINY_RUN)
        script = textwrap.dedent("""
            import sys

            def loaded(prefix):
                return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

            def unwanted():
                return loaded("numpy") + loaded("hashlib") + loaded("_hashlib")

            cfg, out = sys.argv[1:]
            import fkfront
            assert not unwanted(), ("import fkfront", unwanted())
            from fkfront.cli import main
            assert not unwanted(), ("import fkfront.cli", unwanted())
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            assert not unwanted(), ("--help", unwanted())
            assert main(["wkb", "--config", cfg, "--out", out]) == 0
            assert not unwanted(), ("wkb", unwanted())
            layers = ["fkfront", "fkfront.cli", "fkfront.config", "fkfront.domain", "fkfront.io",
                      "fkfront.wkb"]
            assert loaded("fkfront") == layers, ("wkb", loaded("fkfront"))
            assert main(["eigen", "--config", cfg, "--out", out]) == 0
            assert "numpy" in sys.modules and "numpy.ma" not in sys.modules, "eigen"
        """)
        result = run_python(["-c", script, str(cfg_path), str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        for name in ("characteristics.csv", "eigenvalues.csv"):
            assert (tmp_path / "out" / name).is_file()


def entry_program(runner):
    """The ``-c`` program that runs the CLI as ``runner`` does.

    ``module`` runs ``fkfront.cli`` as ``__main__``, as ``python -m`` does.
    ``console-script`` calls the target of ``fkfront`` in pyproject.toml's
    ``[project.scripts]`` as an installed wrapper does, so the test follows
    the declaration whether or not the package is installed.
    """
    if runner == "module":
        return "import runpy; runpy.run_module('fkfront.cli', run_name='__main__', alter_sys=True)"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, func = re.search(r'^fkfront = "([\w.]+):(\w+)"$',
                             pyproject.read_text(encoding="utf-8"), re.MULTILINE).groups()
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith(("config error:", "error:"))]


class TestProcessEntry:
    """``python -m fkfront.cli`` and the console script behave as :func:`main` does."""

    @pytest.mark.parametrize("runner", ["module", "console-script"])
    def test_codes_logs_and_bytes_match_in_process_main(self, tmp_path, capsys, monkeypatch,
                                                        runner):
        prefix = ["-m", "fkfront.cli"] if runner == "module" else ["-c", entry_program(runner)]
        good = str(write_config(tmp_path, TINY_RUN))
        bad = str(write_config(tmp_path, "[solver\nt_end = 1\n", name="bad.ini"))
        blocked = tmp_path / "occupied"
        blocked.write_text("a file, not a directory")
        # the same arguments, relative --out paths resolved in two directories
        here, there = tmp_path / "in-process", tmp_path / "process"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        for code, cfg, out in [(0, good, "out"), (1, bad, "unwritten"), (2, good, str(blocked))]:
            args = ["compare-sfa", "--config", cfg, "--out", out]
            result = run_python([*prefix, *args], there)
            capsys.readouterr()
            assert main(args) == code
            assert result.returncode == code, result.stderr
            assert error_lines(result.stderr) == error_lines(capsys.readouterr().err)
            if code:
                assert error_lines(result.stderr), result.stderr
            else:
                assert re.search(r"^INFO compare-sfa: stopped marching at t=.*before t_end=10: ",
                                 result.stderr, re.MULTILINE), result.stderr
        assert not (there / "unwritten").exists()
        names = sorted(path.name for path in (here / "out").iterdir())
        assert "front_comparison.csv" in names
        assert sorted(path.name for path in (there / "out").iterdir()) == names
        for name in names:
            assert (there / "out" / name).read_bytes() == (here / "out" / name).read_bytes()

    @pytest.mark.parametrize("runner", ["module", "console-script"])
    def test_exits_with_every_object_frozen(self, tmp_path, runner):
        # the hook is registered before logging's, so it runs after it
        hook = ("import atexit, gc, sys; "
                "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))")
        cfg_path = write_config(tmp_path, TINY_RUN)
        result = run_python(["-c", f"{hook}\n{entry_program(runner)}", "wkb",
                             "--config", str(cfg_path), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        [frozen] = [int(line.split()[1]) for line in result.stderr.splitlines()
                    if line.startswith("frozen ")]
        assert frozen > 10_000


ALL_COMMANDS = ["simulate", "compare-sfa", "trap-sweep", "eigen", "wkb", "average"]


def open_descriptors():
    """``{fd: target}`` of this process, from ``/proc/self/fd``."""
    targets = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            targets[name] = os.readlink(f"/proc/self/fd/{name}")
        except FileNotFoundError:  # the listing's own descriptor, closed by now
            pass
    return targets


class TestInProcessMain:
    """:func:`main` leaves the process as it found it; only the process entry skips teardown."""

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_leaves_the_collector_alone(self, tmp_path, command):
        cfg_path = write_config(tmp_path, TINY_RUN)
        before = gc.get_freeze_count(), gc.isenabled()
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    # The process entry skips the last collection, so no output may wait for
    # one to be closed.  The collector is off during the run, so a file that
    # only a collection would close stays open and shows.
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_leaves_no_file_open(self, tmp_path, command):
        cfg_path = write_config(tmp_path, TINY_RUN)
        before = open_descriptors()
        gc.disable()
        try:
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
            assert open_descriptors() == before
        finally:
            gc.enable()

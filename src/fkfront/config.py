"""Experiment configuration: flat ``key = value`` entries in named sections.

Files use INI syntax.  Every key is optional (defaults reproduce the
reference setup: half-width 100, 501 nodes, epsilon 0.1, front at -35);
unknown sections or keys are rejected so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import hashlib
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "canonical_text", "config_digest"]


class ConfigError(Exception):
    """Malformed or inconsistent configuration file."""


@dataclass(frozen=True)
class ExperimentConfig:
    # [domain]
    L: float = 100.0
    n: int = 501
    # [physics]
    epsilon: float = 0.1
    x_c0: float = -35.0
    # [solver]
    dt: float = 0.01
    t_end: float = 60.0
    snapshot_stride: int = 25
    # [sweep]
    sweep_epsilons: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    # [trap]
    trap_radius: float = 0.4
    # [eigen]
    eigen_modes: int = 64
    eigen_dump: tuple[int, ...] = (0, 1, 2, 3)
    eigen_constant_a: float | None = None
    # [wkb]
    wkb_htilde: float = 1.0
    wkb_x0: tuple[float, ...] = (-10.0, -5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, 10.0)
    wkb_branch: str = "plus"
    wkb_t_end: float = 1.0
    wkb_dt: float = 1e-3


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # nan would pass every range check in _validate
        raise ValueError(f"expected a finite number, got {text}")
    return value


def _parse_int(text: str) -> int:
    value = _parse_float(text)
    if value != int(value):
        raise ValueError(f"expected an integer, got {text}")
    return int(value)


def _parse_float_list(text: str) -> tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty list")
    return tuple(_parse_float(tok) for tok in tokens)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in text.replace(",", " ").split())


def _parse_branch(text: str) -> str:
    value = text.strip().lower()
    if value not in ("plus", "minus", "both"):
        raise ValueError(f"branch must be plus, minus or both, got {text!r}")
    return value


# (section, key) -> (config field, parser)
_SCHEMA = {
    ("domain", "L"): ("L", _parse_float),
    ("domain", "n"): ("n", _parse_int),
    ("physics", "epsilon"): ("epsilon", _parse_float),
    ("physics", "x_c0"): ("x_c0", _parse_float),
    ("solver", "dt"): ("dt", _parse_float),
    ("solver", "t_end"): ("t_end", _parse_float),
    ("solver", "snapshot_stride"): ("snapshot_stride", _parse_int),
    ("sweep", "epsilons"): ("sweep_epsilons", _parse_float_list),
    ("trap", "radius"): ("trap_radius", _parse_float),
    ("eigen", "modes"): ("eigen_modes", _parse_int),
    ("eigen", "dump"): ("eigen_dump", _parse_int_list),
    ("eigen", "constant_a"): ("eigen_constant_a", _parse_float),
    ("wkb", "htilde"): ("wkb_htilde", _parse_float),
    ("wkb", "x0"): ("wkb_x0", _parse_float_list),
    ("wkb", "branch"): ("wkb_branch", _parse_branch),
    ("wkb", "t_end"): ("wkb_t_end", _parse_float),
    ("wkb", "dt"): ("wkb_dt", _parse_float),
}


def _validate(cfg: ExperimentConfig) -> list[str]:
    problems = []
    if cfg.L <= 0:
        problems.append(f"domain.L must be positive, got {cfg.L}")
    elif not math.isfinite(2.0 * cfg.L):
        problems.append(f"domain.L must keep the width 2L finite, got {cfg.L}")
    if cfg.n < 3:
        problems.append(f"domain.n must be at least 3, got {cfg.n}")
    if cfg.epsilon <= 0:
        problems.append(f"physics.epsilon must be positive, got {cfg.epsilon}")
    if cfg.L > 0 and not -cfg.L < cfg.x_c0 < cfg.L:
        problems.append(f"physics.x_c0 must lie strictly inside (-L, L), got {cfg.x_c0}")
    if not 0 < cfg.dt <= 1:
        problems.append(f"solver.dt must satisfy 0 < dt <= 1, got {cfg.dt}")
    if cfg.t_end < 0:
        problems.append(f"solver.t_end must be non-negative, got {cfg.t_end}")
    if 0 < cfg.t_end < cfg.dt:
        problems.append(f"solver.t_end below one step dt={cfg.dt}, got {cfg.t_end}")
    if cfg.snapshot_stride < 1:
        problems.append(f"solver.snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if any(e <= 0 for e in cfg.sweep_epsilons):
        problems.append("sweep.epsilons must all be positive")
    if cfg.trap_radius <= 0:
        problems.append(f"trap.radius must be positive, got {cfg.trap_radius}")
    if not 1 <= cfg.eigen_modes < cfg.n:
        problems.append(f"eigen.modes must satisfy 1 <= modes < n, got {cfg.eigen_modes}")
    if any(k < 0 or k >= cfg.eigen_modes for k in cfg.eigen_dump):
        problems.append("eigen.dump entries must index the computed modes")
    if cfg.eigen_constant_a is not None and cfg.eigen_constant_a <= 0:
        problems.append("eigen.constant_a must be positive when set")
    if cfg.wkb_htilde < 0:
        problems.append(f"wkb.htilde must be non-negative, got {cfg.wkb_htilde}")
    if cfg.wkb_t_end < 0:
        problems.append(f"wkb.t_end must be non-negative, got {cfg.wkb_t_end}")
    if cfg.wkb_dt <= 0:
        problems.append(f"wkb.dt must be positive, got {cfg.wkb_dt}")
    return problems


def load_config(path: "str | Path") -> ExperimentConfig:
    """Parse and validate a configuration file.

    Raises :class:`ConfigError` on unreadable files, unknown sections or
    keys, unparseable values, or inconsistent settings.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (ConfigParserError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    overrides = {}
    problems = []
    for section in parser.sections():
        for key in parser[section]:
            entry = _SCHEMA.get((section, key))
            if entry is None:
                problems.append(f"unknown key [{section}] {key}")
                continue
            field_name, parse = entry
            try:
                overrides[field_name] = parse(parser[section][key])
            except ValueError as exc:
                problems.append(f"bad value for [{section}] {key}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    cfg = ExperimentConfig(**overrides)
    problems = _validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def canonical_text(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-setting rendering of the resolved configuration."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(repr(v) for v in value)
        else:
            rendered = repr(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()

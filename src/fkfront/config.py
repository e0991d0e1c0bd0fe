"""Experiment configuration: flat ``key = value`` entries in named sections.

Files use INI syntax.  Every key is optional (defaults reproduce the
reference setup: half-width 100, 501 nodes, epsilon 0.1, front at -35);
unknown sections or keys are rejected so typos cannot silently fall back to
defaults, an unknown section with no keys included.  ``[DEFAULT]`` is one
of those unknown sections, and a ``%`` in a value is a literal character,
never an interpolation.

:func:`load_config` writes no range rule of its own.  It runs each setting
through the rule its library entry runs, all in :mod:`fkfront.domain`, and
reports ``[section] <the library's message>``.

:func:`config_digest` hashes with CPython's built-in SHA-256 (``_sha2`` on
3.12 and later, ``_sha256`` before), not :mod:`hashlib`: importing
``hashlib`` maps OpenSSL's libcrypto, about 3.6 MB resident in every
command, to hash a few hundred bytes.  ``hashlib`` is the fallback for an
interpreter built without the built-in hashes; the digest is the same.
"""

from __future__ import annotations

import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from pathlib import Path

from .domain import (
    Grid,
    check_floor,
    check_htilde,
    check_march,
    check_modes,
    check_radius,
    check_ray_steps,
    check_start,
)

try:
    from _sha2 import sha256 as _new_sha256
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256
    except ImportError:
        from hashlib import sha256 as _new_sha256

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
    if not math.isfinite(value):  # a bad value of its key, before any range rule
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
_SECTIONS = {section for section, _ in _SCHEMA}


def _validate(cfg: ExperimentConfig) -> list[str]:
    """``[section] message`` for each row whose check, the library's own, raises."""
    rows = [
        ("domain", Grid, (cfg.L, cfg.n)),
        ("physics", check_floor, (cfg.epsilon,)),
        ("physics", check_start, (cfg.x_c0, cfg.L)),
        ("solver", check_march, (cfg.dt, cfg.t_end, cfg.snapshot_stride)),
        *(("sweep", check_floor, (eps,)) for eps in cfg.sweep_epsilons),
        ("trap", check_radius, (cfg.trap_radius,)),
        ("eigen", check_modes, (cfg.eigen_modes, cfg.n, cfg.eigen_dump)),
        *(("eigen", check_floor, (a,)) for a in [cfg.eigen_constant_a] if a is not None),
        ("wkb", check_htilde, (cfg.wkb_htilde,)),
        ("wkb", check_ray_steps, (cfg.wkb_t_end, cfg.wkb_dt)),
    ]
    problems = []
    for section, check, args in rows:
        try:
            check(*args)
        except ValueError as exc:
            problems.append(f"[{section}] {exc}")
    return problems


def load_config(path: "str | Path") -> ExperimentConfig:
    """Parse and validate a configuration file.

    Raises :class:`ConfigError` on unreadable files, unknown sections or
    keys, unparseable values, or inconsistent settings.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # Values are literal (no %-interpolation), and no header can name the
    # default section (a header is one line), so [DEFAULT] is an ordinary,
    # unknown section whose keys reach no other section.
    parser = ConfigParser(default_section="\n", interpolation=None,
                          inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (ConfigParserError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    overrides = {}
    problems = []
    for section in parser.sections():
        keys = parser.options(section)
        if not keys and section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
        for key in keys:
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
    """SHA-256 hex digest of :func:`canonical_text`, encoded as UTF-8."""
    return _new_sha256(canonical_text(cfg).encode("utf-8")).hexdigest()

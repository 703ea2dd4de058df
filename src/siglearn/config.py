"""Flat INI-style configuration with schema validation and hashing.

Sections and keys are fixed by ``SCHEMA``, one row per key holding its
kind, its default and its range rule.  Overrides can come from the
environment as ``SIGLEARN_<SECTION>__<KEY>=value`` (applied after the file).
Once the configuration is complete, each value is checked against its row
(per-dimension lists against ``env.dim`` too), then the few rules that read
two keys are checked.  Every failure names its ``section.key``.  The
effective configuration is hashed so every artifact can name the exact
inputs that produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from typing import Callable

from .errors import ConfigError
from .signature import _MODES

__all__ = [
    "SCHEMA",
    "default_config_text",
    "load_config",
    "config_hash",
    "ENV_PREFIX",
]

ENV_PREFIX = "SIGLEARN_"

_REQ = object()

# A rule takes a parsed value and returns the requirement it breaks, or None.


def _at_least(lo):
    return lambda v: None if v >= lo else f"be >= {lo}"


def _above(lo):
    return lambda v: None if v > lo else f"be > {lo}"


def _open(lo, hi):
    return lambda v: None if lo < v < hi else f"lie in ({lo}, {hi})"


def _half_open(lo, hi):
    return lambda v: None if lo <= v < hi else f"lie in [{lo}, {hi})"


def _one_of(options):
    return lambda v: None if v in options else f"be one of {options}"


def _each(rule, non_empty=False):
    """A list rule: ``rule`` holds for every entry; with ``non_empty``, [] fails."""
    def check(values):
        if non_empty and not values:
            return "be non-empty"
        return next((f"{b} in every entry" for b in map(rule, values) if b), None)
    return check


# key -> (kind, default, rule).  _REQ marks keys a config file must provide
# unless the built-in default text is used.  A "float_or_auto" value is the
# string "auto" or a finite float, and its rule applies to the float.  A
# "dimlist" is a float list with one entry per state dimension (env.dim).
SCHEMA: dict[str, dict[str, tuple[str, object, Callable | None]]] = {
    "algebra": {
        "degree": ("int", _REQ, _at_least(1)),
        "level_weights": ("str", "unit", _one_of(("unit", "factorial"))),
    },
    "signature": {
        "mode": ("str", "linear", _one_of(_MODES)),
        "history_mode": ("str", "rectilinear", _one_of(_MODES)),
    },
    "env": {
        "dim": ("int", _REQ, _at_least(1)),
        "drift_base": ("dimlist", _REQ, None),
        "vol_diag": ("dimlist", _REQ, _each(_at_least(0))),
        # dim - 1 entries, checked against env.dim with the cross-key rules
        "vol_sub": ("floatlist", None, None),
        "jump_intensity": ("float", _REQ, _at_least(0)),
        "jump_mean": ("dimlist", _REQ, None),
        "jump_scale": ("dimlist", _REQ, _each(_at_least(0))),
        "action_exposure": ("dimlist", _REQ, None),
        "reward_coeffs": ("dimlist", _REQ, None),
        "reward_action_exposure": ("dimlist", None, None),
        "memory_gain_scale": ("float", 0.0, None),
        "memory_features": ("int", 4, _at_least(0)),
    },
    "history": {
        "steps": ("int", _REQ, _at_least(1)),
        "dt": ("float", _REQ, _above(0)),
        "x0": ("dimlist", None, None),
        # look-back window for the filtered junction signature; 0 = full
        "window": ("float", 0.0, _at_least(0)),
    },
    "horizon": {
        "steps": ("int", _REQ, _at_least(1)),
        "dt": ("float", _REQ, _above(0)),
    },
    "nystrom": {
        "landmarks": ("int", _REQ, _at_least(1)),
        "ridge": ("float_or_auto", "auto", _above(0)),
        "metric_lambda": ("float", 1e-4, _above(0)),
    },
    "flow": {
        "lie_degree": ("int", 2, None),
        "proxy_features": ("int", 4, _at_least(0)),
        "phase_powers": ("int", 2, _at_least(0)),
        "pin_clock": ("bool", True, None),
        "init_scale": ("float", 0.01, _at_least(0)),
    },
    "train": {
        "steps": ("int", _REQ, _at_least(0)),
        "lr": ("float", 0.05, _above(0)),
        "eta_scf": ("float", 0.1, _at_least(0)),
        "contraction_reg": ("float", 0.0, _at_least(0)),
        # the metric fit takes a covariance across the ensemble's paths
        "ensemble_size": ("int", _REQ, _at_least(2)),
    },
    "td": {
        "gamma": ("float", _REQ, _half_open(0, 1)),
        "alpha": ("float_or_auto", "auto", _above(0)),
        "iters": ("int", _REQ, _at_least(1)),
        "terminal_payoff": ("float", 0.0, None),
        "planted_rank": ("int", 3, _at_least(0)),
    },
    "variance": {
        # the variance ratio needs a sample of at least 30 seeds
        "seeds": ("int", 40, _at_least(30)),
        "ensemble_size": ("int", 256, _at_least(1)),
    },
    "risk": {
        "alpha_tail": ("float", 0.05, _open(0, 1)),
        "beta": ("float", 1.0, _at_least(0)),
        "action_step": ("float", 1e-3, _above(0)),
    },
    "analysis": {
        "contraction_trials": ("int", 1000, _at_least(1)),
        "stress_scales": ("floatlist", [1.0, 3.0, 10.0], _each(_at_least(0), non_empty=True)),
        "stress_groups": ("int", 8, _at_least(1)),
        "decay_seeds": ("int", 4, _at_least(1)),
        "fixed_point_tol": ("float", 1e-12, _above(0)),
    },
}

_DEFAULT_TEXT = """\
# siglearn baseline configuration (jump-diffusion desk scale)
[algebra]
degree = 4
level_weights = unit

[signature]
mode = linear
history_mode = rectilinear

[env]
dim = 1
drift_base = 0.08
vol_diag = 0.25
jump_intensity = 1.2
jump_mean = -0.2
jump_scale = 0.15
action_exposure = 0.05
reward_coeffs = 1.0
reward_action_exposure = 0.5
memory_gain_scale = 0.3
memory_features = 4

[history]
steps = 16
dt = 0.02

[horizon]
steps = 12
dt = 0.02

[nystrom]
landmarks = 128
ridge = auto
metric_lambda = 1e-4

[flow]
lie_degree = 2
proxy_features = 4
phase_powers = 2
pin_clock = true
init_scale = 0.01

[train]
steps = 40
lr = 0.05
eta_scf = 0.1
contraction_reg = 0.0
ensemble_size = 256

[td]
gamma = 0.99
alpha = auto
iters = 150000
planted_rank = 3
terminal_payoff = 0.0

[variance]
seeds = 40
ensemble_size = 256

[risk]
alpha_tail = 0.05
beta = 1.0
action_step = 1e-3

[analysis]
contraction_trials = 1000
stress_scales = 1, 3, 10
stress_groups = 8
decay_seeds = 4
fixed_point_tol = 1e-12
"""


def default_config_text() -> str:
    return _DEFAULT_TEXT


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        value = _convert(raw, kind)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from exc
    numbers = value if isinstance(value, list) else [value]
    if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
        raise ConfigError(f"{where} = {raw!r} is not finite")
    return value


def _convert(raw: str, kind: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)
    if kind in ("floatlist", "dimlist"):
        return [float(v) for v in raw.replace(",", " ").split()]
    if kind == "float_or_auto":
        return raw if raw == "auto" else float(raw)
    return raw


def load_config(path: str | None = None, environ: dict | None = None) -> dict:
    """Parse, default-fill, env-override, and validate a configuration.

    With ``path=None`` the built-in baseline text is used.  Raises
    ConfigError naming the exact section.key on a missing required key, an
    unknown entry, a value that does not parse, is not a finite number or
    lies outside its range, or keys that contradict each other.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is None:
        parser.read_string(_DEFAULT_TEXT)
    else:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            parser.read_file(fh)

    cfg: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            kind = SCHEMA[section][key][0]
            cfg[section][key] = _parse_value(raw, kind, f"{section}.{key}")

    environ = os.environ if environ is None else environ
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :]
        if "__" not in rest:
            continue
        section, key = rest.lower().split("__", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"environment override names unknown key {section}.{key}")
        kind = SCHEMA[section][key][0]
        cfg.setdefault(section, {})[key] = _parse_value(raw, kind, f"{section}.{key} (from {name})")

    for section, keys in SCHEMA.items():
        cfg.setdefault(section, {})
        for key, (_, default, _) in keys.items():
            if key in cfg[section]:
                continue
            if default is _REQ:
                raise ConfigError(f"missing required config key {section}.{key}")
            if default is not None:
                cfg[section][key] = default
    _check_rows(cfg)
    _check_cross_keys(cfg)
    return cfg


def _check_rows(cfg: dict) -> None:
    """Each value against the rule of its row, and each dimlist against env.dim."""
    dim = cfg["env"]["dim"]
    for section, keys in SCHEMA.items():
        for key, (kind, _, rule) in keys.items():
            value = cfg[section].get(key)
            if value is None or (kind == "float_or_auto" and value == "auto"):
                continue
            broken = rule(value) if rule else None
            if broken:
                raise ConfigError(f"{section}.{key} = {value} must {broken}")
            if kind == "dimlist" and len(value) != dim:
                raise ConfigError(f"{section}.{key} has {len(value)} entries but env.dim = {dim}")


def _check_cross_keys(cfg: dict) -> None:
    """Rules that read two keys; each value already meets its own row's rule."""
    dim = cfg["env"]["dim"]
    sub = cfg["env"].get("vol_sub")
    if sub is not None and len(sub) != dim - 1:
        raise ConfigError(
            f"env.vol_sub has {len(sub)} entries but needs env.dim - 1 = {dim - 1}"
        )
    landmarks, n_mem = cfg["nystrom"]["landmarks"], cfg["env"]["memory_features"]
    if landmarks < n_mem:
        raise ConfigError(
            f"nystrom.landmarks = {landmarks} is below env.memory_features = {n_mem}"
        )
    proxy = cfg["flow"]["proxy_features"]
    if proxy > landmarks:
        raise ConfigError(
            f"flow.proxy_features = {proxy} exceeds nystrom.landmarks = {landmarks}"
        )
    lie, degree = cfg["flow"]["lie_degree"], cfg["algebra"]["degree"]
    if not 1 <= lie <= degree:
        raise ConfigError(f"flow.lie_degree = {lie} must lie in [1, algebra.degree = {degree}]")
    # the norm-stress check splits the training ensemble into equal groups
    n_paths, groups = cfg["train"]["ensemble_size"], cfg["analysis"]["stress_groups"]
    if n_paths % groups:
        raise ConfigError(
            f"train.ensemble_size = {n_paths} is not divisible by "
            f"analysis.stress_groups = {groups}"
        )


def config_hash(cfg: dict) -> str:
    """Short stable digest of the effective configuration."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key}={cfg[section][key]!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]

"""Flat INI-style configuration with schema validation and hashing.

Sections and keys are fixed by ``SCHEMA``; every value is typed.  Overrides
can come from the environment as ``SIGLEARN_<SECTION>__<KEY>=value`` (applied
after the file).  Per-key ranges and keys that must agree with each other
(list lengths against ``env.dim``, landmark and Lie degree bounds) are
checked once the configuration is complete.  The effective configuration is
hashed so every artifact can name the exact inputs that produced it.
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

# key -> (type, default); _REQ marks keys a config file must provide unless
# the built-in default text is used.  A "float_or_auto" value is the string
# "auto" or a finite float.
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "algebra": {
        "degree": ("int", _REQ),
        "level_weights": ("str", "unit"),
    },
    "signature": {
        "mode": ("str", "linear"),
        "history_mode": ("str", "rectilinear"),
    },
    "env": {
        "dim": ("int", _REQ),
        "drift_base": ("floatlist", _REQ),
        "vol_diag": ("floatlist", _REQ),
        "vol_sub": ("floatlist", None),
        "jump_intensity": ("float", _REQ),
        "jump_mean": ("floatlist", _REQ),
        "jump_scale": ("floatlist", _REQ),
        "action_exposure": ("floatlist", _REQ),
        "reward_coeffs": ("floatlist", _REQ),
        "reward_action_exposure": ("floatlist", None),
        "memory_gain_scale": ("float", 0.0),
        "memory_features": ("int", 4),
    },
    "history": {
        "steps": ("int", _REQ),
        "dt": ("float", _REQ),
        "x0": ("floatlist", None),
        # look-back window for the filtered junction signature; 0 = full
        "window": ("float", 0.0),
    },
    "horizon": {
        "steps": ("int", _REQ),
        "dt": ("float", _REQ),
    },
    "nystrom": {
        "landmarks": ("int", _REQ),
        "ridge": ("float_or_auto", "auto"),
        "metric_lambda": ("float", 1e-4),
    },
    "flow": {
        "lie_degree": ("int", 2),
        "proxy_features": ("int", 4),
        "phase_powers": ("int", 2),
        "pin_clock": ("bool", True),
        "init_scale": ("float", 0.01),
    },
    "train": {
        "steps": ("int", _REQ),
        "lr": ("float", 0.05),
        "eta_scf": ("float", 0.1),
        "contraction_reg": ("float", 0.0),
        "ensemble_size": ("int", _REQ),
    },
    "td": {
        "gamma": ("float", _REQ),
        "alpha": ("float_or_auto", "auto"),
        "iters": ("int", _REQ),
        "terminal_payoff": ("float", 0.0),
        "planted_rank": ("int", 3),
    },
    "variance": {
        "seeds": ("int", 40),
        "ensemble_size": ("int", 256),
    },
    "risk": {
        "alpha_tail": ("float", 0.05),
        "beta": ("float", 1.0),
        "action_step": ("float", 1e-3),
    },
    "analysis": {
        "contraction_trials": ("int", 1000),
        "stress_scales": ("floatlist", [1.0, 3.0, 10.0]),
        "stress_groups": ("int", 8),
        "decay_seeds": ("int", 4),
        "fixed_point_tol": ("float", 1e-12),
    },
}

# per-key ranges, checked once the configuration is complete
_RANGES: dict[tuple[str, str], tuple[Callable[[object], bool], str]] = {
    ("algebra", "degree"): (lambda v: v >= 1, "be >= 1"),
    ("algebra", "level_weights"): (
        lambda v: v in ("unit", "factorial"), "be one of ('unit', 'factorial')"
    ),
    ("signature", "mode"): (lambda v: v in _MODES, f"be one of {_MODES}"),
    ("signature", "history_mode"): (lambda v: v in _MODES, f"be one of {_MODES}"),
    ("env", "memory_features"): (lambda v: v >= 0, "be >= 0"),
    ("history", "steps"): (lambda v: v >= 1, "be >= 1"),
    ("history", "dt"): (lambda v: v > 0.0, "be > 0"),
    ("horizon", "steps"): (lambda v: v >= 1, "be >= 1"),
    ("horizon", "dt"): (lambda v: v > 0.0, "be > 0"),
    ("nystrom", "metric_lambda"): (lambda v: v > 0.0, "be > 0"),
    ("td", "gamma"): (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    ("td", "iters"): (lambda v: v >= 1, "be >= 1"),
    ("td", "planted_rank"): (lambda v: v >= 0, "be >= 0"),
    ("train", "steps"): (lambda v: v >= 0, "be >= 0"),
    ("train", "lr"): (lambda v: v > 0.0, "be > 0"),
    ("train", "eta_scf"): (lambda v: v >= 0.0, "be >= 0"),
    ("train", "contraction_reg"): (lambda v: v >= 0.0, "be >= 0"),
    # the metric fit takes a covariance across the ensemble's paths
    ("train", "ensemble_size"): (lambda v: v >= 2, "be >= 2"),
    ("variance", "ensemble_size"): (lambda v: v >= 1, "be >= 1"),
    ("flow", "phase_powers"): (lambda v: v >= 0, "be >= 0"),
    ("flow", "proxy_features"): (lambda v: v >= 0, "be >= 0"),
    ("flow", "init_scale"): (lambda v: v >= 0.0, "be >= 0"),
    ("history", "window"): (lambda v: v >= 0.0, "be >= 0"),
    ("risk", "alpha_tail"): (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    ("risk", "action_step"): (lambda v: v > 0.0, "be > 0"),
    ("analysis", "contraction_trials"): (lambda v: v >= 1, "be >= 1"),
    ("analysis", "decay_seeds"): (lambda v: v >= 1, "be >= 1"),
    ("analysis", "stress_groups"): (lambda v: v >= 1, "be >= 1"),
    ("analysis", "stress_scales"): (lambda v: len(v) > 0, "be non-empty"),
}

# keys holding one entry per state dimension; env.vol_sub holds dim - 1
_PER_DIM = [
    ("env", key)
    for key, (kind, _) in SCHEMA["env"].items()
    if kind == "floatlist" and key != "vol_sub"
] + [("history", "x0")]

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
    if kind == "floatlist":
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
            kind, _ = SCHEMA[section][key]
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
        kind, _ = SCHEMA[section][key]
        cfg.setdefault(section, {})[key] = _parse_value(raw, kind, f"{section}.{key} (from {name})")

    for section, keys in SCHEMA.items():
        cfg.setdefault(section, {})
        for key, (kind, default) in keys.items():
            if key in cfg[section]:
                continue
            if default is _REQ:
                raise ConfigError(f"missing required config key {section}.{key}")
            if default is not None:
                cfg[section][key] = default
    _check_cross_keys(cfg)
    return cfg


def _check_cross_keys(cfg: dict) -> None:
    for (section, key), (ok, rule) in _RANGES.items():
        value = cfg[section][key]
        if not ok(value):
            raise ConfigError(f"{section}.{key} = {value} must {rule}")
    dim = cfg["env"]["dim"]
    for section, key in _PER_DIM:
        value = cfg[section].get(key)
        if value is not None and len(value) != dim:
            raise ConfigError(f"{section}.{key} has {len(value)} entries but env.dim = {dim}")
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
    lie, degree = cfg["flow"]["lie_degree"], cfg["algebra"]["degree"]
    if not 1 <= lie <= degree:
        raise ConfigError(f"flow.lie_degree = {lie} must lie in [1, algebra.degree = {degree}]")


def config_hash(cfg: dict) -> str:
    """Short stable digest of the effective configuration."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key}={cfg[section][key]!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]

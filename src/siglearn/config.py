"""Flat INI-style configuration with schema validation and hashing.

Sections and keys are fixed by ``SCHEMA``; every value is typed.  Overrides
can come from the environment as ``SIGLEARN_<SECTION>__<KEY>=value`` (applied
after the file).  The effective configuration is hashed so every artifact can
name the exact inputs that produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import os

from .errors import ConfigError

__all__ = [
    "SCHEMA",
    "REQUIRED",
    "default_config_text",
    "load_config",
    "config_hash",
    "ENV_PREFIX",
]

ENV_PREFIX = "SIGLEARN_"

_REQ = object()

# key -> (type, default); _REQ marks keys a config file must provide unless
# the built-in default text is used
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
        "ridge": ("str", "auto"),
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
        "alpha": ("str", "auto"),
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

REQUIRED = [
    (section, key)
    for section, keys in SCHEMA.items()
    for key, (_, default) in keys.items()
    if default is _REQ
]

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
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from exc


def load_config(path: str | None = None, environ: dict | None = None) -> dict:
    """Parse, default-fill, env-override, and validate a configuration.

    With ``path=None`` the built-in baseline text is used.  Raises
    ConfigError naming the exact section.key on a missing required key or an
    unknown entry.
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
        cfg.setdefault(section, {})[key] = _parse_value(raw, kind, f"env:{name}")

    for section, keys in SCHEMA.items():
        cfg.setdefault(section, {})
        for key, (kind, default) in keys.items():
            if key in cfg[section]:
                continue
            if default is _REQ:
                raise ConfigError(f"missing required config key {section}.{key}")
            if default is not None:
                cfg[section][key] = default
    return cfg


def config_hash(cfg: dict) -> str:
    """Short stable digest of the effective configuration."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key}={cfg[section][key]!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]

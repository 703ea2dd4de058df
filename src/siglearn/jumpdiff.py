"""Jump-diffusion environment with signature-memory drift coupling.

The state follows an Euler-Maruyama scheme with compound-Poisson jumps
(Gaussian jump sizes, Merton style).  Non-Markovianity enters through
``drift_memory_gain``, which couples the drift to the compressed signature of
the path's own observed history.  Jumps are applied as instantaneous
displacements and flagged so signatures can treat them in the Marcus sense.

Randomness is organized as counter-based Philox streams, three per path
(diffusion, jump counts, jump sizes), so ensembles are reproducible for any
path count and generation order.  Path ``i`` of seed ``s`` always sees the
same noise regardless of how many other paths are generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor_algebra as ta
from .errors import DivergenceError, DomainError, RangeError, ShapeMismatchError
from .kernelspace import NystromMap, compress_flat
from .signature import (
    CadlagPath,
    SignatureConfig,
    _grid_index,
    batch_prefix_signatures,
    batch_terminal_signatures,
    chen_step_flat,
)

__all__ = [
    "JumpDiffusionParams",
    "PathEnsemble",
    "path_streams",
    "draw_path_noise",
    "generate_ensemble",
    "simulate_history",
    "empirical_mean_signature",
    "prefix_mean_signatures",
]

_STREAMS_PER_PATH = 4  # diffusion, jump counts, jump sizes, spare
# one reused generator per channel; path_streams resets their keys per path
_PATH_GENERATORS = tuple(np.random.Generator(np.random.Philox(key=0)) for _ in range(3))


@dataclass(frozen=True)
class JumpDiffusionParams:
    """Coefficients of the generative jump-diffusion.

    ``drift_memory_gain`` has shape (d, m) and multiplies the compressed
    history proxy; the action scales ``action_exposure`` into the drift.
    Volatility is a state-independent lower-triangular matrix, so the Marcus
    and Ito readings of the diffusion term coincide.

    The per-step reward is the P&L of a portfolio holding
    ``reward_coeffs + action * reward_action_exposure`` units of each state
    coordinate, evaluated on the realized increment.
    """

    drift_base: np.ndarray
    vol: np.ndarray
    jump_intensity: float
    jump_mean: np.ndarray
    jump_scale: np.ndarray
    action_exposure: np.ndarray
    drift_memory_gain: np.ndarray | None = None
    reward_coeffs: np.ndarray | None = None
    reward_action_exposure: np.ndarray | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.drift_base, dtype=float))
        vol = np.atleast_2d(np.asarray(self.vol, dtype=float))
        d = mu.shape[0]
        if vol.shape != (d, d):
            raise ShapeMismatchError(f"vol must be ({d},{d}), got {vol.shape}")
        if np.any(np.triu(vol, 1) != 0.0):
            raise DomainError("vol must be lower-triangular")
        if np.any(np.diag(vol) < 0):
            raise DomainError("vol diagonal must be >= 0")
        if self.jump_intensity < 0:
            raise DomainError("jump_intensity must be >= 0")
        jm = np.atleast_1d(np.asarray(self.jump_mean, dtype=float))
        js = np.atleast_1d(np.asarray(self.jump_scale, dtype=float))
        ae = np.atleast_1d(np.asarray(self.action_exposure, dtype=float))
        if jm.shape != (d,) or js.shape != (d,) or ae.shape != (d,):
            raise ShapeMismatchError("jump_mean, jump_scale, action_exposure must be d-vectors")
        if np.any(js < 0):
            raise DomainError("jump_scale must be >= 0")
        rc = self.reward_coeffs
        rc = np.ones(d) if rc is None else np.atleast_1d(np.asarray(rc, dtype=float))
        rae = self.reward_action_exposure
        rae = np.zeros(d) if rae is None else np.atleast_1d(np.asarray(rae, dtype=float))
        if rc.shape != (d,) or rae.shape != (d,):
            raise ShapeMismatchError(
                "reward_coeffs and reward_action_exposure must be d-vectors"
            )
        gain = self.drift_memory_gain
        if gain is not None:
            gain = np.atleast_2d(np.asarray(gain, dtype=float))
            if gain.shape[0] != d:
                raise ShapeMismatchError("drift_memory_gain must have d rows")
        for arr in (mu, vol, jm, js, ae, rc, rae):
            if not np.all(np.isfinite(arr)):
                raise DomainError("all coefficients must be finite")
        object.__setattr__(self, "drift_base", mu)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "jump_mean", jm)
        object.__setattr__(self, "jump_scale", js)
        object.__setattr__(self, "action_exposure", ae)
        object.__setattr__(self, "reward_coeffs", rc)
        object.__setattr__(self, "reward_action_exposure", rae)
        object.__setattr__(self, "drift_memory_gain", gain)

    @property
    def dim(self) -> int:
        return self.drift_base.shape[0]

    @property
    def has_memory(self) -> bool:
        return self.drift_memory_gain is not None and np.any(self.drift_memory_gain != 0.0)


def _zero_policy(t, states, proxies):
    states = np.atleast_2d(states)
    return np.zeros(states.shape[0])


def path_streams(seed: int, path_id: int) -> tuple[np.random.Generator, ...]:
    """The three Philox substreams owned by one path.

    Philox is counter-based: each (key, counter) block is a pure function of
    its inputs, so resetting a generator to a key and a zero counter gives
    exactly the draws of a freshly built one.  The three module-level
    generators are reset here instead of rebuilt, which skips the seed
    sequence each new Philox would build and its key would then ignore.  The
    returned tuple is therefore valid only until the next call, and running
    paths concurrently needs processes, not threads.
    """
    for channel, gen in enumerate(_PATH_GENERATORS):
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, _STREAMS_PER_PATH * path_id + channel], dtype=np.uint64),
            },
            # drop any words the previous path left buffered
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    return _PATH_GENERATORS


def draw_path_noise(
    seed: int, path_id: int, n_steps: int, dim: int, lam_dt: float | np.ndarray
):
    """Pre-draw the full noise block of one path in its documented layout.

    ``lam_dt`` is the jump intensity times the step, one value or one per step.
    """
    g_diff, g_count, g_jump = path_streams(seed, path_id)
    xi = g_diff.standard_normal((n_steps, dim))
    counts = g_count.poisson(lam_dt, size=n_steps)
    eta = g_jump.standard_normal((n_steps, dim))
    return xi, counts, eta


def _batch_step(params, states, proxies, actions, dt, xi, counts, eta):
    """One Euler-Maruyama step of every path; returns states, rewards, jump flags."""
    drift = params.drift_base[None, :] + actions[:, None] * params.action_exposure[None, :]
    if params.has_memory:
        drift = drift + np.einsum("ij,nj->ni", params.drift_memory_gain, proxies)
    nxt = states + drift * dt + np.einsum("ij,nj->ni", params.vol, xi) * np.sqrt(dt)
    jumped = counts > 0
    if np.any(jumped):
        nxt[jumped] = nxt[jumped] + counts[jumped, None] * params.jump_mean[None, :]
        nxt[jumped] = nxt[jumped] + np.sqrt(counts[jumped, None]) * (
            params.jump_scale[None, :] * eta[jumped]
        )
    # reward: P&L of holdings reward_coeffs + action * reward_action_exposure
    rewards = np.einsum("ni,i->n", nxt - states, params.reward_coeffs)
    if np.any(params.reward_action_exposure != 0.0):
        rewards = rewards + actions * np.einsum(
            "ni,i->n", nxt - states, params.reward_action_exposure
        )
    return nxt, rewards, jumped


@dataclass(frozen=True)
class PathEnsemble:
    """Paths sharing one grid and junction, plus their realized rewards.

    ``values`` holds the signature-facing coordinates: the state columns,
    then the cumulative-reward column.
    """

    sig_config: SignatureConfig
    times: np.ndarray
    values: np.ndarray
    jump_flags: np.ndarray
    rewards: np.ndarray
    state_dim: int
    junction_proxy: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_grid(self) -> int:
        return self.times.shape[0]

    def path(self, i: int) -> CadlagPath:
        return CadlagPath(self.times, self.values[i], self.jump_flags[i])

    def grid_index(self, t: float) -> int:
        return _grid_index(self.times, t, "on the ensemble grid")


def generate_ensemble(
    params: JumpDiffusionParams,
    junction: tuple[float, np.ndarray, ta.TruncTensor | None],
    policy: Callable | None,
    grid: np.ndarray,
    n_paths: int,
    seed: int,
    sig_config: SignatureConfig,
    nmap: NystromMap | None = None,
) -> PathEnsemble:
    """Generate N independent paths from per-path counter-based streams.

    The result is deterministic given (seed, N, grid): path ``i`` consumes
    only its own streams, so enlarging the ensemble never perturbs existing
    paths.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid needs at least two points")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid times must be strictly increasing")
    t0, x0, proxy0 = junction
    x0 = np.asarray(x0, dtype=float)
    if abs(grid[0] - t0) > 1e-12:
        raise DomainError(f"grid must start at the junction time {t0}")
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    d = params.dim
    if policy is None:
        policy = _zero_policy

    n_steps = grid.size - 1
    lam_dt_all = params.jump_intensity * np.diff(grid)

    xi = np.empty((n_paths, n_steps, d))
    counts = np.empty((n_paths, n_steps), dtype=np.int64)
    eta = np.empty((n_paths, n_steps, d))
    for i in range(n_paths):
        xi[i], counts[i], eta[i] = draw_path_noise(seed, i, n_steps, d, lam_dt_all)

    track_memory = params.has_memory
    if track_memory and nmap is None:
        raise DomainError("drift_memory_gain is set: a NystromMap is required")

    d_sig = d + 1  # state columns, then the cumulative reward
    values = np.empty((n_paths, n_steps + 1, d_sig))
    flags = np.zeros((n_paths, n_steps + 1), dtype=bool)
    rewards = np.empty((n_paths, n_steps))

    states = np.tile(x0, (n_paths, 1))
    cumrew = np.zeros(n_paths)
    values[:, 0, :d] = states
    values[:, 0, d] = 0.0

    if track_memory:
        c = sig_config.channels(d_sig)
        if proxy0 is None:
            proxy_flat = np.tile(ta.identity_flat(c, sig_config.degree), (n_paths, 1))
        else:
            proxy_flat = np.tile(proxy0.data, (n_paths, 1))
        proxies = compress_flat(nmap, proxy_flat)
    else:
        proxies = np.zeros((n_paths, 0))
        proxy_flat = None

    for j in range(n_steps):
        dt = grid[j + 1] - grid[j]
        actions = np.asarray(policy(grid[j], states, proxies), dtype=float)
        if np.any(np.abs(actions) > 1.0):
            raise DomainError("policy produced an action outside [-1, 1]")
        nxt, step_rew, jumped = _batch_step(
            params, states, proxies, actions, dt, xi[:, j], counts[:, j], eta[:, j]
        )
        if not np.all(np.isfinite(nxt)):
            bad = int(np.argmax(~np.all(np.isfinite(nxt), axis=1)))
            raise DivergenceError(
                "ensemble state left the finite range",
                context={"step": j, "time": float(grid[j + 1]), "path": bad},
            )
        cumrew = cumrew + step_rew
        rewards[:, j] = step_rew
        states = nxt
        values[:, j + 1, :d] = states
        values[:, j + 1, d] = cumrew
        flags[:, j + 1] = jumped
        if track_memory:
            inc = values[:, j + 1] - values[:, j]
            proxy_flat = chen_step_flat(sig_config, d_sig, proxy_flat, dt, inc, jumped)
            proxies = compress_flat(nmap, proxy_flat)

    return PathEnsemble(
        sig_config=sig_config,
        times=grid,
        values=values,
        jump_flags=flags,
        rewards=rewards,
        state_dim=d,
        junction_proxy=None if proxy0 is None else np.array(proxy0.data),
    )


def simulate_history(
    params: JumpDiffusionParams,
    t_start: float,
    x_start: np.ndarray,
    n_steps: int,
    dt: float,
    seed: int,
    sig_config: SignatureConfig,
    nmap: NystromMap | None = None,
) -> tuple[CadlagPath, ta.TruncTensor]:
    """One observed zero-action history segment and its filtered junction signature."""
    grid = t_start + dt * np.arange(n_steps + 1)
    ens = generate_ensemble(
        params,
        (t_start, np.asarray(x_start, dtype=float), None),
        None,
        grid,
        1,
        seed,
        sig_config,
        nmap=nmap,
    )
    path = ens.path(0)
    sig = batch_terminal_signatures(
        sig_config, ens.times, ens.values, ens.jump_flags
    )[0]
    c = sig_config.channels(path.dim)
    return path, ta.TruncTensor(c, sig_config.degree, sig)


def _sub_ensemble_arrays(ens: PathEnsemble, t0: float, t1: float):
    i0, i1 = ens.grid_index(t0), ens.grid_index(t1)
    if i1 < i0:
        raise RangeError("t1 must not precede t0")
    return (
        ens.times[i0 : i1 + 1],
        ens.values[:, i0 : i1 + 1],
        ens.jump_flags[:, i0 : i1 + 1].copy(),
        i0,
        i1,
    )


def empirical_mean_signature(ens: PathEnsemble, t0: float, t1: float) -> ta.TruncTensor:
    """Arithmetic mean of per-path signatures over [t0, t1]."""
    times, values, flags, i0, _ = _sub_ensemble_arrays(ens, t0, t1)
    flags[:, 0] = False
    c = ens.sig_config.channels(values.shape[2])
    if times.size == 1:
        return ta.identity(c, ens.sig_config.degree)
    sigs = batch_terminal_signatures(ens.sig_config, times, values, flags)
    return ta.TruncTensor(c, ens.sig_config.degree, sigs.mean(axis=0))


def prefix_mean_signatures(ens: PathEnsemble, keep_paths: bool = False):
    """Mean future-segment signatures from the junction to every gridpoint."""
    return batch_prefix_signatures(
        ens.sig_config, ens.times, ens.values, ens.jump_flags, keep_paths=keep_paths
    )

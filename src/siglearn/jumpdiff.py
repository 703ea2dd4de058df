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

``draw_path_noise`` draws one path's noise from numpy generators reset to
that path's keys; it is the layout, and small ensembles loop over it.  An
ensemble of ``_VECTOR_MIN_PATHS`` paths or more draws the same noise in one
vectorised pass: it computes every stream's Philox4x64-10 words (Salmon et
al., SC 2011) in numpy and replays numpy's own arithmetic on them, the
fast path of its ziggurat normals (Marsaglia & Tsang, 2000) with numpy's
tables read from package data, and the multiplication method of its
Poisson sampler.  A stream that leaves those paths goes back to numpy, and
the pass checks itself against ``draw_path_noise`` once per process, so
both routes give the same bits.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import tensor_algebra as ta
from .errors import DivergenceError, DomainError, RangeError, ShapeMismatchError
from .kernelspace import NystromMap
from .signature import (
    CadlagPath,
    SignatureConfig,
    _grid_index,
    _row_mean,
    _scan,
    batch_prefix_signatures,
    batch_terminal_signatures,
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
# one reused generator per channel, and one state per channel whose key
# _stream rewrites for each path
_PATH_GENERATORS = tuple(np.random.Generator(np.random.Philox(key=0)) for _ in range(3))
_PATH_STATES = tuple(
    {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.zeros(2, dtype=np.uint64)},
        # drop any words the previous path left buffered
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for _ in range(3)
)

# Ensembles of at least this many paths draw their noise in one vectorised
# pass; smaller ones loop over draw_path_noise.  The pass costs about 2 ms
# however few paths it draws, and the loop about 30 us per path: on a
# 2-core x86-64 host the two broke even near 100 paths (12 steps, dim 1),
# and at 128 paths the pass took 2.7 ms against the loop's 3.6 ms.
_VECTOR_MIN_PATHS = 128

# numpy's ziggurat tables ki_double (uint64[256]) and wi_double
# (float64[256]), little-endian, in this order
_ZIGGURAT_FILE = "ziggurat_tables.bin"
_ZIGGURAT_SHA256 = "c589548f9b2c248ff24e96150fac5db6d03516d56b9d2f1fccfef1794c8210d3"
# the first-use check: seed, paths, steps, dim and the per-step lam_dt; its
# paths include normals numpy rejects and jumps, with and without a draw
_CHECK_CASE = (7, 32, 12, 2, (0.3, 0.0, 0.2) * 4)


@dataclass(frozen=True)
class JumpDiffusionParams:
    """Coefficients of the generative jump-diffusion.

    ``drift_memory_gain`` has shape (d, m), with m at most the landmark
    count of the compression map: the drift reads the first m compressed
    features of the path's running signature and multiplies them by the
    gain.  An all-zero gain is stored as None, the one form of "no
    coupling".  The action scales ``action_exposure`` into the drift.
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
            if not np.any(gain != 0.0):
                gain = None
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


def _stream(seed: int, path_id: int, channel: int) -> np.random.Generator:
    """The reused generator of ``channel``, reset to that channel of one path."""
    state = _PATH_STATES[channel]
    state["state"]["key"][:] = (seed, _STREAMS_PER_PATH * path_id + channel)
    gen = _PATH_GENERATORS[channel]
    gen.bit_generator.state = state  # the setter copies the arrays
    return gen


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
    return tuple(_stream(seed, path_id, channel) for channel in range(3))


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


# ---------------------------------------------------------------------------
# the same noise for many paths in one vectorised pass

_MASK32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> np.uint64(32)
    ll, hl, lh = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    # (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64, so the middle sum cannot wrap
    mid = (ll >> np.uint64(32)) + (hl & _MASK32) + lh
    hi = m_hi * x_hi + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, x * np.uint64(m)


def _philox_words(seed: int, keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """The first 4 n_blocks words of each Philox4x64-10 stream keyed (seed, keys[s]).

    numpy's Philox increments its counter before it makes a block, so block
    b = 1, 2, ... of a stream is the cipher of counter (b, 0, 0, 0).
    Returns uint64 of shape (len(keys), 4 n_blocks), in draw order.
    """
    shape = (keys.size, n_blocks)
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed, np.asarray(keys, dtype=np.uint64)[:, None]
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=2).reshape(keys.size, 4 * n_blocks)


def _stream_words(seed: int, paths: np.ndarray, channel: int, n_words: int) -> np.ndarray:
    """The first ``n_words`` words of ``channel`` of each path in ``paths``."""
    keys = _STREAMS_PER_PATH * paths.astype(np.uint64) + np.uint64(channel)
    return _philox_words(seed, keys, -(-n_words // 4))[:, :n_words]


def _normals(words: np.ndarray, ki: np.ndarray, wi: np.ndarray):
    """numpy's ziggurat normals of ``words`` along the fast path, and where it held.

    Per word: idx = w & 0xff, sign = bit 8, rabs = the next 52 bits, and
    x = +-rabs * wi[idx], accepted when rabs < ki[idx].  Returns the draws
    and, per row, whether every word was accepted; a rejected word makes
    numpy read further words, so that row's later draws are not these.
    """
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    x = rabs.astype(float) * wi[idx]
    np.negative(x, out=x, where=((words >> np.uint64(8)) & np.uint64(1)).astype(bool))
    return x, np.all(rabs < ki[idx], axis=1)


def _poisson_counts(words: np.ndarray, lam: np.ndarray):
    """numpy's Poisson counts at 0 < lam < 10, one column per entry of ``lam``.

    numpy's multiplication method starts from prod = 1, multiplies it by
    U = (w >> 11) 2^-53 for each word w it reads, and counts the words
    after which prod still exceeds exp(-lam).  Rows run in step; returns
    the counts and, per row, whether its words sufficed.
    """
    u = (words >> np.uint64(11)) * 2.0**-53
    n_rows, n_words = u.shape
    counts = np.zeros((n_rows, lam.size), dtype=np.int64)
    pos = np.zeros(n_rows, dtype=np.intp)
    ok = np.ones(n_rows, dtype=bool)
    for j, x in enumerate(lam):
        cut = math.exp(-x)  # the C library's exp, which numpy's sampler calls
        rows = np.flatnonzero(ok)
        prod = np.ones(rows.size)
        while rows.size:
            short = pos[rows] >= n_words
            ok[rows[short]] = False
            rows, prod = rows[~short], prod[~short]
            prod *= u[rows, pos[rows]]
            pos[rows] += 1
            more = prod > cut
            counts[rows[more], j] += 1
            rows, prod = rows[more], prod[more]
    return counts, ok


def _vector_noise(seed, n_paths, n_steps, dim, lam_dt, ki, wi):
    """The noise of ``draw_path_noise`` for paths 0..n_paths-1 in one pass.

    Every stream is computed from its Philox words along numpy's own
    arithmetic: ziggurat normals that are all accepted, and jump counts by
    the multiplication method numpy uses at lam_dt < 10.  A stream that
    leaves these paths (a rejected normal, lam_dt >= 10, or more jumps
    than the words computed) is drawn again by numpy from its own reset
    generator.  Jump sizes are drawn only for paths that jump, because
    only those are read; the other rows of ``eta`` are zero.
    """
    n_draws = n_steps * dim
    paths = np.arange(n_paths)
    xi, ok = _normals(_stream_words(seed, paths, 0, n_draws), ki, wi)
    xi = xi.reshape(n_paths, n_steps, dim)
    for i in np.flatnonzero(~ok):
        xi[i] = _stream(seed, i, 0).standard_normal((n_steps, dim))

    lam = np.broadcast_to(np.asarray(lam_dt, dtype=float), (n_steps,))
    counts = np.zeros((n_paths, n_steps), dtype=np.int64)
    if np.all((lam >= 0.0) & (lam < 10.0)):
        drawn = np.flatnonzero(lam > 0.0)
        # a count of k reads k + 1 words; spare words cover the total count
        # up to four standard deviations above its mean, and more than that
        # sends the stream to numpy
        total = float(lam.sum())
        n_words = drawn.size + int(total + 4.0 * math.sqrt(total)) + 4
        counts[:, drawn], ok = _poisson_counts(
            _stream_words(seed, paths, 1, n_words), lam[drawn]
        )
        redraw = np.flatnonzero(~ok)
    else:  # the rejection sampler at lam_dt >= 10, or a value numpy refuses
        redraw = paths
    for i in redraw:
        counts[i] = _stream(seed, i, 1).poisson(lam_dt, size=n_steps)

    eta = np.zeros((n_paths, n_steps, dim))
    jumpers = np.flatnonzero(np.any(counts > 0, axis=1))
    if jumpers.size:
        draws, ok = _normals(_stream_words(seed, jumpers, 2, n_draws), ki, wi)
        eta[jumpers] = draws.reshape(jumpers.size, n_steps, dim)
        for i in jumpers[~ok]:
            eta[i] = _stream(seed, i, 2).standard_normal((n_steps, dim))
    return xi, counts, eta


def _load_tables():
    """numpy's ziggurat tables (ki, wi) from the package file, or None if it is not intact."""
    try:
        with open(os.path.join(os.path.dirname(__file__), _ZIGGURAT_FILE), "rb") as f:
            raw = f.read()
    except OSError:
        return None
    if hashlib.sha256(raw).hexdigest() != _ZIGGURAT_SHA256:
        return None
    return np.frombuffer(raw, "<u8", 256), np.frombuffer(raw, "<f8", 256, 2048)


@lru_cache(maxsize=None)
def _fast_tables():
    """The tables, once the vectorised pass has matched numpy here; else None.

    The check draws paths on fixed keys, with rejected normals and with
    jumps, and compares them with ``draw_path_noise``.  Where they differ
    (another numpy build) the process keeps to the per-path loop.
    """
    tables = _load_tables()
    if tables is None:
        return None
    seed, n_paths, n_steps, dim, lam_dt = _CHECK_CASE
    lam_dt = np.array(lam_dt)
    xi, counts, eta = _vector_noise(seed, n_paths, n_steps, dim, lam_dt, *tables)
    for i in range(n_paths):
        want = draw_path_noise(seed, i, n_steps, dim, lam_dt)
        if not (
            np.array_equal(xi[i], want[0])
            and np.array_equal(counts[i], want[1])
            and (not counts[i].any() or np.array_equal(eta[i], want[2]))
        ):
            return None
    return tables


def _ensemble_noise(seed, n_paths, n_steps, dim, lam_dt):
    """(xi, counts, eta) of paths 0..n_paths-1, each path's as ``draw_path_noise`` draws it."""
    tables = _fast_tables() if n_paths >= _VECTOR_MIN_PATHS else None
    if tables is not None:
        return _vector_noise(seed, n_paths, n_steps, dim, lam_dt, *tables)
    xi = np.empty((n_paths, n_steps, dim))
    counts = np.empty((n_paths, n_steps), dtype=np.int64)
    eta = np.empty((n_paths, n_steps, dim))
    for i in range(n_paths):
        xi[i], counts[i], eta[i] = draw_path_noise(seed, i, n_steps, dim, lam_dt)
    return xi, counts, eta


def _memory_matrix(nmap: NystromMap, m: int, p: ta.TruncTensor | None) -> np.ndarray:
    """The (m, flat) K with K S the first m compressed features of p (x) S, p the junction's."""
    if p is None:  # the map's rows: a pullback at the identity would turn -0.0 into +0.0
        return nmap.matrix[:m]
    c, k = p.channels, p.degree
    return ta.product_pullback_flat(c, k, p.data, ta.identity_flat(c, k), nmap.matrix[:m])[1]


def _batch_step(params, states, features, actions, dt, xi, counts, eta):
    """One Euler-Maruyama step of every path; returns states, rewards, jump flags."""
    drift = params.drift_base[None, :] + actions[:, None] * params.action_exposure[None, :]
    if params.drift_memory_gain is not None:
        drift = drift + np.einsum("ij,nj->ni", params.drift_memory_gain, features)
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
    then the cumulative-reward column.  ``prefix_means`` is the read-only
    (n_grid, flat) mean of the memory-coupled simulation's scan, or None.
    """

    sig_config: SignatureConfig
    times: np.ndarray
    values: np.ndarray
    jump_flags: np.ndarray
    rewards: np.ndarray
    state_dim: int
    junction_proxy: ta.TruncTensor | None = None
    prefix_means: np.ndarray | None = None

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
    paths.  ``policy(t, states)`` maps the time and the (n_paths, d) states
    at a gridpoint to the (n_paths,) actions taken over the next step, each
    in [-1, 1]; None takes action 0 throughout.  With memory coupling the
    signatures S_j are scanned from the identity as the grid is filled, and
    the drift reads the full history p (x) S_j as ``_memory_matrix``'s K S_j,
    K built once.  The scan's means are recorded as ``prefix_means``.
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

    n_steps = grid.size - 1
    lam_dt_all = params.jump_intensity * np.diff(grid)

    xi, counts, eta = _ensemble_noise(seed, n_paths, n_steps, d, lam_dt_all)

    gain = params.drift_memory_gain
    if gain is not None and nmap is None:
        raise DomainError("drift_memory_gain is set: a NystromMap is required")
    if gain is not None and gain.shape[1] > nmap.n_landmarks:
        raise ShapeMismatchError(
            f"drift_memory_gain has {gain.shape[1]} columns but the map compresses to "
            f"only {nmap.n_landmarks} features"
        )

    d_sig = d + 1  # state columns, then the cumulative reward
    values = np.empty((n_paths, n_steps + 1, d_sig))
    flags = np.zeros((n_paths, n_steps + 1), dtype=bool)
    rewards = np.empty((n_paths, n_steps))

    states = np.tile(x0, (n_paths, 1))
    cumrew = np.zeros(n_paths)
    values[:, 0, :d] = states
    values[:, 0, d] = 0.0

    features = means = None
    if gain is not None:
        memory = _memory_matrix(nmap, gain.shape[1], proxy0)
        scan = _scan(sig_config, grid, values, flags)
        n_flat = memory.shape[1]
        means, rows = np.empty((n_steps + 1, n_flat)), np.empty((n_paths, n_flat))

    actions = np.zeros(n_paths)
    for j in range(n_steps):
        if gain is not None:
            sig = next(scan)
            means[j] = _row_mean(sig, rows)
            # a row-major copy: the drift's einsum rounds differently on the transposed view
            features = np.ascontiguousarray((memory @ sig).T)
        dt = grid[j + 1] - grid[j]
        if policy is not None:
            actions = np.asarray(policy(grid[j], states), dtype=float)
            if np.any(np.abs(actions) > 1.0):
                raise DomainError("policy produced an action outside [-1, 1]")
        nxt, step_rew, jumped = _batch_step(
            params, states, features, actions, dt, xi[:, j], counts[:, j], eta[:, j]
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

    if gain is not None:
        means[-1] = _row_mean(next(scan), rows)
        means.setflags(write=False)
    return PathEnsemble(
        sig_config=sig_config,
        times=grid,
        values=values,
        jump_flags=flags,
        rewards=rewards,
        state_dim=d,
        junction_proxy=proxy0,
        prefix_means=means,
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
    """One observed zero-action history and its junction signature, its ensemble's last mean."""
    grid = t_start + dt * np.arange(n_steps + 1)
    junction = (t_start, np.asarray(x_start, dtype=float), None)
    ens = generate_ensemble(params, junction, None, grid, 1, seed, sig_config, nmap=nmap)
    path = ens.path(0)
    sig = prefix_mean_signatures(ens)[-1]
    return path, ta.TruncTensor(sig_config.channels(path.dim), sig_config.degree, sig)


def empirical_mean_signature(ens: PathEnsemble, t0: float, t1: float) -> ta.TruncTensor:
    """Arithmetic mean of per-path signatures over [t0, t1]."""
    i0, i1 = ens.grid_index(t0), ens.grid_index(t1)
    if i1 < i0:
        raise RangeError("t1 must not precede t0")
    times, values = ens.times[i0 : i1 + 1], ens.values[:, i0 : i1 + 1]
    c = ens.sig_config.channels(values.shape[2])
    if times.size == 1:
        return ta.identity(c, ens.sig_config.degree)
    sigs = batch_terminal_signatures(
        ens.sig_config, times, values, ens.jump_flags[:, i0 : i1 + 1]
    )
    return ta.TruncTensor(c, ens.sig_config.degree, sigs.mean(axis=0))


def prefix_mean_signatures(ens: PathEnsemble, keep_paths: bool = False):
    """Mean signatures from the junction to every gridpoint; a coupled ensemble's are recorded."""
    if ens.prefix_means is not None and not keep_paths:
        return ens.prefix_means
    return batch_prefix_signatures(
        ens.sig_config, ens.times, ens.values, ens.jump_flags, keep_paths=keep_paths
    )

"""Signatures of time-extended cadlag paths with explicit jump handling.

Channel 0 is the (normalized) time coordinate; channels 1..d are the spatial
coordinates of the path.  Jumps are traversed as instantaneous straight-line
segments: their factor is the exponential of a level-1 tensor with a zero
time-channel increment.

Two interpolation modes are supported for observed increments:

* ``rectilinear`` (default for observed data): each inter-observation step is
  a pure-time segment followed by a pure-space segment.
* ``linear``: the step is a single joint (time, space) segment; jump-flagged
  points still contribute the pure-time advance followed by the zero-time
  jump factor.

There is one Chen step, :func:`_chen_columns`: it advances rows-last
signatures, one (flat, n) array, by one grid step in place, each segment
the fused update sig (x) exp(v) of the Horner kernel in
:mod:`siglearn.tensor_algebra`, so no segment exponential or step factor is
materialised.  The scans step every path at once, column block by column
block, with scratch allocated once per scan; row-major copies are made only
where a caller reads them.  The memory-coupled simulation drives the scan
from the identity one gridpoint at a time, and the streaming filter
:func:`incremental_update` steps its signature as one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor_algebra as ta
from .errors import DomainError, OrderingError, RangeError, ShapeMismatchError

__all__ = [
    "SignatureConfig",
    "CadlagPath",
    "FilteredProxy",
    "path_signature",
    "new_filtered_proxy",
    "incremental_update",
    "step_factor_flat",
    "batch_prefix_signatures",
    "batch_terminal_signatures",
]

_MODES = ("rectilinear", "linear")


@dataclass(frozen=True)
class SignatureConfig:
    """Static choices shared by every signature computed in one experiment.

    ``time_scale`` divides all time increments so the time channel stays O(1)
    over the episode; pass the episode horizon.
    """

    degree: int
    time_scale: float = 1.0
    mode: str = "rectilinear"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.time_scale <= 0:
            raise DomainError("time_scale must be positive")

    def channels(self, dim: int) -> int:
        return dim + 1


@dataclass(frozen=True)
class CadlagPath:
    """Timestamped, jump-marked sample path.

    ``values`` has shape (n_points, dim); ``jump_flags[i]`` marks that point i
    was reached from point i-1 by an instantaneous displacement.
    """

    times: np.ndarray
    values: np.ndarray
    jump_flags: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        x = np.ascontiguousarray(self.values, dtype=float)
        j = np.ascontiguousarray(self.jump_flags, dtype=bool)
        if x.ndim != 2 or t.ndim != 1 or t.shape[0] != x.shape[0] or j.shape != t.shape:
            raise ShapeMismatchError(
                f"inconsistent path arrays: times {t.shape}, values {x.shape}, "
                f"jump_flags {j.shape}"
            )
        if t.shape[0] < 1:
            raise DomainError("path needs at least one point")
        if np.any(np.diff(t) <= 0):
            raise OrderingError("path times must be strictly increasing")
        if j[0]:
            raise DomainError("first point cannot be jump-flagged")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise DomainError("path coordinates must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", x)
        object.__setattr__(self, "jump_flags", j)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def index_of(self, t: float) -> int:
        """Index of the observation at time t; RangeError if t is not observed."""
        return _grid_index(self.times, t, "an observation time of the path")


def _grid_index(grid: np.ndarray, t: float, what: str) -> int:
    """Index of the gridpoint within 1e-9 max(1, |t|) of t; RangeError if none."""
    i = int(np.searchsorted(grid, t))
    for cand in (i - 1, i, i + 1):
        if 0 <= cand < grid.size and abs(grid[cand] - t) <= 1e-9 * max(1.0, abs(t)):
            return cand
    raise RangeError(f"time {t} is not {what}")


def step_factor_flat(
    config: SignatureConfig,
    dim: int,
    dt: np.ndarray,
    dx: np.ndarray,
    jumped: np.ndarray,
) -> np.ndarray:
    """Batched signature factor for one grid step; leading axis is the path.

    The Chen step of the scans and the streaming filter multiplies by this
    factor without building it.  The bare factor is what the score-matching
    targets average, and it is the reference the fused step is tested
    against.
    """
    c = config.channels(dim)
    k = config.degree
    n_flat = ta.flat_size(c, k)
    dt = np.asarray(dt, dtype=float) / config.time_scale
    dx = np.asarray(dx, dtype=float)
    batch = dx.shape[:-1]

    space = np.zeros(batch + (n_flat,))
    space[..., 2 : 2 + dim] = dx
    space_exp = ta.exp_flat(c, k, space)

    time_vec = np.zeros(batch + (n_flat,))
    time_vec[..., 1] = dt
    time_exp = ta.exp_flat(c, k, time_vec)
    rect = ta.product_flat(c, k, time_exp, space_exp)
    if config.mode == "rectilinear":
        return rect

    joint = np.zeros(batch + (n_flat,))
    joint[..., 1] = dt
    joint[..., 2 : 2 + dim] = dx
    linear = ta.exp_flat(c, k, joint)
    jumped = np.asarray(jumped, dtype=bool)
    if not np.any(jumped):
        return linear
    return np.where(jumped[..., None], rect, linear)


# Bytes of Horner scratch per multi-row step or scan, which set its column
# blocks.  Each block pays a kernel call per segment, and fewer blocks ran
# faster at every width tried: on a 2-core x86-64 host a 5,120-path,
# 12-step terminal scan at (channels, degree) = (3, 4) took 26-31 ms as
# one block against 45-54 ms in 1,024-column blocks (fresh processes).
# This budget gives 6,472 columns at (3, 4), so such a scan is one block,
# while a 65,536-path scan still holds only 8 MiB of scratch.
_SCRATCH_BYTES = 8 * 1024 * 1024


def _column_scratch(c: int, k: int, n_cols: int):
    """Block width for ``n_cols`` rows-last columns, and Horner scratch for it.

    One column gets no scratch: the Horner kernel allocates as it goes,
    which on one column costs less than writing through scratch views.
    """
    if n_cols == 1:
        return 1, None
    block = max(1, min(n_cols, _SCRATCH_BYTES // (16 * c**k)))
    return block, ta._horner_scratch(c, k, block)


def _chen_columns(c, k, linear, st, time_v, space_v, jumped, scratch) -> None:
    """Advance rows-last signatures ``st`` (flat, n) in place by one grid step.

    ``time_v`` and ``space_v`` are the (c, n) time and space segments,
    ``jumped`` the (n,) flags and ``scratch`` what :func:`_column_scratch`
    returns.  Rectilinear mode takes the time segment, then the space
    segment.  In linear mode every column takes the joint segment, and the
    jump-flagged columns are then redone from the old signature as a time
    segment followed by a space segment.  A segment runs over the columns
    block by block, through the Horner kernel of
    :mod:`siglearn.tensor_algebra`, writing into the scratch.
    """
    block, horner = scratch

    def segment(v):
        for lo in range(0, st.shape[1], block):
            cols = slice(lo, lo + block)
            ta._mul_exp_t(c, k, st[:, cols], v[:, cols], horner)

    if not linear:
        segment(time_v)
        segment(space_v)
        return
    cols = np.flatnonzero(jumped)
    before = st[:, cols]
    segment(time_v + space_v)
    if cols.size:
        ta._mul_exp_t(c, k, before, time_v[:, cols])
        ta._mul_exp_t(c, k, before, space_v[:, cols])
        st[:, cols] = before


def path_signature(
    config: SignatureConfig, path: CadlagPath, t0: float, t1: float
) -> ta.TruncTensor:
    """Ordered product of segment factors of ``path`` over [t0, t1]."""
    lo, hi = path.span()
    if not (lo - 1e-12 <= t0 <= t1 <= hi + 1e-12):
        raise RangeError(f"[{t0}, {t1}] outside path span [{lo}, {hi}]")
    window = slice(path.index_of(t0), path.index_of(t1) + 1)
    sig = batch_terminal_signatures(
        config, path.times[window], path.values[None, window], path.jump_flags[None, window]
    )[0]
    return ta.TruncTensor(config.channels(path.dim), config.degree, sig)


# ---------------------------------------------------------------------------
# streaming filtered updates


@dataclass(frozen=True)
class FilteredProxy:
    """Running signature of the observed history, updated one point at a time."""

    config: SignatureConfig
    sig: ta.TruncTensor
    anchor_time: float
    anchor_value: np.ndarray

    def __post_init__(self):
        if not self.sig.is_group_like():
            raise DomainError("filtered proxy signature must be group-like")


def _observation(t, x, dim: int | None = None) -> tuple[float, np.ndarray]:
    """Observation (t, x) as a float and a (dim,) float array, both finite.

    x is copied, so a caller that reuses its buffer leaves the proxy as it was.
    """
    x = np.array(x, dtype=float)
    if x.ndim != 1 or (dim is not None and x.shape != (dim,)):
        want = "(d,)" if dim is None else f"({dim},)"
        raise ShapeMismatchError(f"observation x has shape {x.shape}, expected {want}")
    t = float(t)
    if not (math.isfinite(t) and np.isfinite(x).all()):
        raise DomainError(f"observation must be finite, got t={t}, x={x}")
    return t, x


def new_filtered_proxy(config: SignatureConfig, t0: float, x0) -> FilteredProxy:
    t0, x0 = _observation(t0, x0)
    c = config.channels(x0.shape[0])
    return FilteredProxy(
        config=config,
        sig=ta.identity(c, config.degree),
        anchor_time=t0,
        anchor_value=x0,
    )


def incremental_update(
    proxy: FilteredProxy, t: float, x, jump_flag: bool = False
) -> FilteredProxy:
    """Fold one new observation into the running signature.

    The signature is stepped as one column of :func:`_chen_columns`, the
    step of the scans, so streaming a path gives its scan rows bit for bit.
    A repeated observation with zero increment is a no-op.
    """
    dim = proxy.anchor_value.shape[0]
    t, x = _observation(t, x, dim)
    dt = t - proxy.anchor_time
    dx = x - proxy.anchor_value
    if dt == 0.0 and not np.any(dx):
        return proxy
    if dt <= 0.0:
        raise OrderingError(
            f"observation at t={t} does not advance anchor_time={proxy.anchor_time}"
        )
    cfg = proxy.config
    c, k = cfg.channels(dim), cfg.degree
    sig = proxy.sig.data[:, None].copy()  # the step writes in place
    time_v = np.zeros((c, 1))
    time_v[0] = dt / cfg.time_scale
    space_v = np.zeros((c, 1))
    space_v[1:, 0] = dx
    jumped = np.array([bool(jump_flag)])
    scratch = _column_scratch(c, k, 1)
    _chen_columns(c, k, cfg.mode == "linear", sig, time_v, space_v, jumped, scratch)
    return replace(proxy, sig=ta.TruncTensor(c, k, sig[:, 0]), anchor_time=t, anchor_value=x)


# ---------------------------------------------------------------------------
# batched grid-path signatures (shared time grid across an ensemble)


def _scan(config: SignatureConfig, times, values, jump_flags):
    """Running signatures of every path, rows-last, one gridpoint at a time.

    ``values`` has shape (n_paths, n_grid, dim); all paths share ``times``.
    Yields, for j = 0, 1, ..., the (flat, n_paths) signatures over
    [t_0, t_j], started from the identity: one array that each step
    overwrites, column block by column block, through :func:`_chen_columns`.
    Gridpoint j of ``values`` and ``jump_flags`` is read only when the scan
    steps to j, so a caller may fill the grid while it scans.  The flag of
    the first point is never read: no increment ends there.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    jump_flags = np.asarray(jump_flags, dtype=bool)
    n_paths, n_grid, dim = values.shape
    if times.shape != (n_grid,):
        raise ShapeMismatchError("times length does not match the value grid")
    c = config.channels(dim)
    k = config.degree
    linear = config.mode == "linear"
    sig = np.zeros((ta.flat_size(c, k), n_paths))
    sig[0] = 1.0
    yield sig
    scratch = _column_scratch(c, k, n_paths)
    time_v = np.zeros((c, n_paths))
    space_v = np.zeros((c, n_paths))
    for j in range(1, n_grid):
        time_v[0] = (times[j] - times[j - 1]) / config.time_scale
        space_v[1:] = (values[:, j] - values[:, j - 1]).T
        _chen_columns(c, k, linear, sig, time_v, space_v, jump_flags[:, j], scratch)
        yield sig


def _row_mean(sig: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean over paths of rows-last ``sig`` (flat, n), summed in row order on its copy ``rows``."""
    rows[...] = sig.T
    return rows.mean(axis=0)


def batch_prefix_signatures(
    config: SignatureConfig,
    times: np.ndarray,
    values: np.ndarray,
    jump_flags: np.ndarray,
    keep_paths: bool = False,
):
    """Signatures over [t_0, t_j] for every gridpoint j, batched over paths.

    ``values`` has shape (n_paths, n_grid, dim); all paths share ``times``.
    Returns the per-gridpoint ensemble mean flat signatures with shape
    (n_grid, flat); with ``keep_paths=True`` additionally returns the full
    (n_grid, n_paths, flat) array.
    """
    n_paths, n_grid, dim = np.shape(values)
    n_flat = ta.flat_size(config.channels(dim), config.degree)
    means = np.empty((n_grid, n_flat))
    rows = np.empty((n_grid if keep_paths else 1, n_paths, n_flat))
    for j, sig in enumerate(_scan(config, times, values, jump_flags)):
        means[j] = _row_mean(sig, rows[j if keep_paths else 0])
    return (means, rows) if keep_paths else means


def batch_terminal_signatures(
    config: SignatureConfig,
    times: np.ndarray,
    values: np.ndarray,
    jump_flags: np.ndarray,
) -> np.ndarray:
    """Terminal flat signatures (n_paths, flat) over the whole grid."""
    for sig in _scan(config, times, values, jump_flags):
        pass
    return np.ascontiguousarray(sig.T)

"""Exact arithmetic in the degree-k truncated tensor algebra over c channels.

Coefficients are stored flat with per-level offsets: level i holds the c^i
coefficients of the i-fold tensor power in row-major multi-index order (the
leftmost tensor factor varies slowest).  All operations are pure functions;
inputs are never mutated.

Group-like elements carry scalar part exactly 1 (signatures and their
products); Lie-like elements carry scalar part exactly 0 (generator outputs,
logarithms).  The scalar coefficient itself is the flag — no separate
bookkeeping is stored on the tensor.

The ``*_flat`` functions are the only engine: they act on arrays whose last
axis is the flat coefficient vector, broadcasting over any leading axes.
:class:`TruncTensor` is a checked container for one element; its ``data``
goes through the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import ConfigError, DomainError, ShapeMismatchError

__all__ = [
    "TruncTensor",
    "level_sizes",
    "level_offsets",
    "flat_size",
    "coefficient_weights",
    "identity",
    "product_flat",
    "exp_flat",
    "mul_exp_flat",
    "log_flat",
    "inverse_flat",
    "identity_flat",
    "product_pullback_flat",
    "exp_pullback_flat",
]


# ---------------------------------------------------------------------------
# shape bookkeeping


@lru_cache(maxsize=None)
def level_sizes(channels: int, degree: int) -> tuple[int, ...]:
    """Coefficient counts per level: (1, c, c^2, ..., c^k)."""
    _check_dims(channels, degree)
    return tuple(channels**i for i in range(degree + 1))


@lru_cache(maxsize=None)
def level_offsets(channels: int, degree: int) -> tuple[int, ...]:
    sizes = level_sizes(channels, degree)
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return tuple(offs)


def flat_size(channels: int, degree: int) -> int:
    """Total flat length, sum over levels of c^i."""
    return level_offsets(channels, degree)[-1]


def _check_dims(channels: int, degree: int) -> None:
    if channels < 1 or degree < 1:
        raise ConfigError(
            f"channels and degree must be >= 1, got c={channels}, k={degree}"
        )


def coefficient_weights(channels: int, degree: int, level_weights) -> np.ndarray:
    """Expand per-level weights into a per-coefficient weight vector."""
    w = np.asarray(level_weights, dtype=float)
    if w.shape != (degree + 1,):
        raise ShapeMismatchError(
            f"level_weights must have length {degree + 1}, got {w.shape}"
        )
    if np.any(w <= 0):
        raise DomainError("level_weights must all be positive")
    return np.repeat(w, level_sizes(channels, degree))


def unit_level_weights(degree: int) -> np.ndarray:
    return np.ones(degree + 1)


def factorial_level_weights(degree: int) -> np.ndarray:
    """Factorial-decay weighting 1/i!, the conditioning-friendly option."""
    return np.array([1.0 / factorial(i) for i in range(degree + 1)])


# ---------------------------------------------------------------------------
# batched flat-array engine


def identity_flat(channels: int, degree: int) -> np.ndarray:
    out = np.zeros(flat_size(channels, degree))
    out[0] = 1.0
    return out


def product_flat(channels: int, degree: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated tensor product on flat arrays, broadcasting leading axes.

    Level n of the result is sum over i+j=n of a_i (x) b_j; terms above the
    truncation degree are dropped.
    """
    offs = level_offsets(channels, degree)
    sizes = level_sizes(channels, degree)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(batch + (offs[-1],))
    for n in range(degree + 1):
        acc = out[..., offs[n] : offs[n + 1]]
        for i in range(n + 1):
            j = n - i
            ai = a[..., offs[i] : offs[i + 1]]
            bj = b[..., offs[j] : offs[j + 1]]
            if i == 0:
                acc += ai * bj
            elif j == 0:
                acc += ai * bj
            else:
                blk = np.einsum("...i,...j->...ij", ai, bj)
                acc += blk.reshape(batch + (sizes[n],))
    return out


def exp_flat(channels: int, degree: int, x: np.ndarray) -> np.ndarray:
    """Truncated exponential of a Lie-like flat array (scalar part ignored)."""
    x = np.asarray(x, dtype=float)
    out = identity_flat(channels, degree) + np.zeros_like(x)
    term = x.copy()
    term[..., 0] = 0.0
    out = out + term
    for i in range(2, degree + 1):
        term = product_flat(channels, degree, term, x) / i
        out = out + term
    return out


def mul_exp_flat(channels: int, degree: int, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a (x) exp(v) for a level-1 increment v of shape (..., channels).

    Horner's rule per level, without building exp(v): level n of the result
    is a_n + (...((a_0 v/n + a_1) v/(n-1) + a_2) ... + a_{n-1}) v/1, so level
    n costs n outer products with v.  Broadcasts over leading axes.
    """
    offs = level_offsets(channels, degree)
    sizes = level_sizes(channels, degree)
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = np.broadcast_shapes(a.shape[:-1], v.shape[:-1])
    out = np.array(np.broadcast_to(a, batch + (offs[-1],)))
    v = v[..., None, :]
    v_over = [None] + [v / i for i in range(1, degree + 1)]
    for n in range(1, degree + 1):
        g = a[..., :1]
        for m in range(1, n + 1):
            g = (g[..., :, None] * v_over[n - m + 1]).reshape(batch + (sizes[m],))
            if m < n:
                g += a[..., offs[m] : offs[m + 1]]
        out[..., offs[n] : offs[n + 1]] += g
    return out


def product_pullback_flat(
    channels: int, degree: int, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of both factors of a (x) b for cotangent rows g.

    The pair (ga, gb) satisfies <g, da (x) b + a (x) db> = <ga, da> + <gb, db>.
    Level i of ga contracts g_n with b_(n-i) over its trailing n - i indices;
    level j of gb contracts g_n with a_(n-j) over its leading n - j indices.
    Broadcasts over leading axes; the cotangents take the broadcast shape.
    Levels that are zero in a or b are skipped: a generator increment has
    a zero scalar part and no levels above its Lie degree.
    """
    offs = level_offsets(channels, degree)
    sizes = level_sizes(channels, degree)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], g.shape[:-1])
    a_lv = [a[..., offs[i] : offs[i + 1]] for i in range(degree + 1)]
    b_lv = [b[..., offs[i] : offs[i + 1]] for i in range(degree + 1)]
    a_used = [bool(x.any()) for x in a_lv]
    b_used = [bool(x.any()) for x in b_lv]
    ga = np.zeros(batch + (offs[-1],))
    gb = np.zeros(batch + (offs[-1],))
    for n in range(degree + 1):
        gn = g[..., offs[n] : offs[n + 1]]
        for i in range(n + 1):
            j = n - i
            blk = gn.reshape(gn.shape[:-1] + (sizes[i], sizes[j]))
            if b_used[j]:
                ga[..., offs[i] : offs[i + 1]] += (blk @ b_lv[j][..., None])[..., 0]
            if a_used[i]:
                gb[..., offs[j] : offs[j + 1]] += (a_lv[i][..., None, :] @ blk)[..., 0, :]
    return ga, gb


def exp_pullback_flat(channels: int, degree: int, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cotangent of x under the truncated exponential, for cotangent rows g.

    Backpropagates through the series t_1 = x, t_i = t_(i-1) (x) x / i, whose
    terms all feed exp(x) = 1 + t_1 + ... + t_k.  Scalar parts of x and of
    the result are zero.
    """
    x = np.array(x, dtype=float)
    x[..., 0] = 0.0
    g = np.asarray(g, dtype=float)
    terms = [x]
    for i in range(2, degree):
        terms.append(product_flat(channels, degree, terms[-1], x) / i)
    gx = 0.0
    gt = g  # cotangent of the highest term t_k
    for i in range(degree, 1, -1):
        g_prev, g_x = product_pullback_flat(channels, degree, terms[i - 2], x, gt / i)
        gx = gx + g_x
        gt = g + g_prev
    gx = gx + gt
    gx[..., 0] = 0.0
    return gx


def log_flat(channels: int, degree: int, g: np.ndarray) -> np.ndarray:
    """Truncated logarithm of a group-like flat array (scalar part read as 1)."""
    g = np.asarray(g, dtype=float)
    u = g.copy()
    u[..., 0] = 0.0  # u = g - 1
    out = u.copy()
    term = u
    for i in range(2, degree + 1):
        term = product_flat(channels, degree, term, u)
        out = out + ((-1) ** (i + 1)) * term / i
    return out


def inverse_flat(channels: int, degree: int, g: np.ndarray) -> np.ndarray:
    """Group inverse via the finite geometric series, exact in truncation."""
    g = np.asarray(g, dtype=float)
    u = -g
    u[..., 0] = 0.0  # u = 1 - g
    out = identity_flat(channels, degree) + u
    term = u
    for _ in range(2, degree + 1):
        term = product_flat(channels, degree, term, u)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# single-element API


@dataclass(frozen=True)
class TruncTensor:
    """Element of the degree-k truncated tensor algebra over c channels.

    ``data`` is the flat coefficient vector; block i (of length c^i) holds
    level i in row-major multi-index order.
    """

    channels: int
    degree: int
    data: np.ndarray

    def __post_init__(self):
        _check_dims(self.channels, self.degree)
        arr = np.ascontiguousarray(self.data, dtype=float)
        expected = flat_size(self.channels, self.degree)
        if arr.shape != (expected,):
            raise ShapeMismatchError(
                f"flat length {arr.shape} does not match "
                f"sum of c^i = {expected} for c={self.channels}, k={self.degree}"
            )
        object.__setattr__(self, "data", arr)

    def is_group_like(self) -> bool:
        return self.data[0] == 1.0


def identity(channels: int, degree: int) -> TruncTensor:
    """Identity element: scalar part 1, all higher levels zero."""
    return TruncTensor(channels, degree, identity_flat(channels, degree))

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

The product and its exp, log and inverse series work rows-last.  The
operands are cut into blocks of rows, and each block is transposed to a
(width + 1, block) array whose extra last row is zero, small enough that a
series step works in cache.  A whole series runs inside its block, so a
call pays one transpose in and one out.  A single row skips the broadcast
and the blocks: it is copied into a 1-D (width + 1,) array with a zero last
entry.  The Horner step a (x) exp(v), :func:`_mul_exp_t`, has no flat
entry point: the Chen step of :mod:`siglearn.signature` calls it on its own
rows-last (flat, n) signatures.

One cached slot table drives every product: slot s of a level-n
coefficient gathers the term a_i b_(n-i) with i = s - (k - n), and the
first k - n slots pair the zero row with itself.  Each coefficient is thus
summed as 0 + t_0 + ... + t_n, the same terms in the same order as a loop
over levels and their i + j = n blocks; a padding term adds 0 * 0 to the
+0.0 start and leaves it +0.0.  A block gathers its terms slot by slot.
A single row gathers all the slots of each factor by indexing it with the
table (``take`` took about twice as long on one row), multiplies the two
(slots, flat) gathers once, and adds their slot rows to a +0.0 start;
numpy reduces along the slow axis row after row, so these are the same
sums in the same order.  The Horner step runs the
elementwise operations of its level loop in their order too, in place and
from the top level down; on several columns the Chen step writes its
quotients and products into scratch allocated once per scan, which changes
where values are stored but not how they are computed.  The results are
therefore the level loops' bit for bit, signed zeros and non-finite values
included.

The exponential's series reads x's scalar part as zero, and its products
skip each slot whose level of x (slot s reads level k - s of the right
factor) is zero in every row of the block; the scalar slot is always
skipped.  A generator step ds * ell has no levels above its Lie degree, so
most slots go.  The table of the kept slots is cached per skip set.  The
skip is exact: with finite factors a skipped term is +-0, and adding
+-0 leaves an accumulator that started at +0.0 unchanged, because a sum is
-0 only when both addends are.  A non-finite factor would have made a
skipped term NaN; it also reaches the result, which is then not finite,
and the block runs the full series again.  The series is written once, for
``exp_flat`` and for the proxy flow's steps, which skip the slots above
the generator's Lie degree; a single row gathers x's slot terms once for
all its products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

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


@lru_cache(maxsize=None)
def _product_slots(
    channels: int, degree: int, skip: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Slot table (ia, ib) of the product, each of shape (slots, flat + 1).

    Slot s of level-n coefficient e indexes the factors of its term
    a_i b_(n-i), i = s - (degree - n); padding slots, and every slot of the
    last column, index the zero row.  The table holds the degree + 1 slots
    in order, less those in ``skip``.
    """
    if skip:
        kept = [s for s in range(degree + 1) if s not in skip]
        ia, ib = (x[kept] for x in _product_slots(channels, degree))
    else:
        offs = level_offsets(channels, degree)
        sizes = level_sizes(channels, degree)
        flat = offs[-1]
        ia = np.full((degree + 1, flat + 1), flat, dtype=np.intp)
        ib = np.full((degree + 1, flat + 1), flat, dtype=np.intp)
        for n in range(degree + 1):
            e = np.arange(sizes[n])
            for i in range(n + 1):
                j = n - i
                s = degree - n + i
                ia[s, offs[n] : offs[n + 1]] = offs[i] + e // sizes[j]
                ib[s, offs[n] : offs[n + 1]] = offs[j] + e % sizes[j]
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib


def _product_t(slots, at: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """a (x) b on rows-last (flat + 1, ...) operands whose last row is zero.

    The terms of each slot of the table are gathered, multiplied and added
    to a +0.0 accumulator in slot order; the last row sums 0 * 0 terms and
    stays zero.  A block takes slot by slot, which keeps the temporaries
    small.  A one-row (flat + 1,) operand takes all its slots at once, and
    numpy reduces along the slow axis row after row, in slot order too.
    Its right factor may come already gathered, as the (slots, flat + 1)
    array ``bt[ib]``, which a series that multiplies by one x reuses.
    """
    ia, ib = slots
    if at.ndim == 1:
        terms = at[ia]
        terms *= bt if bt.ndim == 2 else bt[ib]
        return np.add.reduce(terms, axis=0, initial=0.0)
    out = np.zeros(at.shape)
    for s in range(len(ia)):
        term = at.take(ia[s], axis=0)
        term *= bt.take(ib[s], axis=0)
        out += term
    return out


# A rows-last operand block stays within this many bytes, so that the
# per-slot temporaries of a series stay in cache.  Blocks of 128 KiB were
# too large: in a fresh process on Linux, freeing those temporaries handed
# memory back to the system, and a 134-row product then took ~130 page
# faults per call.
_BLOCK_BYTES = 64 * 1024


def _by_blocks(kernel, *arrays: np.ndarray) -> np.ndarray:
    """Apply a rows-last kernel to arrays, broadcasting their leading axes.

    The operands are broadcast and flattened to (rows, width).  Each block
    of rows is transposed into fresh (width + 1, block) arrays with a zero
    last row, which the kernel may overwrite; its result, whose leading
    rows are those of the first operand, is transposed back.  A single row
    is copied into fresh 1-D (width + 1,) arrays instead.
    """
    batches = {x.shape[:-1] for x in arrays}
    batch = batches.pop() if len(batches) == 1 else np.broadcast_shapes(*batches)
    rows = prod(batch)
    flat = arrays[0].shape[-1]
    if rows == 1:
        ts = []
        for x in arrays:
            t = np.zeros(x.shape[-1] + 1)
            t[:-1] = x.reshape(-1)
            ts.append(t)
        return kernel(*ts)[:flat].reshape(batch + (flat,))
    mats = [
        (x if x.shape[:-1] == batch else np.broadcast_to(x, batch + x.shape[-1:]))
        .reshape(rows, x.shape[-1])
        for x in arrays
    ]
    out = np.empty((rows, flat))
    block = max(1, _BLOCK_BYTES // (8 * (flat + 1)))
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        ts = []
        for m in mats:
            t = np.zeros((m.shape[1] + 1, hi - lo))
            t[:-1] = m[lo:hi].T
            ts.append(t)
        out[lo:hi] = kernel(*ts)[:flat].T
    return out.reshape(batch + (flat,))


def product_flat(channels: int, degree: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated tensor product on flat arrays, broadcasting leading axes.

    Level n of the result is sum over i+j=n of a_i (x) b_j; terms above the
    truncation degree are dropped.
    """
    slots = _product_slots(channels, degree)
    return _by_blocks(
        lambda at, bt: _product_t(slots, at, bt),
        np.asarray(a, dtype=float),
        np.asarray(b, dtype=float),
    )


def _exp_t(degree: int, slots, xt: np.ndarray) -> np.ndarray:
    """exp(x) on a rows-last operand whose scalar part and last row are zero.

    The series 1 + t_1 + ... + t_k with t_1 = x and t_i = t_(i-1) (x) x / i,
    its products over ``slots``, which may leave out the slots that read a
    zero level of x.  A one-row x is gathered once for all its products.
    """
    out = xt + 0.0  # 0 + x, as a sum from +0.0 gives it
    out[0] = 1.0
    xg = xt[slots[1]] if xt.ndim == 1 else xt
    term = xt
    for i in range(2, degree + 1):
        term = _product_t(slots, term, xg)
        term /= i
        out += term
    return out


def exp_flat(channels: int, degree: int, x: np.ndarray) -> np.ndarray:
    """Truncated exponential of a Lie-like flat array (scalar part ignored).

    The series skips the product slots that read a level of x that is zero
    in every row of the block, and runs in full again where the result is
    not finite, so the result is the full series' bit for bit.
    """
    starts = level_offsets(channels, degree)[:-1]

    def kernel(xt):
        xt[0] = 0.0
        nonzero = xt[:-1] if xt.ndim == 1 else xt[:-1].any(axis=1)
        used = np.logical_or.reduceat(nonzero, starts).tolist()
        skip = tuple(s for s in range(degree + 1) if not used[degree - s])
        out = _exp_t(degree, _product_slots(channels, degree, skip), xt)
        if not np.isfinite(out).all():
            out = _exp_t(degree, _product_slots(channels, degree), xt)
        return out

    return _by_blocks(kernel, np.asarray(x, dtype=float))


def _horner_scratch(channels: int, degree: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for :func:`_mul_exp_t` on up to ``cols`` columns, allocated once.

    One buffer for v/1 ... v/degree, and two for the level-m products,
    which alternate: the product of level m is read only to form level
    m + 1.
    """
    return np.empty(degree * channels * cols), np.empty((2, channels**degree * cols))


def _mul_exp_t(channels, degree, at, vt, scratch=None) -> None:
    """at <- a (x) exp(v) in place, on rows-last operands, by Horner's rule.

    ``at`` is (flat, cols) and ``vt`` (channels, cols).  Level n becomes
    a_n + (...((a_0 v/n + a_1) v/(n-1) + a_2) ... + a_{n-1}) v/1; levels are
    written from the top down, so each reads the levels below it before
    they change.  With ``scratch`` from :func:`_horner_scratch` for at
    least cols columns, each quotient and product is written into it
    rather than into a new array.  The elementwise operations and their
    order are the same either way, so the results are bit for bit equal.
    """
    offs = level_offsets(channels, degree)
    sizes = level_sizes(channels, degree)
    cols = at.shape[1]
    if scratch is None:
        v_over = [vt / i for i in range(1, degree + 1)]
    else:
        v_buf, bufs = scratch
        v_over = v_buf[: degree * channels * cols].reshape(degree, channels, cols)
        for i in range(1, degree + 1):
            np.divide(vt, i, v_over[i - 1])
    for n in range(degree, 0, -1):
        g = at[:1]
        for m in range(1, n + 1):
            prod_m = None
            if scratch is not None:
                prod_m = bufs[m % 2, : sizes[m] * cols].reshape(sizes[m - 1], channels, cols)
            g = np.multiply(g[:, None], v_over[n - m], prod_m).reshape(sizes[m], cols)
            if m < n:
                g += at[offs[m] : offs[m + 1]]
        at[offs[n] : offs[n + 1]] += g


def product_pullback_flat(
    channels: int, degree: int, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of both factors of a (x) b for cotangent rows g.

    The pair (ga, gb) satisfies <g, da (x) b + a (x) db> = <ga, da> + <gb, db>.
    Level i of ga contracts g_n with b_(n-i) over its trailing n - i indices;
    level j of gb contracts g_n with a_(n-j) over its leading n - j indices.
    Broadcasts over leading axes; the cotangents take the broadcast shape.
    Levels that are zero in every row of a or b are skipped: a generator
    increment has a zero scalar part and no levels above its Lie degree.
    A single row contracts 2-D level blocks of g with 1-D level vectors,
    the same matrix-vector products that each row of a batch runs.
    """
    offs = level_offsets(channels, degree)
    sizes = level_sizes(channels, degree)
    flat = offs[-1]
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    a_used, b_used = (
        np.logical_or.reduceat(x.reshape(-1, flat).any(axis=0), offs[:-1]).tolist()
        for x in (a, b)
    )
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], g.shape[:-1])
    if prod(batch) == 1:
        a, b, g = a.reshape(-1), b.reshape(-1), g.reshape(-1)
        shape = (flat,)
        matvec = vecmat = np.matmul
    else:
        shape = batch + (flat,)

        def matvec(m, v):
            return (m @ v[..., None])[..., 0]

        def vecmat(v, m):
            return (v[..., None, :] @ m)[..., 0, :]

    ga = np.zeros(shape)
    gb = np.zeros(shape)
    a_lv, b_lv, ga_lv, gb_lv = (
        [x[..., offs[i] : offs[i + 1]] for i in range(degree + 1)] for x in (a, b, ga, gb)
    )
    for n in range(degree + 1):
        gn = g[..., offs[n] : offs[n + 1]]
        for i in range(n + 1):
            j = n - i
            blk = gn.reshape(gn.shape[:-1] + (sizes[i], sizes[j]))
            if b_used[j]:
                ga_lv[i] += matvec(blk, b_lv[j])
            if a_used[i]:
                gb_lv[j] += vecmat(a_lv[i], blk)
    return ga.reshape(batch + (flat,)), gb.reshape(batch + (flat,))


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
    slots = _product_slots(channels, degree)

    def kernel(u):
        u[0] = 0.0  # u = g - 1
        out = u.copy()
        term = u
        for i in range(2, degree + 1):
            term = _product_t(slots, term, u)
            out += ((-1) ** (i + 1)) * term / i
        return out

    return _by_blocks(kernel, np.asarray(g, dtype=float))


def inverse_flat(channels: int, degree: int, g: np.ndarray) -> np.ndarray:
    """Group inverse via the finite geometric series, exact in truncation."""
    slots = _product_slots(channels, degree)

    def kernel(u):
        np.negative(u, out=u)
        u[0] = 0.0  # u = 1 - g
        out = np.zeros(u.shape)
        out[0] = 1.0
        out += u
        term = u
        for _ in range(2, degree + 1):
            term = _product_t(slots, term, u)
            out += term
        return out

    return _by_blocks(kernel, np.asarray(g, dtype=float))


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

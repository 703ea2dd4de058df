"""Tensor-algebra conveniences that only the tests use."""

import numpy as np

from siglearn import tensor_algebra as ta
from siglearn.errors import ShapeMismatchError


def zero(channels: int, degree: int) -> ta.TruncTensor:
    return ta.TruncTensor(channels, degree, np.zeros(ta.flat_size(channels, degree)))


def level_slice(channels: int, degree: int, i: int) -> slice:
    offs = ta.level_offsets(channels, degree)
    return slice(offs[i], offs[i + 1])


def level(t: ta.TruncTensor, i: int) -> np.ndarray:
    """Coefficients of level i of t, a view into its data."""
    return t.data[level_slice(t.channels, t.degree, i)]


def graded_inner(a: ta.TruncTensor, b: ta.TruncTensor, level_weights=None) -> float:
    """Sum over levels of level_weights[i] <a_i, b_i>; unit weights by default."""
    if (a.channels, a.degree) != (b.channels, b.degree):
        raise ShapeMismatchError("tensor shapes differ")
    w = np.ones(a.degree + 1) if level_weights is None else level_weights
    cw = ta.coefficient_weights(a.channels, a.degree, w)
    return float(np.einsum("...i,...i->...", a.data * cw, b.data))


# Level-loop reference forms of the product, its series and the Horner step
# a (x) exp(v).  The kernels in tensor_algebra must agree with these bit for
# bit: they run the same operations in the same order.


def product_ref(channels: int, degree: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    offs = ta.level_offsets(channels, degree)
    sizes = ta.level_sizes(channels, degree)
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
            if i == 0 or j == 0:
                acc += ai * bj
            else:
                blk = np.einsum("...i,...j->...ij", ai, bj)
                acc += blk.reshape(batch + (sizes[n],))
    return out


def exp_ref(channels: int, degree: int, x: np.ndarray) -> np.ndarray:
    x = np.array(x, dtype=float)
    x[..., 0] = 0.0
    out = ta.identity_flat(channels, degree) + np.zeros_like(x)
    term = x
    out = out + term
    for i in range(2, degree + 1):
        term = product_ref(channels, degree, term, x) / i
        out = out + term
    return out


def log_ref(channels: int, degree: int, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    u = g.copy()
    u[..., 0] = 0.0
    out = u.copy()
    term = u
    for i in range(2, degree + 1):
        term = product_ref(channels, degree, term, u)
        out = out + ((-1) ** (i + 1)) * term / i
    return out


def inverse_ref(channels: int, degree: int, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    u = -g
    u[..., 0] = 0.0
    out = ta.identity_flat(channels, degree) + u
    term = u
    for _ in range(2, degree + 1):
        term = product_ref(channels, degree, term, u)
        out = out + term
    return out


def mul_exp_ref(channels: int, degree: int, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    offs = ta.level_offsets(channels, degree)
    sizes = ta.level_sizes(channels, degree)
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

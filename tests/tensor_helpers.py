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

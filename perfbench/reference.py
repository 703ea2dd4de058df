"""Reference signatures written independently of siglearn.

Coefficients use siglearn's documented flat layout: level n holds the c**n
coefficients of the n-fold tensor power, row-major with the leftmost factor
varying slowest.  Segment factors use the closed form
exp(v) = sum_n v^{(x)n} / n!, and products are explicit level-by-level Chen
products, so nothing here shares code with the library it checks.
"""

from __future__ import annotations

from math import factorial

import numpy as np


def offsets(c: int, k: int) -> list[int]:
    """Start of each level in the flat array, plus the total length."""
    out = [0]
    for n in range(k + 1):
        out.append(out[-1] + c**n)
    return out


def levels(flat: np.ndarray, c: int, k: int) -> list[np.ndarray]:
    offs = offsets(c, k)
    return [flat[offs[n] : offs[n + 1]] for n in range(k + 1)]


def segment_exp(v: np.ndarray, k: int) -> np.ndarray:
    """Signature of one straight segment with increment v, to degree k."""
    v = np.asarray(v, dtype=float)
    power = np.ones(1)
    parts = [power]
    for n in range(1, k + 1):
        power = np.outer(power, v).ravel()
        parts.append(power / factorial(n))
    return np.concatenate(parts)


def chen(a: np.ndarray, b: np.ndarray, c: int, k: int) -> np.ndarray:
    """Truncated product: level n is the sum over i + j = n of a_i (x) b_j."""
    la, lb = levels(a, c, k), levels(b, c, k)
    out = []
    for n in range(k + 1):
        acc = np.zeros(c**n)
        for i in range(n + 1):
            acc += np.outer(la[i], lb[n - i]).ravel()
        out.append(acc)
    return np.concatenate(out)


def step_factor(dt: float, dx: np.ndarray, jumped: bool, linear: bool, k: int) -> np.ndarray:
    """Factor of one grid step of a time-extended path (time channel first).

    A jump-flagged step, and every step in rectilinear mode, is a pure-time
    segment followed by a zero-time spatial segment; an unflagged step in
    linear mode is one joint segment.
    """
    dx = np.asarray(dx, dtype=float)
    c = dx.size + 1
    if linear and not jumped:
        return segment_exp(np.concatenate([[dt], dx]), k)
    time_part = segment_exp(np.concatenate([[dt], np.zeros_like(dx)]), k)
    space_part = segment_exp(np.concatenate([[0.0], dx]), k)
    return chen(time_part, space_part, c, k)


def prefix_signatures(
    times: np.ndarray,
    values: np.ndarray,
    jump_flags: np.ndarray,
    time_scale: float,
    linear: bool,
    k: int,
) -> np.ndarray:
    """Signature over [t_0, t_j] for every point j of one path, (n, flat)."""
    values = np.asarray(values, dtype=float)
    c = values.shape[1] + 1
    sig = segment_exp(np.zeros(c), k)
    out = [sig]
    for j in range(1, len(times)):
        factor = step_factor(
            (times[j] - times[j - 1]) / time_scale,
            values[j] - values[j - 1],
            bool(jump_flags[j]),
            linear,
            k,
        )
        sig = chen(sig, factor, c, k)
        out.append(sig)
    return np.array(out)

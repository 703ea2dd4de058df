"""Summary statistics shared by the workloads."""

from __future__ import annotations

import statistics

import numpy as np

# a percentile is a tail figure only when this many samples lie beyond it
MIN_BEYOND = 10

# The reference host's clock alternates between a base and a boosted level,
# in phases from a fraction of a second to minutes, so a run's median lands
# on either level.  The 90th percentile of a run's samples sits on the base
# level, which every run visits; timings report it.
UPPER = 90.0

# the end-to-end metrics every untraced run prints, with their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "paths_per_s": "paths/s",
    "decisions_per_s": "1/s",
    "decision_p90_ms": "ms",
}


def supported_percentile(samples, p: float) -> float | None:
    """The p-th percentile, or None when fewer than MIN_BEYOND samples exceed it."""
    n = len(samples)
    if n == 0 or n * (100.0 - p) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(samples, dtype=float), p))


def upper(samples) -> float:
    """The UPPER percentile of a run's samples (the sample itself if one)."""
    return float(np.percentile(np.asarray(samples, dtype=float), UPPER))


def median(samples) -> float:
    return float(statistics.median(samples))


def rel_close(a: float, b: float, tol: float, scale: float | None = None) -> bool:
    """|a - b| <= tol * scale, with scale defaulting to |b|."""
    s = abs(b) if scale is None else scale
    return abs(a - b) <= tol * s

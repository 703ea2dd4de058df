"""Numerical certification checks for the framework's structural claims.

Each check is a small, self-contained experiment with an explicit
construction:

* ``contraction_check`` encodes a return law as (return mean, conditioning
  features) and applies the evaluation operator (shared reward shift, gamma
  scaling of the return coordinate, shared push-forward of the conditioning).
  With this encoding the gamma bound is close to tautological, which is
  exactly what the construction is meant to demonstrate; the report states
  the measured ratios plainly.
* ``fixed_point_iterate`` runs the operator to its unique fixed point and
  fits the geometric convergence rate from the distance sequence.
* ``forecast_decay`` compares a deterministic flow against ensemble mean
  signatures over the horizon and fits the late-horizon slope of the log
  error curve (the first half is the ramp away from the shared identity, so
  the fit window is the second half of the grid).
* ``whitened_norm_stress`` scales jump sizes and contrasts raw signature
  norm growth with whitened-feature norm growth under a metric fitted on the
  unstressed regime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError
from .jumpdiff import JumpDiffusionParams, generate_ensemble, prefix_mean_signatures
from .kernelspace import NystromMap, WhitenedMetric, compress_flat, q_distance
from .proxy_flow import ProxyTrajectory
from .signature import batch_terminal_signatures

__all__ = [
    "ReturnLaw",
    "law_distance",
    "apply_bellman",
    "contraction_check",
    "FixedPointResult",
    "fixed_point_iterate",
    "forecast_decay",
    "whitened_norm_stress",
    "lyapunov_estimate",
]


@dataclass(frozen=True)
class ReturnLaw:
    """Desk-scale encoding of a return distribution: mean + conditioning."""

    return_mean: float
    features: np.ndarray


def law_distance(metric: WhitenedMetric, a: ReturnLaw, b: ReturnLaw) -> float:
    dq = q_distance(metric, a.features, b.features)
    return float(np.hypot(a.return_mean - b.return_mean, dq))


def apply_bellman(
    law: ReturnLaw, reward: float, gamma: float, next_features: np.ndarray
) -> ReturnLaw:
    """Shared reward shift, gamma scaling, shared conditioning push-forward."""
    return ReturnLaw(
        return_mean=reward + gamma * law.return_mean,
        features=np.asarray(next_features, dtype=float),
    )


def contraction_check(
    metric: WhitenedMetric,
    gamma: float,
    n_trials: int = 1000,
    seed: int = 0,
) -> dict:
    """Max distance ratio of the operator over random law pairs.

    Both laws in a pair share the reward and the pushed-forward conditioning
    features, as in one-step evaluation at a common state-action.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    rng = np.random.default_rng(seed)
    m = metric.dim
    ratios = []
    skipped = 0
    for trial in range(n_trials):
        v1 = rng.normal(size=m)
        # every fourth pair shares conditioning features, where the ratio
        # attains gamma exactly; otherwise the whitened feature distance
        # dilutes it below the bound
        v2 = v1 if trial % 4 == 0 else rng.normal(size=m)
        eta1 = ReturnLaw(rng.normal(), v1)
        eta2 = ReturnLaw(rng.normal(), v2)
        d0 = law_distance(metric, eta1, eta2)
        if d0 == 0.0:
            skipped += 1
            continue
        reward = rng.normal()
        pushed = rng.normal(size=m)
        d1 = law_distance(
            metric,
            apply_bellman(eta1, reward, gamma, pushed),
            apply_bellman(eta2, reward, gamma, pushed),
        )
        ratios.append(d1 / d0)
    ratios = np.array(ratios)
    return {
        "gamma": gamma,
        "n_trials": n_trials,
        "n_skipped": skipped,
        "max_ratio": float(ratios.max()) if ratios.size else 0.0,
        "mean_ratio": float(ratios.mean()) if ratios.size else 0.0,
    }


@dataclass
class FixedPointResult:
    law: ReturnLaw
    iterations: int
    fitted_rate: float | None


def fixed_point_iterate(
    reward: float,
    gamma: float,
    next_features: np.ndarray,
    eta0: ReturnLaw,
    metric: WhitenedMetric,
    tol: float = 1e-12,
) -> FixedPointResult:
    """Iterate the evaluation operator until successive laws are tol-close."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    if not 0.0 <= gamma < 1.0:
        raise DomainError("fixed-point iteration needs gamma in [0, 1)")
    law = eta0
    distances = []
    max_iter = 10_000
    for it in range(max_iter):
        nxt = apply_bellman(law, reward, gamma, next_features)
        d = law_distance(metric, nxt, law)
        law = nxt
        if d < tol:
            return FixedPointResult(law, it, _fit_rate(np.array(distances)))
        distances.append(d)
    raise DivergenceError(
        "fixed-point iteration did not converge",
        context={"max_iter": max_iter, "last_distance": distances[-1]},
    )


def _fit_rate(distances: np.ndarray) -> float | None:
    pos = distances[distances > 0]
    if pos.size < 3:
        return None
    k = np.arange(pos.size)
    slope = np.polyfit(k, np.log(pos), 1)[0]
    return float(np.exp(slope))


def forecast_decay(
    traj: ProxyTrajectory,
    metric: WhitenedMetric,
    env_params: JumpDiffusionParams,
    junction,
    n_paths: int,
    seeds,
    sig_config,
) -> dict:
    """Error curve e(s) between a flow and ensemble means, plus its slope.

    ``traj`` is the flow as ``integrate_flow`` recorded it; the ensembles run
    on its grid and are compressed by its map.  e(s) is the ``q_distance``
    |P d| of the features, averaged over seeds; beta is the log-linear slope
    fitted on the second half of the horizon (e(t) = 0 by construction, so
    the early ramp is excluded).  Also reports the proxy's ``q_norms`` |P x|
    in the same metric.
    """
    grid, nmap = traj.grid, traj.nmap
    proxy_feats = compress_flat(nmap, traj.flats)
    errors = np.zeros(grid.size)
    for seed in seeds:
        ens = generate_ensemble(
            env_params, junction, None, grid, n_paths, seed, sig_config, nmap=nmap
        )
        mean_feats = compress_flat(nmap, prefix_mean_signatures(ens))
        for j in range(grid.size):
            errors[j] += q_distance(metric, proxy_feats[j], mean_feats[j])
    errors /= len(seeds)
    if not np.all(np.isfinite(errors)):
        raise DivergenceError("forecast error curve diverged", context={})

    window = np.arange(grid.size // 2, grid.size)
    pos = window[errors[window] > 0]
    beta = None
    if pos.size >= 3:
        beta = float(np.polyfit(grid[pos], np.log(errors[pos]), 1)[0])
    q_norms = np.array([metric.norm(f) for f in proxy_feats])
    return {
        "s": grid.tolist(),
        "error": errors.tolist(),
        "beta": beta,
        "max_q_norm": float(q_norms.max()),
        "q_norms": q_norms.tolist(),
    }


def whitened_norm_stress(
    env_params: JumpDiffusionParams,
    junction,
    grid: np.ndarray,
    n_paths: int,
    seed: int,
    sig_config,
    nmap: NystromMap,
    metric: WhitenedMetric,
    scales=(1.0, 3.0, 10.0),
    n_groups: int = 8,
) -> list[dict]:
    """Raw vs whitened proxy norms under jump-size stress.

    The metric stays fitted on the unstressed regime.  Each scale yields
    ``n_groups`` proxies (sub-ensemble mean signatures); the rows report the
    max raw flat norm, the max whitened-feature norm, growth factors against
    the first scale, and the complexity bound 1/n sqrt(sum of squared
    whitened norms).
    """
    if n_paths % n_groups != 0:
        raise DomainError("n_paths must be divisible by n_groups")
    rows = []
    base_raw = base_white = None
    for scale in scales:
        params = replace(
            env_params,
            jump_mean=env_params.jump_mean * scale,
            jump_scale=env_params.jump_scale * scale,
        )
        ens = generate_ensemble(
            params, junction, None, grid, n_paths, seed, sig_config, nmap=nmap
        )
        sigs = batch_terminal_signatures(
            ens.sig_config, ens.times, ens.values, ens.jump_flags
        )
        proxies = sigs.reshape(n_groups, n_paths // n_groups, -1).mean(axis=1)
        raw_norms = np.linalg.norm(proxies, axis=1)
        white_norms = np.array(
            [metric.norm(f) for f in compress_flat(nmap, proxies)]
        )
        if base_raw is None:
            base_raw, base_white = raw_norms.max(), white_norms.max()
        rows.append(
            {
                "scale": float(scale),
                "max_raw_norm": float(raw_norms.max()),
                "max_whitened_norm": float(white_norms.max()),
                "raw_growth": float(raw_norms.max() / base_raw),
                "whitened_growth": float(white_norms.max() / base_white),
                "rademacher_bound": float(1.0 / n_groups * np.sqrt(np.sum(white_norms**2))),
            }
        )
    return rows


def lyapunov_estimate(
    env_params: JumpDiffusionParams,
    junction,
    grid: np.ndarray,
    seeds,
    sig_config,
    nmap: NystromMap | None = None,
) -> float:
    """Two-path divergence rate under common random numbers, from a 1e-8 offset."""
    grid = np.asarray(grid, dtype=float)
    t0, x0, proxy0 = junction
    horizon = grid[-1] - grid[0]
    eps = 1e-8
    rates = []
    for seed in seeds:
        a = generate_ensemble(
            env_params, (t0, x0, proxy0), None, grid, 1, seed, sig_config, nmap=nmap
        )
        shifted = np.asarray(x0, dtype=float) + eps / np.sqrt(len(x0))
        b = generate_ensemble(
            env_params, (t0, shifted, proxy0), None, grid, 1, seed, sig_config, nmap=nmap
        )
        gap = np.linalg.norm(a.values[0, -1, : a.state_dim] - b.values[0, -1, : b.state_dim])
        if gap > 0:
            rates.append(np.log(gap / eps) / horizon)
    return float(np.mean(rates)) if rates else 0.0

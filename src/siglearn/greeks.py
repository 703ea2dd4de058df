"""Analytical sensitivities of the proxy-linear value, and tail-risk tools.

The value at gridpoint s is linear in the weights, linear in the raw terminal
proxy, and differentiable in the generator weights through the flow.  All
three gradients are exact up to floating point and are cross-validated
against central finite differences in the tests.  The proxy gradient is the
pullback of the value's raw read through the residual product; the
generator-weight gradient seeds the flow's adjoint with it, which is the
reverse-mode pass that training also uses, one row per gridpoint asked for.
Every gradient reads a flow its caller has integrated; nothing here
integrates one.

Return moments are read directly off the reward channel of a signature,
which is always its last channel: level 1 holds the mean total reward and
twice the (reward, reward) diagonal of level 2 holds the second moment.  The
tail functional is a Gaussian conditional value-at-risk in the loss-tail
convention: ``cvar`` returns the conditional mean of the worst ``alpha``
fraction of outcomes (low returns), so smaller is worse.  Risk rectification
penalizes actions that increase the expected shortfall (the negated
lower-tail mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import tensor_algebra as ta
from .errors import DomainError, ShapeMismatchError
from .jumpdiff import (
    JumpDiffusionParams,
    empirical_mean_signature,
    generate_ensemble,
)
from .kernelspace import NystromMap
from .proxy_flow import GeneratorParams, ProxyTrajectory, _flow_adjoint

__all__ = [
    "RiskConfig",
    "grad_w",
    "grad_proxy",
    "grad_theta",
    "return_moments",
    "cvar",
    "shortfall_gradient_flat",
    "risk_rectified_advantage",
    "action_sensitivity",
]


@dataclass(frozen=True)
class RiskConfig:
    """Tail fraction and risk aversion."""

    alpha_tail: float = 0.05
    beta_risk: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha_tail < 1.0:
            raise DomainError(f"alpha_tail must lie in (0, 1), got {self.alpha_tail}")
        if self.beta_risk < 0:
            raise DomainError("beta_risk must be >= 0")


def grad_w(traj: ProxyTrajectory, s: float) -> np.ndarray:
    """Gradient of the value in the weight vector: the compressed residual."""
    return traj.residual_features()[traj.index_of(s)].copy()


def grad_proxy(traj: ProxyTrajectory, w: np.ndarray, s: float) -> np.ndarray:
    """Riesz representative of h -> <w, compress(inv(proxy_s) (x) h)>.

    Returned in raw flat coordinates, so the directional derivative of the
    value along a raw tensor perturbation h of the terminal proxy is the dot
    product with flat(h).  It is the pullback of the raw read C^T w
    through the right factor of inv(proxy_s) (x) proxy_T.
    """
    c, k = traj.channels, traj.degree
    inv_s = ta.inverse_flat(c, k, traj.flats[traj.index_of(s)])
    v1 = traj.nmap.matrix.T @ np.asarray(w, dtype=float)
    return ta.product_pullback_flat(c, k, inv_s, traj.flats[-1], v1)[1]


def grad_theta(
    gen: GeneratorParams, traj: ProxyTrajectory, w: np.ndarray, points
) -> tuple[np.ndarray, np.ndarray]:
    """Value gradients in the generator weights by one reverse-mode pass.

    The value at s reads the residual inv(phi_s) (x) phi_T.  With
    d(g^-1) = -g^-1 (x) dg (x) g^-1 its derivative is
    inv(phi_s) (x) (d phi_T - d phi_s (x) residual_s), so the adjoint of the
    flow (``proxy_flow._flow_adjoint``, which training also uses) is seeded
    with ``grad_proxy`` at phi_T, minus its pullback through
    h -> h (x) residual_s at phi_s.  At s = T the two seeds cancel exactly.

    ``traj`` is the flow of ``gen`` as ``integrate_flow`` recorded it, and
    ``points`` a sequence of its gridpoints, which share one adjoint pass
    with a row per point.  Returns the gradients, one row of length
    ``gen.n_params`` per point, and the values at the points.
    """
    c, k = gen.channels, gen.degree
    v1 = traj.nmap.matrix.T @ np.asarray(w, dtype=float)
    seeds = np.zeros((len(points),) + traj.flats.shape)
    values = np.empty(len(points))
    for r, point in enumerate(points):
        i = traj.index_of(point)
        res = traj.residual_flats()[i]
        values[r] = float(v1 @ res)
        g_T = grad_proxy(traj, w, point)
        seeds[r, -1] += g_T
        seeds[r, i] -= ta.product_pullback_flat(c, k, traj.flats[i], res, g_T)[0]
    return _flow_adjoint(gen, traj, seeds), values


# ---------------------------------------------------------------------------
# return distribution and tail risk


def _moment_indices(channels: int, degree: int) -> tuple[int, int]:
    if degree < 2:
        raise DomainError("moments need a degree >= 2 signature")
    ch = channels - 1
    offs = ta.level_offsets(channels, degree)
    return offs[1] + ch, offs[2] + ch * channels + ch


def return_moments(sig: ta.TruncTensor) -> tuple[float, float]:
    """(mean, variance) of the total reward encoded by a mean signature."""
    i1, i2 = _moment_indices(sig.channels, sig.degree)
    mean = float(sig.data[i1])
    second = 2.0 * float(sig.data[i2])
    return mean, second - mean * mean


def _tail_density(alpha_tail: float) -> float:
    """Standard normal density at the alpha_tail quantile."""
    nd = NormalDist()
    return nd.pdf(nd.inv_cdf(alpha_tail))


def cvar(mean: float, variance: float, alpha_tail: float) -> float:
    """Gaussian lower-tail conditional mean: E[X | X <= q_alpha].

    Loss-tail convention: this is the average of the worst alpha fraction of
    returns, so more negative means riskier.
    """
    if not 0.0 < alpha_tail < 1.0:
        raise DomainError(f"alpha_tail must lie in (0, 1), got {alpha_tail}")
    if variance < -1e-10:
        raise DomainError(f"variance {variance} is negative beyond tolerance")
    sigma = np.sqrt(max(variance, 0.0))
    return float(mean - sigma * _tail_density(alpha_tail) / alpha_tail)


def shortfall_gradient_flat(sig: ta.TruncTensor, risk: RiskConfig) -> np.ndarray:
    """Gradient of the expected shortfall in raw signature coordinates.

    Chain rule through the moment reads: the mean lives at the level-1 reward
    coordinate, the second moment at twice the level-2 diagonal.
    """
    i1, i2 = _moment_indices(sig.channels, sig.degree)
    mean, variance = return_moments(sig)
    sigma = max(np.sqrt(max(variance, 0.0)), 1e-12)
    d_mean = -1.0
    d_var = _tail_density(risk.alpha_tail) / risk.alpha_tail / (2.0 * sigma)
    grad = np.zeros(sig.data.size)
    grad[i1] = d_mean + d_var * (-2.0 * mean)
    grad[i2] = d_var * 2.0
    return grad


def risk_rectified_advantage(
    delta_a: float,
    terminal_proxy: ta.TruncTensor,
    action_sensitivity_flat: np.ndarray,
    risk: RiskConfig,
) -> float:
    """Advantage minus beta times the projected change in tail risk."""
    sens = np.asarray(action_sensitivity_flat, dtype=float)
    if sens.shape != terminal_proxy.data.shape:
        raise ShapeMismatchError(
            "action sensitivity must be a raw flat vector matching the proxy"
        )
    if risk.beta_risk == 0.0:
        return float(delta_a)
    grad = shortfall_gradient_flat(terminal_proxy, risk)
    return float(delta_a - risk.beta_risk * (grad @ sens))


def action_sensitivity(
    params: JumpDiffusionParams,
    junction,
    grid: np.ndarray,
    n_paths: int,
    seed: int,
    sig_config,
    step: float = 1e-3,
    nmap: NystromMap | None = None,
) -> np.ndarray:
    """d(mean terminal signature)/d(action) at action 0 by seed-matched central FD.

    Common random numbers: both shifted ensembles reuse the same per-path
    streams, so the difference isolates the action channel.
    """

    def mean_terminal(a):
        def policy(t, states):
            return np.full(states.shape[0], a)

        ens = generate_ensemble(
            params, junction, policy, grid, n_paths, seed, sig_config, nmap=nmap
        )
        return empirical_mean_signature(ens, grid[0], grid[-1]).data

    hi = mean_terminal(step)
    lo = mean_terminal(-step)
    return (hi - lo) / (2.0 * step)

"""Analytical sensitivities of the proxy-linear value, and tail-risk tools.

The value at gridpoint s is linear in the weights, linear in the raw terminal
proxy, and differentiable in the generator weights through the flow.  All
three gradients are exact up to floating point and are cross-validated
against central finite differences in the tests.

Return moments are read directly off the reward channel of a signature:
level 1 holds the mean total reward and twice the (reward, reward) diagonal
of level 2 holds the second moment.  The tail functional is a Gaussian
conditional value-at-risk in the loss-tail convention: ``cvar`` returns the
conditional mean of the worst ``alpha`` fraction of outcomes (low returns),
so smaller is worse.  Risk rectification penalizes actions that increase the
expected shortfall (the negated lower-tail mean).
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
from .proxy_flow import GeneratorParams, ProxyTrajectory, _flow_tangents

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
    """Tail fraction, risk aversion, and the reward channel index."""

    alpha_tail: float = 0.05
    beta_risk: float = 0.0
    reward_channel: int = -1

    def __post_init__(self):
        if not 0.0 < self.alpha_tail < 1.0:
            raise DomainError(f"alpha_tail must lie in (0, 1), got {self.alpha_tail}")
        if self.beta_risk < 0:
            raise DomainError("beta_risk must be >= 0")


def grad_w(traj: ProxyTrajectory, s: float) -> np.ndarray:
    """Gradient of the value in the weight vector: the compressed residual."""
    return traj.residual_features()[traj.index_of(s)].copy()


def grad_proxy(traj: ProxyTrajectory, w_G: np.ndarray, s: float) -> np.ndarray:
    """Riesz representative of h -> <w_G, compress(inv(proxy_s) (x) h)>.

    Returned in raw flat coordinates, so the directional derivative of the
    value along a raw tensor perturbation h of the terminal proxy is the dot
    product with flat(h).
    """
    c, k = traj.channels, traj.degree
    inv_s = ta.inverse_flat(c, k, traj.flats[traj.index_of(s)])
    v1 = traj.nmap.matrix.T @ np.asarray(w_G, dtype=float)
    # row r is inv_s (x) e_r, the image of the r-th basis tensor
    return ta.product_flat(c, k, inv_s, np.eye(ta.flat_size(c, k))) @ v1


def grad_theta(
    gen: GeneratorParams,
    nmap: NystromMap,
    junction,
    grid: np.ndarray,
    w_G: np.ndarray,
    s: float,
) -> tuple[np.ndarray, float]:
    """Value gradient in the generator weights by forward-mode accumulation.

    Reads J = d(proxy)/d(theta), one row per weight, from the tangent
    recursion that training also uses (``proxy_flow._flow_tangents``).  With
    d(g^-1) = -g^-1 (x) dg (x) g^-1, the derivative of the residual
    inv(phi_s) (x) phi_T is inv(phi_s) (x) (J_T - J_s (x) residual_s).
    Returns the gradient (same length as ``gen.theta()``) and the value at s.
    """
    traj, J, _ = _flow_tangents(gen, nmap, junction, grid)
    i = traj.index_of(s)
    res = traj.residual_flats()[i]
    value = float((nmap.matrix.T @ np.asarray(w_G, dtype=float)) @ res)
    grad = (J[-1] - ta.product_flat(gen.channels, gen.degree, J[i], res)) @ grad_proxy(
        traj, w_G, s
    )
    return grad, value


# ---------------------------------------------------------------------------
# return distribution and tail risk


def _moment_indices(channels: int, degree: int, reward_channel: int) -> tuple[int, int]:
    if degree < 2:
        raise DomainError("moments need a degree >= 2 signature")
    ch = reward_channel % channels
    offs = ta.level_offsets(channels, degree)
    return offs[1] + ch, offs[2] + ch * channels + ch


def return_moments(sig: ta.TruncTensor, reward_channel: int = -1) -> tuple[float, float]:
    """(mean, variance) of the total reward encoded by a mean signature."""
    i1, i2 = _moment_indices(sig.channels, sig.degree, reward_channel)
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


def shortfall_gradient_flat(
    sig: ta.TruncTensor, risk: RiskConfig, sigma_floor: float = 1e-12
) -> np.ndarray:
    """Gradient of the expected shortfall in raw signature coordinates.

    Chain rule through the moment reads: the mean lives at the level-1 reward
    coordinate, the second moment at twice the level-2 diagonal.
    """
    i1, i2 = _moment_indices(sig.channels, sig.degree, risk.reward_channel)
    mean, variance = return_moments(sig, risk.reward_channel)
    sigma = max(np.sqrt(max(variance, 0.0)), sigma_floor)
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
    a0: float = 0.0,
    step: float = 1e-3,
    nmap: NystromMap | None = None,
) -> np.ndarray:
    """d(mean terminal signature)/d(action) by seed-matched central FD.

    Common random numbers: both shifted ensembles reuse the same per-path
    streams, so the difference isolates the action channel.
    """

    def mean_terminal(a):
        def policy(t, states, proxies):
            return np.full(np.atleast_2d(states).shape[0], a)

        ens = generate_ensemble(
            params, junction, policy, grid, n_paths, seed, sig_config, nmap=nmap
        )
        return empirical_mean_signature(ens, grid[0], grid[-1]).data

    hi = mean_terminal(a0 + step)
    lo = mean_terminal(a0 - step)
    return (hi - lo) / (2.0 * step)

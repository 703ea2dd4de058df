"""Signature-linear value learning along the deterministic proxy flow.

All value math runs in the compressed landmark coordinates: the value at
gridpoint s is a fixed weight vector dotted with the compressed re-centered
residual of the flow (inverse(proxy_s) (x) proxy_T), so one time-invariant
weight vector covers the whole horizon.  The TD(0) sweep over the horizon is
a deterministic linear recursion w <- w + alpha (b - A w); its fixed point is
also assembled explicitly so the sweep can be checked against a direct solve.
Along one trajectory the TD errors are one affine map of the weights,
delta(w) = c0 - M w (``_td_map``), and the errors, the realizable rewards,
the system and the sweep all read it; ``td_error_vector`` gives the errors
of the flow and of classical rollouts alike.  The
sweep runs in the step space: its n TD errors follow delta <- P delta with
an n x n matrix P, advanced a block of iterations per matmul, and the m
weights are read back from the running sum of the errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, InsufficientDataError, ShapeMismatchError
from .jumpdiff import PathEnsemble
from .kernelspace import NystromMap
from .proxy_flow import ProxyTrajectory
from .signature import batch_prefix_signatures

# iterations per block of the TD sweep, capped so the stack of P powers stays
# within a few MiB on long horizons
_BLOCK = 256
_POWER_STACK_BYTES = 4 << 20
# predicted_iters: iterations until the sweep's slowest mode has decayed by 1e-6
_TARGET_DECAY = math.log(1e-6)

__all__ = [
    "TdSystem",
    "SolveResult",
    "SweepResult",
    "value_at",
    "td_error_vector",
    "realizable_rewards",
    "td0_sweep",
    "assemble_system",
    "stability_bound",
    "solve_fixed_point",
    "classical_td0_baseline",
    "variance_compare",
]


@dataclass(frozen=True)
class TdSystem:
    """One-trajectory linear system: fixed point solves A w = b."""

    A: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    w: np.ndarray
    ridged: bool
    residual: float
    condition: float


@dataclass
class SweepResult:
    w: np.ndarray
    objective_trace: np.ndarray
    weight_norms: np.ndarray
    max_abs_delta: np.ndarray
    spectral_radius: float
    predicted_iters: int | None


def value_at(traj: ProxyTrajectory, w: np.ndarray, s: float) -> float:
    """Value as a linear read of the compressed re-centered residual at s."""
    return float(np.asarray(w, dtype=float) @ traj._residual_row(s))


def _rewards_vector(traj, rewards):
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape[-1:] != (traj.n_grid - 1,):
        raise ShapeMismatchError(
            f"rewards must have length {traj.n_grid - 1}, got {rewards.shape}"
        )
    return rewards


def _td_map(traj: ProxyTrajectory, gamma: float, z: float, r) -> tuple:
    """The affine TD map delta(w) = c0 - M w along the grid, as (C, M, c0).

    C holds the current-step residual features, M = C - gamma N with N the
    next-step rows (zero at the terminal step, whose next value is the
    payoff z), and c0 = r + gamma z e_last.  A leading axis of the
    trajectory carries through, and ``r`` broadcasts against it.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    psi = traj.residual_features()
    cur = psi[..., :-1, :]
    nxt = np.zeros_like(cur)
    nxt[..., :-1, :] = psi[..., 1:-1, :]
    M = cur - gamma * nxt
    c0 = np.array(np.broadcast_to(r, M.shape[:-1]), dtype=float)
    c0[..., -1] += gamma * z
    return cur, M, c0


def td_error_vector(
    traj: ProxyTrajectory, w: np.ndarray, gamma: float, z: float, rewards: np.ndarray
) -> np.ndarray:
    """All TD errors r_s + gamma V(s+1) - V(s) along the grid, per leading row."""
    _, M, c0 = _td_map(traj, gamma, z, _rewards_vector(traj, rewards))
    return c0 - M @ np.asarray(w, dtype=float)


def realizable_rewards(
    traj: ProxyTrajectory, w_true: np.ndarray, gamma: float, z: float
) -> np.ndarray:
    """Rewards that make w_true the exact zero-error fixed point."""
    _, M, c0 = _td_map(traj, gamma, z, 0.0)
    return M @ np.asarray(w_true, dtype=float) - c0


def td0_sweep(
    traj: ProxyTrajectory,
    w0: np.ndarray,
    gamma: float,
    z: float,
    alpha: float,
    n_iters: int,
    rewards: np.ndarray,
) -> SweepResult:
    """Semi-gradient TD(0) over the whole horizon, iterated n_iters times.

    Per iteration: w <- w + alpha * C^T delta, with the TD target held fixed
    (never differentiated).  The recursion runs on the n step errors
    delta(w) = c0 - M w of ``_td_map`` rather than the m weights, so each
    iteration is delta <- P delta with P = I - alpha M C^T, and
    w_t = w_0 + alpha C^T S_t with S_t the sum of the errors so far.  The
    powers P^0..P^(B-1) are built once, so one matmul advances B iterations.
    With C^T = Q R the weights are w_0 + alpha Q (R S_t), so their norm
    needs only the min(n, m) coordinates R S_t.

    Records, per iteration, the objective half the sum of squared errors,
    the norm of the updated weights and the largest |delta|; raises
    DivergenceError at the first iteration whose weight norm passes 1e12.
    Also reports the spectral radius of the iteration, the iterations it
    predicts for the slowest mode to decay by 1e-6, and whether n_iters
    reaches that.  The radius is taken in the smaller of the two spaces:
    when m < n, P also has n - m unit eigenvalues on errors that no weight
    can reach, and those do not slow the weights.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if n_iters < 1:
        raise DomainError(f"n_iters must be >= 1, got {n_iters}")
    w0 = np.asarray(w0, dtype=float)
    if not np.all(np.isfinite(w0)):
        raise DomainError("initial weights must be finite")
    cur, M, c0 = _td_map(traj, gamma, z, _rewards_vector(traj, rewards))
    n, m = cur.shape
    MC = M @ cur.T
    P = np.eye(n) - alpha * MC
    # the weights move only along Q: their norm is the fixed part of w_0 off
    # Q plus the moving part Q^T w_0 + alpha T_t on it, with T_t = R S_t
    Q, R = np.linalg.qr(cur.T)
    qw0 = Q.T @ w0
    off_sq = float(np.sum((w0 - Q @ qw0) ** 2))

    small = MC if n <= m else cur.T @ M
    rho = float(np.max(np.abs(1.0 - alpha * np.linalg.eigvals(small))))
    predicted = (
        math.ceil(_TARGET_DECAY / math.log(max(rho, 1e-300))) if rho < 1.0 else None
    )

    # P^0..P^(B-1), cut short before a power leaves the safe float range so
    # a diverging sweep still reaches its norm check with finite numbers
    block = min(_BLOCK, n_iters, max(1, _POWER_STACK_BYTES // (8 * n * n)))
    powers = np.empty((block, n, n))
    powers[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, block):
            powers[k] = P @ powers[k - 1]
            if not np.max(np.abs(powers[k])) < 1e100:
                block = k
                break
    powers = powers[:block].reshape(block * n, n)

    obj = np.empty(n_iters)
    norms = np.empty(n_iters)
    max_delta = np.empty(n_iters)
    delta = c0 - M @ w0
    T = np.zeros(R.shape[0])
    for start in range(0, n_iters, block):
        k = min(block, n_iters - start)
        with np.errstate(over="ignore", invalid="ignore"):
            D = (powers[: k * n] @ delta).reshape(k, n)
            sums = T + np.cumsum(D @ R.T, axis=0)
            norms[start : start + k] = np.sqrt(
                off_sq + np.sum((qw0 + alpha * sums) ** 2, axis=1)
            )
        obj[start : start + k] = 0.5 * np.sum(D * D, axis=1)
        max_delta[start : start + k] = np.max(np.abs(D), axis=1)
        over = np.flatnonzero(norms[start : start + k] > 1e12)
        if over.size:
            it = start + int(over[0])
            raise DivergenceError(
                "TD sweep diverged; lower the learning rate",
                context={"iteration": it, "weight_norm": norms[it]},
            )
        T = sums[-1]
        delta = P @ D[-1]
    return SweepResult(
        w=w0 + alpha * (Q @ T),
        objective_trace=obj,
        weight_norms=norms,
        max_abs_delta=max_delta,
        spectral_radius=rho,
        predicted_iters=predicted,
    )


def assemble_system(
    traj: ProxyTrajectory, gamma: float, z: float, rewards: np.ndarray
) -> TdSystem:
    """Build A = C^T M and b = C^T c0, so the TD sweep is w <- w + alpha (b - A w)."""
    cur, M, c0 = _td_map(traj, gamma, z, _rewards_vector(traj, rewards))
    return TdSystem(A=cur.T @ M, b=c0 @ cur)


def stability_bound(system: TdSystem) -> float:
    """Learning-rate bound 2 / lambda_max of the symmetric part of A."""
    sym = 0.5 * (system.A + system.A.T)
    lam_max = float(np.linalg.eigvalsh(sym)[-1])
    if lam_max <= 0:
        raise DomainError("system matrix has no positive symmetric part")
    return 2.0 / lam_max


def solve_fixed_point(system: TdSystem) -> SolveResult:
    """Direct solve of A w = b, with a flagged 1e-8 ridge when singular."""
    cond = float(np.linalg.cond(system.A))
    ridged = not np.isfinite(cond) or cond > 1e12
    A = system.A + (1e-8 * np.eye(system.A.shape[0]) if ridged else 0.0)
    try:
        w = np.linalg.solve(A, system.b)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"system is rank-deficient beyond the ridge: {exc}") from exc
    residual = float(
        np.linalg.norm(system.A @ w - system.b) / max(np.linalg.norm(system.b), 1e-300)
    )
    return SolveResult(w=w, ridged=ridged, residual=residual, condition=cond)


def classical_td0_baseline(
    ens: PathEnsemble,
    nmap: NystromMap,
    gamma: float,
    z: float,
    w: np.ndarray,
) -> np.ndarray:
    """Classical TD(0) errors on sampled rollouts at fixed weights, (episodes, steps).

    Each ensemble path is one episode; the state feature at step s is the
    compressed signature of the realized remaining segment, the stochastic
    counterpart of the deterministic flow residual.  The realized prefix
    signatures form one trajectory with a leading path axis, which
    ``td_error_vector`` reads at the fixed weights ``w``.  A one-path
    ensemble that recorded its prefix means gives them as its path's
    prefixes.
    """
    if ens.n_paths < 1:
        raise InsufficientDataError("need at least one episode")
    if ens.n_paths == 1 and ens.prefix_means is not None:
        # the mean of one path's scan is that path's prefixes, bit for bit
        full = ens.prefix_means[None]
    else:
        _, full = batch_prefix_signatures(
            ens.sig_config, ens.times, ens.values, ens.jump_flags, keep_paths=True
        )
        full = np.swapaxes(full, 0, 1)
    c = ens.sig_config.channels(ens.values.shape[2])
    paths = ProxyTrajectory(c, ens.sig_config.degree, ens.times, full, nmap)
    return td_error_vector(paths, w, gamma, z, ens.rewards)


def variance_compare(delta_anticipatory: np.ndarray, delta_classical: np.ndarray) -> dict:
    """Sample variances of the two TD-error families and their ratio.

    Inputs are (n_seeds, n_steps) arrays of errors at matched weights.  The
    variance is taken across seeds per step and averaged over steps.  Raises
    DivergenceError, naming the family and its first non-finite step, when
    a variance is not finite.
    """
    da = np.atleast_2d(np.asarray(delta_anticipatory, dtype=float))
    dc = np.atleast_2d(np.asarray(delta_classical, dtype=float))
    if da.shape[0] < 30 or dc.shape[0] < 30:
        raise InsufficientDataError(
            f"need >= 30 seed samples, got {da.shape[0]} and {dc.shape[0]}"
        )
    per_step = {
        "anticipatory": np.var(da, axis=0, ddof=1),
        "classical": np.var(dc, axis=0, ddof=1),
    }
    for family, var in per_step.items():
        if not np.isfinite(np.mean(var)):
            bad = np.flatnonzero(~np.isfinite(var))
            raise DivergenceError(
                f"{family} TD-error variance is not finite",
                context={"family": family, "step": int(bad[0]) if bad.size else None},
            )
    var_a = float(np.mean(per_step["anticipatory"]))
    var_c = float(np.mean(per_step["classical"]))
    ratio = var_a / var_c if var_c > 0 else (0.0 if var_a == 0 else np.inf)
    return {
        "var_anticipatory": var_a,
        "var_classical": var_c,
        "ratio": ratio,
        "n_seeds": int(da.shape[0]),
        "n_steps": int(da.shape[1]),
        "per_step_var_anticipatory": per_step["anticipatory"].tolist(),
        "per_step_var_classical": per_step["classical"].tolist(),
    }


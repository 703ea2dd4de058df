"""End-to-end experiment pipelines shared by the CLI and the test harness.

A scenario bundles everything derived from a config and a master seed: the
environment, one simulated observed history with its filtered junction
signature, a landmark compression map sampled from a training ensemble, and
a per-gridpoint whitening metric family.  All inner seeds are derived from
the master seed with a hash so that subcommands are independently
reproducible and never share streams by accident.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import tensor_algebra as ta
from . import td_learning as td
from .greeks import (
    RiskConfig,
    action_sensitivity,
    cvar,
    grad_proxy,
    grad_theta,
    grad_w,
    return_moments,
    risk_rectified_advantage,
)
from .jumpdiff import (
    JumpDiffusionParams,
    PathEnsemble,
    generate_ensemble,
    prefix_mean_signatures,
    simulate_history,
)
from .kernelspace import (
    NystromMap,
    WhitenedMetric,
    build_nystrom,
    compress_flat,
    fit_metric_family,
)
from .proxy_flow import (
    GeneratorParams,
    ProxyTrajectory,
    TrainConfig,
    TrainResult,
    empirical_trajectory,
    integrate_flow,
    new_generator,
    train_generator,
)
from .signature import CadlagPath, SignatureConfig, batch_terminal_signatures, path_signature

__all__ = [
    "derive_seed",
    "Scenario",
    "build_scenario",
    "sample_landmark_signatures",
    "memory_gain_matrix",
    "train_scf",
    "realizable_td_experiment",
    "variance_experiment",
    "greeks_fd_report",
    "risk_report",
]


def derive_seed(base: int, tag: str) -> int:
    """Stable sub-seed for one named role under a master seed."""
    digest = hashlib.sha256(f"{base}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def memory_gain_matrix(dim: int, n_features: int, scale: float) -> np.ndarray | None:
    """Deterministic drift-memory coupling pattern, alternating and decaying."""
    if scale == 0.0:
        return None
    i = np.arange(dim)[:, None]
    j = np.arange(n_features)[None, :]
    return scale * ((-1.0) ** (i + j)) / (1.0 + j)


@dataclass
class Scenario:
    sig_config: SignatureConfig
    history_config: SignatureConfig
    env: JumpDiffusionParams
    history_path: CadlagPath
    junction_time: float
    junction_state: np.ndarray
    junction_proxy: ta.TruncTensor
    grid: np.ndarray
    nmap: NystromMap
    metrics: list[WhitenedMetric]
    train_ensemble: PathEnsemble
    # the training ensemble's mean signature from the junction to each gridpoint
    train_law: ProxyTrajectory
    seed: int

    @property
    def channels(self) -> int:
        return self.junction_proxy.channels

    @property
    def degree(self) -> int:
        return self.junction_proxy.degree

    def junction(self):
        return (self.junction_time, self.junction_state, self.junction_proxy)

    def terminal_metric(self) -> WhitenedMetric:
        return self.metrics[-1]


def sample_landmark_signatures(
    ens: PathEnsemble, n_landmarks: int, seed: int
) -> np.ndarray:
    """Signatures of random path segments of the ensemble (seed-controlled).

    Segments whose time increments are bitwise equal go through one batched
    terminal scan; a scan treats its rows independently, so each signature
    is the one a scan of its segment alone gives.
    """
    rng = np.random.default_rng(seed)
    n_grid = ens.n_grid
    draws = []
    for _ in range(n_landmarks):
        i = int(rng.integers(ens.n_paths))
        a = int(rng.integers(0, n_grid - 1))
        b = int(rng.integers(a + 1, n_grid))
        draws.append((i, a, b))
    groups: dict[bytes, list[int]] = {}
    for d, (_, a, b) in enumerate(draws):
        groups.setdefault(np.diff(ens.times[a : b + 1]).tobytes(), []).append(d)
    sigs = [None] * n_landmarks
    for members in groups.values():
        segs = [draws[d] for d in members]
        values = np.stack([ens.values[i, a : b + 1] for i, a, b in segs])
        flags = np.stack([ens.jump_flags[i, a : b + 1] for i, a, b in segs])
        _, a, b = segs[0]
        rows = batch_terminal_signatures(ens.sig_config, ens.times[a : b + 1], values, flags)
        for d, row in zip(members, rows):
            sigs[d] = row
    return np.array(sigs)


def _history_junction(cfg: dict, env: JumpDiffusionParams, seed: int,
                      config: SignatureConfig, nmap: NystromMap | None = None):
    """One observed history from ``history.x0`` and its junction (t0, state, proxy).

    The proxy is the history's signature, over the look-back window
    [t0 - ``history.window``, t0] only when the window is positive.
    """
    hist_cfg = cfg["history"]
    x0 = np.asarray(hist_cfg.get("x0", np.zeros(env.dim)), dtype=float)
    path, proxy = simulate_history(
        env, 0.0, x0, hist_cfg["steps"], hist_cfg["dt"], seed, config, nmap=nmap
    )
    t0 = float(path.times[-1])
    window = hist_cfg["window"]
    if window > 0.0:
        lo = path.times[np.searchsorted(path.times, t0 - window)]
        proxy = path_signature(config, path, lo, t0)
    return path, (t0, path.values[-1, : env.dim].copy(), proxy)


def build_scenario(cfg: dict, seed: int) -> Scenario:
    """Assemble environment, history, compression, and metrics for one seed."""
    env_cfg = cfg["env"]
    dim = env_cfg["dim"]
    hist_cfg = cfg["history"]
    hor_cfg = cfg["horizon"]
    episode_span = hist_cfg["steps"] * hist_cfg["dt"] + hor_cfg["steps"] * hor_cfg["dt"]
    degree = cfg["algebra"]["degree"]
    if cfg["algebra"]["level_weights"] == "unit":
        level_weights = ta.unit_level_weights(degree)
    else:
        level_weights = ta.factorial_level_weights(degree)

    sig_config = SignatureConfig(
        degree=degree, time_scale=episode_span, mode=cfg["signature"]["mode"]
    )
    history_config = SignatureConfig(
        degree=degree, time_scale=episode_span, mode=cfg["signature"]["history_mode"]
    )

    gain = memory_gain_matrix(dim, env_cfg["memory_features"], env_cfg["memory_gain_scale"])

    vol = np.diag(np.asarray(env_cfg["vol_diag"], dtype=float))
    sub = env_cfg.get("vol_sub")
    if sub is not None:
        sub = np.asarray(sub, dtype=float)
        for i, v in enumerate(sub):
            vol[i + 1, i] = v
    env_nomem = JumpDiffusionParams(
        drift_base=np.asarray(env_cfg["drift_base"], dtype=float),
        vol=vol,
        jump_intensity=env_cfg["jump_intensity"],
        jump_mean=np.asarray(env_cfg["jump_mean"], dtype=float),
        jump_scale=np.asarray(env_cfg["jump_scale"], dtype=float),
        action_exposure=np.asarray(env_cfg["action_exposure"], dtype=float),
        reward_coeffs=np.asarray(env_cfg["reward_coeffs"], dtype=float),
        reward_action_exposure=np.asarray(
            env_cfg.get("reward_action_exposure", np.zeros(dim)), dtype=float
        ),
    )

    # history is simulated without memory coupling (the coupling needs the
    # compression map, which is sampled from post-junction dynamics)
    history_path, (t0, junction_state, junction_proxy) = _history_junction(
        cfg, env_nomem, derive_seed(seed, "history"), history_config
    )
    grid = t0 + hor_cfg["dt"] * np.arange(hor_cfg["steps"] + 1)

    nys_cfg = cfg["nystrom"]
    boot_env = env_nomem
    boot = generate_ensemble(
        boot_env,
        (t0, junction_state, junction_proxy),
        None,
        grid,
        cfg["train"]["ensemble_size"],
        derive_seed(seed, "bootstrap"),
        sig_config,
    )
    landmarks = sample_landmark_signatures(
        boot, nys_cfg["landmarks"], derive_seed(seed, "landmarks")
    )
    ridge = nys_cfg["ridge"]
    nmap = build_nystrom(
        landmarks,
        sig_config.channels(boot.values.shape[2]),
        degree,
        ridge=None if ridge == "auto" else ridge,
        level_weights=level_weights,
    )

    env = env_nomem if gain is None else replace(env_nomem, drift_memory_gain=gain)

    train_ens = generate_ensemble(
        env,
        (t0, junction_state, junction_proxy),
        None,
        grid,
        cfg["train"]["ensemble_size"],
        derive_seed(seed, "train"),
        sig_config,
        nmap=nmap,
    )
    means, full = prefix_mean_signatures(train_ens, keep_paths=True)
    train_law = ProxyTrajectory(nmap.channels, degree, grid, means, nmap=nmap)
    feats_per_point = compress_flat(nmap, full)
    metrics = fit_metric_family(feats_per_point, nys_cfg["metric_lambda"])
    return Scenario(
        sig_config=sig_config,
        history_config=history_config,
        env=env,
        history_path=history_path,
        junction_time=t0,
        junction_state=junction_state,
        junction_proxy=junction_proxy,
        grid=grid,
        nmap=nmap,
        metrics=metrics,
        train_ensemble=train_ens,
        train_law=train_law,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# pipelines


def _generator_from_cfg(cfg: dict, scenario: Scenario) -> GeneratorParams:
    flow_cfg = cfg["flow"]
    return new_generator(
        scenario.channels,
        scenario.degree,
        lie_degree=flow_cfg["lie_degree"],
        n_proxy_features=flow_cfg["proxy_features"],
        phase_powers=flow_cfg["phase_powers"],
        clock_rate=1.0 / scenario.sig_config.time_scale if flow_cfg["pin_clock"] else None,
        seed=derive_seed(scenario.seed, "generator-init"),
        init_scale=flow_cfg["init_scale"],
    )


def train_scf(cfg: dict, scenario: Scenario) -> TrainResult:
    """Train the flow generator on the scenario's ensemble and its law, ``train_law``."""
    train_cfg = cfg["train"]
    gen0 = _generator_from_cfg(cfg, scenario)
    tc = TrainConfig(
        steps=train_cfg["steps"],
        lr=train_cfg["lr"],
        eta_scf=train_cfg["eta_scf"],
        contraction_reg=train_cfg["contraction_reg"],
    )
    return train_generator(gen0, scenario.train_ensemble, scenario.train_law, scenario.metrics, tc)


def realizable_td_experiment(cfg: dict, scenario: Scenario) -> dict:
    """Planted-weight TD run: sweep, direct solve, and their agreement.

    The trajectory is the ensemble-mean (self-consistent empirical) proxy;
    rewards are constructed from a seeded weight vector so the exact fixed
    point is known.  With ``td.planted_rank > 0`` the weight is planted in
    the leading principal directions of the residual features: the trailing
    directions of a smooth trajectory carry singular values many decades
    down and are numerically unidentifiable, so an unrestricted plant would
    measure floating-point dust rather than learning.  The sweep counts as
    converged when it ends within 1e-6 relative of the solve.
    """
    td_cfg = cfg["td"]
    gamma = td_cfg["gamma"]
    z = td_cfg["terminal_payoff"]
    traj = scenario.train_law
    rng = np.random.default_rng(derive_seed(scenario.seed, "planted-weights"))
    rank = td_cfg["planted_rank"]
    if rank > 0:
        psi = traj.residual_features()
        _, _, vt = np.linalg.svd(psi[:-1], full_matrices=False)
        rank = min(rank, vt.shape[0])
        w_true = vt[:rank].T @ rng.normal(size=rank)
    else:
        w_true = rng.normal(size=scenario.nmap.n_landmarks)
    rewards = td.realizable_rewards(traj, w_true, gamma, z)
    system = td.assemble_system(traj, gamma, z, rewards)
    sol = td.solve_fixed_point(system)
    alpha = td_cfg["alpha"]
    if alpha == "auto":
        alpha = 0.9 * td.stability_bound(system)
    sweep = td.td0_sweep(traj, np.zeros_like(w_true), gamma, z, alpha, td_cfg["iters"], rewards)
    deltas_at_solution = td.td_error_vector(traj, sol.w, gamma, z, rewards)
    rel_gap = float(np.linalg.norm(sweep.w - sol.w) / max(np.linalg.norm(sol.w), 1e-300))
    return {
        "gamma": gamma,
        "alpha": alpha,
        "w_true": w_true,
        "sweep": sweep,
        "solution": sol,
        "sweep_vs_solve_rel": rel_gap,
        "sweep_converged": rel_gap <= 1e-6,
        "max_delta_at_solution": float(np.max(np.abs(deltas_at_solution))),
        "final_objective": float(sweep.objective_trace[-1]),
    }


def variance_experiment(cfg: dict, scenario: Scenario) -> dict:
    """Anticipatory vs classical TD-error variance across junction seeds.

    Per seed: a fresh history fixes the junction; the anticipatory errors are
    computed on the empirical mean trajectory of an N-path ensemble, the
    classical errors on a single independent rollout, both at the same
    matched weights (the fixed point of the master scenario).
    """
    var_cfg = cfg["variance"]
    n_seeds = var_cfg["seeds"]
    n_paths = var_cfg["ensemble_size"]
    gamma = cfg["td"]["gamma"]
    z = cfg["td"]["terminal_payoff"]

    ref = scenario.train_law
    ref_rewards = scenario.train_ensemble.rewards.mean(axis=0)
    system = td.assemble_system(ref, gamma, z, ref_rewards)
    w_star = td.solve_fixed_point(system).w

    n_steps = scenario.grid.size - 1
    delta_a = np.empty((n_seeds, n_steps))
    delta_c = np.empty((n_seeds, n_steps))
    for i in range(n_seeds):
        _, junction = _history_junction(
            cfg, scenario.env, derive_seed(scenario.seed, f"var-history-{i}"),
            scenario.history_config, scenario.nmap,
        )
        grid = junction[0] + (scenario.grid - scenario.grid[0])
        # the seed's ensemble and its one classical rollout
        ens, solo = (
            generate_ensemble(scenario.env, junction, None, grid, n,
                              derive_seed(scenario.seed, f"var-{tag}-{i}"),
                              scenario.sig_config, nmap=scenario.nmap)
            for n, tag in ((n_paths, "ensemble"), (1, "classical"))
        )
        traj = empirical_trajectory(ens, scenario.nmap)
        delta_a[i] = td.td_error_vector(traj, w_star, gamma, z, ens.rewards.mean(axis=0))
        delta_c[i] = td.classical_td0_baseline(solo, scenario.nmap, gamma, z, w_star)[0]
    report = td.variance_compare(delta_a, delta_c)
    report["ensemble_size"] = n_paths
    return report


# perturbed flows per batched integration in the FD oracle: a chunk of 66
# flows holds about 2 MiB, below what training holds, so run-all's peak
# memory does not grow; all 264 at once would
FD_CHUNK = 66


def _fd_grad_theta(gen, nmap, junction, grid, w, check_points) -> np.ndarray:
    """Central differences of the value at each check point in every weight.

    Returns shape (n_params, n_points).  The 2 n_params perturbed flows run
    ``FD_CHUNK`` at a time through ``integrate_flow``'s weight-row axis, and
    each is read at every check point (the flows do not depend on s).
    Residuals are taken on the sub-trajectory of the check points and T
    only, which keeps the chunk's memory at that of its flows.  A value is
    the raw read C^T w dotted with the residual, so the pinned identity
    residual at s = T gives the same value for every row whatever the
    summation order, and that column is exactly zero.
    """
    theta0 = gen.theta()
    h_t = 1e-6 * max(1.0, np.max(np.abs(theta0)))
    bumps = h_t * np.eye(theta0.size)
    thetas = np.concatenate([theta0 + bumps, theta0 - bumps])
    v1 = nmap.matrix.T @ w
    values = np.empty((thetas.shape[0], len(check_points)))
    for lo in range(0, thetas.shape[0], FD_CHUNK):
        pert = integrate_flow(gen, nmap, junction, grid, theta_rows=thetas[lo : lo + FD_CHUNK])
        keep = sorted({pert.index_of(s) for s in check_points} | {grid.size - 1})
        sub = ProxyTrajectory(pert.channels, pert.degree, grid[keep], pert.flats[:, keep])
        # the chunk's full flows go before its residuals are taken, and the
        # residuals before the next chunk is integrated
        del pert
        idx = [sub.index_of(s) for s in check_points]
        values[lo : lo + FD_CHUNK] = sub.residual_flats()[:, idx] @ v1
        del sub
    return (values[: theta0.size] - values[theta0.size :]) / (2 * h_t)


def greeks_fd_report(
    scenario: Scenario, gen: GeneratorParams, traj: ProxyTrajectory
) -> list[dict]:
    """FD cross-checks of the three gradient families along the horizon.

    ``traj`` is the flow of ``gen`` from the scenario's junction proxy over
    its grid, as ``integrate_flow`` returns it.
    """
    rng = np.random.default_rng(derive_seed(scenario.seed, "greeks"))
    nmap = scenario.nmap
    grid = scenario.grid
    junction = scenario.junction_proxy
    w = rng.normal(size=nmap.n_landmarks)
    check_points = [grid[0], grid[len(grid) // 2], grid[-1]]

    fd_theta = _fd_grad_theta(gen, nmap, junction, grid, w, check_points)
    grads_t, _ = grad_theta(gen, traj, w, check_points)

    rows = []
    for s, fd_t, grad_t in zip(check_points, fd_theta.T, grads_t):
        gw = grad_w(traj, s)
        # value is exactly linear in w: FD along random directions
        direction = rng.normal(size=w.size)
        eps = 1e-6
        fd_w = (
            td.value_at(traj, w + eps * direction, s)
            - td.value_at(traj, w - eps * direction, s)
        ) / (2 * eps)
        err_w = abs(gw @ direction - fd_w) / max(abs(fd_w), 1e-12)

        cov = grad_proxy(traj, w, s)
        i = traj.index_of(s)
        inv_s = ta.inverse_flat(traj.channels, traj.degree, traj.flats[i])
        err_p = 0.0
        for _ in range(10):
            h = rng.normal(size=cov.size)
            up = w @ compress_flat(
                nmap, ta.product_flat(traj.channels, traj.degree, inv_s,
                                      traj.flats[-1] + eps * h)
            )
            dn = w @ compress_flat(
                nmap, ta.product_flat(traj.channels, traj.degree, inv_s,
                                      traj.flats[-1] - eps * h)
            )
            fd = (up - dn) / (2 * eps)
            err_p = max(err_p, abs(cov @ h - fd) / max(abs(fd), 1e-12))

        scale = max(np.max(np.abs(grad_t)), np.max(np.abs(fd_t)), 1e-9)
        err_t = float(np.max(np.abs(grad_t - fd_t)) / scale)
        rows.append(
            {
                "s": float(s),
                "grad_w_norm": float(np.linalg.norm(gw)),
                "grad_w_fd_rel_err": float(err_w),
                "grad_proxy_norm": float(np.linalg.norm(cov)),
                "grad_proxy_fd_rel_err": float(err_p),
                "grad_theta_norm": float(np.linalg.norm(grad_t)),
                "grad_theta_fd_rel_err": err_t,
            }
        )
    return rows


def risk_report(cfg: dict, scenario: Scenario) -> dict:
    """Moment and tail-risk summary of the scenario's ensemble."""
    risk_cfg = cfg["risk"]
    alpha_tail = risk_cfg["alpha_tail"]
    ens = scenario.train_ensemble
    sbar = scenario.train_law.terminal()
    mean, variance = return_moments(sbar)
    totals = ens.rewards.sum(axis=1)
    q = np.quantile(totals, alpha_tail)
    tail = totals[totals <= q]
    empirical_cvar = float(tail.mean()) if tail.size else float(q)
    sens = action_sensitivity(
        scenario.env,
        scenario.junction(),
        scenario.grid,
        ens.n_paths,
        derive_seed(scenario.seed, "action-sens"),
        scenario.sig_config,
        step=risk_cfg["action_step"],
        nmap=scenario.nmap,
    )
    risk = RiskConfig(alpha_tail=alpha_tail, beta_risk=risk_cfg["beta"])
    base_delta = 0.0
    rectified = risk_rectified_advantage(base_delta, sbar, sens, risk)
    return {
        "mean": mean,
        "variance": variance,
        "cvar_gaussian": cvar(mean, variance, alpha_tail),
        "cvar_empirical": empirical_cvar,
        "sample_mean": float(totals.mean()),
        "sample_variance": float(totals.var(ddof=1)),
        "alpha_tail": alpha_tail,
        "rectification_at_zero_advantage": float(rectified),
    }

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
from dataclasses import dataclass

import numpy as np

from . import tensor_algebra as ta
from . import td_learning as td
from .errors import ConfigError
from .greeks import RiskConfig, action_sensitivity, cvar, grad_proxy, grad_theta, grad_w
from .jumpdiff import (
    JumpDiffusionParams,
    PathEnsemble,
    empirical_mean_signature,
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
    TrainConfig,
    TrainResult,
    empirical_trajectory,
    integrate_flow,
    new_generator,
    scf_loss,
    score_matching_loss,
    train_generator,
)
from .signature import CadlagPath, SignatureConfig, batch_terminal_signatures

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
    """Signatures of random path segments of the ensemble (seed-controlled)."""
    rng = np.random.default_rng(seed)
    n_grid = ens.n_grid
    sigs = []
    for _ in range(n_landmarks):
        i = int(rng.integers(ens.n_paths))
        a = int(rng.integers(0, n_grid - 1))
        b = int(rng.integers(a + 1, n_grid))
        values = ens.values[i : i + 1, a : b + 1]
        flags = ens.jump_flags[i : i + 1, a : b + 1].copy()
        flags[:, 0] = False
        sigs.append(
            batch_terminal_signatures(
                ens.sig_config, ens.times[a : b + 1], values, flags
            )[0]
        )
    return np.array(sigs)


def build_scenario(cfg: dict, seed: int) -> Scenario:
    """Assemble environment, history, compression, and metrics for one seed."""
    env_cfg = cfg["env"]
    dim = int(env_cfg["dim"])
    hist_cfg = cfg["history"]
    hor_cfg = cfg["horizon"]
    episode_span = (
        int(hist_cfg["steps"]) * float(hist_cfg["dt"])
        + int(hor_cfg["steps"]) * float(hor_cfg["dt"])
    )
    degree = int(cfg["algebra"]["degree"])
    weights_kind = cfg["algebra"].get("level_weights", "unit")
    if weights_kind == "unit":
        level_weights = ta.unit_level_weights(degree)
    elif weights_kind == "factorial":
        level_weights = ta.factorial_level_weights(degree)
    else:
        raise ConfigError(f"unknown level_weights {weights_kind!r}")

    sig_config = SignatureConfig(
        degree=degree,
        time_scale=episode_span,
        mode=cfg["signature"].get("mode", "linear"),
    )
    history_config = SignatureConfig(
        degree=degree,
        time_scale=episode_span,
        mode=cfg["signature"].get("history_mode", "rectilinear"),
    )

    n_mem = int(env_cfg.get("memory_features", 4))
    gain_scale = float(env_cfg.get("memory_gain_scale", 0.0))
    gain = memory_gain_matrix(dim, n_mem, gain_scale)

    vol = np.diag(np.asarray(env_cfg["vol_diag"], dtype=float))
    sub = env_cfg.get("vol_sub")
    if sub is not None:
        sub = np.asarray(sub, dtype=float)
        for i, v in enumerate(sub):
            vol[i + 1, i] = v
    env_nomem = JumpDiffusionParams(
        drift_base=np.asarray(env_cfg["drift_base"], dtype=float),
        vol=vol,
        jump_intensity=float(env_cfg["jump_intensity"]),
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
    x0 = np.asarray(hist_cfg.get("x0", np.zeros(dim)), dtype=float)
    history_path, junction_proxy = simulate_history(
        env_nomem,
        0.0,
        x0,
        int(hist_cfg["steps"]),
        float(hist_cfg["dt"]),
        derive_seed(seed, "history"),
        history_config,
    )
    t0 = float(history_path.times[-1])
    window = float(hist_cfg.get("window", 0.0))
    if window > 0.0:
        # filtered proxy over the look-back window [t - window, t] only
        from .signature import path_signature

        lo = history_path.times[np.searchsorted(history_path.times, t0 - window)]
        junction_proxy = path_signature(history_config, history_path, lo, t0)
    junction_state = history_path.values[-1, :dim].copy()
    grid = t0 + float(hor_cfg["dt"]) * np.arange(int(hor_cfg["steps"]) + 1)

    nys_cfg = cfg["nystrom"]
    boot_env = env_nomem
    boot = generate_ensemble(
        boot_env,
        (t0, junction_state, junction_proxy),
        None,
        grid,
        int(cfg["train"]["ensemble_size"]),
        derive_seed(seed, "bootstrap"),
        sig_config,
    )
    landmarks = sample_landmark_signatures(
        boot, int(nys_cfg["landmarks"]), derive_seed(seed, "landmarks")
    )
    ridge = nys_cfg.get("ridge", "auto")
    nmap = build_nystrom(
        landmarks,
        ridge=None if ridge in ("auto", None) else float(ridge),
        level_weights=level_weights,
        channels=sig_config.channels(boot.values.shape[2]),
        degree=degree,
    )

    env = env_nomem if gain is None else JumpDiffusionParams(
        drift_base=env_nomem.drift_base,
        vol=env_nomem.vol,
        jump_intensity=env_nomem.jump_intensity,
        jump_mean=env_nomem.jump_mean,
        jump_scale=env_nomem.jump_scale,
        action_exposure=env_nomem.action_exposure,
        drift_memory_gain=np.pad(gain, ((0, 0), (0, nmap.n_landmarks - n_mem))),
        reward_coeffs=env_nomem.reward_coeffs,
        reward_action_exposure=env_nomem.reward_action_exposure,
    )

    train_ens = generate_ensemble(
        env,
        (t0, junction_state, junction_proxy),
        None,
        grid,
        int(cfg["train"]["ensemble_size"]),
        derive_seed(seed, "train"),
        sig_config,
        nmap=nmap if env.has_memory else None,
    )
    _, full = prefix_mean_signatures(train_ens, keep_paths=True)
    feats_per_point = compress_flat(nmap, full)
    metrics = fit_metric_family(
        feats_per_point, float(nys_cfg.get("metric_lambda", 1e-4))
    )
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
        seed=seed,
    )


# ---------------------------------------------------------------------------
# pipelines


def _generator_from_cfg(cfg: dict, scenario: Scenario) -> GeneratorParams:
    flow_cfg = cfg["flow"]
    pin = str(flow_cfg.get("pin_clock", "true")).lower() in ("1", "true", "yes")
    return new_generator(
        scenario.channels,
        scenario.degree,
        lie_degree=int(flow_cfg.get("lie_degree", 2)),
        n_proxy_features=int(flow_cfg.get("proxy_features", 6)),
        phase_powers=int(flow_cfg.get("phase_powers", 3)),
        clock_rate=1.0 / scenario.sig_config.time_scale if pin else None,
        seed=derive_seed(scenario.seed, "generator-init"),
        init_scale=float(flow_cfg.get("init_scale", 0.01)),
    )


def train_scf(cfg: dict, scenario: Scenario) -> tuple[TrainResult, dict]:
    """Train the flow generator on the scenario's ensemble; report losses."""
    train_cfg = cfg["train"]
    gen0 = _generator_from_cfg(cfg, scenario)
    tc = TrainConfig(
        steps=int(train_cfg["steps"]),
        lr=float(train_cfg.get("lr", 0.05)),
        eta_scf=float(train_cfg.get("eta_scf", 0.1)),
        contraction_reg=float(train_cfg.get("contraction_reg", 0.0)),
    )
    ens = scenario.train_ensemble
    sbar = empirical_mean_signature(ens, scenario.grid[0], scenario.grid[-1])

    def diagnostics(gen):
        traj = integrate_flow(gen, scenario.nmap, scenario.junction_proxy, scenario.grid)
        return {
            "score": score_matching_loss(gen, ens, scenario.nmap, scenario.metrics),
            "scf": scf_loss(
                traj, sbar, scenario.nmap, scenario.terminal_metric(), eta=tc.eta_scf
            ),
        }

    before = diagnostics(gen0)
    result = train_generator(gen0, ens, scenario.nmap, scenario.metrics, tc)
    after = diagnostics(result.params)
    return result, {"before": before, "after": after}


def realizable_td_experiment(cfg: dict, scenario: Scenario) -> dict:
    """Planted-weight TD run: sweep, direct solve, and their agreement.

    The trajectory is the ensemble-mean (self-consistent empirical) proxy;
    rewards are constructed from a seeded weight vector so the exact fixed
    point is known.  With ``td.planted_rank > 0`` the weight is planted in
    the leading principal directions of the residual features: the trailing
    directions of a smooth trajectory carry singular values many decades
    down and are numerically unidentifiable, so an unrestricted plant would
    measure floating-point dust rather than learning.
    """
    td_cfg = cfg["td"]
    gamma = float(td_cfg["gamma"])
    z = float(td_cfg.get("terminal_payoff", 0.0))
    traj = empirical_trajectory(scenario.train_ensemble, scenario.nmap)
    rng = np.random.default_rng(derive_seed(scenario.seed, "planted-weights"))
    rank = int(td_cfg.get("planted_rank", 0))
    if rank > 0:
        psi = traj.residual_features()
        _, _, vt = np.linalg.svd(psi[:-1], full_matrices=False)
        rank = min(rank, vt.shape[0])
        w_true = vt[:rank].T @ rng.normal(size=rank)
    else:
        w_true = rng.normal(size=scenario.nmap.n_landmarks)
    rewards = td.realizable_rewards(traj, w_true, gamma, z)
    system = td.assemble_system(traj, None, gamma, z, rewards=rewards)
    sol = td.solve_fixed_point(system)
    alpha_cfg = td_cfg.get("alpha", "auto")
    alpha = (
        0.9 * td.stability_bound(system)
        if alpha_cfg in ("auto", None)
        else float(alpha_cfg)
    )
    weights = td.ValueWeights(
        w_G=np.zeros_like(w_true), w_R=np.zeros_like(w_true), terminal_const=z
    )
    sweep = td.td0_sweep(
        traj, weights, gamma, alpha, int(td_cfg["iters"]), rewards=rewards
    )
    deltas_at_solution = td.td_error_vector(traj, sol.w, gamma, z, rewards=rewards)
    rel_gap = float(
        np.linalg.norm(sweep.weights.w_G - sol.w) / max(np.linalg.norm(sol.w), 1e-300)
    )
    return {
        "gamma": gamma,
        "alpha": float(alpha),
        "trajectory": traj,
        "rewards": rewards,
        "w_true": w_true,
        "sweep": sweep,
        "solution": sol,
        "sweep_vs_solve_rel": rel_gap,
        "max_delta_at_solution": float(np.max(np.abs(deltas_at_solution))),
        "final_objective": float(sweep.objective_trace[-1]),
    }


def variance_experiment(
    cfg: dict,
    scenario: Scenario,
    n_seeds: int | None = None,
    ensemble_size: int | None = None,
) -> dict:
    """Anticipatory vs classical TD-error variance across junction seeds.

    Per seed: a fresh history fixes the junction; the anticipatory errors are
    computed on the empirical mean trajectory of an N-path ensemble, the
    classical errors on a single independent rollout, both at the same
    matched weights (the fixed point of the master scenario).
    """
    var_cfg = cfg.get("variance", {})
    n_seeds = int(var_cfg.get("seeds", 40)) if n_seeds is None else n_seeds
    n_paths = (
        int(var_cfg.get("ensemble_size", 512))
        if ensemble_size is None
        else ensemble_size
    )
    gamma = float(cfg["td"]["gamma"])
    z = float(cfg["td"].get("terminal_payoff", 0.0))

    ref = empirical_trajectory(scenario.train_ensemble, scenario.nmap)
    ref_rewards = scenario.train_ensemble.rewards.mean(axis=0)
    system = td.assemble_system(ref, None, gamma, z, rewards=ref_rewards)
    w_star = td.solve_fixed_point(system).w

    n_steps = scenario.grid.size - 1
    hist_steps = int(cfg["history"]["steps"])
    hist_dt = float(cfg["history"]["dt"])
    delta_a = np.empty((n_seeds, n_steps))
    delta_c = np.empty((n_seeds, n_steps))
    for i in range(n_seeds):
        hseed = derive_seed(scenario.seed, f"var-history-{i}")
        hist_path, hist_proxy = simulate_history(
            scenario.env,
            0.0,
            scenario.history_path.values[0, : scenario.env.dim],
            hist_steps,
            hist_dt,
            hseed,
            scenario.history_config,
            nmap=scenario.nmap if scenario.env.has_memory else None,
        )
        junction = (
            float(hist_path.times[-1]),
            hist_path.values[-1, : scenario.env.dim].copy(),
            hist_proxy,
        )
        grid = junction[0] + (scenario.grid - scenario.grid[0])
        ens = generate_ensemble(
            scenario.env,
            junction,
            None,
            grid,
            n_paths,
            derive_seed(scenario.seed, f"var-ensemble-{i}"),
            scenario.sig_config,
            nmap=scenario.nmap if scenario.env.has_memory else None,
        )
        traj = empirical_trajectory(ens, scenario.nmap)
        delta_a[i] = td.td_error_vector(
            traj, w_star, gamma, z, rewards=ens.rewards.mean(axis=0)
        )
        solo = generate_ensemble(
            scenario.env,
            junction,
            None,
            grid,
            1,
            derive_seed(scenario.seed, f"var-classical-{i}"),
            scenario.sig_config,
            nmap=scenario.nmap if scenario.env.has_memory else None,
        )
        res = td.classical_td0_baseline(
            solo, scenario.nmap, gamma, 1e-3, z, w0=w_star, update=False
        )
        delta_c[i] = res.delta_samples[0]
    report = td.variance_compare(delta_a, delta_c)
    report["ensemble_size"] = n_paths
    return report


def greeks_fd_report(cfg: dict, scenario: Scenario, gen: GeneratorParams) -> list[dict]:
    """FD cross-checks of the three gradient families along the horizon."""
    rng = np.random.default_rng(derive_seed(scenario.seed, "greeks"))
    nmap = scenario.nmap
    grid = scenario.grid
    junction = scenario.junction_proxy
    traj = integrate_flow(gen, nmap, junction, grid)
    w = rng.normal(size=nmap.n_landmarks)
    check_points = [grid[0], grid[len(grid) // 2], grid[-1]]

    # theta oracle: each perturbed flow is integrated once and read at every
    # check point (the flows do not depend on s)
    def values(theta):
        pert = integrate_flow(gen.with_theta(theta), nmap, junction, grid)
        return np.array([td.value_at(pert, w, s) for s in check_points])

    theta0 = gen.theta()
    h_t = 1e-6 * max(1.0, np.max(np.abs(theta0)))
    fd_theta = np.empty((theta0.size, len(check_points)))
    for idx in range(theta0.size):
        bump = np.zeros_like(theta0)
        bump[idx] = h_t
        fd_theta[idx] = (values(theta0 + bump) - values(theta0 - bump)) / (2 * h_t)

    rows = []
    for s, fd_t in zip(check_points, fd_theta.T):
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

        grad_t, _ = grad_theta(gen, nmap, junction, grid, w, s)
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
    risk_cfg = cfg.get("risk", {})
    alpha_tail = float(risk_cfg.get("alpha_tail", 0.05))
    ens = scenario.train_ensemble
    sbar = empirical_mean_signature(ens, scenario.grid[0], scenario.grid[-1])
    from .greeks import return_moments

    mean, variance = return_moments(sbar, reward_channel=-1)
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
        a0=0.0,
        step=float(risk_cfg.get("action_step", 1e-3)),
        nmap=scenario.nmap if scenario.env.has_memory else None,
    )
    risk = RiskConfig(
        alpha_tail=alpha_tail, beta_risk=float(risk_cfg.get("beta", 1.0))
    )
    from .greeks import risk_rectified_advantage

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

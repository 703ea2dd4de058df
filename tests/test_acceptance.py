"""Acceptance suite: one test per exit criterion, each printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
echoed in the terminal summary.  Every tolerance is pinned here, not in
helper code.
"""

import copy
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from siglearn import analysis as an
from siglearn import td_learning as td
from siglearn import tensor_algebra as ta
from siglearn.config import load_config
from siglearn.experiments import (
    build_scenario,
    derive_seed,
    greeks_fd_report,
    sample_landmark_signatures,
    variance_experiment,
)
from siglearn.greeks import cvar, return_moments
from siglearn.jumpdiff import (
    JumpDiffusionParams,
    empirical_mean_signature,
    generate_ensemble,
    prefix_mean_signatures,
)
from siglearn.kernelspace import (
    build_nystrom,
    compress_flat,
    fit_whitening,
    fit_metric_family,
    q_distance,
)
from siglearn.proxy_flow import (
    ProxyTrajectory,
    TrainConfig,
    empirical_trajectory,
    integrate_flow,
    new_generator,
    step_targets,
    train_generator,
)
from siglearn.signature import (
    CadlagPath,
    SignatureConfig,
    incremental_update,
    new_filtered_proxy,
    path_signature,
)
from tensor_helpers import zero

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def check(num: int, name: str, passed: bool, detail: str, elapsed: float, budget: float | None):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num:2d} ({name}): {detail} [{elapsed:.1f}s]"
    record_criterion(line)
    print(line)
    assert passed, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def random_jump_path(rng, n_points=10, dim=2):
    times = np.cumsum(rng.uniform(0.05, 0.2, size=n_points))
    values = np.cumsum(rng.normal(scale=0.4, size=(n_points, dim)), axis=0)
    flags = rng.random(n_points) < 0.3
    flags[0] = False
    return CadlagPath(times, values, flags)


def test_criterion_1_algebra_exactness():
    start = time.time()
    rng = np.random.default_rng(10)
    dims = [(2, 4), (3, 3), (4, 2), (5, 2)]
    worst = 0.0
    cfg_by_dim = {}
    for case in range(1000):
        c_sig, k = dims[case % len(dims)]
        d = c_sig - 1
        cfg = cfg_by_dim.setdefault((c_sig, k), SignatureConfig(degree=k))
        p = random_jump_path(rng, n_points=6, dim=d)
        mid = p.times[rng.integers(1, p.n_points - 1)]
        whole = path_signature(cfg, p, p.times[0], p.times[-1]).data
        glued = ta.product_flat(
            c_sig, k,
            path_signature(cfg, p, p.times[0], mid).data,
            path_signature(cfg, p, mid, p.times[-1]).data,
        )
        worst = max(worst, float(np.max(np.abs(glued - whole))))

        gi = ta.inverse_flat(c_sig, k, whole)
        ident = ta.identity_flat(c_sig, k)
        worst = max(worst, float(np.max(np.abs(
            ta.product_flat(c_sig, k, whole, gi) - ident))))
        worst = max(worst, float(np.max(np.abs(
            ta.product_flat(c_sig, k, gi, whole) - ident))))

        v = zero(c_sig, k).data
        v[1:] = rng.normal(scale=0.4, size=v.size - 1)
        worst = max(worst, float(np.max(np.abs(
            ta.log_flat(c_sig, k, ta.exp_flat(c_sig, k, v)) - v))))
        g = ta.exp_flat(c_sig, k, 0.5 * v)
        worst = max(worst, float(np.max(np.abs(
            ta.exp_flat(c_sig, k, ta.log_flat(c_sig, k, g)) - g))))

    dim_781 = ta.flat_size(5, 4)
    elapsed = time.time() - start
    check(
        1, "algebra exactness",
        worst <= 1e-12 and dim_781 == 781,
        f"max residual {worst:.2e} <= 1e-12 over 1000 cases; dim(c=5,k=4)={dim_781}",
        elapsed, 10.0,
    )


def test_criterion_2_filtering_equivalence():
    start = time.time()
    rng = np.random.default_rng(20)
    cfg = SignatureConfig(degree=4, time_scale=1.5)
    worst = 0.0
    for _ in range(200):
        p = random_jump_path(rng, n_points=12, dim=2)
        proxy = new_filtered_proxy(cfg, p.times[0], p.values[0])
        for i in range(1, p.n_points):
            proxy = incremental_update(proxy, p.times[i], p.values[i], p.jump_flags[i])
        batch = path_signature(cfg, p, p.times[0], p.times[-1])
        worst = max(worst, float(np.max(np.abs(proxy.sig.data - batch.data))))
    elapsed = time.time() - start
    check(
        2, "filtering equivalence",
        worst <= 1e-10,
        f"max stream-vs-batch residual {worst:.2e} <= 1e-10 over 200 jump-marked paths",
        elapsed, 30.0,
    )


def test_criterion_3_nested_residual_identity():
    start = time.time()
    rng = np.random.default_rng(30)
    worst = 0.0
    lms = []
    for _ in range(6):
        v = zero(3, 3).data
        v[1:] = rng.normal(scale=0.4, size=v.size - 1)
        lms.append(ta.exp_flat(3, 3, v))
    nmap = build_nystrom(np.array(lms), 3, 3)
    for trial in range(50):
        gen = new_generator(3, 3, n_proxy_features=4, seed=1000 + trial, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, 13))
        res = traj.residual_flats()
        for j in range(traj.n_grid):
            glued = ta.product_flat(3, 3, traj.flats[j], res[j])
            worst = max(worst, float(np.max(np.abs(glued - traj.flats[-1]))))
    elapsed = time.time() - start
    check(
        3, "nested-residual identity",
        worst <= 1e-12,
        f"max composition residual {worst:.2e} <= 1e-12 over 50 trajectories",
        elapsed, None,
    )


def test_criterion_4_scf_equilibrium_rate():
    start = time.time()
    K = 2
    cfg = SignatureConfig(degree=K, mode="linear", time_scale=1.0)
    env = JumpDiffusionParams(
        drift_base=np.array([0.1]),
        vol=np.array([[0.3]]),
        jump_intensity=1.0,
        jump_mean=np.array([-0.1]),
        jump_scale=np.array([0.15]),
        action_exposure=np.zeros(1),
    )
    grid = np.linspace(0.0, 1.0, 13)
    junction = (0.0, np.zeros(1), None)
    train_ens = generate_ensemble(env, junction, None, grid, 65536, 100, cfg)
    nmap = build_nystrom(
        sample_landmark_signatures(train_ens, 12, 7), channels=3, degree=K
    )
    means, full = prefix_mean_signatures(train_ens, keep_paths=True)
    law = ProxyTrajectory(3, K, grid, means, nmap=nmap)
    metrics = fit_metric_family(compress_flat(nmap, full), 1e-4)

    gen0 = new_generator(3, K, lie_degree=2, n_proxy_features=4, phase_powers=2)
    targets = step_targets(train_ens)
    W = gen0.weights.copy()
    W[:, -1] = targets.mean(axis=0)[1 : 1 + gen0.out_dim]
    gen0 = gen0.with_theta(W.ravel())
    trained = train_generator(
        gen0, train_ens, law, metrics, TrainConfig(steps=250, lr=0.03, eta_scf=0.1)
    ).params

    traj = integrate_flow(trained, nmap, None, grid)
    target = compress_flat(nmap, traj.flats[-1])
    metric = metrics[-1]
    n_values = [64, 256, 1024, 4096]
    dists = []
    for n in n_values:
        vals = []
        for r in range(8):
            ens = generate_ensemble(
                env, junction, None, grid, n,
                derive_seed(100, f"scf-eval-{n}-{r}"), cfg,
            )
            sbar = empirical_mean_signature(ens, 0.0, 1.0)
            vals.append(q_distance(metric, compress_flat(nmap, sbar.data), target))
        dists.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(n_values), np.log(dists), 1)[0])

    # C1 junction condition: trained tangent matches the empirical first
    # increment within the Monte-Carlo spread of the per-step targets
    gaps = [
        q_distance(
            metric,
            compress_flat(nmap, traj.tangents[j] - targets[j]),
            np.zeros(nmap.n_landmarks),
        )
        for j in range(targets.shape[0])
    ]
    junction_ok = gaps[0] <= 3.0 * float(np.mean(gaps)) + 1e-12

    elapsed = time.time() - start
    check(
        4, "SCF equilibrium rate",
        (-0.65 <= slope <= -0.35) and junction_ok,
        f"log-log slope {slope:.3f} in -0.5 +/- 0.15 over n={n_values}; "
        f"junction tangent gap {gaps[0]:.3f}",
        elapsed, 300.0,
    )


def test_criterion_5_td_fixed_point():
    start = time.time()
    K = 3
    cfg = SignatureConfig(degree=K, mode="linear", time_scale=1.0)
    env = JumpDiffusionParams(
        drift_base=np.array([0.1]),
        vol=np.array([[0.5]]),
        jump_intensity=2.0,
        jump_mean=np.array([0.2]),
        jump_scale=np.array([0.3]),
        action_exposure=np.zeros(1),
    )
    grid = np.linspace(0.0, 1.0, 13)
    ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, 8, 1, cfg)
    nmap = build_nystrom(sample_landmark_signatures(ens, 6, 51), channels=3, degree=K)
    traj = empirical_trajectory(ens, nmap)
    rng = np.random.default_rng(99)
    w_true = rng.normal(size=6)
    gamma, z = 0.99, 0.3
    rewards = td.realizable_rewards(traj, w_true, gamma, z)
    system = td.assemble_system(traj, gamma, z, rewards)
    sol = td.solve_fixed_point(system)
    sweep = td.td0_sweep(
        traj, np.zeros(6), gamma, z, 0.9 * td.stability_bound(system), 300_000, rewards
    )
    rel = float(np.linalg.norm(sweep.w - sol.w) / np.linalg.norm(sol.w))
    deltas = td.td_error_vector(traj, sol.w, gamma, z, rewards)
    max_delta = float(np.max(np.abs(deltas)))
    elapsed = time.time() - start
    check(
        5, "TD fixed point",
        rel <= 1e-6 and max_delta <= 1e-10,
        f"sweep-vs-solve rel {rel:.2e} <= 1e-6; max |delta| at w* {max_delta:.2e} <= 1e-10",
        elapsed, 60.0,
    )


def test_criterion_6_variance_reduction():
    start = time.time()
    cfg = copy.deepcopy(load_config(None))
    cfg["variance"].update(seeds=100, ensemble_size=512)
    scenario = build_scenario(cfg, 2)
    report = variance_experiment(cfg, scenario)
    elapsed = time.time() - start
    check(
        6, "variance reduction",
        report["ratio"] < 1.0,
        f"Var(anticipatory)/Var(classical) = {report['ratio']:.4f} < 1 "
        f"over 100 seeds, N=512",
        elapsed, 600.0,
    )


def test_criterion_7_greeks_fd_agreement():
    start = time.time()
    cfg = load_config(None)
    scenario = build_scenario(cfg, 3)
    gen = new_generator(
        scenario.channels,
        scenario.degree,
        lie_degree=2,
        n_proxy_features=4,
        phase_powers=2,
        clock_rate=1.0 / scenario.sig_config.time_scale,
        seed=derive_seed(3, "acc-greeks"),
        init_scale=0.3,
    )
    traj = integrate_flow(gen, scenario.nmap, scenario.junction_proxy, scenario.grid)
    rows = greeks_fd_report(scenario, gen, traj)
    w_err = max(r["grad_w_fd_rel_err"] for r in rows)
    p_err = max(r["grad_proxy_fd_rel_err"] for r in rows)
    t_err = max(r["grad_theta_fd_rel_err"] for r in rows)
    elapsed = time.time() - start
    check(
        7, "analytic sensitivities",
        w_err <= 1e-6 and p_err <= 1e-6 and t_err <= 1e-4,
        f"FD rel errs: w {w_err:.2e} <= 1e-6, proxy {p_err:.2e} <= 1e-6, "
        f"theta {t_err:.2e} <= 1e-4",
        elapsed, 120.0,
    )


def test_criterion_8_contraction_and_fixed_point():
    start = time.time()
    rng = np.random.default_rng(80)
    metric = fit_whitening(rng.normal(size=(300, 8)), lam=1e-3)
    gamma = 0.99
    con = an.contraction_check(metric, gamma, n_trials=1000, seed=81)
    fp = an.fixed_point_iterate(
        0.4, gamma, rng.normal(size=8),
        an.ReturnLaw(3.0, rng.normal(size=8)), metric, tol=1e-12,
    )
    rate_ok = fp.fitted_rate is not None and abs(fp.fitted_rate - gamma) <= 0.02
    elapsed = time.time() - start
    check(
        8, "Bellman contraction",
        con["max_ratio"] <= gamma + 1e-9 and rate_ok,
        f"max ratio {con['max_ratio']:.6f} <= {gamma}; "
        f"fitted rate {fp.fitted_rate:.4f} within 0.02 of gamma",
        elapsed, 120.0,
    )


def test_criterion_9_whitened_norm_stress():
    start = time.time()
    rng = np.random.default_rng(90)
    cfg = SignatureConfig(degree=4, mode="linear")
    env = JumpDiffusionParams(
        drift_base=np.array([0.05]),
        vol=np.array([[0.05]]),
        jump_intensity=2.0,
        jump_mean=np.array([0.5]),
        jump_scale=np.array([0.3]),
        action_exposure=np.zeros(1),
    )
    grid = np.linspace(0.0, 1.0, 9)
    junction = (0.0, np.zeros(1), None)
    base = generate_ensemble(env, junction, None, grid, 256, 13, cfg)
    from siglearn.signature import batch_terminal_signatures

    sigs = batch_terminal_signatures(cfg, base.times, base.values, base.jump_flags)
    nmap = build_nystrom(
        sigs[rng.choice(len(sigs), size=12, replace=False)], channels=3, degree=4
    )
    metric = fit_whitening(compress_flat(nmap, sigs), lam=1e-6)
    rows = an.whitened_norm_stress(
        env, junction, grid, 256, 13, cfg, nmap, metric,
        scales=(1.0, 3.0, 10.0), n_groups=8,
    )
    raw, white = rows[-1]["raw_growth"], rows[-1]["whitened_growth"]
    elapsed = time.time() - start
    check(
        9, "whitened-norm stress",
        white < raw,
        f"x10 jump scaling: whitened growth {white:.2f} < raw growth {raw:.2f}",
        elapsed, 120.0,
    )


def test_criterion_10_moment_and_risk_consistency():
    start = time.time()
    cfg = SignatureConfig(degree=3, mode="linear")
    env = JumpDiffusionParams(
        drift_base=np.array([0.1]),
        vol=np.array([[0.4]]),
        jump_intensity=1.0,
        jump_mean=np.array([-0.1]),
        jump_scale=np.array([0.2]),
        action_exposure=np.zeros(1),
    )
    grid = np.linspace(0.0, 1.0, 17)
    ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, 4096, 9, cfg)
    sbar = empirical_mean_signature(ens, 0.0, 1.0)
    mean, var = return_moments(sbar)
    totals = ens.rewards.sum(axis=1)
    n = totals.size
    mean_se = totals.std(ddof=1) / np.sqrt(n)
    var_se = totals.var(ddof=1) * np.sqrt(2.0 / (n - 1))
    moments_ok = (
        abs(mean - totals.mean()) <= 3 * mean_se
        and abs(var - totals.var(ddof=1)) <= 3 * var_se + 3 * mean_se
    )

    rng = np.random.default_rng(101)
    x = rng.normal(loc=0.2, scale=1.3, size=100_000)
    alpha = 0.05
    q = np.quantile(x, alpha)
    tail_mean = float(x[x <= q].mean())
    gauss = cvar(0.2, 1.3**2, alpha)
    cvar_ok = abs(gauss - tail_mean) <= 0.01 * abs(tail_mean)
    elapsed = time.time() - start
    check(
        10, "moment/risk consistency",
        moments_ok and cvar_ok,
        f"proxy var {var:.4f} vs sample {totals.var(ddof=1):.4f} within 3 SE; "
        f"Gaussian CVaR {gauss:.4f} vs empirical {tail_mean:.4f} within 1%",
        elapsed, None,
    )


def test_criterion_11_reproducibility(tmp_path):
    start = time.time()

    def run(out: Path, threads: int):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        res = subprocess.run(
            [sys.executable, "-m", "siglearn.cli", "run-all",
             "--seed", "1", "--out-dir", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    d1 = run(tmp_path / "a", 1)
    d2 = run(tmp_path / "b", 4)
    identical = d1 == d2
    elapsed = time.time() - start
    check(
        11, "bit-exact reproducibility",
        identical and len(d1) >= 15,
        f"{len(d1)} artifacts byte-identical across reruns at thread counts 1 and 4",
        elapsed, None,
    )

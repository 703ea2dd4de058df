import numpy as np
import pytest

from siglearn import tensor_algebra as ta
from siglearn.errors import DivergenceError, DomainError
from siglearn.jumpdiff import JumpDiffusionParams, generate_ensemble, prefix_mean_signatures
from siglearn.kernelspace import WhitenedMetric, build_nystrom, compress_flat, fit_metric_family
from siglearn.proxy_flow import (
    TrainConfig,
    _ensemble_cache,
    _objective,
    empirical_trajectory,
    flow_step,
    integrate_flow,
    nested_residual,
    new_generator,
    scf_loss,
    score_matching_loss,
    step_targets,
    train_generator,
)
from siglearn.signature import SignatureConfig

C, K = 3, 3  # time + 1 state dim + reward channel


def make_map(rng, n_landmarks=10):
    lms = []
    for _ in range(n_landmarks):
        v = ta.zero(C, K)
        v.data[1:] = rng.normal(scale=0.4, size=v.data.size - 1)
        lms.append(ta.trunc_exp(v))
    return build_nystrom(lms)


def eye_metric(m):
    return WhitenedMetric(precision=np.eye(m), ridge=1.0)


def drift_env(mu=0.3, vol=0.0, lam=0.0, **kw):
    return JumpDiffusionParams(
        drift_base=np.array([mu]),
        vol=np.array([[vol]]),
        jump_intensity=lam,
        jump_mean=kw.get("jump_mean", np.zeros(1)),
        jump_scale=kw.get("jump_scale", np.zeros(1)),
        action_exposure=np.zeros(1),
    )


def linear_cfg():
    return SignatureConfig(degree=K, mode="linear", time_scale=1.0)


def matched_generator(mu):
    # bias column reproduces the constant drift tangent (clock, state, reward)
    gen = new_generator(C, K, lie_degree=2, n_proxy_features=4, phase_powers=2)
    W = gen.weights.copy()
    W[0, -1] = 1.0
    W[1, -1] = mu
    W[2, -1] = mu
    return gen.with_theta(W.ravel())


class TestFlowStep:
    def test_zero_tangent_keeps_state(self):
        rng = np.random.default_rng(0)
        v = ta.zero(C, K)
        v.data[1:] = rng.normal(size=v.data.size - 1) * 0.3
        phi = ta.trunc_exp(v)
        out = flow_step(phi, ta.zero(C, K), 0.25)
        assert np.array_equal(out.data, phi.data)

    def test_constant_tangent_reaches_exp(self):
        rng = np.random.default_rng(1)
        v = ta.zero(C, K)
        v.data[1:] = rng.normal(size=v.data.size - 1) * 0.4
        phi = ta.identity(C, K)
        for _ in range(8):
            phi = flow_step(phi, v, 1.0 / 8)
        assert np.max(np.abs(phi.data - ta.trunc_exp(v).data)) < 1e-14

    def test_preconditions(self):
        with pytest.raises(DomainError):
            flow_step(ta.identity(C, K), ta.zero(C, K), 0.0)
        with pytest.raises(DomainError):
            flow_step(ta.zero(C, K), ta.zero(C, K), 0.1)
        with pytest.raises(DomainError):
            flow_step(ta.identity(C, K), ta.identity(C, K), 0.1)

    def test_step_halving_first_order(self):
        # non-constant tangent: terminal error scales like O(ds)
        rng = np.random.default_rng(2)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=3,
                            seed=5, init_scale=0.6)

        def terminal(n_steps):
            grid = np.linspace(0.0, 1.0, n_steps + 1)
            return integrate_flow(gen, nmap, None, grid).flats[-1]

        ref = terminal(512)
        errs = [np.linalg.norm(terminal(n) - ref) for n in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.4)


class TestIntegrateFlow:
    def test_zero_generator_gives_identity_trajectory(self):
        rng = np.random.default_rng(3)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4)
        traj = integrate_flow(gen, nmap, None, np.linspace(0, 1, 9))
        assert np.array_equal(traj.flats, np.tile(ta.identity_flat(C, K), (9, 1)))

    def test_identity_grounding_and_group_likeness(self):
        rng = np.random.default_rng(4)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=1, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.linspace(0, 1, 17))
        assert np.array_equal(traj.flats[0], ta.identity_flat(C, K))
        assert np.max(np.abs(traj.flats[:, 0] - 1.0)) < 1e-14

    def test_pinned_clock_integrates_horizon(self):
        rng = np.random.default_rng(5)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, clock_rate=2.0,
                            seed=2, init_scale=0.3)
        grid = np.linspace(0.0, 0.5, 9)
        traj = integrate_flow(gen, nmap, None, grid)
        assert traj.terminal().level(1)[0] == pytest.approx(2.0 * 0.5, abs=1e-14)

    def test_chen_consistency_of_residuals(self):
        rng = np.random.default_rng(6)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=3, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 13)
        traj = integrate_flow(gen, nmap, None, grid)
        for s in grid:
            glued = ta.trunc_product(traj.element(s), nested_residual(traj, s))
            assert np.max(np.abs(glued.data - traj.flats[-1])) < 1e-12

    def test_nested_residual_boundaries(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=4, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 9)
        traj = integrate_flow(gen, nmap, None, grid)
        at_t = nested_residual(traj, 0.0)
        assert np.array_equal(at_t.data, traj.flats[-1])
        at_T = nested_residual(traj, 1.0)
        assert np.max(np.abs(at_T.data - ta.identity_flat(C, K))) < 1e-12

    def test_horizon_residual_is_exact_identity(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=4, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, 9))
        assert np.array_equal(traj.residual_flats()[-1], ta.identity_flat(C, K))

    def test_semigroup_composition(self):
        rng = np.random.default_rng(8)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=6, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 17)
        direct = integrate_flow(gen, nmap, None, grid)
        mid = 8
        first = integrate_flow(gen, nmap, None, grid[: mid + 1],
                               phase_span=(grid[0], grid[-1]))
        second = integrate_flow(
            gen, nmap, None, grid[mid:],
            left_context=first.terminal(),
            phase_span=(grid[0], grid[-1]),
        )
        composed = ta.trunc_product(first.terminal(), second.terminal())
        assert np.max(np.abs(composed.data - direct.flats[-1])) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error(self):
        rng = np.random.default_rng(9)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4)
        W = gen.weights.copy()
        W[:, -1] = 1e200
        gen = gen.with_theta(W.ravel())
        with pytest.raises(DivergenceError):
            integrate_flow(gen, nmap, None, np.linspace(0, 1, 5))


class TestLosses:
    def test_matched_generator_zero_score(self):
        rng = np.random.default_rng(10)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        gen = matched_generator(0.3)
        loss = score_matching_loss(gen, ens, nmap, eye_metric(nmap.n_landmarks))
        assert loss < 1e-24

    def test_random_generator_larger_loss(self):
        rng = np.random.default_rng(11)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        metric = eye_metric(nmap.n_landmarks)
        matched = score_matching_loss(matched_generator(0.3), ens, nmap, metric)
        noisy = new_generator(C, K, n_proxy_features=6, seed=7, init_scale=0.5)
        assert score_matching_loss(noisy, ens, nmap, metric) > matched + 1e-3

    def test_scf_loss_zero_at_match_and_eta_scaling(self):
        rng = np.random.default_rng(12)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.2, vol=0.3), (0.0, np.zeros(1), None),
                                None, grid, 16, 1, linear_cfg())
        from siglearn.jumpdiff import empirical_mean_signature

        sbar = empirical_mean_signature(ens, grid[0], grid[-1])
        traj = empirical_trajectory(ens, nmap)
        metric = eye_metric(nmap.n_landmarks)
        assert scf_loss(traj, sbar, nmap, metric, eta=0.1) < 1e-24

        gen = new_generator(C, K, n_proxy_features=4, seed=8, init_scale=0.4)
        traj2 = integrate_flow(gen, nmap, None, grid)
        l1 = scf_loss(traj2, sbar, nmap, metric, eta=0.1)
        l2 = scf_loss(traj2, sbar, nmap, metric, eta=0.2)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)


class TestTraining:
    def test_loss_decreases_on_fixed_ensemble(self):
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.25, vol=0.1), (0.0, np.zeros(1), None),
                                None, grid, 32, 2, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            seed=9, init_scale=0.3)
        cfg = TrainConfig(steps=40, lr=0.02)
        res = train_generator(gen, ens, nmap, eye_metric(nmap.n_landmarks), cfg)
        totals = [row["total"] for row in res.trace]
        assert totals[-1] < 0.2 * totals[0]
        increases = sum(b > a * 1.02 + 1e-12 for a, b in zip(totals, totals[1:]))
        assert increases <= len(totals) // 10

    def test_stationary_at_optimum(self):
        rng = np.random.default_rng(14)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        gen = matched_generator(0.3)
        cfg = TrainConfig(steps=3, lr=0.05)
        res = train_generator(gen, ens, nmap, eye_metric(nmap.n_landmarks), cfg)
        assert all(row["update_max"] < 1e-6 for row in res.trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_raises_divergence(self):
        # a gradient above 1.8 makes lr * grad overflow in the first Adam step
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(5.0, vol=0.1), (0.0, np.zeros(1), None),
                                None, grid, 8, 2, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, seed=9, init_scale=0.3)
        with pytest.raises(DivergenceError):
            train_generator(gen, ens, nmap, eye_metric(nmap.n_landmarks),
                            TrainConfig(steps=3, lr=1e308))

    def test_targets_shape(self):
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3, vol=0.2), (0.0, np.zeros(1), None),
                                None, grid, 8, 3, linear_cfg())
        t = step_targets(ens)
        assert t.shape == (8, ta.flat_size(C, K))
        assert np.allclose(t[:, 0], 0.0, atol=0)


def reference_loss(gen, refs, nmap, metrics, cfg):
    """Training loss restated from its definition: score + scf + reg, averaged.

    ``refs`` holds (grid, step targets, compressed prefix means) per ensemble.
    """

    def qn(j, d):
        m = metrics if isinstance(metrics, WhitenedMetric) else metrics[j]
        return d @ m.precision @ d

    total = 0.0
    for grid, targets, means in refs:
        traj = integrate_flow(gen, nmap, None, grid)
        n = targets.shape[0]
        u = (grid - grid[0]) / (grid[-1] - grid[0])
        loss = sum(qn(j, compress_flat(nmap, traj.tangents[j] - targets[j])) for j in range(n)) / n
        for j in range(1, n + 1):
            weight = cfg.eta_scf * (j == n) + cfg.contraction_reg * u[j] ** 2 / n
            loss += weight * qn(j, compress_flat(nmap, traj.flats[j]) - means[j])
        total += loss / len(refs)
    return total


class TestExactGradient:
    # (metric family, eta_scf, contraction_reg, clock_rate, ensembles)
    CASES = [
        (False, 0.1, 0.0, None, 1),
        (True, 0.1, 0.0, None, 1),
        (True, 0.0, 0.0, 1.0, 1),
        (False, 0.1, 40.0, 1.0, 2),
        (True, 0.0, 40.0, None, 2),
        (True, 0.1, 40.0, 1.0, 1),
    ]

    @pytest.mark.parametrize("family,eta,reg,clock,n_ens", CASES)
    def test_matches_central_difference(self, family, eta, reg, clock, n_ens):
        rng = np.random.default_rng(16)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ensembles = [
            generate_ensemble(drift_env(0.25, vol=0.2, lam=1.0, jump_scale=np.full(1, 0.1)),
                              (0.0, np.zeros(1), None), None, grid, 16, seed, linear_cfg())
            for seed in range(n_ens)
        ]
        if family:
            _, full = prefix_mean_signatures(ensembles[0], keep_paths=True)
            metrics = fit_metric_family(compress_flat(nmap, full), 1e-2)
        else:
            metrics = eye_metric(nmap.n_landmarks)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            clock_rate=clock, seed=10, init_scale=0.3)
        cfg = TrainConfig(eta_scf=eta, contraction_reg=reg)
        caches = [_ensemble_cache(e, nmap) for e in ensembles]
        refs = [
            (e.times, step_targets(e), compress_flat(nmap, prefix_mean_signatures(e)))
            for e in ensembles
        ]

        parts, grad = _objective(gen, nmap, metrics, caches, cfg)
        loss = reference_loss(gen, refs, nmap, metrics, cfg)
        assert sum(parts.values()) == pytest.approx(loss, rel=1e-12)
        assert (parts["reg"] == 0.0) == (reg == 0.0)

        theta, h = gen.theta(), 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            fd[i] = (
                reference_loss(gen.with_theta(theta + bump), refs, nmap, metrics, cfg)
                - reference_loss(gen.with_theta(theta - bump), refs, nmap, metrics, cfg)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestEmpiricalTrajectory:
    def test_matches_prefix_means_and_compress(self):
        rng = np.random.default_rng(15)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.2, vol=0.25), (0.0, np.zeros(1), None),
                                None, grid, 16, 4, linear_cfg())
        traj = empirical_trajectory(ens, nmap)
        feats = traj.residual_features()
        assert feats.shape == (9, nmap.n_landmarks)
        term = compress_flat(nmap, traj.flats[-1])
        assert np.allclose(feats[0], term, atol=1e-12)

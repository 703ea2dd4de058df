import numpy as np
import pytest

from siglearn import analysis as an
from siglearn import tensor_algebra as ta
from siglearn.errors import DomainError, ShapeMismatchError
from siglearn.jumpdiff import JumpDiffusionParams, generate_ensemble
from siglearn.kernelspace import build_nystrom, fit_whitening
from siglearn.proxy_flow import (
    TrainConfig,
    empirical_trajectory,
    integrate_flow,
    new_generator,
    train_generator,
)
from siglearn.signature import SignatureConfig

C, K = 3, 3


def make_metric(rng, m=5):
    return fit_whitening(rng.normal(size=(200, m)), lam=1e-3)


def make_map(rng, n_landmarks=6):
    x = np.zeros((n_landmarks, ta.flat_size(C, K)))
    x[:, 1:] = rng.normal(scale=0.4, size=(n_landmarks, x.shape[1] - 1))
    return build_nystrom(ta.exp_flat(C, K, x), C, K)


def jump_env(lam=1.5, jump_mean=-0.2, vol=0.25, **kw):
    return JumpDiffusionParams(
        drift_base=np.array([kw.get("mu", 0.1)]),
        vol=np.array([[vol]]),
        jump_intensity=lam,
        jump_mean=np.array([jump_mean]),
        jump_scale=np.array([kw.get("jump_scale", 0.15)]),
        action_exposure=np.zeros(1),
    )


class TestContraction:
    def test_equal_laws_skipped(self):
        rng = np.random.default_rng(0)
        metric = make_metric(rng)
        law = an.ReturnLaw(0.5, np.ones(5))
        assert an.law_distance(metric, law, law) == 0.0

    def test_gamma_zero_collapses(self):
        rng = np.random.default_rng(1)
        metric = make_metric(rng)
        eta1 = an.ReturnLaw(rng.normal(), rng.normal(size=5))
        eta2 = an.ReturnLaw(rng.normal(), rng.normal(size=5))
        pushed = rng.normal(size=5)
        d = an.law_distance(
            metric,
            an.apply_bellman(eta1, 0.3, 0.0, pushed),
            an.apply_bellman(eta2, 0.3, 0.0, pushed),
        )
        assert d == 0.0

    @pytest.mark.parametrize("gamma", [0.5, 0.99])
    def test_ratio_bounded_by_gamma(self, gamma):
        rng = np.random.default_rng(2)
        metric = make_metric(rng)
        report = an.contraction_check(metric, gamma, n_trials=1000, seed=3)
        assert report["max_ratio"] <= gamma + 1e-9
        assert report["n_skipped"] == 0


class TestFixedPoint:
    def test_zero_movement_at_fixed_point(self):
        rng = np.random.default_rng(4)
        metric = make_metric(rng)
        reward, gamma = 0.4, 0.9
        feats = rng.normal(size=5)
        star = an.ReturnLaw(reward / (1 - gamma), feats)
        res = an.fixed_point_iterate(reward, gamma, feats, star, metric, tol=1e-12)
        assert res.iterations == 0

    def test_unique_limit_from_two_starts(self):
        rng = np.random.default_rng(5)
        metric = make_metric(rng)
        reward, gamma = -0.2, 0.8
        feats = rng.normal(size=5)
        tol = 1e-11
        a = an.fixed_point_iterate(
            reward, gamma, feats, an.ReturnLaw(5.0, rng.normal(size=5)), metric, tol
        )
        b = an.fixed_point_iterate(
            reward, gamma, feats, an.ReturnLaw(-3.0, rng.normal(size=5)), metric, tol
        )
        assert an.law_distance(metric, a.law, b.law) < 10 * tol

    def test_fitted_rate_matches_gamma(self):
        rng = np.random.default_rng(6)
        metric = make_metric(rng)
        gamma = 0.9
        res = an.fixed_point_iterate(
            0.3, gamma, rng.normal(size=5),
            an.ReturnLaw(4.0, rng.normal(size=5)), metric, tol=1e-12,
        )
        assert res.fitted_rate == pytest.approx(gamma, abs=0.02)


class TestForecastDecay:
    def test_error_zero_at_junction_and_matched_generator(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        metric = fit_whitening(rng.normal(size=(100, 6)), lam=1e-3)
        cfg = SignatureConfig(degree=K, mode="linear")
        env = jump_env(lam=0.0, vol=0.0, mu=0.3)
        gen = new_generator(C, K, n_proxy_features=3, phase_powers=2)
        W = gen.weights.copy()
        W[0, -1] = 1.0
        W[1, -1] = 0.3
        W[2, -1] = 0.3
        gen = gen.with_theta(W.ravel())
        grid = np.linspace(0.0, 1.0, 9)
        report = an.forecast_decay(
            integrate_flow(gen, nmap, None, grid), metric, env,
            (0.0, np.zeros(1), None), 4, [0, 1], cfg,
        )
        assert report["error"][0] == 0.0
        assert max(report["error"]) < 1e-12

    def test_reproducible_bit_exact(self):
        rng = np.random.default_rng(8)
        nmap = make_map(rng)
        metric = fit_whitening(rng.normal(size=(100, 6)), lam=1e-3)
        cfg = SignatureConfig(degree=K, mode="linear")
        env = jump_env()
        gen = new_generator(C, K, n_proxy_features=3, seed=9, init_scale=0.3)
        grid = np.linspace(0.0, 1.0, 9)
        traj = integrate_flow(gen, nmap, None, grid)
        args = (traj, metric, env, (0.0, np.zeros(1), None), 16, [3, 4], cfg)
        assert an.forecast_decay(*args)["error"] == an.forecast_decay(*args)["error"]

    def test_contractive_regularization_gives_negative_slope(self):
        rng = np.random.default_rng(9)
        nmap = make_map(rng)
        cfg = SignatureConfig(degree=K, mode="linear")
        env = jump_env(lam=1.0, jump_mean=0.1, vol=0.3)
        grid = np.linspace(0.0, 1.0, 9)
        junction = (0.0, np.zeros(1), None)
        train_ens = generate_ensemble(env, junction, None, grid, 512, 11, cfg)
        from siglearn.proxy_flow import prefix_mean_signatures  # noqa: F401
        from siglearn.kernelspace import compress_flat
        from siglearn.jumpdiff import prefix_mean_signatures as pms

        feats = compress_flat(nmap, pms(train_ens, keep_paths=True)[1][-1])
        metric = fit_whitening(feats, lam=1e-4)
        gen0 = new_generator(C, K, n_proxy_features=3, phase_powers=3,
                             seed=10, init_scale=0.05)
        metrics = [metric] * grid.size
        law = empirical_trajectory(train_ens, nmap)
        plain = train_generator(
            gen0, train_ens, law, metrics,
            TrainConfig(steps=150, lr=0.08, eta_scf=0.0, contraction_reg=0.0),
        ).trajectory
        damped = train_generator(
            gen0, train_ens, law, metrics,
            TrainConfig(steps=150, lr=0.08, eta_scf=0.3, contraction_reg=40.0),
        ).trajectory
        seeds = [21, 22, 23, 24]
        rep_plain = an.forecast_decay(plain, metric, env, junction, 512, seeds, cfg)
        rep_damped = an.forecast_decay(damped, metric, env, junction, 512, seeds, cfg)
        assert rep_damped["beta"] < 0
        assert rep_damped["beta"] < rep_plain["beta"]

    def test_record_of_several_flows_is_rejected_before_any_ensemble(self, monkeypatch):
        rng = np.random.default_rng(10)
        nmap = make_map(rng)
        metric = fit_whitening(rng.normal(size=(100, 6)), lam=1e-3)
        gen = new_generator(C, K, n_proxy_features=3, seed=9, init_scale=0.3)
        thetas = np.stack([gen.theta(), 0.5 * gen.theta()])
        traj = integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, 9), theta_rows=thetas)

        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble was generated")

        monkeypatch.setattr(an, "generate_ensemble", no_ensemble)
        with pytest.raises(ShapeMismatchError, match="one flow"):
            an.forecast_decay(traj, metric, jump_env(), (0.0, np.zeros(1), None), 4, [0],
                              SignatureConfig(degree=K, mode="linear"))


class TestWhitenedNormStress:
    def test_stress_growth_ordering(self):
        rng = np.random.default_rng(12)
        cfg = SignatureConfig(degree=4, mode="linear")
        env = jump_env(lam=2.0, jump_mean=0.5, vol=0.05, jump_scale=0.3)
        grid = np.linspace(0.0, 1.0, 9)
        junction = (0.0, np.zeros(1), None)
        base = generate_ensemble(env, junction, None, grid, 256, 13, cfg)
        from siglearn.signature import batch_terminal_signatures

        sigs = batch_terminal_signatures(cfg, base.times, base.values, base.jump_flags)
        landmarks = sigs[rng.choice(len(sigs), size=12, replace=False)]
        nmap = build_nystrom(landmarks, channels=3, degree=4)
        from siglearn.kernelspace import compress_flat

        metric = fit_whitening(compress_flat(nmap, sigs), lam=1e-6)
        rows = an.whitened_norm_stress(
            env, junction, grid, 256, 13, cfg, nmap, metric,
            scales=(1.0, 3.0, 10.0), n_groups=8,
        )
        assert rows[0]["raw_growth"] == 1.0
        assert rows[-1]["raw_growth"] > 10.0
        assert rows[-1]["whitened_growth"] < rows[-1]["raw_growth"]
        assert rows[1]["whitened_growth"] < rows[1]["raw_growth"]
        # the bound grows with the whitened norms of the stressed proxies
        bounds = [row["rademacher_bound"] for row in rows]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_group_divisibility_required(self):
        rng = np.random.default_rng(14)
        cfg = SignatureConfig(degree=K, mode="linear")
        env = jump_env()
        with pytest.raises(DomainError):
            an.whitened_norm_stress(
                env, (0.0, np.zeros(1), None), np.linspace(0, 1, 5), 10, 0,
                cfg, make_map(rng), make_metric(rng, m=6), n_groups=3,
            )


class TestLyapunov:
    def test_additive_noise_has_zero_exponent(self):
        cfg = SignatureConfig(degree=K, mode="linear")
        env = jump_env()
        grid = np.linspace(0.0, 1.0, 9)
        lam = an.lyapunov_estimate(env, (0.0, np.zeros(1), None), grid, range(8), cfg)
        assert abs(lam) < 1e-6

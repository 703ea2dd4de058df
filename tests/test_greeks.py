from statistics import NormalDist

import numpy as np
import pytest

from siglearn import experiments, greeks
from siglearn import tensor_algebra as ta
from siglearn.errors import DomainError
from siglearn.jumpdiff import (
    JumpDiffusionParams,
    empirical_mean_signature,
    generate_ensemble,
)
from siglearn.kernelspace import build_nystrom, compress_flat
from siglearn.proxy_flow import integrate_flow, new_generator
from siglearn.signature import SignatureConfig

C, K = 3, 3


def make_map(rng, n_landmarks=6):
    x = np.zeros((n_landmarks, ta.flat_size(C, K)))
    x[:, 1:] = rng.normal(scale=0.4, size=(n_landmarks, x.shape[1] - 1))
    return build_nystrom(ta.exp_flat(C, K, x), C, K)


def make_setup(seed=0, pinned=True):
    rng = np.random.default_rng(seed)
    nmap = make_map(rng)
    gen = new_generator(
        C, K, n_proxy_features=3, phase_powers=2,
        clock_rate=1.0 if pinned else None,
        seed=seed + 1, init_scale=0.4,
    )
    grid = np.linspace(0.0, 1.0, 9)
    traj = integrate_flow(gen, nmap, None, grid)
    w = rng.normal(size=nmap.n_landmarks)
    return rng, nmap, gen, grid, traj, w


class TestGradW:
    def test_boundary_values(self):
        _, nmap, gen, grid, traj, w = make_setup()
        at_T = greeks.grad_w(traj, 1.0)
        assert np.allclose(at_T, compress_flat(nmap, ta.identity_flat(C, K)), atol=1e-12)
        at_t = greeks.grad_w(traj, 0.0)
        assert np.allclose(at_t, compress_flat(nmap, traj.flats[-1]), atol=1e-12)

    def test_linear_fd_exact(self):
        rng, nmap, gen, grid, traj, w = make_setup(seed=1)
        from siglearn.td_learning import value_at

        g = greeks.grad_w(traj, 0.5)
        direction = rng.normal(size=w.size)
        eps = 1e-6
        fd = (
            value_at(traj, w + eps * direction, 0.5)
            - value_at(traj, w - eps * direction, 0.5)
        ) / (2 * eps)
        assert fd == pytest.approx(g @ direction, rel=1e-9)


class TestGradProxy:
    def test_zero_weights(self):
        _, nmap, gen, grid, traj, w = make_setup(seed=2)
        assert np.array_equal(
            greeks.grad_proxy(traj, np.zeros(nmap.n_landmarks), 0.5),
            np.zeros(ta.flat_size(C, K)),
        )

    def test_junction_directional_derivative(self):
        rng, nmap, gen, grid, traj, w = make_setup(seed=3)
        cov = greeks.grad_proxy(traj, w, 0.0)
        h = rng.normal(size=ta.flat_size(C, K))
        expected = w @ compress_flat(nmap, h)
        assert cov @ h == pytest.approx(expected, rel=1e-12)

    def test_fd_random_directions(self):
        rng, nmap, gen, grid, traj, w = make_setup(seed=4)
        s = 0.5
        i = traj.index_of(s)
        cov = greeks.grad_proxy(traj, w, s)
        inv_s = ta.inverse_flat(C, K, traj.flats[i])

        def value_of_terminal(term_flat):
            return w @ compress_flat(nmap, ta.product_flat(C, K, inv_s, term_flat))

        eps = 1e-6
        for _ in range(10):
            h = rng.normal(size=ta.flat_size(C, K))
            fd = (
                value_of_terminal(traj.flats[-1] + eps * h)
                - value_of_terminal(traj.flats[-1] - eps * h)
            ) / (2 * eps)
            rel = abs(cov @ h - fd) / max(abs(fd), 1e-12)
            assert rel <= 1e-6


class TestGradTheta:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_fd_agreement_all_entries(self, s):
        rng, nmap, gen, grid, traj, w = make_setup(seed=5)
        (grad,), (value,) = greeks.grad_theta(gen, traj, w, [s])
        theta0 = gen.theta()
        h = 1e-6
        fd = np.empty_like(theta0)
        from siglearn.td_learning import value_at

        for i in range(theta0.size):
            up = theta0.copy()
            up[i] += h
            dn = theta0.copy()
            dn[i] -= h
            v_up = value_at(
                integrate_flow(gen.with_theta(up), nmap, None, grid), w, s
            )
            v_dn = value_at(
                integrate_flow(gen.with_theta(dn), nmap, None, grid), w, s
            )
            fd[i] = (v_up - v_dn) / (2 * h)
        scale = max(np.max(np.abs(grad)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale <= 1e-4

    def test_constant_value_at_horizon_has_zero_gradient(self):
        # inverse(proxy_T) (x) proxy_T is the identity whatever theta is
        rng, nmap, gen, grid, traj, w = make_setup(seed=5)
        (grad,), _ = greeks.grad_theta(gen, traj, w, [1.0])
        assert np.max(np.abs(grad)) < 1e-12

    def test_horizon_value_bitwise_constant_in_theta(self):
        # the finite-difference oracle at s = T must read exactly zero
        rng, nmap, gen, grid, traj, w = make_setup(seed=5)
        from siglearn.td_learning import value_at

        theta0 = gen.theta()
        for i in range(theta0.size):
            up = theta0.copy()
            up[i] += 1e-6
            dn = theta0.copy()
            dn[i] -= 1e-6
            v_up = value_at(integrate_flow(gen.with_theta(up), nmap, None, grid), w, 1.0)
            v_dn = value_at(integrate_flow(gen.with_theta(dn), nmap, None, grid), w, 1.0)
            assert v_up == v_dn

    def test_masked_clock_row_has_zero_gradient(self):
        rng, nmap, gen, grid, traj, w = make_setup(seed=6, pinned=True)
        (grad,), _ = greeks.grad_theta(gen, traj, w, [0.5])
        F = gen.n_features
        assert np.array_equal(grad[:F], np.zeros(F))

    def test_points_share_one_pass(self):
        # a sequence of points gives the rows of the one-point calls
        rng, nmap, gen, grid, traj, w = make_setup(seed=8, pinned=False)
        points = [0.0, 0.5, 1.0]
        grads, values = greeks.grad_theta(gen, traj, w, points)
        assert grads.shape == (3, gen.n_params) and values.shape == (3,)
        for s, grad, value in zip(points, grads, values):
            (one,), (one_value,) = greeks.grad_theta(gen, traj, w, [s])
            assert np.max(np.abs(grad - one)) <= 1e-14 * max(np.max(np.abs(one)), 1e-300)
            assert value == one_value
        assert not np.any(grads[-1])

    def test_value_consistent_with_trajectory(self):
        rng, nmap, gen, grid, traj, w = make_setup(seed=7)
        from siglearn.td_learning import value_at

        _, (value,) = greeks.grad_theta(gen, traj, w, [0.5])
        assert value == pytest.approx(value_at(traj, w, 0.5), abs=1e-12)


class TestFdOracle:
    # the batched central-difference oracle of criterion 7: 2 * n_params
    # perturbed flows integrated in chunks through the weight-row axis
    @pytest.mark.parametrize("chunk", [1, 66, 264])
    def test_horizon_column_exactly_zero(self, chunk, monkeypatch):
        rng, nmap, gen, grid, traj, w = make_setup(seed=9)
        points = [0.0, 0.5, 1.0]
        monkeypatch.setattr(experiments, "FD_CHUNK", chunk)
        fd = experiments._fd_grad_theta(gen, nmap, None, grid, w, points)
        assert fd.shape == (gen.n_params, 3)
        assert np.array_equal(fd[:, -1], np.zeros(gen.n_params))
        grads, _ = greeks.grad_theta(gen, traj, w, points)
        scale = np.max(np.abs(grads))
        assert np.max(np.abs(grads - fd.T)) <= 1e-6 * scale


class TestMoments:
    def test_deterministic_return(self):
        env = JumpDiffusionParams(
            drift_base=np.array([0.4]),
            vol=np.array([[0.0]]),
            jump_intensity=0.0,
            jump_mean=np.zeros(1),
            jump_scale=np.zeros(1),
            action_exposure=np.zeros(1),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, 3, 0, cfg)
        sbar = empirical_mean_signature(ens, 0.0, 1.0)
        total = float(ens.rewards[0].sum())
        mean, var = greeks.return_moments(sbar)
        assert mean == pytest.approx(total, abs=1e-12)
        assert abs(var) < 1e-12

    def test_ensemble_variance_matches_sample(self):
        env = JumpDiffusionParams(
            drift_base=np.array([0.1]),
            vol=np.array([[0.4]]),
            jump_intensity=1.0,
            jump_mean=np.array([-0.1]),
            jump_scale=np.array([0.2]),
            action_exposure=np.zeros(1),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        grid = np.linspace(0.0, 1.0, 17)
        ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, 4096, 9, cfg)
        sbar = empirical_mean_signature(ens, 0.0, 1.0)
        mean, var = greeks.return_moments(sbar)
        totals = ens.rewards.sum(axis=1)
        n = totals.size
        mean_se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(mean - totals.mean()) <= 3 * mean_se
        sample_var = totals.var(ddof=1)
        var_se = sample_var * np.sqrt(2.0 / (n - 1))
        assert abs(var - sample_var) <= 3 * var_se + 3 * mean_se

    def test_zero_rewards(self):
        env = JumpDiffusionParams(
            drift_base=np.array([0.2]),
            vol=np.array([[0.0]]),
            jump_intensity=0.0,
            jump_mean=np.zeros(1),
            jump_scale=np.zeros(1),
            action_exposure=np.zeros(1),
            reward_coeffs=np.zeros(1),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, 2, 0, cfg)
        sbar = empirical_mean_signature(ens, 0.0, 1.0)
        mean, var = greeks.return_moments(sbar)
        assert mean == 0.0 and var == 0.0


class TestCvar:
    def test_zero_variance_returns_mean(self):
        assert greeks.cvar(1.3, 0.0, 0.05) == 1.3

    def test_standard_normal_against_quadrature(self):
        # composite Simpson rule for the tail integral of x phi(x) on [-30, q],
        # independent of the closed form -phi(q) that cvar uses
        alpha = 0.05
        q = NormalDist().inv_cdf(alpha)
        x, h = np.linspace(-30.0, q, 40_001, retstep=True)
        f = x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        oracle = h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]) / alpha
        assert greeks.cvar(0.0, 1.0, alpha) == pytest.approx(oracle, rel=1e-10)
        assert greeks.cvar(0.0, 1.0, alpha) == pytest.approx(-2.0627, abs=2e-4)

    def test_monte_carlo_tail_mean(self):
        rng = np.random.default_rng(10)
        x = rng.normal(loc=0.3, scale=1.7, size=100_000)
        alpha = 0.1
        q = np.quantile(x, alpha)
        tail_mean = x[x <= q].mean()
        assert greeks.cvar(0.3, 1.7**2, alpha) == pytest.approx(tail_mean, rel=0.01)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            greeks.cvar(0.0, -1.0, 0.05)


class TestRiskRectification:
    def make_jumpy_proxy(self, exposure, seed=11, n_paths=2048):
        # the action scales the holding of a negative-jump asset
        env = JumpDiffusionParams(
            drift_base=np.array([0.05]),
            vol=np.array([[0.1]]),
            jump_intensity=1.5,
            jump_mean=np.array([-0.4]),
            jump_scale=np.array([0.2]),
            action_exposure=np.zeros(1),
            reward_coeffs=np.array([0.3]),
            reward_action_exposure=np.array([exposure]),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        grid = np.linspace(0.0, 1.0, 9)
        junction = (0.0, np.zeros(1), None)
        sens = greeks.action_sensitivity(env, junction, grid, n_paths, seed, cfg)
        ens = generate_ensemble(env, junction, None, grid, n_paths, seed, cfg)
        sbar = empirical_mean_signature(ens, 0.0, 1.0)
        return sbar, sens

    def test_beta_zero_identity(self):
        sbar, sens = self.make_jumpy_proxy(exposure=1.0, n_paths=64)
        risk = greeks.RiskConfig(alpha_tail=0.05, beta_risk=0.0)
        assert greeks.risk_rectified_advantage(0.7, sbar, sens, risk) == 0.7

    def test_zero_exposure_zero_rectification(self):
        sbar, sens = self.make_jumpy_proxy(exposure=0.0, n_paths=64)
        risk = greeks.RiskConfig(alpha_tail=0.05, beta_risk=2.0)
        assert np.max(np.abs(sens)) < 1e-9
        adv = greeks.risk_rectified_advantage(0.7, sbar, sens, risk)
        assert adv == pytest.approx(0.7, abs=1e-9)

    def test_negative_jump_exposure_lowers_advantage(self):
        sbar, sens = self.make_jumpy_proxy(exposure=1.0)
        delta = 0.5
        last = delta
        for beta in (0.5, 1.0, 2.0):
            risk = greeks.RiskConfig(alpha_tail=0.05, beta_risk=beta)
            adv = greeks.risk_rectified_advantage(delta, sbar, sens, risk)
            assert adv < last
            last = adv

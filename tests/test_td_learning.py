import warnings

import numpy as np
import pytest

from siglearn import tensor_algebra as ta
from siglearn import td_learning as td
from siglearn.errors import (
    DivergenceError,
    DomainError,
    InsufficientDataError,
    RangeError,
    ShapeMismatchError,
)
from siglearn.jumpdiff import JumpDiffusionParams, generate_ensemble
from siglearn.kernelspace import build_nystrom, compress_flat
from siglearn.proxy_flow import empirical_trajectory, integrate_flow, new_generator
from siglearn.signature import SignatureConfig, batch_prefix_signatures
from tensor_helpers import zero

C, K = 3, 3


def make_map(rng, n_landmarks=6):
    x = np.zeros((n_landmarks, ta.flat_size(C, K)))
    x[:, 1:] = rng.normal(scale=0.4, size=(n_landmarks, x.shape[1] - 1))
    return build_nystrom(ta.exp_flat(C, K, x), C, K)


def make_traj(rng, nmap, n_grid=13, init_scale=0.5, seed=0):
    gen = new_generator(C, K, n_proxy_features=4, seed=seed, init_scale=init_scale)
    return integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, n_grid))


def zero_noise_ensemble(mu=0.3, n_paths=8, n_grid=13, seed=0):
    env = JumpDiffusionParams(
        drift_base=np.array([mu]),
        vol=np.array([[0.0]]),
        jump_intensity=0.0,
        jump_mean=np.zeros(1),
        jump_scale=np.zeros(1),
        action_exposure=np.zeros(1),
    )
    cfg = SignatureConfig(degree=K, mode="linear")
    grid = np.linspace(0.0, 1.0, n_grid)
    return generate_ensemble(env, (0.0, np.zeros(1), None), None, grid, n_paths, seed, cfg)


class TestValueAndReward:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        assert td.value_at(traj, np.zeros(6), 0.5) == 0.0

    def test_value_at_horizon_reads_identity(self):
        rng = np.random.default_rng(1)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        w = rng.normal(size=6)
        expected = w @ compress_flat(nmap, ta.identity_flat(C, K))
        assert td.value_at(traj, w, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_constant_drift_reward_linear_in_ds(self):
        # level-1 block of the one-step segment law scales exactly with ds
        rng = np.random.default_rng(2)
        nmap = make_map(rng)
        v = zero(C, K)
        v.data[1:4] = [1.0, 0.3, 0.3]
        gen = new_generator(C, K, n_proxy_features=4)
        W = gen.weights.copy()
        W[:3, -1] = [1.0, 0.3, 0.3]
        gen = gen.with_theta(W.ravel())
        grid = np.concatenate([[0.0], np.cumsum([0.1, 0.2, 0.4])])
        traj = integrate_flow(gen, nmap, None, grid)
        c, k = traj.channels, traj.degree
        inv = ta.inverse_flat(c, k, traj.flats[:-1])
        segs = ta.product_flat(c, k, inv, traj.flats[1:])
        lvl1 = segs[:, 1:4]
        ds = np.diff(grid)
        assert np.allclose(lvl1 / ds[:, None], lvl1[0] / ds[0], atol=1e-12)

    def test_step_rewards_telescope_at_level_one(self):
        rng = np.random.default_rng(3)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        c, k = traj.channels, traj.degree
        inv = ta.inverse_flat(c, k, traj.flats[:-1])
        segs = ta.product_flat(c, k, inv, traj.flats[1:])
        total = segs[:, 1 : 1 + c].sum(axis=0)
        assert np.allclose(total, traj.flats[-1][1 : 1 + c], atol=1e-12)

    def test_off_grid_time_rejected(self):
        rng = np.random.default_rng(4)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        with pytest.raises(RangeError, match="gridpoint of the trajectory"):
            td.value_at(traj, np.zeros(6), 0.05)

    def test_one_reward_row_per_step(self):
        # no step, and so no reward, starts at the terminal gridpoint
        rng = np.random.default_rng(4)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        w = rng.normal(size=6)
        assert td.realizable_rewards(traj, w, 0.9, 0.0).shape == (traj.n_grid - 1,)
        with pytest.raises(ShapeMismatchError, match="rewards must have length"):
            td.td_error_vector(traj, w, 0.9, 0.0, np.zeros(traj.n_grid))


class TestTdError:
    def test_all_zero(self):
        rng = np.random.default_rng(5)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        deltas = td.td_error_vector(traj, np.zeros(6), 0.9, 0.0, np.zeros(traj.n_grid - 1))
        assert np.array_equal(deltas, np.zeros(traj.n_grid - 1))

    def test_realizable_construction_zeroes_every_step(self):
        rng = np.random.default_rng(6)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        w_true = rng.normal(size=6)
        z = 0.7
        rewards = td.realizable_rewards(traj, w_true, 0.95, z)
        deltas = td.td_error_vector(traj, w_true, 0.95, z, rewards)
        assert np.max(np.abs(deltas)) < 1e-10

    def test_leading_axis_matches_row_by_row(self):
        # three flows integrated at once give the errors and realizable
        # rewards of each flow on its own
        rng = np.random.default_rng(25)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=2, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 9)
        thetas = gen.theta() + 0.2 * rng.normal(size=(3, gen.n_params))
        batch = integrate_flow(gen, nmap, None, grid, theta_rows=thetas)
        rows = [integrate_flow(gen.with_theta(t), nmap, None, grid) for t in thetas]
        w = rng.normal(size=6)
        rewards = rng.normal(size=(3, grid.size - 1))
        gamma, z = 0.9, 0.3
        for got, want in [
            (td.td_error_vector(batch, w, gamma, z, rewards),
             [td.td_error_vector(t, w, gamma, z, r) for t, r in zip(rows, rewards)]),
            (td.td_error_vector(batch, w, gamma, z, rewards[0]),
             [td.td_error_vector(t, w, gamma, z, rewards[0]) for t in rows]),
            (td.realizable_rewards(batch, w, gamma, z),
             [td.realizable_rewards(t, w, gamma, z) for t in rows]),
        ]:
            assert got.shape == (3, grid.size - 1)
            assert np.allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_matches_expanded_inner_product_form(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        w = rng.normal(size=6)
        rewards = rng.normal(size=traj.n_grid - 1)
        gamma, z = 0.9, 0.3
        deltas = td.td_error_vector(traj, w, gamma, z, rewards)
        psi = traj.residual_features()
        for s in range(traj.n_grid - 1):
            r = rewards[s]
            v_next = z if s == traj.n_grid - 2 else float(w @ psi[s + 1])
            expected = r + gamma * v_next - float(w @ psi[s])
            assert deltas[s] == pytest.approx(expected, abs=1e-12)


class TestSweepAndSolve:
    def setup_problem(self, seed=8, gamma=0.9):
        rng = np.random.default_rng(seed)
        nmap = make_map(rng)
        traj = make_traj(rng, nmap)
        w_true = rng.normal(size=6)
        z = 0.25
        rewards = td.realizable_rewards(traj, w_true, gamma, z)
        return rng, nmap, traj, w_true, z, rewards, gamma

    def test_fixed_point_start_is_stationary(self):
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem()
        res = td.td0_sweep(traj, w_true, gamma, z, 0.05, 200, rewards)
        assert np.max(np.abs(res.w - w_true)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad):
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem()
        w0 = np.zeros(6)
        w0[2] = bad
        with pytest.raises(DomainError, match="initial weights must be finite"):
            td.td0_sweep(traj, w0, gamma, z, 0.05, 10, rewards)

    def noisy_problem(self, seed, m=4, gamma=0.9, n_paths=8):
        # empirical trajectory of a jumpy ensemble: well-spread features
        rng = np.random.default_rng(seed)
        nmap = make_map(rng, n_landmarks=m)
        env = JumpDiffusionParams(
            drift_base=np.array([0.1]),
            vol=np.array([[0.5]]),
            jump_intensity=2.0,
            jump_mean=np.array([0.15]),
            jump_scale=np.array([0.3]),
            action_exposure=np.zeros(1),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        grid = np.linspace(0.0, 1.0, 13)
        ens = generate_ensemble(env, (0.0, np.zeros(1), None), None, grid,
                                n_paths, seed, cfg)
        traj = empirical_trajectory(ens, nmap)
        w_true = rng.normal(size=m)
        z = 0.25
        rewards = td.realizable_rewards(traj, w_true, gamma, z)
        return nmap, traj, w_true, z, rewards, gamma

    def test_sweep_converges_to_direct_solve(self):
        nmap, traj, w_true, z, rewards, gamma = self.noisy_problem(seed=9)
        system = td.assemble_system(traj, gamma, z, rewards)
        sol = td.solve_fixed_point(system)
        assert sol.residual <= 1e-8
        alpha = 0.9 * td.stability_bound(system)
        res = td.td0_sweep(traj, np.zeros(4), gamma, z, alpha, 60_000, rewards)
        rel = np.linalg.norm(res.w - sol.w) / np.linalg.norm(sol.w)
        assert rel < 1e-6
        assert res.predicted_iters is not None and res.predicted_iters <= 60_000
        assert np.max(np.abs(sol.w - w_true)) < 1e-8

    def test_objective_non_increasing_after_burn_in(self):
        nmap, traj, w_true, z, rewards, gamma = self.noisy_problem(seed=10)
        system = td.assemble_system(traj, gamma, z, rewards)
        alpha = 0.2 * td.stability_bound(system)
        res = td.td0_sweep(traj, np.zeros(4), gamma, z, alpha, 3000, rewards)
        tail = res.objective_trace[1500:]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_sweep_update_equals_linear_recursion(self):
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem(seed=11)
        system = td.assemble_system(traj, gamma, z, rewards)
        w0 = rng.normal(size=6)
        res = td.td0_sweep(traj, w0, gamma, z, 0.01, 1, rewards)
        expected = w0 + 0.01 * (system.b - system.A @ w0)
        assert np.allclose(res.w, expected, atol=1e-12)

    def test_single_step_horizon_system(self):
        rng = np.random.default_rng(12)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=3, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.array([0.0, 1.0]))
        r = np.array([0.4])
        gamma, z = 0.9, 0.6
        system = td.assemble_system(traj, gamma, z, r)
        psi0 = traj.residual_features()[0]
        assert np.allclose(system.A, np.outer(psi0, psi0), atol=1e-12)
        assert np.allclose(system.b, (0.4 + gamma * z) * psi0, atol=1e-12)

    @pytest.mark.parametrize("seed", [13, 15])
    def test_system_matches_expanded_form(self, seed):
        # A = C^T M and b = C^T c0 against C^T C - gamma C[:-1]^T psi[1:-1]
        # and r C + gamma z C[-1]
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem(seed=seed)
        system = td.assemble_system(traj, gamma, z, rewards)
        psi = traj.residual_features()
        cur = psi[:-1]
        A = cur.T @ cur - gamma * cur[:-1].T @ psi[1:-1]
        b = rewards @ cur + gamma * z * cur[-1]
        assert np.max(np.abs(system.A - A)) <= 1e-12 * np.max(np.abs(A))
        assert np.max(np.abs(system.b - b)) <= 1e-12 * np.max(np.abs(b))

    def test_system_positive_definite_on_generic_trajectory(self):
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem(seed=13)
        system = td.assemble_system(traj, gamma, z, rewards)
        sym = 0.5 * (system.A + system.A.T)
        assert np.linalg.eigvalsh(sym)[0] > 0

    def test_identity_system_solve(self):
        system = td.TdSystem(A=np.eye(3), b=np.array([1.0, 0, 0]))
        sol = td.solve_fixed_point(system)
        assert not sol.ridged
        assert np.array_equal(sol.w, np.array([1.0, 0, 0]))

    def test_singular_system_flagged(self):
        A = np.zeros((2, 2))
        A[0, 0] = 1.0
        system = td.TdSystem(A=A, b=np.array([1.0, 0.0]))
        sol = td.solve_fixed_point(system)
        assert sol.ridged

    def test_sweep_deterministic_bitwise(self):
        rng, nmap, traj, w_true, z, rewards, gamma = self.setup_problem(seed=14)
        a = td.td0_sweep(traj, np.zeros(6), gamma, z, 0.02, 500, rewards)
        b = td.td0_sweep(traj, np.zeros(6), gamma, z, 0.02, 500, rewards)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.objective_trace, b.objective_trace)


def oracle_sweep(traj, w0, gamma, z, alpha, n_iters, rewards):
    """The sweep as a per-iteration loop in weight space.

    Each iteration recomputes every TD error from the current weights and
    applies w <- w + alpha * delta @ C; returns the final weights and the
    objective, weight-norm and max |delta| traces, or the iteration at which
    the weight norm first passes 1e12.
    """
    psi = traj.residual_features()
    w = w0.copy()
    obj, norms, max_delta = (np.empty(n_iters) for _ in range(3))
    for it in range(n_iters):
        values = psi @ w
        delta = rewards + gamma * np.concatenate([values[1:-1], [z]]) - values[:-1]
        w = w + alpha * (delta @ psi[:-1])
        obj[it] = 0.5 * float(delta @ delta)
        norms[it] = float(np.linalg.norm(w))
        max_delta[it] = float(np.max(np.abs(delta)))
        if norms[it] > 1e12:
            return it, norms[it]
    return w, obj, norms, max_delta


def close(a, b, rel=1e-12):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestBlockedSweep:
    """The step-space block recursion against the weight-space loop."""

    def problem(self, m, w0_kind="zero", terminal=False, n_grid=13, seed=40):
        # empirical trajectory of a jumpy ensemble; with 12 steps, m = 6
        # iterates fewer weights than steps and m = 20 more
        rng = np.random.default_rng(seed)
        nmap = make_map(rng, n_landmarks=m)
        env = JumpDiffusionParams(
            drift_base=np.array([0.1]),
            vol=np.array([[0.5]]),
            jump_intensity=2.0,
            jump_mean=np.array([0.15]),
            jump_scale=np.array([0.3]),
            action_exposure=np.zeros(1),
        )
        cfg = SignatureConfig(degree=K, mode="linear")
        ens = generate_ensemble(env, (0.0, np.zeros(1), None), None,
                                np.linspace(0.0, 1.0, n_grid), 8, seed, cfg)
        traj = empirical_trajectory(ens, nmap)
        gamma = 0.9
        rewards = rng.normal(size=traj.n_grid - 1)
        w0 = np.zeros(m) if w0_kind == "zero" else rng.normal(size=m)
        z = 0.3 if terminal else 0.0
        system = td.assemble_system(traj, gamma, z, rewards)
        return traj, w0, z, gamma, rewards, td.stability_bound(system)

    @pytest.mark.parametrize(
        "m, n_iters, w0_kind, terminal",
        [
            (6, 1, "zero", False),
            (6, 100, "random", False),
            (6, 256, "zero", True),
            (6, 3 * 256 + 17, "random", True),
            (20, 1, "random", True),
            (20, 100, "zero", False),
            (20, 256, "random", False),
            (20, 3 * 256 + 17, "zero", True),
        ],
    )
    def test_matches_weight_space_loop(self, m, n_iters, w0_kind, terminal):
        traj, w0, z, gamma, rewards, bound = self.problem(m, w0_kind, terminal)
        alpha = 0.5 * bound
        res = td.td0_sweep(traj, w0, gamma, z, alpha, n_iters, rewards)
        w, obj, norms, max_delta = oracle_sweep(traj, w0, gamma, z, alpha, n_iters, rewards)
        assert close(res.w, w)
        assert close(res.objective_trace, obj)
        assert close(res.weight_norms, norms)
        assert close(res.max_abs_delta, max_delta)

    @pytest.mark.parametrize("m", [6, 20])
    @pytest.mark.parametrize("scale", [2.5, 50.0, 1e4])
    def test_divergence_at_the_loop_iteration(self, m, scale):
        traj, w0, z, gamma, rewards, bound = self.problem(m, "random")
        alpha = scale * bound
        it, norm = oracle_sweep(traj, w0, gamma, z, alpha, 5000, rewards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                td.td0_sweep(traj, w0, gamma, z, alpha, 5000, rewards)
        assert info.value.context["iteration"] == it
        assert info.value.context["weight_norm"] == pytest.approx(norm, rel=1e-9)

    def test_zero_errors_stay_zero_under_a_diverging_rate(self):
        # no reward, no payoff and zero weights give exactly zero errors, so
        # the weights never move, however fast the powers of P grow
        traj, w0, _, gamma, rewards, bound = self.problem(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = td.td0_sweep(traj, w0, gamma, 0.0, 1e4 * bound, 600, np.zeros_like(rewards))
        assert not np.any(res.w)
        assert not np.any(res.objective_trace) and not np.any(res.weight_norms)

    def test_empty_sweep_rejected(self):
        traj, w0, z, gamma, rewards, bound = self.problem(6)
        with pytest.raises(DomainError):
            td.td0_sweep(traj, w0, gamma, z, 0.5 * bound, 0, rewards)

    @pytest.mark.parametrize("m", [2, 6])
    def test_spectral_radius_is_the_decay_rate(self, m):
        # on 4 steps, m = 2 and m = 6 put the radius in weight and step
        # space; far into the sweep the slowest mode dominates, and the
        # errors shrink by the reported radius per iteration
        traj, w0, z, gamma, _, bound = self.problem(m, n_grid=5)
        w_true = np.random.default_rng(41).normal(size=m)
        rewards = td.realizable_rewards(traj, w_true, gamma, z)
        res = td.td0_sweep(traj, w0, gamma, z, 0.5 * bound, 1, rewards)
        rho = res.spectral_radius
        assert 0.0 < rho < 1.0
        assert res.predicted_iters == int(np.ceil(np.log(1e-6) / np.log(rho)))
        assert res.predicted_iters > 1
        k = min(res.predicted_iters, 20_000)
        a = td.td0_sweep(traj, w0, gamma, z, 0.5 * bound, k, rewards)
        b = td.td0_sweep(traj, w0, gamma, z, 0.5 * bound, k + 50, rewards)
        ratio = (b.max_abs_delta[-1] / a.max_abs_delta[-1]) ** (1 / 50)
        assert ratio == pytest.approx(rho, rel=1e-6)
        assert b.predicted_iters == res.predicted_iters


class TestClassicalBaseline:
    def test_zero_variance_at_convergence_on_deterministic_env(self):
        rng = np.random.default_rng(19)
        nmap = make_map(rng)
        ens = zero_noise_ensemble(n_paths=40)
        traj = empirical_trajectory(ens, nmap)
        rewards = ens.rewards[0]
        z = 0.0
        system = td.assemble_system(traj, 0.9, z, rewards)
        sol = td.solve_fixed_point(system)
        deltas = td.classical_td0_baseline(ens, nmap, 0.9, z, sol.w)
        assert np.max(np.var(deltas, axis=0)) == 0.0

    def test_matches_anticipatory_sweep_without_noise(self):
        # sampled features and rewards collapse onto the anticipated ones, so
        # the per-step errors coincide exactly at matched weights
        rng = np.random.default_rng(20)
        nmap = make_map(rng)
        ens = zero_noise_ensemble(n_paths=64)
        traj = empirical_trajectory(ens, nmap)
        w = rng.normal(size=6)
        deltas = td.classical_td0_baseline(ens, nmap, 0.9, 0.0, w)
        anticipated = td.td_error_vector(traj, w, 0.9, 0.0, ens.rewards[0])
        assert np.max(np.abs(deltas - anticipated[None, :])) < 1e-10

    def test_gamma_zero_is_reward_regression(self):
        # per path and step: the reward, plus gamma times the next value read
        # (the payoff z at the horizon), minus the value read, where a value
        # reads the compressed realized remaining segment; at gamma = 0 each
        # error is the step reward minus the value read
        rng = np.random.default_rng(21)
        nmap = make_map(rng)
        jumpy_env = JumpDiffusionParams(
            drift_base=np.array([0.1]),
            vol=np.array([[0.5]]),
            jump_intensity=3.0,
            jump_mean=np.array([0.15]),
            jump_scale=np.array([0.3]),
            action_exposure=np.zeros(1),
        )
        jumpy = generate_ensemble(jumpy_env, (0.0, np.zeros(1), None), None,
                                  np.linspace(0.0, 1.0, 13), 3, 6,
                                  SignatureConfig(degree=K, mode="linear"))
        assert jumpy.jump_flags.any()
        w, z = rng.normal(size=6), 0.4
        for ens in (zero_noise_ensemble(n_paths=2), jumpy):
            for gamma in (0.0, 0.9):
                deltas = td.classical_td0_baseline(ens, nmap, gamma, z, w)
                n_steps = ens.n_grid - 1
                assert deltas.shape == (ens.n_paths, n_steps)
                for e in range(ens.n_paths):
                    _, full = batch_prefix_signatures(
                        ens.sig_config, ens.times, ens.values[e : e + 1],
                        ens.jump_flags[e : e + 1], keep_paths=True,
                    )
                    prefix = full[:, 0, :]
                    suffix = ta.product_flat(C, K, ta.inverse_flat(C, K, prefix), prefix[-1])
                    feats = compress_flat(nmap, suffix)
                    for s in range(n_steps):
                        v_next = z if s + 1 == n_steps else w @ feats[s + 1]
                        delta = ens.rewards[e][s] + gamma * v_next - w @ feats[s]
                        assert deltas[e, s] == pytest.approx(delta, abs=1e-12)


class TestVarianceCompare:
    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            td.variance_compare(np.zeros((10, 4)), np.zeros((10, 4)))

    def test_zero_noise_both_zero(self):
        report = td.variance_compare(np.ones((32, 4)), np.ones((32, 4)))
        assert report["var_anticipatory"] == 0.0
        assert report["var_classical"] == 0.0
        assert report["ratio"] == 0.0

    @pytest.mark.parametrize("family", ["anticipatory", "classical"])
    def test_non_finite_variance_raises_divergence(self, family):
        deltas = {"anticipatory": np.ones((32, 4)), "classical": np.ones((32, 4))}
        # step 2 overflows the variance, step 3 is NaN; step 2 comes first
        deltas[family][:2, 2] = [1e308, -1e308]
        deltas[family][0, 3] = np.nan
        with pytest.raises(DivergenceError) as info:
            td.variance_compare(deltas["anticipatory"], deltas["classical"])
        assert info.value.context == {"family": family, "step": 2}


class TestJunctionContinuity:
    def test_value_moves_linearly_with_junction_shift(self):
        rng = np.random.default_rng(22)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=5, init_scale=0.5)
        w = rng.normal(size=6)
        base = ta.identity(C, K)
        horizon = 1.0

        def value_from(eps):
            inc = zero(C, K)
            inc.data[1:4] = [eps, 0.3 * eps, 0.1 * eps]
            junction = ta.TruncTensor(
                C, K, ta.product_flat(C, K, base.data, ta.exp_flat(C, K, inc.data))
            )
            grid = np.linspace(eps, horizon, 9)
            traj = integrate_flow(gen, nmap, junction, grid)
            return td.value_at(traj, w, eps)

        v0 = value_from(0.0)
        gaps = [abs(value_from(eps) - v0) for eps in (1e-3, 1e-4)]
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.3)

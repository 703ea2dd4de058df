from pathlib import Path

import numpy as np
import pytest

import siglearn
from siglearn import jumpdiff
from siglearn import tensor_algebra as ta
from siglearn.errors import DivergenceError, DomainError, RangeError, ShapeMismatchError
from siglearn.jumpdiff import (
    JumpDiffusionParams,
    draw_path_noise,
    empirical_mean_signature,
    generate_ensemble,
    path_streams,
    prefix_mean_signatures,
    simulate_history,
)
from siglearn.kernelspace import NystromMap, build_nystrom, compress_flat
from siglearn.proxy_flow import empirical_trajectory
from siglearn.signature import (
    CadlagPath,
    SignatureConfig,
    batch_prefix_signatures,
    batch_terminal_signatures,
    path_signature,
)
from tensor_helpers import level

CFG = SignatureConfig(degree=3, time_scale=1.0)


def make_params(d=2, vol=0.2, lam=0.0, memory=None, **kw):
    return JumpDiffusionParams(
        drift_base=kw.get("drift_base", np.zeros(d)),
        vol=vol * np.eye(d),
        jump_intensity=lam,
        jump_mean=kw.get("jump_mean", np.zeros(d)),
        jump_scale=kw.get("jump_scale", np.zeros(d)),
        action_exposure=kw.get("action_exposure", np.zeros(d)),
        drift_memory_gain=memory,
        reward_coeffs=kw.get("reward_coeffs"),
    )


def unit_grid(n_steps, dt=0.05):
    return dt * np.arange(n_steps + 1)


def random_map(rng, n_landmarks=6, channels=4, degree=3):
    x = np.zeros((n_landmarks, ta.flat_size(channels, degree)))
    x[:, 1:] = rng.normal(scale=0.3, size=(n_landmarks, x.shape[1] - 1))
    return build_nystrom(ta.exp_flat(channels, degree, x), channels, degree)


def euler_step(params, state, dt, xi, count, eta):
    """One Euler-Maruyama step at action 0, written out from the model."""
    nxt = state + params.drift_base * dt + (params.vol @ xi) * np.sqrt(dt)
    if count > 0:
        nxt = nxt + count * params.jump_mean
        nxt = nxt + np.sqrt(count) * (params.jump_scale * eta)
    return nxt, float((nxt - state) @ params.reward_coeffs), count > 0


class TestEnvStep:
    def test_pure_drift_is_exact(self):
        params = make_params(vol=0.0, drift_base=np.array([0.3, -0.2]))
        ens = generate_ensemble(params, (0.0, np.zeros(2), None), None,
                                np.array([0.0, 0.5]), 1, 0, CFG)
        assert np.allclose(ens.values[0, 1, :2], [0.15, -0.1], atol=0)
        assert not ens.jump_flags[0, 1]
        assert ens.rewards[0, 0] == pytest.approx(0.15 - 0.1, abs=0)

    def test_action_bounds(self):
        params = make_params()

        def policy(t, states):
            return np.full(states.shape[0], 1.5)

        with pytest.raises(DomainError):
            generate_ensemble(params, (0.0, np.zeros(2), None), policy,
                              np.array([0.0, 0.1]), 1, 0, CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self):
        params = make_params(vol=0.0, drift_base=np.array([1e308, 0.0]))
        with pytest.raises(DivergenceError):
            generate_ensemble(params, (0.0, np.full(2, 1e308), None), None,
                              np.array([0.0, 1e4]), 1, 0, CFG)

    def test_jump_count_moment(self):
        lam, dt, n_steps, n_paths = 0.8, 0.02, 50, 10_000
        params = make_params(vol=0.0, lam=lam, jump_mean=np.array([0.1, 0.0]))
        grid = unit_grid(n_steps, dt)
        ens = generate_ensemble(
            params, (0.0, np.zeros(2), None), None, grid, n_paths, 7, CFG
        )
        tau = n_steps * dt
        counts = ens.jump_flags.sum(axis=1)
        # flags undercount multiple jumps per step by O((lam*dt)^2)
        sigma = counts.std(ddof=1) / np.sqrt(n_paths)
        assert abs(counts.mean() - lam * tau) < 3 * sigma + lam * tau * lam * dt


class TestEnsemble:
    def test_n1_reproduces_euler_fold(self):
        params = make_params(vol=0.3, lam=5.0, jump_mean=np.array([0.0, 0.2]),
                             jump_scale=np.array([0.1, 0.1]))
        grid = unit_grid(8)
        seed = 11
        ens = generate_ensemble(params, (0.0, np.ones(2), None), None, grid, 1, seed, CFG)
        xi, counts, eta = draw_path_noise(
            seed, 0, 8, 2, params.jump_intensity * np.diff(grid)
        )
        state = np.ones(2)
        assert counts.any()
        for j in range(8):
            state, reward, jumped = euler_step(
                params, state, grid[j + 1] - grid[j], xi[j], counts[j], eta[j]
            )
            assert np.array_equal(state, ens.values[0, j + 1, :2])
            assert reward == ens.rewards[0, j]
            assert jumped == ens.jump_flags[0, j + 1]

    def test_same_seed_bit_identical(self):
        params = make_params(vol=0.4, lam=0.5, jump_scale=np.array([0.2, 0.2]))
        grid = unit_grid(10)
        a = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 16, 3, CFG)
        b = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 16, 3, CFG)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_flags, b.jump_flags)
        assert np.array_equal(a.rewards, b.rewards)

    def test_stream_stability_under_doubling(self):
        params = make_params(vol=0.4, lam=0.5, jump_scale=np.array([0.2, 0.2]))
        grid = unit_grid(10)
        small = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 8, 5, CFG)
        big = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 16, 5, CFG)
        assert np.array_equal(small.values, big.values[:8])

    def test_action_zero_matches_zero_exposure(self):
        grid = unit_grid(6)
        with_exposure = make_params(vol=0.3, action_exposure=np.array([1.0, -1.0]))
        without = make_params(vol=0.3)
        a = generate_ensemble(with_exposure, (0.0, np.zeros(2), None), None, grid, 4, 9, CFG)
        b = generate_ensemble(without, (0.0, np.zeros(2), None), None, grid, 4, 9, CFG)
        assert np.array_equal(a.values, b.values)

    def test_zero_noise_collapse(self):
        params = make_params(vol=0.0, drift_base=np.array([0.2, 0.1]))
        grid = unit_grid(6)
        ens = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 12, 1, CFG)
        means, full = prefix_mean_signatures(ens, keep_paths=True)
        assert np.max(np.ptp(full, axis=1)) == 0.0

    def test_memory_coupling_changes_paths_deterministically(self):
        rng = np.random.default_rng(13)
        nmap = random_map(rng)
        gain = 0.5 * rng.normal(size=(2, 6))
        params = make_params(vol=0.2, memory=gain)
        grid = unit_grid(6)
        junction = (0.0, np.zeros(2), ta.identity(4, 3))
        a = generate_ensemble(params, junction, None, grid, 4, 21, CFG, nmap=nmap)
        b = generate_ensemble(params, junction, None, grid, 4, 21, CFG, nmap=nmap)
        plain = generate_ensemble(make_params(vol=0.2), (0.0, np.zeros(2), None), None,
                                  grid, 4, 21, CFG)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, plain.values)

    def test_memory_requires_map(self):
        params = make_params(memory=np.ones((2, 3)))
        with pytest.raises(DomainError):
            generate_ensemble(params, (0.0, np.zeros(2), None), None, unit_grid(4), 2, 0, CFG)

    def test_all_zero_gain_is_no_coupling(self):
        # the one form of "no coupling": a zero gain is stored as None and
        # runs exactly the uncoupled simulation, with no map needed
        zero = make_params(vol=0.3, lam=4.0, jump_scale=np.array([0.2, 0.1]),
                           memory=np.zeros((2, 6)))
        none = make_params(vol=0.3, lam=4.0, jump_scale=np.array([0.2, 0.1]))
        assert zero.drift_memory_gain is None
        args = ((0.0, np.zeros(2), None), None, unit_grid(8), 16, 5, CFG)
        a, b = generate_ensemble(zero, *args), generate_ensemble(none, *args)
        assert a.prefix_means is None and b.prefix_means is None
        for name in ("values", "jump_flags", "rewards"):
            assert np.array_equal(getattr(a, name).view(np.uint8), getattr(b, name).view(np.uint8))

    @pytest.mark.parametrize("width", [1, 4, 6, 8])
    def test_memory_gain_width_at_most_the_landmark_count(self, width):
        nmap = random_map(np.random.default_rng(13))
        params = make_params(memory=np.ones((2, width)))
        args = (params, (0.0, np.zeros(2), None), None, unit_grid(4), 2, 0, CFG)
        if width <= nmap.n_landmarks:
            assert generate_ensemble(*args, nmap=nmap).prefix_means is not None
            return
        with pytest.raises(ShapeMismatchError, match=f"{width} columns .* 6 features"):
            generate_ensemble(*args, nmap=nmap)

    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    @pytest.mark.parametrize("n_paths", [1, 256])
    def test_narrow_gain_equals_its_zero_padded_gain(self, mode, n_paths):
        # the drift reads only the gain's m features; padding the gain with
        # zeros up to the landmark count changes no bit of the simulation
        rng = np.random.default_rng(n_paths)
        nmap = random_map(rng)
        config = SignatureConfig(degree=3, time_scale=1.0, mode=mode)
        narrow = rng.normal(size=(2, 4))
        history = CadlagPath(np.arange(3.0), rng.normal(size=(3, 3)), np.array([False, True, False]))
        junction = (0.0, np.zeros(2), path_signature(config, history, 0.0, 2.0))
        ensembles = [
            generate_ensemble(
                make_params(vol=0.3, lam=4.0, jump_mean=np.array([0.1, -0.2]),
                            jump_scale=np.array([0.2, 0.1]), memory=gain),
                junction, None, unit_grid(8), n_paths, 9, config, nmap=nmap,
            )
            for gain in (narrow, np.pad(narrow, ((0, 0), (0, 2))))
        ]
        assert ensembles[0].jump_flags.any()
        for name in ("values", "rewards", "jump_flags", "prefix_means"):
            a, b = (getattr(ens, name) for ens in ensembles)
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name

    # the drift's m features of the full-history signature p (x) S, read as
    # K S, against compress_flat on the product at the baseline's shapes:
    # 128 landmarks of (channels, degree) = (3, 4) signatures and m = 4
    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    @pytest.mark.parametrize("n_rows", [1, 2, 12, 13, 256])
    def test_memory_matrix_reads_the_full_history_features(self, n_rows, mode):
        rng = np.random.default_rng(n_rows)
        config = SignatureConfig(degree=4, time_scale=1.0, mode=mode)
        nmap = wide_map(rng)
        history = CadlagPath(np.arange(4.0), rng.normal(size=(4, 2)),
                             np.array([False, True, False, True]))
        p = path_signature(config, history, 0.0, 3.0)
        flags = rng.random((n_rows, 6)) < 0.4
        flags[:, 0] = False
        values = np.cumsum(rng.normal(scale=0.5, size=(n_rows, 6, 2)), axis=1)
        S = batch_terminal_signatures(config, np.arange(6.0), values, flags)
        assert flags.any()
        want = compress_flat(nmap, ta.product_flat(3, 4, p.data, S))[:, :4]
        got = (jumpdiff._memory_matrix(nmap, 4, p) @ S.T).T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("m", [1, 4])
    def test_memory_matrix_without_a_junction_is_the_map_rows(self, m):
        rng = np.random.default_rng(m)
        nmap = wide_map(rng)
        got = jumpdiff._memory_matrix(nmap, m, None)
        assert np.array_equal(got.view(np.uint8), nmap.matrix[:m].view(np.uint8))
        history = CadlagPath(np.arange(3.0), rng.normal(size=(3, 2)), np.zeros(3, bool))
        p = path_signature(SignatureConfig(degree=4), history, 0.0, 2.0)
        assert jumpdiff._memory_matrix(nmap, m, p).shape == (m, nmap.matrix.shape[1])


def wide_map(rng):
    """A map of 128 random rows over (channels, degree) = (3, 4), with -0.0 entries."""
    n_flat = ta.flat_size(3, 4)
    matrix = rng.normal(size=(128, n_flat))
    matrix[:, ::7] = -0.0
    return NystromMap(3, 4, np.zeros((128, n_flat)), np.eye(128), 0.0, np.ones(5), matrix)


def fresh_streams(seed, path_id):
    """Each path's three channels on newly built Philox generators."""
    return tuple(
        np.random.Generator(
            np.random.Philox(key=np.array([seed, 4 * path_id + channel], dtype=np.uint64))
        )
        for channel in range(3)
    )


def fresh_noise(seed, path_id, n_steps, dim, lam_dt):
    g_diff, g_count, g_jump = fresh_streams(seed, path_id)
    xi = g_diff.standard_normal((n_steps, dim))
    counts = g_count.poisson(lam_dt, size=n_steps)
    return xi, counts, g_jump.standard_normal((n_steps, dim))


class TestReusedStreams:
    """Resetting the reused generators reproduces newly built ones exactly."""

    @pytest.mark.parametrize("seed", [1, 99, 2**40])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_noise_equals_fresh_generators(self, seed, dim):
        lam_dt = np.linspace(0.05, 3.0, 12)
        # interleave paths so each draw follows another path's partial block
        for path_id in [0, 7, 1, 7, 5119, 0, 3]:
            got = draw_path_noise(seed, path_id, 12, dim, lam_dt)
            want = fresh_noise(seed, path_id, 12, dim, lam_dt)
            assert want[1].any()
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_buffered_words_do_not_leak(self):
        # an odd number of 32-bit draws leaves a buffered half word and a
        # part-used block behind; the next path must not see either
        for gen in path_streams(1, 0):
            gen.integers(0, 2**32, size=3, dtype=np.uint32)
        for gen, fresh in zip(path_streams(1, 9), fresh_streams(1, 9)):
            assert np.array_equal(
                gen.integers(0, 2**32, size=5, dtype=np.uint32),
                fresh.integers(0, 2**32, size=5, dtype=np.uint32),
            )

    @pytest.mark.parametrize("seed", [2, 17])
    @pytest.mark.parametrize("n_paths", [3, 64])
    @pytest.mark.parametrize("memory", [False, True])
    def test_ensemble_equals_fresh_generators(self, monkeypatch, seed, n_paths, memory):
        rng = np.random.default_rng(12)
        nmap = random_map(rng)
        params = make_params(
            vol=0.3, lam=4.0, jump_mean=np.array([0.1, -0.2]),
            jump_scale=np.array([0.2, 0.1]),
            memory=0.5 * rng.normal(size=(2, 6)) if memory else None,
        )
        junction = (0.0, np.zeros(2), ta.identity(4, 3))
        args = (params, junction, None, unit_grid(8), n_paths, seed, CFG)
        got = generate_ensemble(*args, nmap=nmap)
        monkeypatch.setattr(jumpdiff, "path_streams", fresh_streams)
        want = generate_ensemble(*args, nmap=nmap)
        assert want.jump_flags.any()
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.jump_flags, want.jump_flags)
        assert np.array_equal(got.rewards, want.rewards)


class TestMeanSignature:
    def test_deterministic_ensemble_equals_single_path(self):
        params = make_params(vol=0.0, drift_base=np.array([0.4, -0.3]))
        grid = unit_grid(8)
        ens = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 5, 2, CFG)
        sbar = empirical_mean_signature(ens, grid[0], grid[-1])
        single = path_signature(CFG, ens.path(0), grid[0], grid[-1])
        assert np.max(np.abs(sbar.data - single.data)) < 1e-12

    def test_level_one_is_mean_increment(self):
        params = make_params(vol=0.3, lam=0.7, jump_scale=np.array([0.2, 0.2]))
        grid = unit_grid(10)
        ens = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 64, 4, CFG)
        sbar = empirical_mean_signature(ens, grid[0], grid[-1])
        mean_inc = (ens.values[:, -1] - ens.values[:, 0]).mean(axis=0)
        expected = np.concatenate([[grid[-1] - grid[0]], mean_inc])
        assert np.allclose(level(sbar, 1), expected, atol=1e-12)

    def test_off_grid_time_rejected(self):
        grid = unit_grid(4)
        ens = generate_ensemble(make_params(), (0.0, np.zeros(2), None), None, grid, 2, 0, CFG)
        with pytest.raises(RangeError, match="on the ensemble grid"):
            empirical_mean_signature(ens, 0.01, grid[-1])

    def test_monte_carlo_rate(self):
        params = make_params(vol=0.4)
        grid = unit_grid(8)
        junction = (0.0, np.zeros(2), None)
        ref = empirical_mean_signature(
            generate_ensemble(params, junction, None, grid, 16384, 100, CFG),
            grid[0], grid[-1],
        )

        def err(n, seed):
            ens = generate_ensemble(params, junction, None, grid, n, seed, CFG)
            sbar = empirical_mean_signature(ens, grid[0], grid[-1])
            return np.linalg.norm(sbar.data - ref.data)

        e_small = np.mean([err(64, s) for s in range(1, 9)])
        e_big = np.mean([err(256, s) for s in range(11, 19)])
        assert 1.3 < e_small / e_big < 3.1

    def test_martingale_sanity(self):
        params = make_params(vol=0.5)
        grid = unit_grid(10)
        ens = generate_ensemble(params, (0.0, np.zeros(2), None), None, grid, 256, 8, CFG)
        sbar = empirical_mean_signature(ens, grid[0], grid[-1])
        finals = ens.values[:, -1, :2]
        stderr = finals.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
        spatial_mean = level(sbar, 1)[1:3]
        assert np.all(np.abs(spatial_mean) <= 3 * stderr)


class TestHistory:
    def test_history_signature_matches_path(self):
        params = make_params(vol=0.3, lam=0.6, jump_scale=np.array([0.15, 0.15]))
        path, sig = simulate_history(params, 0.0, np.zeros(2), 12, 0.05, 31, CFG)
        recomputed = path_signature(CFG, path, path.times[0], path.times[-1])
        assert np.max(np.abs(sig.data - recomputed.data)) < 1e-12
        assert sig.is_group_like()

    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    @pytest.mark.parametrize("lam", [0.0, 20.0], ids=["no-jumps", "frequent-jumps"])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_coupled_history_reads_the_tracked_signature(self, monkeypatch, mode, lam, seed):
        # a memory-coupled history hands back the signature its simulation
        # tracked, without a scan; it must be the scan's, bit for bit
        rng = np.random.default_rng(seed)
        nmap = random_map(rng)
        config = SignatureConfig(degree=3, time_scale=1.0, mode=mode)
        params = make_params(vol=0.3, lam=lam, jump_mean=np.array([0.1, -0.2]),
                             jump_scale=np.array([0.2, 0.1]),
                             memory=0.5 * rng.normal(size=(2, 6)))

        def no_scan(*args):
            raise AssertionError("a coupled history was scanned again")

        with monkeypatch.context() as patch:
            patch.setattr(jumpdiff, "batch_terminal_signatures", no_scan)
            path, sig = simulate_history(params, 0.0, np.zeros(2), 12, 0.05, seed, config,
                                         nmap=nmap)
        assert path.jump_flags.any() == (lam > 0)
        want = batch_terminal_signatures(
            config, path.times, path.values[None], path.jump_flags[None]
        )[0]
        assert np.array_equal(sig.data.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    @pytest.mark.parametrize("n_paths", [1, 16])
    def test_coupled_ensembles_are_read_without_a_rescan(self, monkeypatch, mode, n_paths):
        # a memory-coupled ensemble records the means of its one scan, and
        # its readers take them instead of scanning again, bit for bit
        rng = np.random.default_rng(n_paths)
        nmap = random_map(rng)
        config = SignatureConfig(degree=3, time_scale=1.0, mode=mode)
        params = make_params(vol=0.3, lam=4.0, jump_mean=np.array([0.1, -0.2]),
                             jump_scale=np.array([0.2, 0.1]),
                             memory=0.5 * rng.normal(size=(2, 6)))
        history = CadlagPath(np.arange(3.0), rng.normal(size=(3, 3)),
                             np.array([False, True, False]))
        junction = (0.0, np.zeros(2), path_signature(config, history, 0.0, 2.0))
        ens = generate_ensemble(params, junction, None, unit_grid(8), n_paths, 3, config,
                                nmap=nmap)

        def no_scan(*args, **kwargs):
            raise AssertionError("a coupled ensemble was scanned again")

        with monkeypatch.context() as patch:
            patch.setattr(jumpdiff, "batch_prefix_signatures", no_scan)
            patch.setattr(jumpdiff, "batch_terminal_signatures", no_scan)
            traj = empirical_trajectory(ens, nmap)
            path, sig = simulate_history(params, 0.0, np.zeros(2), 12, 0.05, 3, config,
                                         nmap=nmap)
        assert ens.jump_flags.any()
        assert not ens.prefix_means.flags.writeable
        with pytest.raises(ValueError):
            ens.prefix_means[0, 0] = 0.0
        means, full = batch_prefix_signatures(config, ens.times, ens.values, ens.jump_flags,
                                              keep_paths=True)
        assert np.array_equal(ens.prefix_means.view(np.uint8), means.view(np.uint8))
        assert np.array_equal(traj.flats.view(np.uint8), means.view(np.uint8))
        assert np.array_equal(prefix_mean_signatures(ens, keep_paths=True)[1], full)
        want = batch_terminal_signatures(
            config, path.times, path.values[None], path.jump_flags[None]
        )[0]
        assert np.array_equal(sig.data.view(np.uint8), want.view(np.uint8))


class TestGridValidation:
    def test_empty_grid_rejected(self):
        params = make_params()
        with pytest.raises(DomainError):
            generate_ensemble(params, (0.0, np.zeros(2), None), None,
                              np.array([0.0]), 2, 0, CFG)


def loop_ensemble(monkeypatch, *args, **kwargs):
    """``generate_ensemble`` with every path drawn by ``draw_path_noise``."""
    with monkeypatch.context() as patch:
        patch.setattr(jumpdiff, "_VECTOR_MIN_PATHS", 10**9)
        return generate_ensemble(*args, **kwargs)


def assert_same_ensemble(got, want):
    for name in ("values", "jump_flags", "rewards"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
    if want.prefix_means is None:
        assert got.prefix_means is None
    else:
        assert np.array_equal(got.prefix_means.view(np.uint8), want.prefix_means.view(np.uint8))


CROSSOVER = jumpdiff._VECTOR_MIN_PATHS
BASELINE_LAM = 1.2  # jump intensity of the baseline config, lam dt = 0.024 on its grid
SKEWED_GRID = 0.02 * np.cumsum(np.r_[0.0, 0.5, 1.5, np.ones(8), 0.25, 2.0])

# n_paths, intensity, seed, dim, grid, memory coupling
VECTOR_CASES = [
    (CROSSOVER - 1, BASELINE_LAM, 0, 1, "uniform", False),
    (CROSSOVER, BASELINE_LAM, 1, 2, "skewed", True),
    (CROSSOVER + 1, 0.0, 2**63 - 1, 1, "skewed", False),
    (CROSSOVER + 1, BASELINE_LAM, 2**63 - 1, 2, "uniform", True),
    (256, 600.0, 1, 2, "uniform", False),  # lam dt = 12: numpy's rejection sampler
    (256, 25.0, 0, 1, "skewed", True),  # several jumps per path
    (256, 0.0, 2**63 - 1, 2, "uniform", True),
    (5120, BASELINE_LAM, 2**63 - 1, 1, "skewed", False),
    (5120, BASELINE_LAM, 0, 2, "uniform", True),
]


class TestVectorisedNoise:
    """One vectorised noise pass against the per-path loop, bit for bit."""

    @pytest.mark.parametrize("n_paths, lam, seed, dim, grid, memory", VECTOR_CASES)
    def test_ensemble_equals_the_loop(self, monkeypatch, n_paths, lam, seed, dim, grid, memory):
        rng = np.random.default_rng(n_paths + dim)
        grid = unit_grid(12, 0.02) if grid == "uniform" else SKEWED_GRID
        gain = 0.5 * rng.normal(size=(dim, 6)) if memory else None
        params = make_params(d=dim, vol=0.3, lam=lam, memory=gain,
                             jump_mean=np.full(dim, -0.2), jump_scale=np.full(dim, 0.15))
        nmap = random_map(rng, channels=dim + 2) if memory else None
        args = (params, (0.0, np.zeros(dim), None), None, grid, n_paths, seed, CFG)
        got = generate_ensemble(*args, nmap=nmap)
        assert_same_ensemble(got, loop_ensemble(monkeypatch, *args, nmap=nmap))
        assert got.jump_flags.any() == (lam > 0)

    @pytest.mark.parametrize(
        "seed, key", [(0, 0), (12345, 7), (2**63 - 5, 3998), (2**64 - 1, 2**64 - 1), (2**64 - 1, 1)]
    )
    def test_philox_words_equal_random_raw(self, seed, key):
        # five blocks: counters past the first, and keys that wrap as they are bumped
        want = np.random.Philox(key=np.array([seed, key], dtype=np.uint64)).random_raw(20)
        got = jumpdiff._philox_words(seed, np.array([key], dtype=np.uint64), 5)[0]
        assert np.array_equal(got, want)

    def test_check_case_covers_rejections_and_jumps(self):
        seed, n_paths, n_steps, dim, lam_dt = jumpdiff._CHECK_CASE
        ki, wi = jumpdiff._load_tables()
        words = jumpdiff._stream_words(seed, np.arange(n_paths), 0, n_steps * dim)
        _, accepted = jumpdiff._normals(words, ki, wi)
        jumps = [draw_path_noise(seed, i, n_steps, dim, np.array(lam_dt))[1].any()
                 for i in range(n_paths)]
        assert not accepted.all() and accepted.any()
        assert any(jumps) and not all(jumps)
        assert jumpdiff._fast_tables() is not None

    def test_corrupted_table_falls_back_to_the_loop(self, monkeypatch):
        seed, _, n_steps, dim, _ = jumpdiff._CHECK_CASE
        ki, wi = jumpdiff._load_tables()
        # an entry the check reads: that of the first diffusion word of path 0
        first = jumpdiff._stream_words(seed, np.arange(1), 0, 1)[0, 0]
        bad = wi.copy()
        bad[int(first) & 0xFF] *= 1.0 + 2.0**-40
        monkeypatch.setattr(jumpdiff, "_load_tables", lambda: (ki, bad))
        jumpdiff._fast_tables.cache_clear()
        try:
            assert jumpdiff._fast_tables() is None
            params = make_params(vol=0.3, lam=BASELINE_LAM, jump_scale=np.array([0.2, 0.1]))
            args = (params, (0.0, np.zeros(2), None), None, unit_grid(12, 0.02), 256, 3, CFG)
            got = generate_ensemble(*args)
            assert_same_ensemble(got, loop_ensemble(monkeypatch, *args))
        finally:
            jumpdiff._fast_tables.cache_clear()

    def test_missing_or_altered_file_gives_no_tables(self, monkeypatch, tmp_path):
        monkeypatch.setattr(jumpdiff, "__file__", str(tmp_path / "jumpdiff.py"))
        assert jumpdiff._load_tables() is None
        raw = bytearray((Path(siglearn.__file__).parent / jumpdiff._ZIGGURAT_FILE).read_bytes())
        raw[5] ^= 1
        (tmp_path / jumpdiff._ZIGGURAT_FILE).write_bytes(bytes(raw))
        assert jumpdiff._load_tables() is None

import numpy as np
import pytest

from siglearn import signature
from siglearn import tensor_algebra as ta
from siglearn.errors import OrderingError, RangeError
from siglearn.signature import (
    CadlagPath,
    _grid_index,
    SignatureConfig,
    batch_prefix_signatures,
    batch_terminal_signatures,
    chen_step_flat,
    incremental_update,
    new_filtered_proxy,
    path_signature,
    step_factor_flat,
)
from tensor_helpers import level, level_slice

CFG = SignatureConfig(degree=3, time_scale=1.0)
LINEAR = SignatureConfig(degree=3, time_scale=1.0, mode="linear")


def random_path(rng, n_points=8, dim=2, jump_prob=0.3):
    times = np.cumsum(rng.uniform(0.05, 0.3, size=n_points))
    values = np.cumsum(rng.normal(scale=0.4, size=(n_points, dim)), axis=0)
    flags = rng.random(n_points) < jump_prob
    flags[0] = False
    return CadlagPath(times, values, flags)


def segment(dt, dx):
    """Signature of one straight (time, space) segment; dt = 0 is a jump."""
    return chen_step_flat(LINEAR, 2, ta.identity_flat(3, 3), dt, np.asarray(dx, float), False)


def space_signature(values, degree=3):
    """Signature of the piecewise-linear path through values, without time."""
    sig = ta.identity_flat(values.shape[1], degree)
    for dx in np.diff(values, axis=0):
        sig = ta.mul_exp_flat(values.shape[1], degree, sig, dx)
    return sig


def words_with_time(channels, degree):
    """Boolean mask over the flat index: True where the word uses channel 0."""
    mask = [False]  # level 0
    for lvl in range(1, degree + 1):
        for idx in range(channels**lvl):
            digits = []
            v = idx
            for _ in range(lvl):
                digits.append(v % channels)
                v //= channels
            mask.append(0 in digits)
    return np.array(mask)


class TestSegment:
    def test_zero_increment_is_identity(self):
        assert np.array_equal(segment(0.0, np.zeros(2)), ta.identity_flat(3, 3))

    def test_level_one_is_increment(self):
        seg = segment(0.5, [0.2, -0.1])
        assert np.allclose(seg[level_slice(3, 3, 1)], [0.5, 0.2, -0.1], atol=0)

    def test_jump_vs_steep_ramp_sweep(self):
        # Pure-space coordinates agree exactly for every ramp duration; the
        # time-channel coordinates shrink linearly as the ramp steepens.
        dx = np.array([0.7, -0.4])
        jump = segment(0.0, dx)
        timey = words_with_time(3, 3)
        prev_err = None
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            # fine-interpolation oracle: 64 collinear pieces of the ramp
            pieces = ta.identity_flat(3, 3)
            for _ in range(64):
                pieces = ta.product_flat(3, 3, pieces, segment(eps / 64, dx / 64))
            ramp = segment(eps, dx)
            assert np.max(np.abs(pieces - ramp)) < 1e-12
            diff = np.abs(ramp - jump)
            assert np.max(diff[~timey]) < 1e-12
            err = np.max(diff[timey])
            if prev_err is not None:
                assert err < prev_err / 5
            prev_err = err
        assert prev_err < 1e-5


class TestPathSignature:
    def test_constant_path_is_identity_in_space(self):
        assert np.array_equal(space_signature(np.ones((3, 2))), ta.identity_flat(2, 3))

    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    def test_level_one_telescopes(self, mode):
        rng = np.random.default_rng(21)
        cfg = SignatureConfig(degree=3, mode=mode)
        p = random_path(rng)
        sig = path_signature(cfg, p, p.times[0], p.times[-1])
        expected = np.concatenate(
            [[p.times[-1] - p.times[0]], p.values[-1] - p.values[0]]
        )
        assert np.allclose(level(sig, 1), expected, atol=1e-12)

    @pytest.mark.parametrize("mode", ["rectilinear", "linear"])
    def test_chen_identity(self, mode):
        rng = np.random.default_rng(22)
        cfg = SignatureConfig(degree=3, mode=mode)
        for _ in range(200):
            p = random_path(rng, n_points=9)
            for _ in range(5):
                mid = p.times[rng.integers(1, p.n_points - 1)]
                whole = path_signature(cfg, p, p.times[0], p.times[-1])
                left = path_signature(cfg, p, p.times[0], mid)
                right = path_signature(cfg, p, mid, p.times[-1])
                glued = ta.product_flat(3, 3, left.data, right.data)
                assert np.max(np.abs(glued - whole.data)) < 1e-12

    def test_out_of_span_rejected(self):
        rng = np.random.default_rng(23)
        p = random_path(rng)
        with pytest.raises(RangeError):
            path_signature(CFG, p, p.times[0] - 1.0, p.times[-1])

    def test_group_likeness(self):
        rng = np.random.default_rng(24)
        p = random_path(rng)
        sig = path_signature(CFG, p, p.times[0], p.times[-1])
        assert sig.is_group_like()

    def test_reversal_tree_like_without_time(self):
        rng = np.random.default_rng(25)
        fwd = random_path(rng, n_points=6, jump_prob=0.0)
        back_values = fwd.values[::-1][1:]
        times = np.concatenate(
            [fwd.times, fwd.times[-1] + np.cumsum(np.ones(fwd.n_points - 1) * 0.1)]
        )
        values = np.vstack([fwd.values, back_values])
        full = CadlagPath(times, values, np.zeros(times.size, bool))
        sig_nt = space_signature(values)
        assert np.max(np.abs(sig_nt - ta.identity_flat(2, 3))) < 1e-12
        sig_t = path_signature(SignatureConfig(degree=3), full, times[0], times[-1])
        assert np.max(np.abs(sig_t.data - ta.identity(3, 3).data)) > 1e-3

    def test_inverse_is_time_reversed_signature(self):
        # sign-flipped increments in reverse order, time channel excluded
        rng = np.random.default_rng(26)
        p = random_path(rng, n_points=6, jump_prob=0.0)
        sig = space_signature(p.values)
        sig_rev = space_signature(p.values[::-1])
        assert np.max(np.abs(ta.inverse_flat(2, 3, sig) - sig_rev)) < 1e-12

    def test_desk_scale_injectivity(self):
        rng = np.random.default_rng(27)
        sigs = []
        for _ in range(500):
            p = random_path(rng, n_points=5, jump_prob=0.0)
            sigs.append(path_signature(CFG, p, p.times[0], p.times[-1]).data)
        sigs = np.array(sigs)
        nearest = min(
            np.linalg.norm(sigs[i + 1 :] - sigs[i], axis=1).min() for i in range(len(sigs) - 1)
        )
        assert nearest > 1e-8


class TestGridIndex:
    def test_relative_tolerance(self):
        grid = np.array([0.0, 0.1, 0.2, 1000.0])
        assert _grid_index(grid, 0.1 + 5e-10, "on the grid") == 1
        assert _grid_index(grid, 1000.0 - 5e-7, "on the grid") == 3
        for t in (0.1 + 2e-9, 1000.0 + 2e-6, -1.0, 0.15):
            with pytest.raises(RangeError, match=f"time {t} is not on the grid"):
                _grid_index(grid, t, "on the grid")

    def test_path_lookup(self):
        rng = np.random.default_rng(34)
        p = random_path(rng)
        assert p.index_of(p.times[3]) == 3
        with pytest.raises(RangeError, match="observation time of the path"):
            p.index_of(0.5 * (p.times[3] + p.times[4]))


class TestStreaming:
    def test_stream_matches_batch(self):
        rng = np.random.default_rng(28)
        for mode in ("rectilinear", "linear"):
            cfg = SignatureConfig(degree=4, mode=mode, time_scale=2.0)
            p = random_path(rng, n_points=12)
            proxy = new_filtered_proxy(cfg, p.times[0], p.values[0])
            for i in range(1, p.n_points):
                proxy = incremental_update(
                    proxy, p.times[i], p.values[i], p.jump_flags[i]
                )
            batch = path_signature(cfg, p, p.times[0], p.times[-1])
            assert np.max(np.abs(proxy.sig.data - batch.data)) < 1e-10
            assert proxy.anchor_time == p.times[-1]

    def test_repeated_observation_is_noop(self):
        rng = np.random.default_rng(29)
        p = random_path(rng)
        proxy = new_filtered_proxy(CFG, p.times[0], p.values[0])
        proxy = incremental_update(proxy, p.times[1], p.values[1])
        again = incremental_update(proxy, p.times[1], p.values[1])
        assert again is proxy

    def test_single_observation_reproduces_segment(self):
        proxy = new_filtered_proxy(CFG, 0.0, np.zeros(2))
        dx = np.array([0.3, 0.4])
        upd = incremental_update(proxy, 0.25, dx)
        # rectilinear: time factor then space factor
        expected = ta.product_flat(3, 3, segment(0.25, np.zeros(2)), segment(0.0, dx))
        assert np.max(np.abs(upd.sig.data - expected)) < 1e-14

    def test_non_monotone_rejected(self):
        proxy = new_filtered_proxy(CFG, 1.0, np.zeros(2))
        with pytest.raises(OrderingError):
            incremental_update(proxy, 0.5, np.ones(2))


class TestBatched:
    def test_batch_prefix_matches_per_path(self):
        rng = np.random.default_rng(30)
        cfg = SignatureConfig(degree=3, mode="linear", time_scale=1.5)
        n_paths, n_grid, dim = 7, 6, 2
        times = np.linspace(0.0, 1.0, n_grid)
        values = np.cumsum(rng.normal(scale=0.3, size=(n_paths, n_grid, dim)), axis=1)
        flags = rng.random((n_paths, n_grid)) < 0.25
        flags[:, 0] = False
        means, full = batch_prefix_signatures(cfg, times, values, flags, keep_paths=True)
        for j in (1, n_grid - 1):
            per_path = []
            for i in range(n_paths):
                p = CadlagPath(times, values[i], flags[i])
                per_path.append(path_signature(cfg, p, times[0], times[j]).data)
            per_path = np.array(per_path)
            assert np.max(np.abs(full[j] - per_path)) < 1e-12
            assert np.max(np.abs(means[j] - per_path.mean(axis=0))) < 1e-12

    def test_terminal_is_last_prefix_bitwise(self):
        rng = np.random.default_rng(34)
        cfg = SignatureConfig(degree=3, mode="linear", time_scale=1.5)
        times = np.linspace(0.0, 1.0, 5)
        values = np.cumsum(rng.normal(scale=0.3, size=(4, 5, 2)), axis=1)
        flags = rng.random((4, 5)) < 0.3
        flags[:, 0] = False
        _, full = batch_prefix_signatures(cfg, times, values, flags, keep_paths=True)
        terminal = batch_terminal_signatures(cfg, times, values, flags)
        assert np.array_equal(terminal, full[-1])
        no_jumps = np.zeros((4, 1), dtype=bool)
        one_point = batch_terminal_signatures(cfg, times[:1], values[:, :1], no_jumps)
        assert np.array_equal(one_point, full[0])

    @pytest.mark.parametrize("mode", ["linear", "rectilinear"])
    def test_first_flag_is_never_read(self, mode):
        # segments cut from an ensemble start at any point, flagged or not
        rng = np.random.default_rng(35)
        cfg = SignatureConfig(degree=3, mode=mode, time_scale=1.5)
        times = np.linspace(0.0, 1.0, 5)
        values = np.cumsum(rng.normal(scale=0.3, size=(4, 5, 2)), axis=1)
        flags = rng.random((4, 5)) < 0.3
        flags[:, 0] = False
        flipped = flags.copy()
        flipped[:, 0] = True
        means, full = batch_prefix_signatures(cfg, times, values, flags, keep_paths=True)
        f_means, f_full = batch_prefix_signatures(cfg, times, values, flipped, keep_paths=True)
        assert np.array_equal(f_means, means)
        assert np.array_equal(f_full, full)
        assert np.array_equal(
            batch_terminal_signatures(cfg, times, values, flipped),
            batch_terminal_signatures(cfg, times, values, flags),
        )


# (shape, jumps): one path with a scalar dt, a (dim,) increment and a bool
# flag through chen_step_flat, or a batch of paths with no, some or all of
# them jump-flagged through one step of the multi-row scan
STEP_CASES = [
    ("single", "none"),
    ("single", "all"),
    ("batch", "none"),
    ("batch", "some"),
    ("batch", "all"),
]


def chen_columns(cfg, starts, times, values, flags):
    """Prefix signatures (n_grid, n_paths, flat) of the multi-row step from ``starts``.

    ``starts`` (n_paths, flat) are stepped rows-last through ``_chen_columns``,
    one grid step at a time, as the scans step the identity.
    """
    n_paths, n_grid, dim = values.shape
    c, k = cfg.channels(dim), cfg.degree
    st = np.ascontiguousarray(starts.T)
    scratch = signature._column_scratch(c, k, n_paths)
    time_v = np.zeros((c, n_paths))
    space_v = np.zeros((c, n_paths))
    out = np.empty((n_grid,) + starts.shape)
    out[0] = starts
    for j in range(1, n_grid):
        time_v[0] = (times[j] - times[j - 1]) / cfg.time_scale
        space_v[1:] = (values[:, j] - values[:, j - 1]).T
        signature._chen_columns(c, k, cfg.mode == "linear", st, time_v, space_v,
                                flags[:, j], scratch)
        out[j] = st.T
    return out


def scan_step(cfg, sig, dt, dx, jumped):
    """(n_paths, flat) rows of one multi-row step by ``dx`` from the signature ``sig``."""
    values = np.zeros((dx.shape[0], 2, dx.shape[1]))
    values[:, 1] = dx
    flags = np.zeros((dx.shape[0], 2), dtype=bool)
    flags[:, 1] = jumped
    starts = np.tile(sig, (dx.shape[0], 1))
    return chen_columns(cfg, starts, np.array([0.0, dt]), values, flags)[-1]


class TestFusedStep:
    @pytest.mark.parametrize("degree", [1, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", ["linear", "rectilinear"])
    @pytest.mark.parametrize("shape, jumps", STEP_CASES)
    def test_matches_product_with_step_factor(self, shape, jumps, mode, dim, degree):
        rng = np.random.default_rng(33)
        n_paths = 9
        cfg = SignatureConfig(degree=degree, time_scale=1.5, mode=mode)
        n_flat = ta.flat_size(cfg.channels(dim), degree)
        dt = 0.3
        sig = rng.uniform(-1.0, 1.0, size=n_flat)
        if shape == "single":
            dx = rng.uniform(-1.0, 1.0, size=dim)
            jumped = jumps == "all"
            got = chen_step_flat(cfg, dim, sig, dt, dx, jumped)
        else:
            dx = rng.uniform(-1.0, 1.0, size=(n_paths, dim))
            jumped = {
                "none": np.zeros(n_paths, bool),
                "some": np.arange(n_paths) % 3 == 1,
                "all": np.ones(n_paths, bool),
            }[jumps]
            got = scan_step(cfg, sig, dt, dx, jumped)
        c = cfg.channels(dim)
        want = ta.product_flat(c, degree, sig, step_factor_flat(cfg, dim, dt, dx, jumped))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14


def per_path_scan(cfg, times, values, flags, start=None):
    """Prefix signatures (n_grid, n_paths, flat) by one-row chen_step_flat calls.

    Each path starts from the flat signature ``start``, the identity if None.
    """
    n_paths, n_grid, dim = values.shape
    c = cfg.channels(dim)
    if start is None:
        start = ta.identity_flat(c, cfg.degree)
    out = np.empty((n_grid, n_paths, start.size))
    for i in range(n_paths):
        sig = start
        out[0, i] = sig
        for j in range(1, n_grid):
            sig = chen_step_flat(cfg, dim, sig, times[j] - times[j - 1],
                                 values[i, j] - values[i, j - 1], bool(flags[i, j]))
            out[j, i] = sig
    return out


class TestColumnBlocks:
    """Scans in column blocks against a per-path loop of one-row steps, bit for bit."""

    BLOCK = 4

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # scratch for BLOCK columns at (channels, degree) = (3, 3)
        monkeypatch.setattr(signature, "_SCRATCH_BYTES", 16 * 3**3 * self.BLOCK)

    @pytest.mark.parametrize("mode", ["linear", "rectilinear"])
    @pytest.mark.parametrize("n_paths", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_scans_equal_the_per_path_loop(self, mode, n_paths):
        rng = np.random.default_rng(40 + n_paths)
        cfg = SignatureConfig(degree=3, time_scale=1.5, mode=mode)
        times = np.cumsum(rng.uniform(0.05, 0.3, size=7))
        values = np.cumsum(rng.normal(scale=0.4, size=(n_paths, 7, 2)), axis=1)
        flags = np.zeros((n_paths, 7), dtype=bool)
        # jumps in the first and the last column of each block, and in between
        for lo in range(0, n_paths, self.BLOCK):
            flags[lo, 1::2] = True
            flags[min(lo + self.BLOCK, n_paths) - 1, 2::2] = True
        flags[:, 3] = True
        want = per_path_scan(cfg, times, values, flags)
        means, full = batch_prefix_signatures(cfg, times, values, flags, keep_paths=True)
        assert np.array_equal(full.view(np.uint8), want.view(np.uint8))
        assert np.array_equal(means.view(np.uint8), want.mean(axis=1).view(np.uint8))
        alone = batch_prefix_signatures(cfg, times, values, flags)
        assert np.array_equal(alone.view(np.uint8), means.view(np.uint8))
        terminal = batch_terminal_signatures(cfg, times, values, flags)
        assert np.array_equal(terminal.view(np.uint8), want[-1].view(np.uint8))
        # the multi-row step from a group-like signature, in column blocks
        start = ta.identity_flat(3, 3)
        for v in rng.normal(scale=0.5, size=(2, 3)):
            start = ta.mul_exp_flat(3, 3, start, v)
        want = per_path_scan(cfg, times, values, flags, start=start)
        got = chen_columns(cfg, np.tile(start, (n_paths, 1)), times, values, flags)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

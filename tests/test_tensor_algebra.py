from functools import partial

import numpy as np
import pytest

from siglearn import tensor_algebra as ta
from siglearn.errors import ConfigError, DomainError, ShapeMismatchError
import tensor_helpers as th
from tensor_helpers import graded_inner, level, zero


def random_lie_like(rng, channels=2, degree=3, scale=0.5):
    v = np.zeros(ta.flat_size(channels, degree))
    v[1:] = rng.normal(scale=scale, size=v.size - 1)
    return v


def random_group_like(rng, channels=2, degree=3, scale=0.5):
    return ta.exp_flat(channels, degree, random_lie_like(rng, channels, degree, scale))


def level_one(channels, degree, vec):
    t = np.zeros(ta.flat_size(channels, degree))
    t[1 : 1 + channels] = vec
    return t


class TestShapes:
    def test_identity_levels_c2_k2(self):
        t = ta.identity(2, 2)
        assert level(t, 0).tolist() == [1.0]
        assert level(t, 1).tolist() == [0.0, 0.0]
        assert level(t, 2).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_flat_size_c5_k4_is_781(self):
        assert ta.flat_size(5, 4) == 781

    def test_block_sizes(self):
        assert ta.level_sizes(3, 3) == (1, 3, 9, 27)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigError):
            ta.identity(0, 2)
        with pytest.raises(ConfigError):
            ta.identity(2, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ta.TruncTensor(3, 2, ta.identity_flat(2, 2))


class TestProduct:
    def test_unit_laws(self):
        rng = np.random.default_rng(0)
        g = random_group_like(rng)
        one = ta.identity_flat(2, 3)
        assert np.allclose(ta.product_flat(2, 3, one, g), g, atol=0)
        assert np.allclose(ta.product_flat(2, 3, g, one), g, atol=0)

    def test_one_parameter_subgroup(self):
        rng = np.random.default_rng(1)
        v = random_lie_like(rng)
        g = ta.product_flat(2, 3, ta.exp_flat(2, 3, v), ta.exp_flat(2, 3, -v))
        assert np.max(np.abs(g - ta.identity_flat(2, 3))) < 1e-14

    @pytest.mark.parametrize("channels,degree", [(2, 3), (3, 4), (5, 2)])
    def test_associativity(self, channels, degree):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = random_lie_like(rng, channels, degree)
            b = random_lie_like(rng, channels, degree)
            c = random_lie_like(rng, channels, degree)
            lhs = ta.product_flat(channels, degree, ta.product_flat(channels, degree, a, b), c)
            rhs = ta.product_flat(channels, degree, a, ta.product_flat(channels, degree, b, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_group_like_closed_under_product(self):
        rng = np.random.default_rng(2)
        g = random_group_like(rng)
        h = random_group_like(rng)
        assert ta.TruncTensor(2, 3, ta.product_flat(2, 3, g, h)).is_group_like()


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(ta.exp_flat(2, 3, zero(2, 3).data), ta.identity_flat(2, 3))

    def test_exp_level2_is_half_square(self):
        v = ta.TruncTensor(2, 2, level_one(2, 2, [0.3, -0.7]))
        e = ta.TruncTensor(2, 2, ta.exp_flat(2, 2, v.data))
        expected = 0.5 * np.outer(level(v, 1), level(v, 1)).ravel()
        assert np.allclose(level(e, 2), expected, atol=1e-15)

    def test_log_identity_is_zero(self):
        assert np.allclose(ta.log_flat(2, 3, ta.identity_flat(2, 3)), 0.0, atol=0)

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_lie_like(rng, scale=0.4)
            back = ta.log_flat(2, 3, ta.exp_flat(2, 3, x))
            assert np.max(np.abs(back - x)) < 1e-12
            g = random_group_like(rng, scale=0.3)
            fwd = ta.exp_flat(2, 3, ta.log_flat(2, 3, g))
            assert np.max(np.abs(fwd - g)) < 1e-12


class TestInverse:
    def test_inverse_identity(self):
        one = ta.identity_flat(2, 3)
        assert np.array_equal(ta.inverse_flat(2, 3, one), one)

    def test_inverse_of_exp(self):
        rng = np.random.default_rng(3)
        v = random_lie_like(rng)
        lhs = ta.inverse_flat(2, 3, ta.exp_flat(2, 3, v))
        rhs = ta.exp_flat(2, 3, -v)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_inverse_exact(self):
        rng = np.random.default_rng(4)
        one = ta.identity_flat(2, 4)
        for _ in range(100):
            g = random_group_like(rng, degree=4, scale=0.6)
            gi = ta.inverse_flat(2, 4, g)
            left = ta.product_flat(2, 4, g, gi)
            right = ta.product_flat(2, 4, gi, g)
            assert np.max(np.abs(left - one)) < 1e-12
            assert np.max(np.abs(right - one)) < 1e-12


class TestInner:
    def test_zero_inner(self):
        rng = np.random.default_rng(5)
        g = ta.TruncTensor(2, 3, random_group_like(rng))
        assert graded_inner(g, zero(2, 3)) == 0.0

    def test_identity_self_inner_unit_weights(self):
        one = ta.identity(2, 3)
        assert graded_inner(one, one) == 1.0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(6)
        w = ta.factorial_level_weights(3)
        for _ in range(200):
            a = ta.TruncTensor(2, 3, random_lie_like(rng))
            b = ta.TruncTensor(2, 3, random_lie_like(rng))
            ab = graded_inner(a, b, w)
            na = np.sqrt(graded_inner(a, a, w))
            nb = np.sqrt(graded_inner(b, b, w))
            assert abs(ab) <= na * nb + 1e-12

    def test_bad_weights(self):
        one = ta.identity(2, 2)
        with pytest.raises(ShapeMismatchError):
            graded_inner(one, one, [1.0, 1.0])
        with pytest.raises(DomainError):
            graded_inner(one, one, [1.0, 0.0, 1.0])


class TestPullbacks:
    # dot-product tests <g, Df[h]> = <pullback(g), h>, with Df[h] taken by
    # central differences; the dims include degree 1 and one channel
    DIMS = [(1, 3), (2, 3), (3, 4), (3, 1)]

    @staticmethod
    def central(f, x, h, eps=1e-6):
        return (f(x + eps * h) - f(x - eps * h)) / (2 * eps)

    @pytest.mark.parametrize("c,k", DIMS)
    def test_product_pullback_both_factors(self, c, k):
        rng = np.random.default_rng(31)
        n = ta.flat_size(c, k)
        a, b, g, ha, hb = (rng.normal(size=n) for _ in range(5))
        ga, gb = ta.product_pullback_flat(c, k, a, b, g)
        da = self.central(lambda x: ta.product_flat(c, k, x, b), a, ha)
        db = self.central(lambda x: ta.product_flat(c, k, a, x), b, hb)
        assert g @ da == pytest.approx(ga @ ha, rel=1e-8)
        assert g @ db == pytest.approx(gb @ hb, rel=1e-8)

    @pytest.mark.parametrize("c,k", DIMS)
    def test_exp_pullback(self, c, k):
        rng = np.random.default_rng(32)
        x = random_lie_like(rng, c, k, scale=0.3)
        h = random_lie_like(rng, c, k, scale=1.0)
        g = rng.normal(size=x.size)
        gx = ta.exp_pullback_flat(c, k, x, g)
        dx = self.central(lambda y: ta.exp_flat(c, k, y), x, h)
        assert g @ dx == pytest.approx(gx @ h, rel=1e-8)
        assert gx[0] == 0.0

    def test_batched_rows_match_single_rows(self):
        # cotangent rows against one point, and rows of points
        rng = np.random.default_rng(33)
        c, k = 3, 4
        n = ta.flat_size(c, k)
        a, b = rng.normal(size=(2, 5, n))
        x = 0.3 * rng.normal(size=n)
        g = rng.normal(size=(5, n))
        ga, gb = ta.product_pullback_flat(c, k, a[0], b, g)
        gx = ta.exp_pullback_flat(c, k, x, g)
        assert ga.shape == gb.shape == gx.shape == (5, n)
        for r in range(5):
            one_a, one_b = ta.product_pullback_flat(c, k, a[0], b[r], g[r])
            assert_same_bits(ga[r], one_a)
            assert_same_bits(gb[r], one_b)
            assert_same_bits(gx[r], ta.exp_pullback_flat(c, k, x, g[r]))


class TestBatchedEngine:
    def test_batched_product_matches_loop(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(5, ta.flat_size(2, 3)))
        B = rng.normal(size=(5, ta.flat_size(2, 3)))
        batched = ta.product_flat(2, 3, A, B)
        for i in range(5):
            single = ta.product_flat(2, 3, A[i], B[i])
            assert np.allclose(batched[i], single, atol=0)

    def test_batched_exp_inverse(self):
        rng = np.random.default_rng(14)
        X = rng.normal(scale=0.4, size=(4, ta.flat_size(2, 3)))
        X[:, 0] = 0.0
        G = ta.exp_flat(2, 3, X)
        Ginv = ta.inverse_flat(2, 3, G)
        prod = ta.product_flat(2, 3, G, Ginv)
        assert np.max(np.abs(prod - ta.identity_flat(2, 3))) < 1e-12


def mul_exp_columns(c, k, a, v, scratch=False):
    """a (x) exp(v) by the rows-last Horner kernel, broadcasting leading axes.

    The rows are stepped as the columns of one (flat, rows) array, writing
    into Horner scratch for them, or, without ``scratch``, into new arrays.
    """
    batch = np.broadcast_shapes(a.shape[:-1], v.shape[:-1])
    at, vt = (np.broadcast_to(x, batch + x.shape[-1:]).reshape(-1, x.shape[-1]).T.copy()
              for x in (a, v))
    ta._mul_exp_t(c, k, at, vt, ta._horner_scratch(c, k, at.shape[1]) if scratch else None)
    return at.T.reshape(batch + a.shape[-1:])


# kernel, its level-loop reference, and the last-axis width of each operand
KERNELS = {
    "product": (ta.product_flat, th.product_ref, ("flat", "flat")),
    "exp": (ta.exp_flat, th.exp_ref, ("flat",)),
    "log": (ta.log_flat, th.log_ref, ("flat",)),
    "inverse": (ta.inverse_flat, th.inverse_ref, ("flat",)),
    "mul_exp": (mul_exp_columns, th.mul_exp_ref, ("flat", "channels")),
    "mul_exp_scratch": (partial(mul_exp_columns, scratch=True), th.mul_exp_ref,
                        ("flat", "channels")),
}
DIMS = [(1, 5), (2, 3), (3, 4), (4, 2), (5, 1)]


def batch_shapes(flat: int) -> dict[str, tuple[tuple, tuple]]:
    """Leading shapes of the two product factors; the series take the first."""
    block = max(1, ta._BLOCK_BYTES // (8 * (flat + 1)))
    return {
        "()": ((), ()),
        "(0,)": ((0,), (0,)),
        "(1,)": ((1,), (1,)),
        "(13,)": ((13,), (13,)),
        "block": ((block,), (block,)),
        "block+1": ((block + 1,), (block + 1,)),
        "(300,)": ((300,), (300,)),
        "(F,)x(5,F)": ((), (5,)),
        "(4,1,F)x(3,F)": ((4, 1), (3,)),
    }


def assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def operand_widths(name, c, k):
    return [{"flat": ta.flat_size(c, k), "channels": c}[w] for w in KERNELS[name][2]]


def check_against_level_loop(name, c, k, args):
    fast, ref, _ = KERNELS[name]
    before = [x.copy() for x in args]
    got = fast(c, k, *args)
    for x, x0 in zip(args, before):
        assert np.array_equal(x.view(np.uint64), x0.view(np.uint64))
    assert_same_bits(got, ref(c, k, *args))


class TestLevelLoopOracle:
    """The rows-last kernels against their level-loop reference forms, bit for bit."""

    @pytest.mark.parametrize("case", list(batch_shapes(1)))
    @pytest.mark.parametrize("c,k", DIMS)
    @pytest.mark.parametrize("name", KERNELS)
    def test_batch_shapes(self, name, c, k, case):
        widths = operand_widths(name, c, k)
        shapes = batch_shapes(ta.flat_size(c, k))[case]
        rng = np.random.default_rng(17)
        args = [rng.normal(scale=0.5, size=s + (w,)) for s, w in zip(shapes, widths)]
        check_against_level_loop(name, c, k, args)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("variant", ["strided", "signed_zero", "non_finite"])
    @pytest.mark.parametrize("c,k", DIMS)
    @pytest.mark.parametrize("name", KERNELS)
    def test_special_inputs(self, name, c, k, variant):
        rng = np.random.default_rng(18)
        # 13 rows taken across rows, then one row with leading shapes () and
        # (1,) taken along its entries; the views are strided
        layouts = [
            (lambda w: (13, 3, w), np.s_[:, 1, :]),
            (lambda w: (w, 3), np.s_[:, 1]),
            (lambda w: (1, w, 3), np.s_[..., 1]),
        ]
        for shape, view in layouts:
            args = []
            for w in operand_widths(name, c, k):
                flats = rng.normal(scale=0.5, size=shape(w))
                if variant == "signed_zero":
                    flats[rng.random(flats.shape) < 0.3] = -0.0
                    flats[rng.random(flats.shape) < 0.2] = 0.0
                elif variant == "non_finite":
                    for v in (np.inf, -np.inf, np.nan):
                        flats[rng.random(flats.shape) < 0.03] = v
                x = flats[view]
                args.append(x if variant == "strided" else np.ascontiguousarray(x))
            check_against_level_loop(name, c, k, args)


class TestMulExp:
    @pytest.mark.parametrize("degree", [1, 3, 4])
    @pytest.mark.parametrize(
        "a_shape, v_shape", [((), ()), ((6,), (6,)), ((6,), ()), ((), (6,)), ((2, 3), (3,))]
    )
    def test_matches_product_with_exp(self, degree, a_shape, v_shape):
        rng = np.random.default_rng(16)
        c = 3
        a = rng.uniform(-1.0, 1.0, size=a_shape + (ta.flat_size(c, degree),))
        v = rng.uniform(-1.0, 1.0, size=v_shape + (c,))
        x = np.zeros(v_shape + (ta.flat_size(c, degree),))
        x[..., 1 : 1 + c] = v
        want = ta.product_flat(c, degree, a, ta.exp_flat(c, degree, x))
        got = mul_exp_columns(c, degree, a, v)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_leaves_inputs_unchanged(self):
        # the kernel writes only a, whether its quotients go to scratch or not
        v = np.array([[0.5], [-0.25]])
        for scratch in (None, ta._horner_scratch(2, 3, 1)):
            at = ta.identity_flat(2, 3)[:, None].copy()
            ta._mul_exp_t(2, 3, at, v, scratch)
            assert not np.array_equal(at[:, 0], ta.identity_flat(2, 3))
            assert v.tolist() == [[0.5], [-0.25]]



def with_levels(c, k, x, fills):
    """A copy of x whose level j is set to fills[j] wherever fills has j."""
    offs = ta.level_offsets(c, k)
    x = np.array(x)
    for j, fill in fills.items():
        x[..., offs[j] : offs[j + 1]] = fill
    return x


class TestExpSkip:
    """exp_flat ignores x's scalar part and skips the zero levels of x, bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scalar", [5.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("rows", [(), (13,)])
    @pytest.mark.parametrize("c,k", DIMS)
    def test_scalar_part_is_ignored(self, c, k, rows, scalar):
        rng = np.random.default_rng(19)
        x = with_levels(c, k, rng.normal(scale=0.5, size=rows + (ta.flat_size(c, k),)), {0: 0.0})
        want = ta.exp_flat(c, k, x)
        got = ta.exp_flat(c, k, with_levels(c, k, x, {0: scalar}))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_one_leaves_level_one(self):
        x = level_one(2, 3, [0.3, -0.7])
        x[0] = 1.0
        assert level(ta.TruncTensor(2, 3, ta.exp_flat(2, 3, x)), 1).tolist() == [0.3, -0.7]

    @pytest.mark.parametrize("fill", [0.0, -0.0])
    @pytest.mark.parametrize("top", [1, 2])
    @pytest.mark.parametrize("rows", [(), (1,), (13,), (300,)])
    @pytest.mark.parametrize("c,k", DIMS)
    def test_levels_above_top_are_zero(self, c, k, rows, top, fill):
        rng = np.random.default_rng(20)
        x = rng.normal(scale=0.5, size=rows + (ta.flat_size(c, k),))
        x = with_levels(c, k, x, {j: fill for j in range(top + 1, k + 1)})
        check_against_level_loop("exp", c, k, [x])

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("c,k", DIMS)
    def test_signed_zero_levels_anywhere(self, c, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.5, size=(13, ta.flat_size(c, k)))
        fills = {j: rng.choice([0.0, -0.0]) for j in range(k + 1) if rng.random() < 0.5}
        check_against_level_loop("exp", c, k, [with_levels(c, k, x, fills)])

    @pytest.mark.parametrize("c,k", DIMS)
    def test_zero_level_in_some_rows_of_a_block(self, c, k):
        flat = ta.flat_size(c, k)
        block = max(1, ta._BLOCK_BYTES // (8 * (flat + 1)))
        rng = np.random.default_rng(21)
        x = with_levels(c, k, rng.normal(scale=0.5, size=(3 * block, flat)),
                        {j: 0.0 for j in range(2, k + 1)})
        dense = rng.normal(scale=0.5, size=x.shape)
        # block 0 keeps its zero levels; in block 1 one row fills them, in block 2 every other row
        x[block + 5] = dense[block + 5]
        x[2 * block :: 2] = dense[2 * block :: 2]
        check_against_level_loop("exp", c, k, [x])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [(), (13,)])
    @pytest.mark.parametrize("c,k", DIMS)
    def test_overflowing_series(self, c, k, rows):
        # level-1 entries near 1e100 overflow the higher terms; where an
        # infinite term meets a zero level of x the level loop makes NaN
        rng = np.random.default_rng(22)
        x = rng.choice([-1.0, 1.0], size=rows + (ta.flat_size(c, k),))
        x *= 1e100 * rng.uniform(0.5, 2.0, size=x.shape)
        x = with_levels(c, k, x, {j: 0.0 for j in range(2, k + 1)})
        check_against_level_loop("exp", c, k, [x])
        if k >= 5:
            assert np.isnan(th.exp_ref(c, k, x)).any()

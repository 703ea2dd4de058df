import numpy as np
import pytest

from siglearn import tensor_algebra as ta
from siglearn.errors import ConfigError, DomainError, ShapeMismatchError


def random_group_like(rng, channels=2, degree=3, scale=0.5):
    v = ta.zero(channels, degree)
    v.data[1:] = rng.normal(scale=scale, size=v.data.size - 1)
    return ta.trunc_exp(v)


def random_lie_like(rng, channels=2, degree=3, scale=0.5):
    v = ta.zero(channels, degree)
    v.data[1:] = rng.normal(scale=scale, size=v.data.size - 1)
    return v


def level_one(channels, degree, vec):
    t = ta.zero(channels, degree)
    t.data[1 : 1 + channels] = vec
    return t


class TestShapes:
    def test_identity_levels_c2_k2(self):
        t = ta.identity(2, 2)
        assert t.level(0).tolist() == [1.0]
        assert t.level(1).tolist() == [0.0, 0.0]
        assert t.level(2).tolist() == [0.0, 0.0, 0.0, 0.0]

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
            ta.trunc_product(ta.identity(2, 2), ta.identity(3, 2))


class TestProduct:
    def test_unit_laws(self):
        rng = np.random.default_rng(0)
        g = random_group_like(rng)
        one = ta.identity(2, 3)
        assert np.allclose(ta.trunc_product(one, g).data, g.data, atol=0)
        assert np.allclose(ta.trunc_product(g, one).data, g.data, atol=0)

    def test_one_parameter_subgroup(self):
        rng = np.random.default_rng(1)
        v = random_lie_like(rng)
        g = ta.trunc_product(ta.trunc_exp(v), ta.trunc_exp(ta.scale(v, -1.0)))
        assert np.max(np.abs(g.data - ta.identity(2, 3).data)) < 1e-14

    @pytest.mark.parametrize("channels,degree", [(2, 3), (3, 4), (5, 2)])
    def test_associativity(self, channels, degree):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = random_lie_like(rng, channels, degree)
            b = random_lie_like(rng, channels, degree)
            c = random_lie_like(rng, channels, degree)
            lhs = ta.trunc_product(ta.trunc_product(a, b), c)
            rhs = ta.trunc_product(a, ta.trunc_product(b, c))
            assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12

    def test_group_like_closed_under_product(self):
        rng = np.random.default_rng(2)
        g = random_group_like(rng)
        h = random_group_like(rng)
        assert ta.trunc_product(g, h).is_group_like()


class TestExpLog:
    def test_exp_zero_is_identity(self):
        z = ta.zero(2, 3)
        assert np.array_equal(ta.trunc_exp(z).data, ta.identity(2, 3).data)

    def test_exp_level2_is_half_square(self):
        v = level_one(2, 2, [0.3, -0.7])
        e = ta.trunc_exp(v)
        expected = 0.5 * np.outer(v.level(1), v.level(1)).ravel()
        assert np.allclose(e.level(2), expected, atol=1e-15)

    def test_log_identity_is_zero(self):
        assert np.allclose(ta.trunc_log(ta.identity(2, 3)).data, 0.0, atol=0)

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_lie_like(rng, scale=0.4)
            back = ta.trunc_log(ta.trunc_exp(x))
            assert np.max(np.abs(back.data - x.data)) < 1e-12
            g = random_group_like(rng, scale=0.3)
            fwd = ta.trunc_exp(ta.trunc_log(g))
            assert np.max(np.abs(fwd.data - g.data)) < 1e-12

    def test_domain_errors(self):
        g = ta.identity(2, 2)
        with pytest.raises(DomainError):
            ta.trunc_exp(g)
        z = ta.zero(2, 2)
        with pytest.raises(DomainError):
            ta.trunc_log(z)


class TestInverse:
    def test_inverse_identity(self):
        one = ta.identity(2, 3)
        assert np.array_equal(ta.group_inverse(one).data, one.data)

    def test_inverse_of_exp(self):
        rng = np.random.default_rng(3)
        v = random_lie_like(rng)
        lhs = ta.group_inverse(ta.trunc_exp(v))
        rhs = ta.trunc_exp(ta.scale(v, -1.0))
        assert np.max(np.abs(lhs.data - rhs.data)) < 1e-13

    def test_inverse_exact(self):
        rng = np.random.default_rng(4)
        one = ta.identity(2, 4)
        for _ in range(100):
            g = random_group_like(rng, degree=4, scale=0.6)
            gi = ta.group_inverse(g)
            left = ta.trunc_product(g, gi)
            right = ta.trunc_product(gi, g)
            assert np.max(np.abs(left.data - one.data)) < 1e-12
            assert np.max(np.abs(right.data - one.data)) < 1e-12


class TestInner:
    def test_zero_inner(self):
        rng = np.random.default_rng(5)
        g = random_group_like(rng)
        assert ta.graded_inner(g, ta.zero(2, 3)) == 0.0

    def test_identity_self_inner_unit_weights(self):
        one = ta.identity(2, 3)
        assert ta.graded_inner(one, one) == 1.0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(6)
        w = ta.factorial_level_weights(3)
        for _ in range(200):
            a = random_lie_like(rng)
            b = random_lie_like(rng)
            ab = ta.graded_inner(a, b, w)
            na = np.sqrt(ta.graded_inner(a, a, w))
            nb = np.sqrt(ta.graded_inner(b, b, w))
            assert abs(ab) <= na * nb + 1e-12

    def test_bad_weights(self):
        one = ta.identity(2, 2)
        with pytest.raises(ShapeMismatchError):
            ta.graded_inner(one, one, [1.0, 1.0])
        with pytest.raises(DomainError):
            ta.graded_inner(one, one, [1.0, 0.0, 1.0])


class TestExpTangent:
    def test_exp_tangent_matches_fd(self):
        rng = np.random.default_rng(11)
        x = random_lie_like(rng, 2, 3, scale=0.3)
        h = random_lie_like(rng, 2, 3, scale=1.0)
        eps = 1e-6
        fd = (
            ta.exp_flat(2, 3, x.data + eps * h.data)
            - ta.exp_flat(2, 3, x.data - eps * h.data)
        ) / (2 * eps)
        assert np.max(np.abs(ta.exp_tangent_flat(2, 3, x.data, h.data) - fd)) < 1e-8

    def test_batched_rows_match_single_rows(self):
        rng = np.random.default_rng(12)
        x = random_lie_like(rng, 3, 4, scale=0.3)
        dx = np.array([random_lie_like(rng, 3, 4).data for _ in range(5)])
        batched = ta.exp_tangent_flat(3, 4, x.data, dx)
        assert batched.shape == dx.shape
        for row, h in zip(batched, dx):
            assert np.array_equal(row, ta.exp_tangent_flat(3, 4, x.data, h))


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
        got = ta.mul_exp_flat(c, degree, a, v)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_leaves_inputs_unchanged(self):
        a = ta.identity_flat(2, 3)
        v = np.array([0.5, -0.25])
        ta.mul_exp_flat(2, 3, a, v)
        assert np.array_equal(a, ta.identity_flat(2, 3))
        assert v.tolist() == [0.5, -0.25]


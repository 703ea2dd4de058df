from statistics import correlation

import numpy as np
import pytest

from siglearn import kernelspace as ks
from siglearn import tensor_algebra as ta
from siglearn.errors import DomainError, InsufficientDataError
from siglearn.signature import CadlagPath, SignatureConfig, path_signature
from tensor_helpers import graded_inner, zero


def random_group_like(rng, channels=2, degree=3, scale=0.5):
    v = zero(channels, degree)
    v.data[1:] = rng.normal(scale=scale, size=v.data.size - 1)
    return ta.TruncTensor(channels, degree, ta.exp_flat(channels, degree, v.data))


def make_map(rng, n_landmarks=12, channels=2, degree=3, ridge=None):
    lms = np.array([random_group_like(rng, channels, degree).data for _ in range(n_landmarks)])
    return ks.build_nystrom(lms, channels, degree, ridge=ridge)


class TestKernel:
    def test_identity_self_kernel(self):
        one = ta.identity(2, 3)
        assert graded_inner(one, one) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = random_group_like(rng)
            b = random_group_like(rng)
            assert graded_inner(a, b) == pytest.approx(graded_inner(b, a), abs=0)

    def test_gram_psd(self):
        rng = np.random.default_rng(1)
        elems = [random_group_like(rng) for _ in range(50)]
        gram = np.array([[graded_inner(a, b) for b in elems] for a in elems])
        evals = np.linalg.eigvalsh(gram)
        assert evals.min() >= -1e-10


class TestNystrom:
    def test_scalar_case(self):
        rng = np.random.default_rng(2)
        zeta = random_group_like(rng)
        kappa = graded_inner(zeta, zeta)
        nmap = ks.build_nystrom(zeta.data[None], 2, 3, ridge=1e-12)
        feat = ks.compress(nmap, zeta)
        assert feat.shape == (1,)
        assert feat[0] == pytest.approx(np.sqrt(kappa), rel=1e-6)

    def test_whitener_identity(self):
        rng = np.random.default_rng(3)
        nmap = make_map(rng)
        cw = ta.coefficient_weights(2, 3, nmap.level_weights)
        gram = (nmap.landmarks * cw) @ nmap.landmarks.T
        ident = nmap.whitener @ (gram + nmap.ridge * np.eye(nmap.n_landmarks)) @ nmap.whitener
        assert np.max(np.abs(ident - np.eye(nmap.n_landmarks))) < 1e-8

    def test_compress_linear(self):
        rng = np.random.default_rng(4)
        nmap = make_map(rng)
        a = random_group_like(rng)
        b = random_group_like(rng)
        lhs = ks.compress(nmap, ta.TruncTensor(2, 3, a.data + b.data))
        rhs = ks.compress(nmap, a) + ks.compress(nmap, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_compress_zero(self):
        rng = np.random.default_rng(5)
        nmap = make_map(rng)
        assert np.array_equal(ks.compress(nmap, zero(2, 3)), np.zeros(nmap.n_landmarks))

    def test_duplicate_landmarks_warn_not_fail(self):
        rng = np.random.default_rng(6)
        zeta = random_group_like(rng)
        # the duplicate leaves one ridged eigenvalue at the ridge itself
        with pytest.warns(RuntimeWarning, match=r"rank 2 of 3 .* 2 of 3 ridged eigenvalues "
                          r"reach 10x the ridge and the smallest is 1\.00x the ridge"):
            nmap = ks.build_nystrom(
                np.array([zeta.data, zeta.data, random_group_like(rng).data]), 2, 3
            )
        assert np.all(np.isfinite(nmap.matrix))

    def test_no_landmarks_rejected(self):
        with pytest.raises(DomainError, match="need at least one landmark"):
            ks.build_nystrom(np.empty((0, ta.flat_size(2, 3))), 2, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_distance_preservation(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng, n_landmarks=40, ridge=1e-10)
        elems = [random_group_like(rng) for _ in range(100)]
        feats = np.array([ks.compress(nmap, g) for g in elems])
        raw, comp = [], []
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                diff = ta.TruncTensor(2, 3, elems[i].data - elems[j].data)
                raw.append(np.sqrt(graded_inner(diff, diff)))
                comp.append(np.linalg.norm(feats[i] - feats[j]))
        # Spearman's rho: the Pearson correlation of the ranks (the
        # distances are continuous, so no ties)
        rho = correlation(*(np.argsort(np.argsort(d)).tolist() for d in (raw, comp)))
        assert rho > 0.95


class TestWhitenedMetric:
    def test_isotropic_near_identity(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(4000, 4))
        metric = ks.fit_whitening(feats, lam=1e-9)
        # unit-covariance sample, tiny ridge: precision close to identity
        assert np.max(np.abs(metric.precision - np.eye(4))) < 0.1

    def test_whitened_covariance_eigenvalues(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(6, 6))
        feats = rng.normal(size=(1000, 6)) @ A.T
        metric = ks.fit_whitening(feats, lam=1e-10)
        white = metric.whiten(feats)
        evals = np.linalg.eigvalsh(np.cov(white, rowvar=False))
        assert evals.min() > 0.8 and evals.max() < 1.2

    def test_zero_lambda_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DomainError):
            ks.fit_whitening(rng.normal(size=(10, 2)), lam=0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            ks.fit_whitening(np.ones((1, 3)), lam=0.1)

    def test_q_distance_is_the_norm_and_scale_free(self):
        # rescaling a feature and refitting leaves the Mahalanobis distance
        # unchanged up to the ridge; d^T P d is not scale-free
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(200, 3))
        u, v = rng.normal(size=(2, 3))
        scale = np.array([1.0, 10.0, 100.0])
        base = ks.fit_whitening(feats, lam=1e-4)
        metric = ks.fit_whitening(feats * scale, lam=1e-4)
        for m, a, b in ((base, u, v), (metric, u * scale, v * scale)):
            assert ks.q_distance(m, a, b) == m.norm(a - b)
        assert ks.q_distance(metric, u * scale, v * scale) == pytest.approx(
            ks.q_distance(base, u, v), rel=1e-3
        )

    def test_q_distance_metric_axioms(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(200, 5))
        metric = ks.fit_whitening(feats, lam=1e-3)
        u = rng.normal(size=5)
        assert ks.q_distance(metric, u, u) == 0.0
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 5))
            dab = ks.q_distance(metric, a, b)
            dbc = ks.q_distance(metric, b, c)
            dac = ks.q_distance(metric, a, c)
            assert dac <= dab + dbc + 1e-12
            assert dab == pytest.approx(ks.q_distance(metric, b, a), abs=0)
        alpha = -2.5
        dv = ks.q_distance(metric, alpha * u, alpha * np.zeros(5))
        assert dv == pytest.approx(abs(alpha) * ks.q_distance(metric, u, np.zeros(5)), rel=1e-12)


class TestJumpStressBounding:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_self_fitted_whitening_caps_jump_growth(self):
        # Per-regime fitted metrics keep whitened norms stable while raw
        # signature norms explode under a x10 jump-size stress.
        rng = np.random.default_rng(13)
        cfg = SignatureConfig(degree=4)

        def regime_signatures(jump_size, n=200):
            sigs = []
            for _ in range(n):
                times = np.array([0.0, 0.4, 0.5, 1.0])
                slow = rng.normal(scale=0.05, size=(4, 1)).cumsum(axis=0)
                jump = np.zeros((4, 1))
                jump[2:] += jump_size * rng.normal(loc=1.0, scale=0.3)
                flags = np.array([False, False, True, False])
                p = CadlagPath(times, slow + jump, flags)
                sigs.append(path_signature(cfg, p, 0.0, 1.0).data)
            return np.array(sigs)

        base = regime_signatures(1.0)
        stressed = regime_signatures(10.0)

        landmarks = base[rng.choice(len(base), size=24, replace=False)]
        nmap = ks.build_nystrom(landmarks, channels=2, degree=4)

        feats_base = ks.compress_flat(nmap, base)
        feats_str = ks.compress_flat(nmap, stressed)
        m_base = ks.fit_whitening(feats_base, lam=1e-8)
        m_str = ks.fit_whitening(feats_str, lam=1e-8)

        raw_base = np.linalg.norm(base, axis=1).max()
        raw_str = np.linalg.norm(stressed, axis=1).max()
        white_base = np.linalg.norm(m_base.whiten(feats_base), axis=1).max()
        white_str = np.linalg.norm(m_str.whiten(feats_str), axis=1).max()

        assert raw_str / raw_base > 10.0
        assert white_str / white_base < 2.0

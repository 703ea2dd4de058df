"""Nystrom landmark compression of signatures, and the whitening metric.

Every distance used elsewhere in the package runs through the compressed
coordinates produced here: ``compress`` maps a truncated tensor to the
whitened kernel features against a fixed landmark set, and
:class:`WhitenedMetric` supplies the whitening operator fitted on a feature
sample, whose one norm is |P x|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from . import tensor_algebra as ta
from .errors import DomainError, InsufficientDataError, ShapeMismatchError

__all__ = [
    "NystromMap",
    "WhitenedMetric",
    "build_nystrom",
    "default_ridge",
    "compress",
    "compress_flat",
    "fit_whitening",
    "fit_metric_family",
    "q_distance",
]

@dataclass(frozen=True)
class NystromMap:
    """Landmark set plus whitener giving compressed signature coordinates.

    ``landmarks`` is the (M, flat) matrix of landmark tensors, ``whitener`` is
    the symmetric matrix (K_MM + ridge I)^(-1/2).  ``matrix`` is the
    precomputed (M, flat) linear map so that compress(g) = matrix @ flat(g).
    """

    channels: int
    degree: int
    landmarks: np.ndarray
    whitener: np.ndarray
    ridge: float
    level_weights: np.ndarray
    matrix: np.ndarray

    @property
    def n_landmarks(self) -> int:
        return self.landmarks.shape[0]


def default_ridge(gram: np.ndarray) -> float:
    return 1e-6 * float(np.trace(gram)) / gram.shape[0]


def build_nystrom(
    landmarks: npt.ArrayLike,
    channels: int,
    degree: int,
    ridge: float | None = None,
    level_weights=None,
) -> NystromMap:
    """Whitened landmark feature map from signatures of path segments.

    ``landmarks`` is the (M, flat) array of flat landmark signatures.  The
    whitener is the inverse square root of the ridge-regularized landmark
    Gram matrix, computed by symmetric eigendecomposition.
    """
    Z = np.ascontiguousarray(landmarks, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != ta.flat_size(channels, degree):
        raise ShapeMismatchError(f"landmark matrix has shape {Z.shape}")
    if Z.shape[0] == 0:
        raise DomainError("need at least one landmark")

    w = (
        ta.unit_level_weights(degree)
        if level_weights is None
        else np.asarray(level_weights, dtype=float)
    )
    cw = ta.coefficient_weights(channels, degree, w)
    gram = (Z * cw) @ Z.T
    if ridge is None:
        ridge = default_ridge(gram)
    if ridge <= 0:
        raise DomainError("ridge must be positive")

    m = Z.shape[0]
    evals, evecs = np.linalg.eigh(gram + ridge * np.eye(m))
    if evals[0] < 10.0 * ridge and m > 1:
        # numerical rank of the Gram, at the tolerance of np.linalg.matrix_rank
        rank = int(np.sum(evals - ridge > m * np.finfo(float).eps * evals[-1]))
        warnings.warn(
            f"landmark Gram matrix has rank {rank} of {m} and is nearly singular beyond the "
            f"ridge: {int(np.sum(evals >= 10.0 * ridge))} of {m} ridged eigenvalues reach "
            f"10x the ridge and the smallest is {evals[0] / ridge:.2f}x the ridge; "
            "duplicate or collinear landmarks degrade conditioning",
            RuntimeWarning,
        )
    whitener = (evecs / np.sqrt(evals)) @ evecs.T
    matrix = whitener @ (Z * cw)
    return NystromMap(
        channels=channels,
        degree=degree,
        landmarks=Z,
        whitener=whitener,
        ridge=float(ridge),
        level_weights=w,
        matrix=matrix,
    )


def compress(nmap: NystromMap, g: ta.TruncTensor) -> np.ndarray:
    """Whitened kernel features of g against the landmarks; linear in g."""
    if g.channels != nmap.channels or g.degree != nmap.degree:
        raise ShapeMismatchError(
            f"tensor (c={g.channels}, k={g.degree}) does not match map "
            f"(c={nmap.channels}, k={nmap.degree})"
        )
    return nmap.matrix @ g.data


def compress_flat(nmap: NystromMap, flats: npt.ArrayLike) -> np.ndarray:
    """Batched compression of flat arrays with shape (..., flat)."""
    flats = np.asarray(flats, dtype=float)
    if flats.shape[-1] != nmap.matrix.shape[1]:
        raise ShapeMismatchError(
            f"flat length {flats.shape[-1]} does not match map ({nmap.matrix.shape[1]})"
        )
    return flats @ nmap.matrix.T


@dataclass(frozen=True)
class WhitenedMetric:
    """Whitening operator P = (sample covariance S + ridge I)^(-1/2) on features.

    ``precision`` is P.  The package reads it through one quadratic form:
    ``norm`` is |P x|, whose square x^T (S + ridge I)^(-1) x is the
    Mahalanobis norm, invariant up to the ridge to rescaling a feature.
    """

    precision: np.ndarray

    @property
    def dim(self) -> int:
        return self.precision.shape[0]

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Map features so the fitting sample has near-identity covariance."""
        return np.asarray(x, dtype=float) @ self.precision.T

    def norm(self, x: np.ndarray) -> float:
        """Euclidean norm |P x| of the whitened features: the Mahalanobis norm."""
        return float(np.linalg.norm(self.whiten(x)))


def fit_whitening(features: np.ndarray, lam: float) -> WhitenedMetric:
    """Fit the whitening metric on an (n, m) feature sample."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 2:
        raise InsufficientDataError(
            f"need an (n >= 2, m) feature matrix, got shape {features.shape}"
        )
    if lam <= 0:
        raise DomainError("ridge lambda must be positive")
    cov = np.cov(features, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    m = cov.shape[0]
    evals, evecs = np.linalg.eigh(cov + lam * np.eye(m))
    precision = (evecs / np.sqrt(evals)) @ evecs.T
    return WhitenedMetric(precision=precision)


def fit_metric_family(features_per_point, lam: float) -> list[WhitenedMetric]:
    """One metric per evaluation gridpoint, fitted on that point's features."""
    return [fit_whitening(f, lam) for f in features_per_point]


def q_distance(metric: WhitenedMetric, u: np.ndarray, v: np.ndarray) -> float:
    """Mahalanobis distance ``metric.norm(u - v)`` = |P (u - v)|."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape != (metric.dim,):
        raise ShapeMismatchError(
            f"vectors {u.shape}, {v.shape} do not match metric dim {metric.dim}"
        )
    return metric.norm(u - v)

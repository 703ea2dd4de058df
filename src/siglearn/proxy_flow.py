"""Deterministic flow of the anticipated path-law proxy on the signature group.

The proxy starts at the group identity at the junction and evolves by
left-invariant log-ODE steps: each step multiplies by the exponential of a
Lie-like tangent produced by a small affine generator.  The generator reads
the leading compressed coordinates of the current proxy, a polynomial basis
in the normalized phase u = (s - t)/(T - t), and the compressed junction
history; its level-1 time coordinate is pinned to the clock rate so the time
channel always integrates the horizon exactly.

Training matches the generator tangent to the expected infinitesimal
signature increment of a stochastic ensemble (score matching) plus a terminal
self-consistency penalty tying the flow endpoint to the ensemble's empirical
mean signature.  Gradients are central finite differences over the (small)
weight matrix, batched through the flow integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor_algebra as ta
from .errors import DivergenceError, DomainError, RangeError, ShapeMismatchError
from .jumpdiff import PathEnsemble, prefix_mean_signatures
from .kernelspace import NystromMap, WhitenedMetric, compress, compress_flat
from .signature import step_factor_flat

__all__ = [
    "GeneratorParams",
    "ProxyTrajectory",
    "TrainConfig",
    "TrainResult",
    "new_generator",
    "flow_step",
    "integrate_flow",
    "nested_residual",
    "empirical_trajectory",
    "step_targets",
    "score_matching_loss",
    "scf_loss",
    "train_generator",
]


@dataclass(frozen=True)
class GeneratorParams:
    """Affine generator mapping flow features to a Lie-like tangent.

    ``weights`` has shape (out_dim, n_features) where out_dim covers the
    coefficients of levels 1..lie_degree and the feature vector is
    [proxy feats (p), u, u^2, ..., u^q, junction feats (p), 1].  The level-1
    time coordinate of the output is pinned to ``clock_rate`` (weights for
    that row exist but are never read).
    """

    channels: int
    degree: int
    lie_degree: int
    n_proxy_features: int
    phase_powers: int
    clock_rate: float | None
    weights: np.ndarray

    def __post_init__(self):
        if not 1 <= self.lie_degree <= self.degree:
            raise DomainError("lie_degree must lie in [1, degree]")
        W = np.ascontiguousarray(self.weights, dtype=float)
        if W.shape != (self.out_dim, self.n_features):
            raise ShapeMismatchError(
                f"weights must be {(self.out_dim, self.n_features)}, got {W.shape}"
            )
        if not np.all(np.isfinite(W)):
            raise DomainError("generator weights must be finite")
        object.__setattr__(self, "weights", W)

    @property
    def out_dim(self) -> int:
        return ta.level_offsets(self.channels, self.degree)[self.lie_degree + 1] - 1

    @property
    def n_features(self) -> int:
        return 2 * self.n_proxy_features + self.phase_powers + 1

    @property
    def n_params(self) -> int:
        return self.out_dim * self.n_features

    def theta(self) -> np.ndarray:
        return self.weights.ravel().copy()

    def with_theta(self, theta: np.ndarray) -> "GeneratorParams":
        return replace(self, weights=np.asarray(theta, dtype=float).reshape(self.weights.shape))

    def features(
        self, proxy_feats: np.ndarray, u: float | np.ndarray, junction_feats: np.ndarray
    ) -> np.ndarray:
        """Feature rows for proxy features (..., p); ``u`` is a phase or a column of them."""
        p, q = self.n_proxy_features, self.phase_powers
        out = np.empty(proxy_feats.shape[:-1] + (self.n_features,))
        out[..., :p] = proxy_feats[..., :p]
        out[..., p : p + q] = u ** np.arange(1, q + 1)
        out[..., p + q : 2 * p + q] = junction_feats[..., :p]
        out[..., -1] = 1.0
        return out

    def tangent_flat(self, feats: np.ndarray, weight_rows: np.ndarray | None = None) -> np.ndarray:
        """Lie-like flat tangent(s); ``weight_rows`` (B, P) batches over weights."""
        n_flat = ta.flat_size(self.channels, self.degree)
        if weight_rows is None:
            out = feats @ self.weights.T
        else:
            W = weight_rows.reshape(-1, self.out_dim, self.n_features)
            out = np.einsum("bof,bf->bo", W, np.atleast_2d(feats))
        flat = np.zeros(out.shape[:-1] + (n_flat,))
        flat[..., 1 : 1 + self.out_dim] = out
        if self.clock_rate is not None:
            flat[..., 1] = self.clock_rate
        return flat


def new_generator(
    channels: int,
    degree: int,
    lie_degree: int = 2,
    n_proxy_features: int = 6,
    phase_powers: int = 3,
    clock_rate: float | None = None,
    seed: int | None = None,
    init_scale: float = 0.0,
) -> GeneratorParams:
    """Fresh generator; zero weights unless an init scale and seed are given."""
    out_dim = ta.level_offsets(channels, degree)[lie_degree + 1] - 1
    n_features = 2 * n_proxy_features + phase_powers + 1
    if init_scale > 0.0:
        rng = np.random.default_rng(seed)
        W = init_scale * rng.standard_normal((out_dim, n_features))
    else:
        W = np.zeros((out_dim, n_features))
    return GeneratorParams(
        channels=channels,
        degree=degree,
        lie_degree=lie_degree,
        n_proxy_features=n_proxy_features,
        phase_powers=phase_powers,
        clock_rate=clock_rate,
        weights=W,
    )


@dataclass
class ProxyTrajectory:
    """Group-like proxy per gridpoint; element 0 is the identity exactly."""

    channels: int
    degree: int
    grid: np.ndarray
    flats: np.ndarray
    nmap: NystromMap | None = None
    tangents: np.ndarray | None = None
    _residual_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.flats = np.asarray(self.flats, dtype=float)
        if self.flats.shape != (self.grid.size, ta.flat_size(self.channels, self.degree)):
            raise ShapeMismatchError("trajectory flats do not match grid and tensor shape")

    @property
    def junction_time(self) -> float:
        return float(self.grid[0])

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def n_grid(self) -> int:
        return self.grid.size

    def index_of(self, s: float) -> int:
        i = int(np.searchsorted(self.grid, s))
        for cand in (i - 1, i, i + 1):
            if 0 <= cand < self.grid.size and abs(self.grid[cand] - s) <= 1e-9 * max(
                1.0, abs(s)
            ):
                return cand
        raise RangeError(f"s={s} is not a gridpoint of the trajectory")

    def element(self, s: float) -> ta.TruncTensor:
        return ta.TruncTensor(self.channels, self.degree, self.flats[self.index_of(s)].copy())

    def terminal(self) -> ta.TruncTensor:
        return ta.TruncTensor(self.channels, self.degree, self.flats[-1].copy())

    def residual_flats(self) -> np.ndarray:
        """Flat nested residuals inverse(proxy_s) (x) proxy_T for every s.

        The row at s = T is the identity exactly, so values there do not
        depend on the flow at all, not even through rounding.
        """
        if self._residual_cache is None:
            inv = ta.inverse_flat(self.channels, self.degree, self.flats)
            res = ta.product_flat(self.channels, self.degree, inv, self.flats[-1])
            res[-1] = ta.identity_flat(self.channels, self.degree)
            self._residual_cache = res
        return self._residual_cache

    def residual_features(self) -> np.ndarray:
        """Compressed nested residuals, shape (n_grid, m)."""
        if self.nmap is None:
            raise DomainError("trajectory has no compression map attached")
        return compress_flat(self.nmap, self.residual_flats())


def flow_step(phi: ta.TruncTensor, ell: ta.TruncTensor, ds: float) -> ta.TruncTensor:
    """One log-ODE step phi (x) exp(ds * ell); stays on the group exactly."""
    if ds <= 0:
        raise DomainError(f"ds must be positive, got {ds}")
    if not phi.is_group_like():
        raise DomainError("flow state must be group-like")
    if not ell.is_lie_like():
        raise DomainError("flow tangent must have zero scalar part")
    return ta.trunc_product(phi, ta.trunc_exp(ta.scale(ell, ds)))


def _junction_feats(gen: GeneratorParams, nmap: NystromMap, junction) -> np.ndarray:
    if junction is None:
        return np.zeros(gen.n_proxy_features)
    if isinstance(junction, ta.TruncTensor):
        return compress(nmap, junction)[: gen.n_proxy_features]
    return np.asarray(junction, dtype=float)[: gen.n_proxy_features]


def _integrate_batch(
    gen: GeneratorParams,
    weight_rows: np.ndarray,
    nmap: NystromMap,
    junction,
    grid: np.ndarray,
    left_context: np.ndarray | None = None,
    phase_span: tuple[float, float] | None = None,
):
    """Integrate B weight vectors in parallel; returns flats and tangents.

    ``flats`` has shape (n_grid, B, flat); ``tangents`` (n_grid - 1, B, flat).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing with >= 2 points")
    c, k = gen.channels, gen.degree
    B = weight_rows.shape[0]
    n_flat = ta.flat_size(c, k)
    t, T = phase_span if phase_span is not None else (grid[0], grid[-1])
    if gen.n_proxy_features > nmap.n_landmarks:
        raise DomainError(
            f"generator reads {gen.n_proxy_features} proxy features but the "
            f"map has only {nmap.n_landmarks} landmarks"
        )

    jfeats = _junction_feats(gen, nmap, junction)
    proxy_rows = nmap.matrix[: gen.n_proxy_features]

    flats = np.empty((grid.size, B, n_flat))
    tangents = np.empty((grid.size - 1, B, n_flat))
    state = np.tile(ta.identity_flat(c, k), (B, 1))
    flats[0] = state
    for j in range(grid.size - 1):
        observed = state
        if left_context is not None:
            observed = ta.product_flat(c, k, left_context[None, :], state)
        feats = gen.features(observed @ proxy_rows.T, (grid[j] - t) / (T - t), jfeats)
        ell = gen.tangent_flat(feats, weight_rows=weight_rows)
        tangents[j] = ell
        ds = grid[j + 1] - grid[j]
        state = ta.product_flat(c, k, state, ta.exp_flat(c, k, ds * ell))
        if not np.all(np.isfinite(state)):
            raise DivergenceError(
                "flow state left the finite range",
                context={"gridpoint": j + 1, "time": float(grid[j + 1])},
            )
        flats[j + 1] = state
    return flats, tangents


def integrate_flow(
    gen: GeneratorParams,
    nmap: NystromMap,
    junction,
    grid: np.ndarray,
    left_context: ta.TruncTensor | None = None,
    phase_span: tuple[float, float] | None = None,
) -> ProxyTrajectory:
    """Iterated flow steps from the identity along the grid.

    ``junction`` is the filtered history proxy (tensor, compressed vector, or
    None for an empty history).  With ``left_context`` set, the generator
    features are computed on context (x) state, so a re-anchored continuation
    (with ``phase_span`` kept from the original run) composes exactly with
    the segment it continues.
    """
    ctx = None if left_context is None else left_context.data
    flats, tangents = _integrate_batch(
        gen, gen.theta()[None, :], nmap, junction, grid,
        left_context=ctx, phase_span=phase_span,
    )
    return ProxyTrajectory(
        channels=gen.channels,
        degree=gen.degree,
        grid=np.asarray(grid, dtype=float),
        flats=flats[:, 0],
        nmap=nmap,
        tangents=tangents[:, 0],
    )


def nested_residual(traj: ProxyTrajectory, s: float) -> ta.TruncTensor:
    """inverse(proxy_s) (x) proxy_T, the re-centered law over [s, T]."""
    i = traj.index_of(s)
    return ta.TruncTensor(traj.channels, traj.degree, traj.residual_flats()[i].copy())


def empirical_trajectory(ens: PathEnsemble, nmap: NystromMap) -> ProxyTrajectory:
    """Trajectory of empirical mean future-segment signatures of an ensemble."""
    means = prefix_mean_signatures(ens)
    c = ens.sig_config.channels(ens.values.shape[2])
    return ProxyTrajectory(
        channels=c,
        degree=ens.sig_config.degree,
        grid=ens.times,
        flats=means,
        nmap=nmap,
    )


# ---------------------------------------------------------------------------
# losses


def step_targets(ens: PathEnsemble) -> np.ndarray:
    """Score-matching targets log(mean one-step signature factor) / ds."""
    cfg = ens.sig_config
    d_sig = ens.values.shape[2]
    c = cfg.channels(d_sig)
    n_steps = ens.n_grid - 1
    targets = np.empty((n_steps, ta.flat_size(c, cfg.degree)))
    for j in range(n_steps):
        ds = ens.times[j + 1] - ens.times[j]
        factors = step_factor_flat(
            cfg,
            d_sig,
            ds,
            ens.values[:, j + 1] - ens.values[:, j],
            ens.jump_flags[:, j + 1],
        )
        targets[j] = ta.log_flat(c, cfg.degree, factors.mean(axis=0)) / ds
    return targets


def _metric_at(metrics, j: int) -> WhitenedMetric:
    if isinstance(metrics, WhitenedMetric):
        return metrics
    return metrics[j]


def _sq_qnorm(metric: WhitenedMetric, diff: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", diff, metric.precision, diff)


def score_matching_loss(
    gen: GeneratorParams,
    ens: PathEnsemble,
    nmap: NystromMap,
    metrics,
    targets: np.ndarray | None = None,
) -> float:
    """Mean squared Q-distance between flow tangents and ensemble targets."""
    if ens.n_paths < 1:
        raise DomainError("need a non-empty ensemble")
    traj = integrate_flow(gen, nmap, _ens_junction(ens), ens.times)
    if targets is None:
        targets = step_targets(ens)
    total = 0.0
    for j in range(targets.shape[0]):
        diff = compress_flat(nmap, traj.tangents[j] - targets[j])
        total += float(_sq_qnorm(_metric_at(metrics, j), diff))
    return total / targets.shape[0]


def scf_loss(
    traj: ProxyTrajectory,
    sbar: ta.TruncTensor,
    nmap: NystromMap,
    metric: WhitenedMetric,
    eta: float = 0.1,
) -> float:
    """Terminal self-consistency penalty eta * ||sbar - proxy_T||_Q^2."""
    diff = compress(nmap, sbar) - compress_flat(nmap, traj.flats[-1])
    return eta * float(_sq_qnorm(metric, diff))


def _ens_junction(ens: PathEnsemble):
    if ens.junction_proxy is None:
        return None
    c = ens.sig_config.channels(ens.values.shape[2])
    return ta.TruncTensor(c, ens.sig_config.degree, ens.junction_proxy.copy())


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 120
    lr: float = 0.05
    fd_step: float = 1e-5
    eta_scf: float = 0.1
    contraction_reg: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # deadband: below this gradient norm the point counts as stationary and
    # no step is taken (Adam would otherwise rescale noise up to lr size)
    grad_tol: float = 1e-9


@dataclass
class TrainResult:
    params: GeneratorParams
    trace: list[dict]

    @property
    def final(self) -> dict:
        return self.trace[-1]


def _ensemble_cache(ens: PathEnsemble, nmap: NystromMap):
    means = prefix_mean_signatures(ens)
    return {
        "junction": _ens_junction(ens),
        "targets": step_targets(ens),
        "prefix_feats": compress_flat(nmap, means),
        "grid": ens.times,
    }


def _loss_rows(gen, weight_rows, nmap, metrics, cache, cfg: TrainConfig):
    """Total loss per weight row, plus the components of row 0."""
    flats, tangents = _integrate_batch(
        gen, weight_rows, nmap, cache["junction"], cache["grid"]
    )
    n_steps = tangents.shape[0]
    score = np.zeros(weight_rows.shape[0])
    for j in range(n_steps):
        diff = compress_flat(nmap, tangents[j] - cache["targets"][j][None, :])
        score += _sq_qnorm(_metric_at(metrics, j), diff)
    score /= n_steps

    term_metric = _metric_at(metrics, n_steps)
    diff_T = compress_flat(nmap, flats[-1]) - cache["prefix_feats"][-1][None, :]
    scf = cfg.eta_scf * _sq_qnorm(term_metric, diff_T)

    reg = np.zeros(weight_rows.shape[0])
    if cfg.contraction_reg > 0.0:
        # late-horizon tracking penalty: pulls the flow back onto the
        # ensemble law as the horizon closes, damping accumulated drift
        u = (cache["grid"] - cache["grid"][0]) / (cache["grid"][-1] - cache["grid"][0])
        for j in range(1, n_steps + 1):
            w = u[j] ** 2
            diff = compress_flat(nmap, flats[j]) - cache["prefix_feats"][j][None, :]
            reg += w * _sq_qnorm(_metric_at(metrics, j), diff)
        reg *= cfg.contraction_reg / n_steps
    return score + scf + reg, {"score": score[0], "scf": scf[0], "reg": reg[0]}


def train_generator(
    gen: GeneratorParams,
    ensembles,
    nmap: NystromMap,
    metrics,
    cfg: TrainConfig | None = None,
) -> TrainResult:
    """Adam descent on score matching + self-consistency, FD gradients.

    ``ensembles`` is one PathEnsemble or a sequence; losses are averaged.
    The gradient of every loss evaluation is a central finite difference over
    the generator weights, batched through the flow integrator.
    """
    cfg = cfg or TrainConfig()
    if isinstance(ensembles, PathEnsemble):
        ensembles = [ensembles]
    if not ensembles:
        raise DomainError("need at least one ensemble")
    caches = [_ensemble_cache(e, nmap) for e in ensembles]

    theta = gen.theta()
    P = theta.size
    m = np.zeros(P)
    v = np.zeros(P)
    trace: list[dict] = []
    for step in range(1, cfg.steps + 1):
        rows = np.tile(theta, (2 * P + 1, 1))
        for i in range(P):
            rows[1 + 2 * i, i] += cfg.fd_step
            rows[2 + 2 * i, i] -= cfg.fd_step
        total = np.zeros(2 * P + 1)
        parts = {"score": 0.0, "scf": 0.0, "reg": 0.0}
        for cache in caches:
            t_rows, p0 = _loss_rows(gen, rows, nmap, metrics, cache, cfg)
            total += t_rows
            for key in parts:
                parts[key] += p0[key]
        total /= len(caches)
        for key in parts:
            parts[key] /= len(caches)
        if not np.all(np.isfinite(total)):
            raise DivergenceError(
                "training loss left the finite range",
                context={"step": step, "trace": trace},
            )
        grad = (total[1::2] - total[2::2]) / (2 * cfg.fd_step)

        if np.max(np.abs(grad)) < cfg.grad_tol:
            update = np.zeros(P)
        else:
            m = cfg.beta1 * m + (1 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1 - cfg.beta2) * grad**2
            mhat = m / (1 - cfg.beta1**step)
            vhat = v / (1 - cfg.beta2**step)
            update = cfg.lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            theta = theta - update
        trace.append(
            {
                "step": step,
                "total": float(total[0]),
                "score": float(parts["score"]),
                "scf": float(parts["scf"]),
                "reg": float(parts["reg"]),
                "grad_norm": float(np.linalg.norm(grad)),
                "update_max": float(np.max(np.abs(update))),
            }
        )
    return TrainResult(params=gen.with_theta(theta), trace=trace)

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
mean signature.  Gradients are exact: forward-mode tangents of the flow in
the generator weights, one row per weight, carried through the integrator's
own log-ODE steps.  The greeks read the same recursion.
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

    def tangent_flat(self, feats: np.ndarray) -> np.ndarray:
        """Lie-like flat tangent(s) for feature rows (..., n_features)."""
        out = feats @ self.weights.T
        flat = np.zeros(out.shape[:-1] + (ta.flat_size(self.channels, self.degree),))
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
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing with >= 2 points")
    if gen.n_proxy_features > nmap.n_landmarks:
        raise DomainError(
            f"generator reads {gen.n_proxy_features} proxy features but the "
            f"map has only {nmap.n_landmarks} landmarks"
        )
    c, k = gen.channels, gen.degree
    t, T = phase_span if phase_span is not None else (grid[0], grid[-1])
    jfeats = _junction_feats(gen, nmap, junction)
    proxy_rows = nmap.matrix[: gen.n_proxy_features]

    flats = np.empty((grid.size, ta.flat_size(c, k)))
    tangents = np.empty((grid.size - 1, flats.shape[1]))
    flats[0] = ta.identity_flat(c, k)
    for j in range(grid.size - 1):
        observed = flats[j]
        if left_context is not None:
            observed = ta.product_flat(c, k, left_context.data, observed)
        feats = gen.features(observed @ proxy_rows.T, (grid[j] - t) / (T - t), jfeats)
        tangents[j] = gen.tangent_flat(feats)
        ds = grid[j + 1] - grid[j]
        flats[j + 1] = ta.product_flat(c, k, flats[j], ta.exp_flat(c, k, ds * tangents[j]))
        if not np.all(np.isfinite(flats[j + 1])):
            raise DivergenceError(
                "flow state left the finite range",
                context={"gridpoint": j + 1, "time": float(grid[j + 1])},
            )
    return ProxyTrajectory(
        channels=c, degree=k, grid=grid, flats=flats, nmap=nmap, tangents=tangents
    )


def _flow_tangents(gen: GeneratorParams, nmap: NystromMap, junction, grid: np.ndarray):
    """One flow plus its exact derivatives in the generator weights.

    Returns the trajectory, J with J[j] = d(proxy_j)/d(theta) of shape
    (n_grid, P, flat), and d_ell with d_ell[j] = d(generator output_j)/d(theta)
    of shape (n_grid - 1, P, out_dim).  J is carried through every log-ODE
    step phi (x) exp(x) as J <- J (x) exp(x) + phi (x) dexp_x[dx].
    """
    c, k = gen.channels, gen.degree
    p = gen.n_proxy_features
    traj = integrate_flow(gen, nmap, junction, grid)
    grid, flats = traj.grid, traj.flats
    ds = np.diff(grid)
    x = ds[:, None] * traj.tangents
    exp_x = ta.exp_flat(c, k, x)
    proxy_rows = nmap.matrix[:p]
    u = (grid[:-1] - grid[0]) / (grid[-1] - grid[0])
    feats = gen.features(
        flats[:-1] @ proxy_rows.T, u[:, None], _junction_feats(gen, nmap, junction)
    )
    eye = np.eye(gen.out_dim)

    J = np.zeros((grid.size, gen.n_params, flats.shape[1]))
    d_ell = np.empty((grid.size - 1, gen.n_params, gen.out_dim))
    for j in range(grid.size - 1):
        # weight r * n_features + f feeds output coordinate r with feature f,
        # plus the feedback of the state through the proxy features
        d_ell[j] = np.kron(eye, feats[j][:, None]) + (J[j] @ proxy_rows.T) @ gen.weights[:, :p].T
        if gen.clock_rate is not None:
            d_ell[j, :, 0] = 0.0  # pinned clock coordinate reads no weights
        dx = np.zeros_like(J[j])
        dx[:, 1 : 1 + gen.out_dim] = ds[j] * d_ell[j]
        J[j + 1] = ta.product_flat(c, k, J[j], exp_x[j]) + ta.product_flat(
            c, k, flats[j], ta.exp_tangent_flat(c, k, x[j], dx)
        )
    return traj, J, d_ell


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
    eta_scf: float = 0.1
    contraction_reg: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # deadband: below this gradient size the point counts as stationary and
    # no step is taken.  At an exact optimum the gradient is roundoff
    # (1.3e-17 on a matched generator), and Adam's normalisation would turn
    # it into steps of 6.6e-11, then 3.5e-4, then 3.2e-2.
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


def _objective(gen, nmap, metrics, caches, cfg: TrainConfig):
    """Loss components averaged over the ensembles, and the exact gradient.

    Every term is a Q-norm d^T Q d of a compressed difference that is linear
    in the generator output or in the flow, so its gradient is
    2 (dd/dtheta)^T Q d, with Q d shared by loss and gradient.
    """
    parts = {"score": 0.0, "scf": 0.0, "reg": 0.0}
    grad = np.zeros(gen.n_params)
    C = nmap.matrix
    C_ell = C[:, 1 : 1 + gen.out_dim]
    w_ens = 1.0 / len(caches)
    for cache in caches:
        traj, J, d_ell = _flow_tangents(gen, nmap, cache["junction"], cache["grid"])
        n_steps = d_ell.shape[0]
        wt = w_ens / n_steps
        for j in range(n_steps):
            d = compress_flat(nmap, traj.tangents[j] - cache["targets"][j])
            Qd = _metric_at(metrics, j).precision @ d
            parts["score"] += wt * (d @ Qd)
            grad += 2.0 * wt * (d_ell[j] @ (C_ell.T @ Qd))

        # tracking terms: Q-distance of the flow at gridpoint j from the
        # ensemble mean there
        tracked = [("scf", n_steps, cfg.eta_scf)]
        if cfg.contraction_reg > 0.0:
            # late-horizon tracking penalty: pulls the flow back onto the
            # ensemble law as the horizon closes, damping accumulated drift
            grid = cache["grid"]
            u = (grid - grid[0]) / (grid[-1] - grid[0])
            tracked += [
                ("reg", j, cfg.contraction_reg * u[j] ** 2 / n_steps)
                for j in range(1, n_steps + 1)
            ]
        for key, j, weight in tracked:
            e = compress_flat(nmap, traj.flats[j]) - cache["prefix_feats"][j]
            Qe = _metric_at(metrics, j).precision @ e
            wt = w_ens * weight
            parts[key] += wt * (e @ Qe)
            grad += 2.0 * wt * (J[j] @ (C.T @ Qe))
    return parts, grad


def train_generator(
    gen: GeneratorParams,
    ensembles,
    nmap: NystromMap,
    metrics,
    cfg: TrainConfig | None = None,
) -> TrainResult:
    """Adam descent on score matching + self-consistency, exact gradients.

    ``ensembles`` is one PathEnsemble or a sequence; losses and gradients are
    averaged.  Each ensemble costs one flow and its forward-mode tangents
    per step.
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
        parts, grad = _objective(gen.with_theta(theta), nmap, metrics, caches, cfg)
        total = parts["score"] + parts["scf"] + parts["reg"]
        if not (np.isfinite(total) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                "training loss left the finite range",
                context={"step": step, "trace": trace},
            )

        if np.max(np.abs(grad)) < cfg.grad_tol:
            update = np.zeros(P)
        else:
            m = cfg.beta1 * m + (1 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1 - cfg.beta2) * grad**2
            mhat = m / (1 - cfg.beta1**step)
            vhat = v / (1 - cfg.beta2**step)
            update = cfg.lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            theta = theta - update
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(
                    "generator weights left the finite range",
                    context={"step": step, "trace": trace},
                )
        trace.append(
            {
                "step": step,
                "total": float(total),
                "score": float(parts["score"]),
                "scf": float(parts["scf"]),
                "reg": float(parts["reg"]),
                "grad_norm": float(np.linalg.norm(grad)),
                "update_max": float(np.max(np.abs(update))),
            }
        )
    return TrainResult(params=gen.with_theta(theta), trace=trace)

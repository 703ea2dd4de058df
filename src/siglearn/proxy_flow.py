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
self-consistency penalty tying the flow endpoint to the ensemble's law (its
mean-signature trajectory, which the caller hands in), under one whitening
metric per gridpoint.  One loss pass (``_loss_terms``) gives the loss parts
and their cotangents, which training and ``score_matching_loss`` read.
The trajectory ``integrate_flow`` returns is the one record of a flow: its
states, its tangents and the generator features of each step.  Training,
the greeks and the forecast check read that record rather than integrate
the flow again.  One step loop integrates one flow, or many weight settings
at once, one flow per row, for the finite-difference oracle.  It holds the
states rows-last and padded, the operand of the kernels of
``tensor_algebra``, whose exponential series and product it calls
directly, bit for bit the steps product_flat(phi, exp_flat(ds * ell)).
Gradients are exact, by one discrete adjoint (reverse mode) over the
record: a loss or a value is a linear read of the states and tangents, and
its cotangent walks back through the same log-ODE steps, one row per
scalar, whatever the number of weights.  The adjoint reads the recorded
features, so it is the adjoint of the computation that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor_algebra as ta
from .errors import DivergenceError, DomainError, ShapeMismatchError
from .jumpdiff import PathEnsemble, prefix_mean_signatures
from .kernelspace import NystromMap, WhitenedMetric, compress, compress_flat
from .signature import _grid_index, step_factor_flat

__all__ = [
    "GeneratorParams",
    "ProxyTrajectory",
    "TrainConfig",
    "TrainResult",
    "new_generator",
    "integrate_flow",
    "empirical_trajectory",
    "step_targets",
    "score_matching_loss",
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
    """Group-like proxy per gridpoint; element 0 is the identity exactly.

    ``flats`` is (n_grid, flat), or (R, n_grid, flat) for R flows integrated
    at once; ``residual_flats`` follows that leading axis.  A flow of the
    generator also records ``tangents`` (n_steps, flat) and the generator
    ``features`` (n_steps, n_features) of each step, with the same leading
    axis.  The value readers (``value_at`` and the greeks) read one flow
    and reject a record with a leading axis.
    """

    channels: int
    degree: int
    grid: np.ndarray
    flats: np.ndarray
    nmap: NystromMap | None = None
    tangents: np.ndarray | None = None
    features: np.ndarray | None = None
    _residual_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.flats = np.asarray(self.flats, dtype=float)
        if self.flats.shape[-2:] != (self.grid.size, ta.flat_size(self.channels, self.degree)):
            raise ShapeMismatchError("trajectory flats do not match grid and tensor shape")

    @property
    def n_grid(self) -> int:
        return self.grid.size

    def index_of(self, s: float) -> int:
        return _grid_index(self.grid, s, "a gridpoint of the trajectory")

    def terminal(self) -> ta.TruncTensor:
        return ta.TruncTensor(self.channels, self.degree, self.flats[-1].copy())

    def residual_flats(self) -> np.ndarray:
        """Flat nested residuals inverse(proxy_s) (x) proxy_T for every s.

        The row at s = T is the identity exactly, so values there do not
        depend on the flow at all, not even through rounding.
        """
        if self._residual_cache is None:
            inv = ta.inverse_flat(self.channels, self.degree, self.flats)
            res = ta.product_flat(self.channels, self.degree, inv, self.flats[..., -1:, :])
            res[..., -1, :] = ta.identity_flat(self.channels, self.degree)
            self._residual_cache = res
        return self._residual_cache

    def residual_features(self) -> np.ndarray:
        """Compressed nested residuals, shape (n_grid, m)."""
        if self.nmap is None:
            raise DomainError("trajectory has no compression map attached")
        return compress_flat(self.nmap, self.residual_flats())

    def _flow_index(self, s: float) -> int:
        """Index of gridpoint s in the record of one flow, which value readers need."""
        if self.flats.ndim != 2:
            raise ShapeMismatchError(
                f"expected the record of one flow, flats (n_grid, flat), got {self.flats.shape}"
            )
        return self.index_of(s)

    def _residual_row(self, s: float) -> np.ndarray:
        """Row of ``residual_features()`` at gridpoint s of one flow, bit for bit.

        Only that residual is computed, unless the residuals are cached.  It
        is compressed in a zero (n_grid, flat) array in place of the others,
        so that BLAS runs the gemm of ``residual_features()``, whose rows do
        not depend on each other; a one-row matvec sums in another order.
        """
        i = self._flow_index(s)
        if self.nmap is None:
            raise DomainError("trajectory has no compression map attached")
        c, k = self.channels, self.degree
        rows = np.zeros(self.flats.shape)
        if self._residual_cache is not None:
            rows[i] = self._residual_cache[i]
        elif i == self.n_grid - 1:
            rows[i] = ta.identity_flat(c, k)
        else:
            rows[i] = ta.product_flat(c, k, ta.inverse_flat(c, k, self.flats[i]), self.flats[-1])
        return compress_flat(self.nmap, rows)[i]


def integrate_flow(
    gen: GeneratorParams,
    nmap: NystromMap,
    junction: ta.TruncTensor | None,
    grid: np.ndarray,
    theta_rows: np.ndarray | None = None,
) -> ProxyTrajectory:
    """Iterated log-ODE steps phi (x) exp(ds * ell) from the identity along the grid.

    ``junction`` is the filtered history proxy, or None for an empty
    history.  ``theta_rows`` of shape (R, n_params), finite, integrates R
    flows at once, one per row of weights in place of the generator's own;
    the trajectory's flats, tangents and features then carry a leading
    axis of length R.  A state that leaves the finite range raises
    ``DivergenceError`` naming its gridpoint and time.

    The states are held rows-last, as a (flat + 1,) array for one flow or a
    (flat + 1, R) array for R rows, with a zero last row: the operand of
    the kernels of ``tensor_algebra``, whose exponential series and product
    each step calls directly, the steps of
    product_flat(phi, exp_flat(ds * ell)) bit for bit.  The series skips
    the slots that read a level of the tangent above the Lie degree, and
    its scalar level: slot s reads level k - s.  ``exp_flat`` would also
    skip a level that is zero at this step in every row; the terms it skips
    add +-0 to accumulators that started at +0.0, so the sums do not
    change.  Where the series is not finite, and ``exp_flat`` would run it
    in full again, the state is not finite either, through its term
    phi_0 e = e.  A state that is not finite stays so, through its term
    phi e_0 with e_0 = 1, so the states are checked once, after the steps,
    and the first gridpoint that is not finite in some row names the step
    that diverged; the floating-point warnings of the steps are silenced,
    since that error reports them.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing with >= 2 points")
    if gen.n_proxy_features > nmap.n_landmarks:
        raise DomainError(
            f"generator reads {gen.n_proxy_features} proxy features but the "
            f"map has only {nmap.n_landmarks} landmarks"
        )
    weights = gen.weights
    if theta_rows is not None:
        rows = np.asarray(theta_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != gen.n_params:
            raise ShapeMismatchError(
                f"theta_rows must be (R, {gen.n_params}) with R >= 1, got {rows.shape}"
            )
        if not np.all(np.isfinite(rows)):
            raise DomainError("theta_rows must be finite")
        weights = rows.reshape(-1, gen.out_dim, gen.n_features)
    c, k = gen.channels, gen.degree
    t, T = grid[0], grid[-1]
    p = gen.n_proxy_features
    jfeats = np.zeros(p) if junction is None else compress(nmap, junction)[:p]
    batch = weights.shape[:-2]

    n_steps = grid.size - 1
    flat = ta.flat_size(c, k)
    flats = np.empty(batch + (grid.size, flat))
    # a step writes only the levels 1..lie_degree of its tangent; the
    # others stay zero, so the series may skip the slots that read them
    tangents = np.zeros(batch + (n_steps, flat))
    features = np.empty(batch + (n_steps, gen.n_features))
    # the phase, junction and bias columns do not depend on the state
    phase = ((grid[:-1] - t) / (T - t))[:, None]
    features[...] = gen.features(np.zeros((n_steps, p)), phase, jfeats)
    flats[..., 0, :] = ta.identity_flat(c, k)

    slots = ta._product_slots(c, k)
    exp_slots = ta._product_slots(c, k, tuple(range(k - gen.lie_degree)) + (k,))
    lie = slice(1, 1 + gen.out_dim)
    rows_t, weights_t = nmap.matrix[:p].T, np.swapaxes(weights, -1, -2)
    phi = np.zeros((flat + 1,) + batch)
    phi[0] = 1.0
    xt = np.zeros_like(phi)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, ds in enumerate(np.diff(grid)):
            feats = features[..., j, :]
            np.matmul(flats[..., j, :], rows_t, out=feats[..., :p])
            np.matmul(feats[..., None, :], weights_t, out=tangents[..., j, None, lie])
            if gen.clock_rate is not None:
                tangents[..., j, 1] = gen.clock_rate
            np.multiply(tangents[..., j, :].T, ds, out=xt[:-1])
            phi = ta._product_t(slots, phi, ta._exp_t(k, exp_slots, xt))
            flats[..., j + 1, :] = phi[:-1].T
    finite = np.isfinite(flats.reshape((-1,) + flats.shape[-2:])).all(axis=(0, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise DivergenceError(
            "flow state left the finite range", context={"gridpoint": j, "time": float(grid[j])}
        )
    return ProxyTrajectory(
        channels=c, degree=k, grid=grid, flats=flats, nmap=nmap,
        tangents=tangents, features=features,
    )


def _flow_adjoint(
    gen: GeneratorParams,
    traj: ProxyTrajectory,
    state_cotangents: np.ndarray,
    output_cotangents: np.ndarray | None = None,
) -> np.ndarray:
    """Weight gradients of linear reads of one flow, by a discrete adjoint.

    Row r of the result, of length ``gen.n_params``, is the gradient in the
    generator weights of sum_j <state_cotangents[r, j], proxy_j> +
    sum_j <output_cotangents[r, j], ell_j>, where ``traj`` is the flow of
    ``gen`` as ``integrate_flow`` recorded it and ell_j its flat tangent at
    step j.  The cotangent lam of the state walks back over the steps
    phi_(j+1) = phi_j (x) exp(ds * ell_j): through both factors of the
    product, through the exponential series, past the pinned clock
    coordinate (which reads no weights), and through the proxy features that
    feed the generator, lam += C_p^T (W_p^T ell_bar).  The weight gradient
    of step j is ell_bar_j times the recorded features of that step.
    """
    c, k = gen.channels, gen.degree
    p = gen.n_proxy_features
    flats = traj.flats
    ds = np.diff(traj.grid)
    x = ds[:, None] * traj.tangents
    exp_x = ta.exp_flat(c, k, x)
    feedback = gen.weights[:, :p] @ traj.nmap.matrix[:p]

    lam = np.array(state_cotangents[:, -1], dtype=float)
    g_out = np.empty((lam.shape[0], ds.size, gen.out_dim))
    for j in range(ds.size - 1, -1, -1):
        g_phi, g_exp = ta.product_pullback_flat(c, k, flats[j], exp_x[j], lam)
        g_ell = ds[j] * ta.exp_pullback_flat(c, k, x[j], g_exp)
        if output_cotangents is not None:
            g_ell += output_cotangents[:, j]
        g_out[:, j] = g_ell[:, 1 : 1 + gen.out_dim]
        if gen.clock_rate is not None:
            g_out[:, j, 0] = 0.0
        lam = g_phi + state_cotangents[:, j] + g_out[:, j] @ feedback
    return np.einsum("rjo,jf->rof", g_out, traj.features).reshape(lam.shape[0], gen.n_params)


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


def score_matching_loss(
    gen: GeneratorParams, ens: PathEnsemble, nmap: NystromMap, metrics: list[WhitenedMetric]
) -> float:
    """Mean squared ``q_distance`` between flow tangents and ensemble targets."""
    if ens.n_paths < 1:
        raise DomainError("need a non-empty ensemble")
    refs = _training_refs(ens, empirical_trajectory(ens, nmap))
    return _loss_terms(gen, nmap, metrics, refs, TrainConfig())[0]["score"]


# ---------------------------------------------------------------------------
# training


_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8
# deadband: below this gradient size the point counts as stationary and no
# step is taken.  At an exact optimum the gradient is roundoff (1.3e-17 on a
# matched generator), and Adam's normalisation would turn it into steps of
# 6.6e-11, then 3.5e-4, then 3.2e-2.
_GRAD_TOL = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 120
    lr: float = 0.05
    eta_scf: float = 0.1
    contraction_reg: float = 0.0


@dataclass
class TrainResult:
    """Trained generator, one loss row per Adam step, the losses it ends at,
    and its flow from that last loss pass."""

    params: GeneratorParams
    trace: list[dict]
    final: dict
    trajectory: ProxyTrajectory


def _training_refs(ens: PathEnsemble, law: ProxyTrajectory) -> dict:
    """The ensemble's junction proxy and step targets, and its law compressed."""
    if law.nmap is None:
        raise DomainError("training law has no compression map attached")
    if not np.array_equal(law.grid, ens.times):
        raise ShapeMismatchError("training law grid is not the ensemble's time grid")
    return {
        "junction": ens.junction_proxy,
        "targets": step_targets(ens),
        "law_feats": compress_flat(law.nmap, law.flats),
        "grid": law.grid,
    }


def _loss_terms(gen, nmap, metrics, refs, cfg: TrainConfig):
    """The ensemble's loss parts, its flow, and their cotangents.

    Every term is a squared whitened norm |P d|^2 of a compressed difference
    d = C y - ref that is linear in a tangent or a state y, so its cotangent
    on y is 2 C^T P^T (P d), with P d shared by loss and gradient.
    ``metrics`` holds one metric per gridpoint, and P is its ``precision``.
    Returns the parts (score, scf, reg), the flow, and one adjoint row of
    cotangents on its states and on its tangents.
    """
    parts = {"score": 0.0, "scf": 0.0, "reg": 0.0}
    C = nmap.matrix
    traj = integrate_flow(gen, nmap, refs["junction"], refs["grid"])
    n_steps = traj.tangents.shape[0]
    out_cot = np.empty((1,) + traj.tangents.shape)
    state_cot = np.zeros((1,) + traj.flats.shape)
    wt = 1.0 / n_steps
    for j in range(n_steps):
        d = compress_flat(nmap, traj.tangents[j] - refs["targets"][j])
        Pd = metrics[j].whiten(d)
        parts["score"] += wt * (Pd @ Pd)
        out_cot[0, j] = 2.0 * wt * (C.T @ (metrics[j].precision.T @ Pd))

    # tracking terms: squared q_distance of the flow at gridpoint j from the
    # ensemble's law there
    tracked = [("scf", n_steps, cfg.eta_scf)]
    if cfg.contraction_reg > 0.0:
        # late-horizon tracking penalty: pulls the flow back onto the
        # ensemble law as the horizon closes, damping accumulated drift
        grid = refs["grid"]
        u = (grid - grid[0]) / (grid[-1] - grid[0])
        tracked += [
            ("reg", j, cfg.contraction_reg * u[j] ** 2 / n_steps)
            for j in range(1, n_steps + 1)
        ]
    for key, j, weight in tracked:
        e = compress_flat(nmap, traj.flats[j]) - refs["law_feats"][j]
        Pe = metrics[j].whiten(e)
        parts[key] += weight * (Pe @ Pe)
        state_cot[0, j] += 2.0 * weight * (C.T @ (metrics[j].precision.T @ Pe))
    return parts, traj, state_cot, out_cot


def train_generator(
    gen: GeneratorParams,
    ens: PathEnsemble,
    law: ProxyTrajectory,
    metrics: list[WhitenedMetric],
    cfg: TrainConfig | None = None,
) -> TrainResult:
    """Adam descent on score matching + self-consistency, exact gradients.

    ``law`` is the ensemble's mean-signature trajectory on its grid, with
    its map, as ``empirical_trajectory(ens, nmap)`` returns it; ``metrics``
    holds one metric per gridpoint.  Each step costs one flow and one
    adjoint pass, and one more at the returned weights for
    ``TrainResult.final``, whose flow is ``TrainResult.trajectory``.
    """
    cfg = cfg or TrainConfig()
    refs = _training_refs(ens, law)
    nmap = law.nmap

    theta = gen.theta()
    P = theta.size
    m = np.zeros(P)
    v = np.zeros(P)
    trace: list[dict] = []

    def losses(theta, step):
        at = gen.with_theta(theta)
        parts, traj, state_cot, out_cot = _loss_terms(at, nmap, metrics, refs, cfg)
        grad = _flow_adjoint(at, traj, state_cot, out_cot)[0]
        total = parts["score"] + parts["scf"] + parts["reg"]
        if not (np.isfinite(total) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                "training loss left the finite range",
                context={"step": step, "trace": trace},
            )
        return {"total": float(total), **{k: float(x) for k, x in parts.items()},
                "grad_norm": float(np.linalg.norm(grad))}, grad, traj

    for step in range(1, cfg.steps + 1):
        row, grad, _ = losses(theta, step)
        if np.max(np.abs(grad)) < _GRAD_TOL:
            update = np.zeros(P)
        else:
            m = _BETA1 * m + (1 - _BETA1) * grad
            v = _BETA2 * v + (1 - _BETA2) * grad**2
            mhat = m / (1 - _BETA1**step)
            vhat = v / (1 - _BETA2**step)
            update = cfg.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
            theta = theta - update
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(
                    "generator weights left the finite range",
                    context={"step": step, "trace": trace},
                )
        trace.append({"step": step, **row, "update_max": float(np.max(np.abs(update)))})
    final, _, traj = losses(theta, cfg.steps + 1)
    return TrainResult(params=gen.with_theta(theta), trace=trace, final=final, trajectory=traj)

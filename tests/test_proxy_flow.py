import numpy as np
import pytest

from siglearn import tensor_algebra as ta
from siglearn.errors import DivergenceError, DomainError, ShapeMismatchError
from siglearn.jumpdiff import JumpDiffusionParams, generate_ensemble, prefix_mean_signatures
from siglearn.kernelspace import (
    WhitenedMetric,
    build_nystrom,
    compress,
    compress_flat,
    fit_metric_family,
)
from siglearn.proxy_flow import (
    ProxyTrajectory,
    TrainConfig,
    _flow_adjoint,
    _loss_terms,
    _training_refs,
    empirical_trajectory,
    integrate_flow,
    new_generator,
    score_matching_loss,
    step_targets,
    train_generator,
)
from siglearn.signature import SignatureConfig
from tensor_helpers import level, zero

C, K = 3, 3  # time + 1 state dim + reward channel


def random_group_like(rng, scale=0.4):
    x = np.zeros(ta.flat_size(C, K))
    x[1:] = rng.normal(scale=scale, size=x.size - 1)
    return ta.exp_flat(C, K, x)


def make_map(rng, n_landmarks=10):
    return build_nystrom(np.array([random_group_like(rng) for _ in range(n_landmarks)]), C, K)


def eye_metrics(m, n_grid=9):
    """The identity metric at every gridpoint."""
    return [WhitenedMetric(precision=np.eye(m))] * n_grid


def drift_env(mu=0.3, vol=0.0, lam=0.0, **kw):
    return JumpDiffusionParams(
        drift_base=np.array([mu]),
        vol=np.array([[vol]]),
        jump_intensity=lam,
        jump_mean=kw.get("jump_mean", np.zeros(1)),
        jump_scale=kw.get("jump_scale", np.zeros(1)),
        action_exposure=np.zeros(1),
    )


def linear_cfg():
    return SignatureConfig(degree=K, mode="linear", time_scale=1.0)


def tangent_flat(gen, feats, weights=None):
    """Lie-like flat tangent(s) of ``gen`` for feature rows (..., n_features).

    ``weights`` of shape (..., out_dim, n_features) replaces the
    generator's own weights row by row, one weight matrix per feature row.
    """
    if weights is None:
        out = feats @ gen.weights.T
    else:
        out = (feats[..., None, :] @ np.swapaxes(weights, -1, -2))[..., 0, :]
    flat = np.zeros(out.shape[:-1] + (ta.flat_size(gen.channels, gen.degree),))
    flat[..., 1 : 1 + gen.out_dim] = out
    if gen.clock_rate is not None:
        flat[..., 1] = gen.clock_rate
    return flat


def matched_generator(mu):
    # bias column reproduces the constant drift tangent (clock, state, reward)
    gen = new_generator(C, K, lie_degree=2, n_proxy_features=4, phase_powers=2)
    W = gen.weights.copy()
    W[0, -1] = 1.0
    W[1, -1] = mu
    W[2, -1] = mu
    return gen.with_theta(W.ravel())


class TestFlowStep:
    def test_constant_tangent_reaches_exp(self):
        # a bias-only generator of full Lie degree emits the same tangent v
        # at every step, and exp(v/8)^8 = exp(v) on the group
        rng = np.random.default_rng(1)
        v = zero(C, K)
        v.data[1:] = rng.normal(size=v.data.size - 1) * 0.4
        gen = new_generator(C, K, lie_degree=K, n_proxy_features=4)
        W = gen.weights.copy()
        W[:, -1] = v.data[1:]
        traj = integrate_flow(gen.with_theta(W.ravel()), make_map(rng), None,
                              np.linspace(0.0, 1.0, 9))
        assert np.max(np.abs(traj.flats[-1] - ta.exp_flat(C, K, v.data))) < 1e-14

    def test_preconditions(self):
        rng = np.random.default_rng(0)
        nmap = make_map(rng, n_landmarks=3)
        gen = new_generator(C, K, n_proxy_features=3)
        for grid in ([0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.25]):
            with pytest.raises(DomainError):
                integrate_flow(gen, nmap, None, np.array(grid))
        with pytest.raises(DomainError):
            integrate_flow(new_generator(C, K, n_proxy_features=4), nmap, None,
                           np.linspace(0.0, 1.0, 3))

    def test_step_halving_first_order(self):
        # non-constant tangent: terminal error scales like O(ds)
        rng = np.random.default_rng(2)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=3,
                            seed=5, init_scale=0.6)

        def terminal(n_steps):
            grid = np.linspace(0.0, 1.0, n_steps + 1)
            return integrate_flow(gen, nmap, None, grid).flats[-1]

        ref = terminal(512)
        errs = [np.linalg.norm(terminal(n) - ref) for n in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.4)


class TestIntegrateFlow:
    def test_zero_generator_gives_identity_trajectory(self):
        rng = np.random.default_rng(3)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4)
        traj = integrate_flow(gen, nmap, None, np.linspace(0, 1, 9))
        assert np.array_equal(traj.flats, np.tile(ta.identity_flat(C, K), (9, 1)))

    def test_identity_grounding_and_group_likeness(self):
        rng = np.random.default_rng(4)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=1, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.linspace(0, 1, 17))
        assert np.array_equal(traj.flats[0], ta.identity_flat(C, K))
        assert np.max(np.abs(traj.flats[:, 0] - 1.0)) < 1e-14

    def test_pinned_clock_integrates_horizon(self):
        rng = np.random.default_rng(5)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, clock_rate=2.0,
                            seed=2, init_scale=0.3)
        grid = np.linspace(0.0, 0.5, 9)
        traj = integrate_flow(gen, nmap, None, grid)
        assert level(traj.terminal(), 1)[0] == pytest.approx(2.0 * 0.5, abs=1e-14)

    def test_chen_consistency_of_residuals(self):
        rng = np.random.default_rng(6)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=3, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 13)
        traj = integrate_flow(gen, nmap, None, grid)
        glued = ta.product_flat(C, K, traj.flats, traj.residual_flats())
        assert np.max(np.abs(glued - traj.flats[-1])) < 1e-12

    def test_nested_residual_boundaries(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=4, init_scale=0.5)
        grid = np.linspace(0.0, 1.0, 9)
        traj = integrate_flow(gen, nmap, None, grid)
        residuals = traj.residual_flats()
        assert np.array_equal(residuals[traj.index_of(0.0)], traj.flats[-1])
        assert np.max(np.abs(residuals[traj.index_of(1.0)] - ta.identity_flat(C, K))) < 1e-12

    def test_horizon_residual_is_exact_identity(self):
        rng = np.random.default_rng(7)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, seed=4, init_scale=0.5)
        traj = integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, 9))
        assert np.array_equal(traj.residual_flats()[-1], ta.identity_flat(C, K))

    @pytest.mark.parametrize("clock,junction", [(None, False), (1.0, True)])
    def test_weight_rows_match_single_flows(self, clock, junction):
        rng = np.random.default_rng(8)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            clock_rate=clock, seed=6, init_scale=0.5)
        jn = ta.TruncTensor(C, K, random_group_like(rng)) if junction else None
        grid = np.linspace(0.0, 1.0, 13)
        thetas = gen.theta() + 0.2 * rng.normal(size=(7, gen.n_params))
        batch = integrate_flow(gen, nmap, jn, grid, theta_rows=thetas)
        assert batch.flats.shape == (7, 13, ta.flat_size(C, K))
        assert batch.tangents.shape == (7, 12, ta.flat_size(C, K))
        for r, theta in enumerate(thetas):
            one = integrate_flow(gen.with_theta(theta), nmap, jn, grid)
            for got, want in [(batch.flats[r], one.flats), (batch.tangents[r], one.tangents),
                              (batch.residual_flats()[r], one.residual_flats())]:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(batch.residual_flats()[r, -1], ta.identity_flat(C, K))

    # (weight rows of a 132-parameter generator, the error they raise)
    BAD_ROWS = [
        ("two flows' weights folded", np.zeros((4, 66)), ShapeMismatchError),
        ("one theta, no row axis", np.zeros(132), ShapeMismatchError),
        ("a row too long", np.zeros((2, 133)), ShapeMismatchError),
        ("an extra axis", np.zeros((2, 1, 132)), ShapeMismatchError),
        ("no rows", np.zeros((0, 132)), ShapeMismatchError),
        ("a NaN row", np.vstack([np.zeros(132), np.full(132, np.nan)]), DomainError),
        ("an infinite weight", np.where(np.arange(132) == 5, np.inf, 0.0)[None], DomainError),
    ]

    @pytest.mark.parametrize("case,thetas,error", BAD_ROWS, ids=[c[0] for c in BAD_ROWS])
    def test_weight_rows_are_checked(self, case, thetas, error):
        rng = np.random.default_rng(8)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2)
        assert gen.n_params == 132
        with pytest.raises(error) as exc:
            integrate_flow(gen, nmap, None, np.linspace(0.0, 1.0, 5), theta_rows=thetas)
        if error is ShapeMismatchError:
            assert "132" in str(exc.value) and str(thetas.shape) in str(exc.value)

    def test_tangents_are_the_recorded_feature_rows(self):
        # the adjoint reads traj.features in place of rebuilding them, so
        # each tangent must be the generator's map of its recorded row
        rng = np.random.default_rng(12)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            clock_rate=1.0, seed=6, init_scale=0.5)
        jn = ta.TruncTensor(C, K, random_group_like(rng))
        grid = np.linspace(0.0, 1.0, 9)
        thetas = gen.theta() + 0.2 * rng.normal(size=(5, gen.n_params))
        one = integrate_flow(gen, nmap, jn, grid)
        batch = integrate_flow(gen, nmap, jn, grid, theta_rows=thetas)
        assert one.features.shape == (8, gen.n_features)
        assert batch.features.shape == (5, 8, gen.n_features)
        for row, tangent in zip(one.features, one.tangents):
            assert np.array_equal(tangent, tangent_flat(gen, row))
        weights = thetas.reshape(-1, gen.out_dim, gen.n_features)
        for feats, tangents, W in zip(batch.features, batch.tangents, weights):
            for row, tangent in zip(feats, tangents):
                assert np.array_equal(tangent, tangent_flat(gen, row, W))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error(self):
        rng = np.random.default_rng(9)
        nmap = make_map(rng)
        gen = new_generator(C, K, n_proxy_features=4)
        W = gen.weights.copy()
        W[:, -1] = 1e200
        gen = gen.with_theta(W.ravel())
        with pytest.raises(DivergenceError):
            integrate_flow(gen, nmap, None, np.linspace(0, 1, 5))


def per_step_flow(gen, nmap, junction, grid, theta_rows=None):
    """The flow as a per-step loop of the generic kernels.

    Each step is product_flat(phi, exp_flat(ds * tangent)), over one row of
    weights or, with ``theta_rows``, over R rows at once: the loop that
    integrate_flow's steps must equal bit for bit.
    """
    c, k, p = gen.channels, gen.degree, gen.n_proxy_features
    t, T = grid[0], grid[-1]
    jfeats = np.zeros(p) if junction is None else compress(nmap, junction)[:p]
    W = None
    if theta_rows is not None:
        W = theta_rows.reshape(-1, gen.out_dim, gen.n_features)
    batch = () if W is None else W.shape[:1]
    n_steps = grid.size - 1
    flats = np.empty(batch + (grid.size, ta.flat_size(c, k)))
    tangents = np.empty(batch + (n_steps, flats.shape[-1]))
    features = np.empty(batch + (n_steps, gen.n_features))
    features[...] = gen.features(np.zeros((n_steps, p)), ((grid[:-1] - t) / (T - t))[:, None],
                                 jfeats)
    flats[..., 0, :] = ta.identity_flat(c, k)
    for j, ds in enumerate(np.diff(grid)):
        features[..., j, :p] = flats[..., j, :] @ nmap.matrix[:p].T
        tangents[..., j, :] = tangent_flat(gen, features[..., j, :], W)
        flats[..., j + 1, :] = ta.product_flat(
            c, k, flats[..., j, :], ta.exp_flat(c, k, ds * tangents[..., j, :])
        )
        if not np.all(np.isfinite(flats[..., j + 1, :])):
            raise DivergenceError(
                "flow state left the finite range",
                context={"gridpoint": j + 1, "time": float(grid[j + 1])},
            )
    return flats, tangents, features


def one_row_case(c, k, lie, clock, junction, weights="random"):
    """A map, a generator of Lie degree ``lie``, a junction or None, and a grid."""
    rng = np.random.default_rng(100 * c + 10 * k + lie)

    def group_like(scale):
        x = np.zeros(ta.flat_size(c, k))
        x[1:] = rng.normal(scale=scale, size=x.size - 1)
        return ta.exp_flat(c, k, x)

    nmap = build_nystrom(np.array([group_like(0.4) for _ in range(8)]), c, k)
    gen = new_generator(c, k, lie_degree=lie, n_proxy_features=3, phase_powers=2,
                        clock_rate=clock, seed=lie, init_scale=0.5)
    if weights == "zero":
        gen = gen.with_theta(np.zeros(gen.n_params))
    jn = ta.TruncTensor(c, k, group_like(0.3)) if junction else None
    return gen, nmap, jn, np.linspace(0.0, 1.0, 13)


def bits(x):
    return np.asarray(x).view(np.uint64)


ONE_ROW_CASES = [(2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 4, 4)]


def weight_rows(gen, n_rows):
    """``n_rows`` rows of weights scattered about the generator's own."""
    rng = np.random.default_rng(n_rows)
    return gen.theta() + 0.2 * rng.normal(size=(n_rows, gen.n_params))


def block_rows(c, k):
    """One row more than a ``_by_blocks`` block of the flat width of (c, k)."""
    return max(1, ta._BLOCK_BYTES // (8 * (ta.flat_size(c, k) + 1))) + 1


class TestOneRowFlow:
    """integrate_flow equals the per-step loop bit for bit, one flow or R rows."""

    @pytest.mark.parametrize("weights", ["random", "zero"])
    @pytest.mark.parametrize("junction", [False, True])
    @pytest.mark.parametrize("clock", [None, 1.0])
    @pytest.mark.parametrize("c,k,lie", ONE_ROW_CASES)
    def test_matches_the_per_step_loop(self, c, k, lie, clock, junction, weights):
        gen, nmap, jn, grid = one_row_case(c, k, lie, clock, junction, weights)
        traj = integrate_flow(gen, nmap, jn, grid)
        flats, tangents, features = per_step_flow(gen, nmap, jn, grid)
        assert np.array_equal(bits(traj.flats), bits(flats))
        assert np.array_equal(bits(traj.tangents), bits(tangents))
        assert np.array_equal(bits(traj.features), bits(features))
        if weights == "zero" and clock is None:
            # the tangent is zero and exp_flat skips every slot
            assert np.array_equal(traj.flats, np.tile(ta.identity_flat(c, k), (13, 1)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("clock", [None, 1.0])
    @pytest.mark.parametrize("c,k,lie", [(2, 3, 1), (2, 3, 3), (3, 4, 2), (3, 4, 4)])
    def test_divergence_names_the_same_step(self, c, k, lie, clock):
        gen, nmap, jn, _ = one_row_case(c, k, lie, clock, True)
        W = gen.weights.copy()
        W[:, -1] = 1e200
        gen = gen.with_theta(W.ravel())
        # two steps of 1e-200 stay finite; the third, of about 1, overflows
        grid = np.array([0.0, 1e-200, 2e-200, 1.0, 2.0])
        with pytest.raises(DivergenceError) as old:
            per_step_flow(gen, nmap, jn, grid)
        with pytest.raises(DivergenceError) as new:
            integrate_flow(gen, nmap, jn, grid)
        assert str(new.value) == str(old.value)
        assert new.value.context == old.value.context == {"gridpoint": 3, "time": 1.0}

    @pytest.mark.parametrize("n_rows", ["1", "7", "block + 1"])
    @pytest.mark.parametrize("junction", [False, True])
    @pytest.mark.parametrize("clock", [None, 1.0])
    @pytest.mark.parametrize("c,k,lie", ONE_ROW_CASES)
    def test_weight_rows_match_the_per_step_loop(self, c, k, lie, clock, junction, n_rows):
        gen, nmap, jn, grid = one_row_case(c, k, lie, clock, junction)
        n = block_rows(c, k) if n_rows == "block + 1" else int(n_rows)
        thetas = weight_rows(gen, n)
        traj = integrate_flow(gen, nmap, jn, grid, theta_rows=thetas)
        flats, tangents, features = per_step_flow(gen, nmap, jn, grid, thetas)
        assert traj.flats.shape == (n, 13, ta.flat_size(c, k))
        assert np.array_equal(bits(traj.flats), bits(flats))
        assert np.array_equal(bits(traj.tangents), bits(tangents))
        assert np.array_equal(bits(traj.features), bits(features))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("clock", [None, 1.0])
    @pytest.mark.parametrize("c,k,lie", [(2, 3, 1), (2, 3, 3), (3, 4, 2), (3, 4, 4)])
    def test_one_diverging_row_names_the_same_step(self, c, k, lie, clock):
        gen, nmap, jn, _ = one_row_case(c, k, lie, clock, True)
        thetas = weight_rows(gen, 5).reshape(5, gen.out_dim, gen.n_features)
        thetas[3, :, -1] = 1e200
        thetas = thetas.reshape(5, gen.n_params)
        grid = np.array([0.0, 1e-200, 2e-200, 1.0, 2.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as old:
            per_step_flow(gen, nmap, jn, grid, thetas)
        with pytest.raises(DivergenceError) as new:
            integrate_flow(gen, nmap, jn, grid, theta_rows=thetas)
        assert str(new.value) == str(old.value)
        assert new.value.context == old.value.context == {"gridpoint": 3, "time": 1.0}


class TestLosses:
    def test_matched_generator_zero_score(self):
        rng = np.random.default_rng(10)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        gen = matched_generator(0.3)
        loss = score_matching_loss(gen, ens, nmap, eye_metrics(nmap.n_landmarks))
        assert loss < 1e-24

    def test_random_generator_larger_loss(self):
        rng = np.random.default_rng(11)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        metrics = eye_metrics(nmap.n_landmarks)
        matched = score_matching_loss(matched_generator(0.3), ens, nmap, metrics)
        noisy = new_generator(C, K, n_proxy_features=6, seed=7, init_scale=0.5)
        assert score_matching_loss(noisy, ens, nmap, metrics) > matched + 1e-3

    def test_scf_loss_zero_at_match_and_eta_scaling(self):
        # the scf part of the loss pass: zero when the flow ends on the
        # ensemble's mean terminal signature, and linear in eta
        rng = np.random.default_rng(12)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        metrics = eye_metrics(nmap.n_landmarks)

        def scf(gen, ens, eta):
            refs = _training_refs(ens, empirical_trajectory(ens, nmap))
            return _loss_terms(gen, nmap, metrics, refs, TrainConfig(eta_scf=eta))[0]["scf"]

        still = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None),
                                  None, grid, 4, 1, linear_cfg())
        assert scf(matched_generator(0.3), still, 0.1) < 1e-24

        ens = generate_ensemble(drift_env(0.2, vol=0.3), (0.0, np.zeros(1), None),
                                None, grid, 16, 1, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, seed=8, init_scale=0.4)
        l1 = scf(gen, ens, 0.1)
        assert l1 > 1e-6
        assert scf(gen, ens, 0.2) == pytest.approx(2 * l1, rel=1e-12)


def train_on_ensemble(gen, ens, nmap, cfg):
    """Train on the ensemble's own law under the identity metric."""
    law = empirical_trajectory(ens, nmap)
    return train_generator(gen, ens, law, eye_metrics(nmap.n_landmarks), cfg)


class TestTraining:
    def test_loss_decreases_on_fixed_ensemble(self):
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.25, vol=0.1), (0.0, np.zeros(1), None),
                                None, grid, 32, 2, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            seed=9, init_scale=0.3)
        cfg = TrainConfig(steps=40, lr=0.02)
        res = train_on_ensemble(gen, ens, nmap, cfg)
        totals = [row["total"] for row in res.trace]
        assert totals[-1] < 0.2 * totals[0]
        increases = sum(b > a * 1.02 + 1e-12 for a, b in zip(totals, totals[1:]))
        assert increases <= len(totals) // 10

    def test_trajectory_is_the_flow_at_the_returned_weights(self):
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        junction = ta.TruncTensor(C, K, random_group_like(rng))
        ens = generate_ensemble(drift_env(0.25, vol=0.1), (0.0, np.zeros(1), junction),
                                None, grid, 16, 2, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            seed=9, init_scale=0.3)
        res = train_on_ensemble(gen, ens, nmap, TrainConfig(steps=3, lr=0.02))
        fresh = integrate_flow(res.params, nmap, junction, grid)
        assert np.array_equal(res.trajectory.flats, fresh.flats)

    def test_fits_the_law_it_is_handed(self):
        # the self-consistency term reads the handed law, not the ensemble's
        # own mean: its first loss is eta times the squared distance of the
        # initial flow's end from that law's end
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.25, vol=0.1), (0.0, np.zeros(1), None),
                                None, grid, 16, 2, linear_cfg())
        other = generate_ensemble(drift_env(-0.4, vol=0.3), (0.0, np.zeros(1), None),
                                  None, grid, 16, 3, linear_cfg())
        law = empirical_trajectory(other, nmap)
        gen = new_generator(C, K, n_proxy_features=4, seed=9, init_scale=0.3)
        cfg = TrainConfig(steps=1, eta_scf=0.1)
        res = train_generator(gen, ens, law, eye_metrics(nmap.n_landmarks), cfg)
        e = compress_flat(nmap, integrate_flow(gen, nmap, None, grid).flats[-1]
                          - law.flats[-1])
        assert res.trace[0]["scf"] == pytest.approx(0.1 * e @ e, rel=1e-12)
        own = train_on_ensemble(gen, ens, nmap, cfg)
        assert res.trace[0]["score"] == own.trace[0]["score"]
        assert abs(res.trace[0]["scf"] - own.trace[0]["scf"]) > 1e-6

    def test_law_must_share_the_ensemble_grid_and_have_a_map(self):
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.25), (0.0, np.zeros(1), None),
                                None, grid, 4, 2, linear_cfg())
        law = empirical_trajectory(ens, nmap)
        gen = new_generator(C, K, n_proxy_features=4)
        metrics = eye_metrics(nmap.n_landmarks)
        shifted = ProxyTrajectory(C, K, grid + 0.5, law.flats, nmap=nmap)
        with pytest.raises(ShapeMismatchError):
            train_generator(gen, ens, shifted, metrics, TrainConfig(steps=1))
        unmapped = ProxyTrajectory(C, K, grid, law.flats)
        with pytest.raises(DomainError):
            train_generator(gen, ens, unmapped, metrics, TrainConfig(steps=1))

    def test_stationary_at_optimum(self):
        rng = np.random.default_rng(14)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3), (0.0, np.zeros(1), None), None,
                                grid, 4, 0, linear_cfg())
        gen = matched_generator(0.3)
        cfg = TrainConfig(steps=3, lr=0.05)
        res = train_on_ensemble(gen, ens, nmap, cfg)
        assert all(row["update_max"] < 1e-6 for row in res.trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_raises_divergence(self):
        # a gradient above 1.8 makes lr * grad overflow in the first Adam step
        rng = np.random.default_rng(13)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(5.0, vol=0.1), (0.0, np.zeros(1), None),
                                None, grid, 8, 2, linear_cfg())
        gen = new_generator(C, K, n_proxy_features=4, seed=9, init_scale=0.3)
        with pytest.raises(DivergenceError):
            train_on_ensemble(gen, ens, nmap, TrainConfig(steps=3, lr=1e308))

    def test_targets_shape(self):
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.3, vol=0.2), (0.0, np.zeros(1), None),
                                None, grid, 8, 3, linear_cfg())
        t = step_targets(ens)
        assert t.shape == (8, ta.flat_size(C, K))
        assert np.allclose(t[:, 0], 0.0, atol=0)


def reference_loss(gen, ref, nmap, metrics, cfg):
    """Training loss restated from its definition: score + scf + reg.

    ``ref`` holds the ensemble's grid, step targets and compressed prefix means.
    """

    def qn(j, d):
        return metrics[j].norm(d) ** 2

    grid, targets, means = ref
    traj = integrate_flow(gen, nmap, None, grid)
    n = targets.shape[0]
    u = (grid - grid[0]) / (grid[-1] - grid[0])
    loss = sum(qn(j, compress_flat(nmap, traj.tangents[j] - targets[j])) for j in range(n)) / n
    for j in range(1, n + 1):
        weight = cfg.eta_scf * (j == n) + cfg.contraction_reg * u[j] ** 2 / n
        loss += weight * qn(j, compress_flat(nmap, traj.flats[j]) - means[j])
    return loss


class TestExactGradient:
    # (fitted metric family or the identity at every point, eta_scf,
    # contraction_reg, clock_rate, ensemble seed)
    CASES = [
        (False, 0.1, 0.0, None, 1),
        (True, 0.1, 0.0, None, 1),
        (True, 0.0, 0.0, 1.0, 1),
        (False, 0.1, 40.0, 1.0, 2),
        (True, 0.0, 40.0, None, 2),
        (True, 0.1, 40.0, 1.0, 1),
    ]

    @pytest.mark.parametrize("family,eta,reg,clock,seed", CASES)
    def test_matches_central_difference(self, family, eta, reg, clock, seed):
        rng = np.random.default_rng(16)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(
            drift_env(0.25, vol=0.2, lam=1.0, jump_scale=np.full(1, 0.1)),
            (0.0, np.zeros(1), None), None, grid, 16, seed, linear_cfg(),
        )
        if family:
            _, full = prefix_mean_signatures(ens, keep_paths=True)
            metrics = fit_metric_family(compress_flat(nmap, full), 1e-2)
        else:
            metrics = eye_metrics(nmap.n_landmarks)
        gen = new_generator(C, K, n_proxy_features=4, phase_powers=2,
                            clock_rate=clock, seed=10, init_scale=0.3)
        cfg = TrainConfig(eta_scf=eta, contraction_reg=reg)
        train_refs = _training_refs(ens, empirical_trajectory(ens, nmap))
        refs = (ens.times, step_targets(ens), compress_flat(nmap, prefix_mean_signatures(ens)))

        parts, traj, state_cot, out_cot = _loss_terms(gen, nmap, metrics, train_refs, cfg)
        grad = _flow_adjoint(gen, traj, state_cot, out_cot)[0]
        loss = reference_loss(gen, refs, nmap, metrics, cfg)
        assert sum(parts.values()) == pytest.approx(loss, rel=1e-12)
        assert (parts["reg"] == 0.0) == (reg == 0.0)

        theta, h = gen.theta(), 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            fd[i] = (
                reference_loss(gen.with_theta(theta + bump), refs, nmap, metrics, cfg)
                - reference_loss(gen.with_theta(theta - bump), refs, nmap, metrics, cfg)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestEmpiricalTrajectory:
    def test_matches_prefix_means_and_compress(self):
        rng = np.random.default_rng(15)
        nmap = make_map(rng)
        grid = np.linspace(0.0, 1.0, 9)
        ens = generate_ensemble(drift_env(0.2, vol=0.25), (0.0, np.zeros(1), None),
                                None, grid, 16, 4, linear_cfg())
        traj = empirical_trajectory(ens, nmap)
        feats = traj.residual_features()
        assert feats.shape == (9, nmap.n_landmarks)
        term = compress_flat(nmap, traj.flats[-1])
        assert np.allclose(feats[0], term, atol=1e-12)

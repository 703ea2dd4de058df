import copy

import numpy as np
import pytest

from siglearn.config import load_config
from siglearn.experiments import (
    _generator_from_cfg,
    build_scenario,
    derive_seed,
    memory_gain_matrix,
    sample_landmark_signatures,
    train_scf,
)
from siglearn.proxy_flow import TrainConfig, _ensemble_cache, _loss_terms
from siglearn.signature import batch_terminal_signatures

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def small_cfg():
    cfg = copy.deepcopy(load_config(None))
    cfg["algebra"]["degree"] = 3
    cfg["nystrom"]["landmarks"] = 8
    cfg["flow"]["proxy_features"] = 3
    cfg["train"]["ensemble_size"] = 32
    cfg["history"]["steps"] = 8
    cfg["horizon"]["steps"] = 6
    return cfg


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_memory_gain_matrix(self):
        assert memory_gain_matrix(2, 4, 0.0) is None
        g = memory_gain_matrix(2, 4, 0.5)
        assert g.shape == (2, 4)
        assert g[0, 0] == 0.5 and g[1, 0] == -0.5


class TestScenario:
    def test_shapes_and_determinism(self):
        cfg = small_cfg()
        a = build_scenario(cfg, 7)
        b = build_scenario(cfg, 7)
        assert a.grid.shape == (7,)
        assert a.nmap.n_landmarks == 8
        assert len(a.metrics) == a.grid.size
        assert np.array_equal(a.train_ensemble.values, b.train_ensemble.values)
        assert np.array_equal(a.junction_proxy.data, b.junction_proxy.data)
        assert a.junction_proxy.is_group_like()

    def test_lookback_window_changes_junction(self):
        cfg = small_cfg()
        full = build_scenario(cfg, 7)
        cfg_w = copy.deepcopy(cfg)
        cfg_w["history"]["window"] = 2 * cfg["history"]["dt"]
        windowed = build_scenario(cfg_w, 7)
        assert not np.array_equal(full.junction_proxy.data, windowed.junction_proxy.data)
        assert windowed.junction_proxy.is_group_like()

    def test_landmark_sampling_deterministic(self):
        cfg = small_cfg()
        sc = build_scenario(cfg, 7)
        a = sample_landmark_signatures(sc.train_ensemble, 5, 3)
        b = sample_landmark_signatures(sc.train_ensemble, 5, 3)
        c = sample_landmark_signatures(sc.train_ensemble, 5, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_landmarks_are_one_segment_scans(self):
        # segments with equal time increments share a batched scan; each
        # row must be what scanning its segment alone gives, bit for bit
        sc = build_scenario(small_cfg(), 7)
        ens = sc.train_ensemble
        got = sample_landmark_signatures(ens, 40, 5)
        rng = np.random.default_rng(5)
        for row in got:
            i = int(rng.integers(ens.n_paths))
            a = int(rng.integers(0, ens.n_grid - 1))
            b = int(rng.integers(a + 1, ens.n_grid))
            flags = ens.jump_flags[i : i + 1, a : b + 1].copy()
            flags[:, 0] = False
            want = batch_terminal_signatures(
                ens.sig_config, ens.times[a : b + 1], ens.values[i : i + 1, a : b + 1], flags
            )[0]
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


class TestVarianceSweep:
    def test_ratio_shrinks_with_ensemble_size(self):
        from siglearn.experiments import variance_experiment

        cfg = small_cfg()
        sc = build_scenario(cfg, 11)
        reports = []
        for n_paths in (16, 256):
            run = copy.deepcopy(cfg)
            run["variance"].update(seeds=30, ensemble_size=n_paths)
            reports.append(variance_experiment(run, sc))
        small, big = reports
        assert small["ratio"] < 1.0
        assert big["ratio"] < small["ratio"]


class TestTrainScf:
    @pytest.mark.parametrize("steps", [0, 3])
    def test_reported_losses_are_the_loss_pass(self, steps):
        # before is the loss pass at the initial generator and after the one
        # at the trained weights, bit for bit; with no steps they coincide
        cfg = small_cfg()
        cfg["train"]["steps"] = steps
        sc = build_scenario(cfg, 5)
        result, diag = train_scf(cfg, sc)
        tc = TrainConfig(eta_scf=cfg["train"]["eta_scf"],
                         contraction_reg=cfg["train"]["contraction_reg"])
        cache = _ensemble_cache(sc.train_ensemble, sc.nmap)

        def losses(gen):
            parts = _loss_terms(gen, sc.nmap, sc.metrics, cache, tc)[0]
            return {"score": float(parts["score"]), "scf": float(parts["scf"])}

        assert diag["before"] == losses(_generator_from_cfg(cfg, sc))
        assert diag["after"] == losses(result.params)
        assert len(result.trace) == steps
        if steps == 0:
            assert diag["before"] == diag["after"]
        else:
            assert diag["after"] != diag["before"]

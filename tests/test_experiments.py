import copy
import json

import numpy as np
import pytest

from siglearn.cli import Runner
from siglearn.config import load_config
from siglearn.experiments import (
    _generator_from_cfg,
    build_scenario,
    derive_seed,
    memory_gain_matrix,
    sample_landmark_signatures,
)
from siglearn.jumpdiff import generate_ensemble, simulate_history
from siglearn.proxy_flow import TrainConfig, _loss_terms, _training_refs, empirical_trajectory
from siglearn.signature import batch_terminal_signatures, path_signature

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


    def test_seeds_use_the_windowed_junction(self, monkeypatch):
        # each seed's junction is read as the scenario's is: with a look-back
        # window, the history's signature over the window only
        from siglearn import experiments

        cfg = small_cfg()
        cfg["history"]["window"] = 2 * cfg["history"]["dt"]
        cfg["variance"].update(seeds=30, ensemble_size=4)
        sc = build_scenario(cfg, 11)
        histories, junctions = [], []

        def recording_history(*args, **kwargs):
            out = simulate_history(*args, **kwargs)
            histories.append(out[0])
            return out

        def recording_ensemble(env, junction, *args, **kwargs):
            junctions.append(junction)
            return generate_ensemble(env, junction, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_history", recording_history)
        monkeypatch.setattr(experiments, "generate_ensemble", recording_ensemble)
        experiments.variance_experiment(cfg, sc)
        assert len(histories) == 30 and len(junctions) == 60
        for i, path in enumerate(histories):
            want = path_signature(sc.history_config, path, path.times[-3], path.times[-1])
            for t0, state, proxy in junctions[2 * i : 2 * i + 2]:
                assert t0 == path.times[-1]
                assert np.array_equal(state, path.values[-1, : sc.env.dim])
                assert np.array_equal(proxy.data.view(np.uint64), want.data.view(np.uint64))


class TestTrainScf:
    def test_scenario_law_is_the_training_ensembles_mean_trajectory(self):
        # training reads the scenario's law in place of a scan of its
        # ensemble, so the two must agree bit for bit
        sc = build_scenario(small_cfg(), 5)
        fresh = empirical_trajectory(sc.train_ensemble, sc.nmap)
        assert np.array_equal(sc.train_law.flats, fresh.flats)
        assert np.array_equal(sc.train_law.grid, sc.train_ensemble.times)
        assert sc.train_law.nmap is sc.nmap

    @pytest.mark.parametrize("steps", [0, 3])
    def test_reported_losses_are_the_loss_pass(self, steps, tmp_path):
        # generator.json's before is the loss pass at the initial generator
        # and its after the one at the trained weights, bit for bit; with no
        # steps they coincide
        cfg = small_cfg()
        cfg["train"]["steps"] = steps
        runner = Runner(cfg, 5, tmp_path, "run-scf")
        runner.run_scf()
        sc, result = runner.scenario, runner.training()
        tc = TrainConfig(eta_scf=cfg["train"]["eta_scf"],
                         contraction_reg=cfg["train"]["contraction_reg"])
        refs = _training_refs(sc.train_ensemble, sc.train_law)

        def losses(gen):
            parts = _loss_terms(gen, sc.nmap, sc.metrics, refs, tc)[0]
            return {"score": float(parts["score"]), "scf": float(parts["scf"])}

        written = json.loads((tmp_path / "generator.json").read_text())
        assert written["losses_before"] == losses(_generator_from_cfg(cfg, sc))
        assert written["losses_after"] == losses(result.params)
        assert len(result.trace) == steps
        if steps == 0:
            assert written["losses_before"] == written["losses_after"]
        else:
            assert written["losses_after"] != written["losses_before"]

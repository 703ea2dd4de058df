import hashlib
import json
from pathlib import Path

import pytest

from siglearn.cli import main
from siglearn.config import ENV_PREFIX, config_hash, default_config_text, load_config
from siglearn.errors import ConfigError

SMALL_CONFIG = """\
[algebra]
degree = 3

[env]
dim = 1
drift_base = 0.08
vol_diag = 0.3
jump_intensity = 1.0
jump_mean = -0.15
jump_scale = 0.1
action_exposure = 0.05
reward_coeffs = 1.0
reward_action_exposure = 0.5
memory_gain_scale = 0.2
memory_features = 3

[history]
steps = 6
dt = 0.02

[horizon]
steps = 6
dt = 0.02

[nystrom]
landmarks = 8
metric_lambda = 1e-4

[flow]
proxy_features = 3
phase_powers = 2
init_scale = 0.01

[train]
steps = 4
lr = 0.05
ensemble_size = 32

[td]
gamma = 0.99
iters = 2000
planted_rank = 2

[variance]
seeds = 30
ensemble_size = 32

[analysis]
contraction_trials = 200
stress_groups = 4
decay_seeds = 2
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return path


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_default_text_parses_and_validates(self):
        cfg = load_config(None)
        assert cfg["algebra"]["degree"] == 4
        assert cfg["nystrom"]["landmarks"] == 128
        assert cfg["td"]["gamma"] == 0.99
        assert cfg["train"]["eta_scf"] == 0.1

    def test_missing_key_names_it(self, tmp_path):
        text = default_config_text().replace("gamma = 0.99\n", "")
        path = tmp_path / "broken.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="td.gamma"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "extra.ini"
        path.write_text(default_config_text() + "\nwhatever = 3\n")
        with pytest.raises(ConfigError, match="whatever"):
            load_config(str(path))

    def test_env_override(self, tmp_path):
        cfg = load_config(None, environ={f"{ENV_PREFIX}TD__GAMMA": "0.5"})
        assert cfg["td"]["gamma"] == 0.5

    def test_hash_sensitivity(self):
        a = load_config(None)
        b = load_config(None, environ={f"{ENV_PREFIX}TD__GAMMA": "0.5"})
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(load_config(None))


class TestCliExitCodes:
    def test_missing_key_exits_2(self, tmp_path, capsys):
        text = default_config_text().replace("gamma = 0.99\n", "")
        path = tmp_path / "broken.ini"
        path.write_text(text)
        code = main(["run-td", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "td.gamma" in capsys.readouterr().err

    def test_retired_fd_step_key_exits_2(self, tmp_path, capsys, monkeypatch):
        # training gradients are exact, so the finite-difference step is gone
        path = tmp_path / "fd.ini"
        path.write_text(default_config_text().replace("[train]\n", "[train]\nfd_step = 1e-5\n"))
        assert main(["run-scf", "--config", str(path), "--out-dir", str(tmp_path / "a")]) == 2
        assert "train.fd_step" in capsys.readouterr().err
        monkeypatch.setenv(f"{ENV_PREFIX}TRAIN__FD_STEP", "1e-5")
        assert main(["run-scf", "--out-dir", str(tmp_path / "b")]) == 2
        assert "train.fd_step" in capsys.readouterr().err

    def test_bad_threads_exits_2(self, tmp_path):
        assert main(["run-td", "--threads", "0", "--out-dir", str(tmp_path)]) == 2

    def test_divergence_exits_3_with_trace(self, tmp_path, small_config, capsys):
        blown = tmp_path / "blown.ini"
        blown.write_text(SMALL_CONFIG.replace("lr = 0.05", "lr = 1e100"))
        out = tmp_path / "odiv"
        code = main(["run-scf", "--config", str(blown), "--out-dir", str(out), "--seed", "0"])
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert "error" in err

    def test_print_config(self, capsys):
        assert main(["print-config"]) == 0
        assert "[algebra]" in capsys.readouterr().out


class TestCliRuns:
    def test_run_all_artifacts_and_headers(self, tmp_path, small_config):
        out = tmp_path / "out"
        code = main([
            "run-all", "--config", str(small_config),
            "--seed", "3", "--out-dir", str(out),
        ])
        assert code == 0
        expected = [
            "scf_trace.csv", "generator.json", "proxy.csv", "nystrom.json",
            "metric.csv", "history.csv", "ensemble.csv",
            "td_trace.csv", "weights.json", "variance.json",
            "greeks.csv", "risk.json",
            "analysis/contraction.csv", "analysis/fixed_point.csv",
            "analysis/forecast_decay.csv", "analysis/norm_stress.csv",
            "summary.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        cfg = load_config(str(small_config))
        chash = config_hash(cfg)
        for name in expected:
            content = (out / name).read_text()
            if name.endswith(".csv"):
                first = content.splitlines()[0]
                assert first.startswith("# subcommand=")
                assert f"config={chash}" in first
                assert "seed=3" in first
            else:
                meta = json.loads(content)["_meta"]
                assert meta["config_hash"] == chash
                assert meta["seed"] == 3

    def test_run_all_reproducible_across_threads(self, tmp_path, small_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run-all", "--config", str(small_config), "--seed", "5",
                     "--out-dir", str(out1), "--threads", "1"]) == 0
        assert main(["run-all", "--config", str(small_config), "--seed", "5",
                     "--out-dir", str(out2), "--threads", "4"]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_seed_changes_artifacts(self, tmp_path, small_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run-scf", "--config", str(small_config), "--seed", "1", "--out-dir", str(out1)])
        main(["run-scf", "--config", str(small_config), "--seed", "2", "--out-dir", str(out2)])
        assert tree_digest(out1) != tree_digest(out2)


class TestDefaultConfigCriteria:
    def test_run_td_default_realizable_objective(self, tmp_path):
        # shipped baseline: the planted-weight sweep must reach J < 1e-8
        out = tmp_path / "default_td"
        assert main(["run-td", "--seed", "1", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["final_objective"] < 1e-8
        assert json.loads((out / "variance.json").read_text())["ratio"] < 1.0

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglearn.cli import main
from siglearn.config import (
    _BASELINE,
    ENV_PREFIX,
    SCHEMA,
    config_hash,
    default_config_text,
    load_config,
)
from siglearn.errors import ConfigError
from siglearn.experiments import build_scenario

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

    def test_printed_baseline_loads_to_the_builtin(self, tmp_path, capsys):
        assert main(["print-config"]) == 0
        path = tmp_path / "baseline.ini"
        path.write_text(capsys.readouterr().out)
        assert load_config(str(path), environ={}) == load_config(None, environ={})

    def test_each_baseline_value_is_printed_once(self):
        parts = re.split(r"^\[(\w+)\]\n", default_config_text(), flags=re.M)
        bodies = dict(zip(parts[1::2], parts[2::2]))
        assert list(bodies) == list(SCHEMA)
        for section, keys in SCHEMA.items():
            for key, (_, default, _) in keys.items():
                value = _BASELINE.get(section, {}).get(key, default)
                count = len(re.findall(rf"^{key} = ", bodies[section], flags=re.M))
                assert count == (value is not None), f"{section}.{key}"

    def test_baseline_overlay_names_schema_keys(self):
        # a misspelt overlay key would silently drop its baseline value
        for section, keys in _BASELINE.items():
            assert section in SCHEMA and set(keys) <= set(SCHEMA[section]), section

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

    @pytest.mark.parametrize(
        "key, raw", [("td.gamma", "nan"), ("env.jump_intensity", "inf"),
                     ("analysis.stress_scales", "1, -inf, 10")],
    )
    def test_non_finite_rejected(self, tmp_path, key, raw):
        section, name = key.split(".")
        env_name = f"{ENV_PREFIX}{section.upper()}__{name.upper()}"
        with pytest.raises(ConfigError, match=key):
            load_config(None, environ={env_name: raw})
        text, n = re.subn(rf"^{name} = .*$", f"{name} = {raw}", default_config_text(), flags=re.M)
        assert n == 1
        path = tmp_path / "nonfinite.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    def test_auto_or_float_keys(self):
        cfg = load_config(None)
        assert cfg["td"]["alpha"] == "auto" and cfg["nystrom"]["ridge"] == "auto"
        cfg = load_config(None, environ={f"{ENV_PREFIX}TD__ALPHA": "1e-3",
                                         f"{ENV_PREFIX}NYSTROM__RIDGE": "2e-6"})
        assert cfg["td"]["alpha"] == 1e-3 and cfg["nystrom"]["ridge"] == 2e-6

    def test_default_hash_is_pinned(self):
        assert config_hash(load_config(None)) == "d71ed027093c"

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

    @pytest.mark.parametrize(
        "override, named",
        [
            ("TD__GAMMA=nan", "td.gamma"),
            ("ENV__JUMP_INTENSITY=inf", "env.jump_intensity"),
            ("ALGEBRA__DEGREE=0", "algebra.degree"),
            # with lie_degree 1 too, so that the lie_degree rule does not name it
            ("ALGEBRA__DEGREE=1;FLOW__LIE_DEGREE=1", "algebra.degree"),
            ("HORIZON__DT=-0.1", "horizon.dt"),
            ("TD__ALPHA=fast", "td.alpha"),
            ("NYSTROM__RIDGE=abc", "nystrom.ridge"),
            ("NYSTROM__RIDGE=nan", "nystrom.ridge"),
            ("ENV__DIM=2", "env.dim"),
            ("NYSTROM__LANDMARKS=2", "nystrom.landmarks"),
            ("FLOW__LIE_DEGREE=9", "flow.lie_degree"),
            ("ENV__VOL_SUB=0.1", "env.vol_sub"),
            ("TD__GAMMA=1.5", "td.gamma"),
            ("TD__ITERS=0", "td.iters"),
            ("TRAIN__LR=-1", "train.lr"),
            ("FLOW__PHASE_POWERS=-1", "flow.phase_powers"),
            ("RISK__ALPHA_TAIL=2", "risk.alpha_tail"),
            ("ANALYSIS__DECAY_SEEDS=0", "analysis.decay_seeds"),
            ("ANALYSIS__STRESS_SCALES=", "analysis.stress_scales"),
            ("ANALYSIS__STRESS_GROUPS=0", "analysis.stress_groups"),
            ("ANALYSIS__STRESS_GROUPS=-8", "analysis.stress_groups"),
            ("FLOW__PROXY_FEATURES=-1", "flow.proxy_features"),
            ("RISK__ACTION_STEP=0", "risk.action_step"),
            ("RISK__ACTION_STEP=1.5", "risk.action_step"),
            ("HISTORY__WINDOW=-1", "history.window"),
            ("TD__PLANTED_RANK=-2", "td.planted_rank"),
            ("FLOW__INIT_SCALE=-1", "flow.init_scale"),
            ("TRAIN__STEPS=-1", "train.steps"),
            ("TRAIN__ETA_SCF=-1", "train.eta_scf"),
            ("TRAIN__CONTRACTION_REG=-1", "train.contraction_reg"),
            ("ENV__MEMORY_FEATURES=-1", "env.memory_features"),
            ("ANALYSIS__CONTRACTION_TRIALS=0", "analysis.contraction_trials"),
            ("SIGNATURE__MODE=foo", "signature.mode"),
            ("SIGNATURE__HISTORY_MODE=foo", "signature.history_mode"),
            ("ALGEBRA__LEVEL_WEIGHTS=foo", "algebra.level_weights"),
            ("HISTORY__DT=-1", "history.dt"),
            ("HORIZON__DT=0", "horizon.dt"),
            ("HISTORY__STEPS=0", "history.steps"),
            ("HORIZON__STEPS=0", "horizon.steps"),
            ("NYSTROM__METRIC_LAMBDA=0", "nystrom.metric_lambda"),
            ("TRAIN__ENSEMBLE_SIZE=1", "train.ensemble_size"),
            ("VARIANCE__ENSEMBLE_SIZE=0", "variance.ensemble_size"),
            # values the library rejects only once a run reaches them, or
            # never; the config names them before any work
            ("ENV__JUMP_INTENSITY=-1", "env.jump_intensity"),
            ("ENV__VOL_DIAG=-0.25", "env.vol_diag"),
            ("ENV__JUMP_SCALE=-0.15", "env.jump_scale"),
            ("ANALYSIS__STRESS_SCALES=1, -3", "analysis.stress_scales"),
            ("NYSTROM__LANDMARKS=0;ENV__MEMORY_FEATURES=0", "nystrom.landmarks"),
            ("NYSTROM__RIDGE=0", "nystrom.ridge"),
            ("TD__ALPHA=-0.1", "td.alpha"),
            ("RISK__BETA=-1", "risk.beta"),
            ("ANALYSIS__FIXED_POINT_TOL=0", "analysis.fixed_point_tol"),
            ("VARIANCE__SEEDS=29", "variance.seeds"),
            ("ANALYSIS__STRESS_GROUPS=3", "analysis.stress_groups"),
            ("FLOW__PROXY_FEATURES=200", "flow.proxy_features"),
            ("TD__GAMMA=1", "td.gamma"),
            (
                "ENV__DIM=0;ENV__DRIFT_BASE=;ENV__VOL_DIAG=;ENV__JUMP_MEAN=;"
                "ENV__JUMP_SCALE=;ENV__ACTION_EXPOSURE=;ENV__REWARD_COEFFS=;"
                "ENV__REWARD_ACTION_EXPOSURE=",
                "env.dim",
            ),
        ],
    )
    def test_bad_value_exits_2_without_traceback(self, tmp_path, override, named):
        # the row's overrides come last, so they win over the small sizes
        env = {
            **os.environ,
            f"{ENV_PREFIX}TRAIN__STEPS": "1",
            f"{ENV_PREFIX}TRAIN__ENSEMBLE_SIZE": "16",
        }
        for item in override.split(";"):
            name, value = item.split("=")
            env[f"{ENV_PREFIX}{name}"] = value
        res = subprocess.run(
            [sys.executable, "-m", "siglearn.cli", "run-scf", "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert named in res.stderr

    @pytest.mark.parametrize(
        "make, named",
        [
            (lambda base: base + "\n[td]\ngamma = 0.9\n", "section 'td' already exists"),
            (lambda base: base.replace("[td]\n", "[td]\ngamma = 0.9\n"),
             "option 'gamma' in section 'td' already exists"),
            (lambda base: "degree = 4\n" + base, "no section headers"),
            (lambda base: base.replace("lr = 0.05", "lr = 5%"), "cannot parse train.lr"),
            (lambda base: b"\xff\xfe" + base.encode(), "can't decode byte 0xff"),
            (None, "Is a directory"),
        ],
        ids=["second-section", "repeated-key", "no-section-header", "percent-value",
             "utf16-bom", "directory"],
    )
    def test_unreadable_or_malformed_file_exits_2(self, tmp_path, capsys, make, named):
        # each input is print-config's output changed one way
        path = tmp_path / "bad.ini"
        if make is None:
            path.mkdir()
        else:
            text = make(default_config_text())
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
        code = main(["run-td", "--seed", "1", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:"), err
        assert named in err

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "out" if under else taken
        code = main(["run-td", "--seed", "1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(out) in err, err
        assert ("Not a directory" if under else "File exists") in err

    @pytest.mark.parametrize(
        "subcommand, blocker, make, named",
        [
            ("run-analysis", "analysis", lambda p: p.write_text("a file\n"), "File exists"),
            ("run-scf", "scf_trace.csv", lambda p: p.mkdir(), "Is a directory"),
        ],
        ids=["file-named-analysis", "directory-named-scf-trace"],
    )
    def test_unwritable_artifact_exits_2(self, tmp_path, small_config, capsys,
                                         subcommand, blocker, make, named):
        out = tmp_path / "out"
        out.mkdir()
        make(out / blocker)
        code = main([subcommand, "--config", str(small_config), "--seed", "1",
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(out / blocker) in err and named in err, err

    def test_divergence_exits_3_with_trace(self, tmp_path, small_config, capsys):
        blown = tmp_path / "blown.ini"
        blown.write_text(SMALL_CONFIG.replace("lr = 0.05", "lr = 1e100"))
        out = tmp_path / "odiv"
        code = main(["run-scf", "--config", str(blown), "--out-dir", str(out), "--seed", "0"])
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert "error" in err

    def test_divergence_with_unwritable_trace_exits_3(self, tmp_path, small_config, capsys):
        # a directory named error.json: the divergence still exits 3, and its
        # one stderr line names the trace path it could not write
        blown = tmp_path / "blown.ini"
        blown.write_text(SMALL_CONFIG.replace("lr = 0.05", "lr = 1e100"))
        out = tmp_path / "odiv"
        (out / "error.json").mkdir(parents=True)
        code = main(["run-scf", "--config", str(blown), "--out-dir", str(out), "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("numeric divergence"), err
        assert f"cannot write {out / 'error.json'}" in err, err

    def test_non_finite_variance_exits_3(self, tmp_path, small_config, monkeypatch):
        # a payoff near the float limit makes the TD-error variances overflow;
        # variance.json would hold Infinity and NaN, which is not JSON
        monkeypatch.setenv(f"{ENV_PREFIX}TD__TERMINAL_PAYOFF", "1e308")
        out = tmp_path / "oinf"
        code = main(["run-td", "--config", str(small_config), "--out-dir", str(out), "--seed", "1"])
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["context"] == {"family": "anticipatory", "step": 0}
        assert not (out / "variance.json").exists()

    def test_memory_error_exits_2(self, tmp_path, small_config, capsys, monkeypatch):
        # as numpy raises it for a landmark Gram of nystrom.landmarks squared
        # floats; raised here, so that no test allocates that much
        def build_nystrom(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")

        monkeypatch.setattr("siglearn.experiments.build_nystrom", build_nystrom)
        code = main(["run-scf", "--config", str(small_config), "--out-dir",
                     str(tmp_path / "oom"), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("out of memory: Unable to allocate"), err

    def test_print_config(self, capsys):
        assert main(["print-config"]) == 0
        assert "[algebra]" in capsys.readouterr().out


def _text(values):
    return values.map(repr)


# baseline keys run-scf reads, each with values on both sides of its range
# and some that do not parse
_JUNK = st.sampled_from(["", "abc", "1e400", "nan", "-inf", "1, 2", "auto"])
_PERTURBED = {
    "ALGEBRA__DEGREE": _text(st.integers(-1, 5)),
    "ENV__DRIFT_BASE": _text(st.floats(-50.0, 50.0)),
    "ENV__VOL_DIAG": _text(st.floats(-1.0, 3.0)),
    "ENV__JUMP_INTENSITY": _text(st.floats(-2.0, 50.0)),
    "ENV__JUMP_SCALE": _text(st.floats(-1.0, 5.0)),
    "ENV__MEMORY_FEATURES": _text(st.integers(-1, 8)),
    "HISTORY__STEPS": _text(st.integers(-1, 24)),
    "HISTORY__DT": _text(st.floats(-0.1, 0.5)),
    "HORIZON__STEPS": _text(st.integers(-1, 24)),
    "HORIZON__DT": _text(st.floats(-0.1, 0.5)),
    "NYSTROM__LANDMARKS": _text(st.integers(-1, 160)),
    "NYSTROM__RIDGE": _text(st.floats(-1e-3, 1.0)),
    "NYSTROM__METRIC_LAMBDA": _text(st.floats(-1.0, 1.0)),
    "FLOW__LIE_DEGREE": _text(st.integers(-1, 6)),
    "FLOW__PROXY_FEATURES": _text(st.integers(-1, 200)),
    "FLOW__PHASE_POWERS": _text(st.integers(-1, 6)),
    "FLOW__INIT_SCALE": _text(st.floats(-1.0, 1e3)),
    "TRAIN__LR": _text(st.floats(-1.0, 1e3)),
    "TRAIN__ETA_SCF": _text(st.floats(-1.0, 10.0)),
    "TRAIN__CONTRACTION_REG": _text(st.floats(-1.0, 100.0)),
}
_OVERRIDES = st.dictionaries(
    st.sampled_from(sorted(_PERTURBED)), st.just(None), min_size=1, max_size=3
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: st.one_of(_PERTURBED[k], _JUNK) for k in keys}
    )
)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_OVERRIDES)
def test_perturbed_baseline_keeps_exit_contract(overrides):
    # run-scf in process: any exception that escapes main() would be a bare
    # traceback (exit 1); codes 0, 2 and 3 are the contract
    env = {f"{ENV_PREFIX}{k}": v for k, v in overrides.items()}
    env[f"{ENV_PREFIX}TRAIN__STEPS"] = "2"
    env[f"{ENV_PREFIX}TRAIN__ENSEMBLE_SIZE"] = "16"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, mock.patch.dict(os.environ, env), \
            contextlib.redirect_stderr(err):
        code = main(["run-scf", "--seed", "1", "--out-dir", out])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _without_meta(text: str) -> str:
    payload = json.loads(text)
    del payload["_meta"]
    return json.dumps(payload)


def _artifact_numbers(out: Path) -> dict:
    """Every number each written file holds, by file name."""
    found = {}
    for p in out.rglob("*"):
        if p.suffix == ".csv":
            rows = list(csv.reader(p.read_text().splitlines()[2:]))
            found[p.name] = [float(v) for row in rows for v in row]
        elif p.suffix == ".json":
            payload = json.loads(p.read_text())
            del payload["_meta"]
            found[p.name] = list(_json_numbers(payload))
    return found


def _json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _json_numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)
    elif isinstance(node, str):
        # nystrom.json writes its landmarks as repr strings
        yield float(node)


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

        # each subcommand writes its own slice of run-all: the same bytes
        # below the CSV header line, the same JSON apart from _meta
        written = []
        for sub in ("run-scf", "run-td", "run-greeks", "run-analysis"):
            part = tmp_path / sub
            assert main([sub, "--config", str(small_config), "--seed", "3",
                         "--out-dir", str(part)]) == 0
            names = [str(p.relative_to(part)) for p in part.rglob("*") if p.is_file()]
            assert names, sub
            written += names
            for name in names:
                mine, full = (part / name).read_text(), (out / name).read_text()
                if name.endswith(".csv"):
                    assert mine.split("\n", 1)[1] == full.split("\n", 1)[1], (sub, name)
                else:
                    assert _without_meta(mine) == _without_meta(full), (sub, name)
        assert sorted(written) == sorted(expected)

    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("run-scf", {"ALGEBRA__LEVEL_WEIGHTS": "factorial"}),
            ("run-scf", {
                "ENV__DIM": "2", "ENV__DRIFT_BASE": "0.08, 0.05",
                "ENV__VOL_DIAG": "0.3, 0.2", "ENV__VOL_SUB": "0.1",
                "ENV__JUMP_MEAN": "-0.15, 0.1", "ENV__JUMP_SCALE": "0.1, 0.05",
                "ENV__ACTION_EXPOSURE": "0.05, 0.02", "ENV__REWARD_COEFFS": "1.0, 0.5",
                "ENV__REWARD_ACTION_EXPOSURE": "0.5, 0.5",
            }),
            ("run-td", {"TD__PLANTED_RANK": "0"}),
            ("run-scf", {"FLOW__PIN_CLOCK": "false"}),
        ],
        ids=["factorial-level-weights", "dim-2-vol-sub", "planted-rank-0", "unpinned-clock"],
    )
    def test_rarely_set_values_run_and_stay_finite(
        self, tmp_path, small_config, monkeypatch, subcommand, overrides
    ):
        for key, value in overrides.items():
            monkeypatch.setenv(f"{ENV_PREFIX}{key}", value)
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(small_config), "--seed", "2",
                     "--out-dir", str(out)]) == 0
        numbers = _artifact_numbers(out)
        assert numbers
        for name, values in numbers.items():
            assert np.all(np.isfinite(values)), name
        if subcommand == "run-scf":
            generator = json.loads((out / "generator.json").read_text())
            pinned = overrides.get("FLOW__PIN_CLOCK") != "false"
            assert (generator["clock_rate"] is not None) == pinned

    def test_run_all_reproducible_across_threads(self, tmp_path, small_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run-all", "--config", str(small_config), "--seed", "5",
                     "--out-dir", str(out1)]) == 0
        assert main(["run-all", "--config", str(small_config), "--seed", "5",
                     "--out-dir", str(out2)]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # the CLI pins BLAS to one thread, so the thread count the
        # environment asks for cannot reach the last digits of a result
        digests = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"blas{threads}"
            res = subprocess.run(
                [sys.executable, "-m", "siglearn.cli", "run-td", "--seed", "1",
                 "--out-dir", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_seed_changes_artifacts(self, tmp_path, small_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run-scf", "--config", str(small_config), "--seed", "1", "--out-dir", str(out1)])
        main(["run-scf", "--config", str(small_config), "--seed", "2", "--out-dir", str(out2)])
        assert tree_digest(out1) != tree_digest(out2)


@pytest.fixture(scope="module")
def small_scf_run(tmp_path_factory):
    """A small run-scf output directory and the scenario it was written from."""
    root = tmp_path_factory.mktemp("scf")
    config = root / "small.ini"
    config.write_text(SMALL_CONFIG)
    out = root / "out"
    assert main(["run-scf", "--config", str(config), "--seed", "2", "--out-dir", str(out)]) == 0
    return out, build_scenario(load_config(str(config)), 2)


class TestWrittenArtifacts:
    def test_history_csv_round_trip(self, small_scf_run):
        out, sc = small_scf_run
        path = sc.history_path
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0].startswith("# subcommand=run-scf")
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["path_id", "t"] + [f"x_{i + 1}" for i in range(path.dim)] + ["jump_flag"]
        body = np.array(rows[1:], dtype=float)
        assert np.array_equal(body[:, 0], np.zeros(path.n_points))
        assert np.array_equal(body[:, 1], path.times)
        assert np.array_equal(body[:, 2:-1], path.values)
        assert np.array_equal(body[:, -1].astype(bool), path.jump_flags)

    def test_nystrom_json_round_trip(self, small_scf_run):
        out, sc = small_scf_run
        payload = json.loads((out / "nystrom.json").read_text())
        assert payload["_meta"]["seed"] == 2
        assert (payload["channels"], payload["degree"]) == (sc.nmap.channels, sc.nmap.degree)
        assert payload["ridge"] == sc.nmap.ridge
        assert payload["level_weights"] == sc.nmap.level_weights.tolist()
        landmarks = np.array(payload["landmarks"], dtype=float)
        assert np.array_equal(landmarks, sc.nmap.landmarks)


class TestDefaultConfigCriteria:
    def test_run_td_default_realizable_objective(self, tmp_path):
        # shipped baseline: the planted-weight sweep must reach J < 1e-8
        out = tmp_path / "default_td"
        assert main(["run-td", "--seed", "1", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["final_objective"] < 1e-8
        # the sweep ends 1.6% from the solve: its slowest mode contracts by
        # only about 1.9e-10 per iteration, and weights.json says so
        assert 0.0 < 1.0 - payload["sweep_spectral_radius"] < 1e-9
        assert payload["sweep_predicted_iters"] > 1e10
        assert payload["sweep_vs_solve_rel"] > 1e-6
        assert payload["sweep_converged"] is False
        assert json.loads((out / "variance.json").read_text())["ratio"] < 1.0


# sha256 of each file `run-all --seed S` writes on the baseline, for S = 1, 2
# and 3, and the numeric build they were taken on.  After a change that
# alters results on purpose, re-pin with `PYTHONPATH=src python tests/test_cli.py`,
# which prints per seed the files whose digests moved, the files no pin names
# and the pinned files no longer written, and say so in CHANGES.md.
PINNED_DIGESTS = Path(__file__).with_name("run_all_digests.json")


def numeric_build() -> str:
    """numpy's version, the OpenBLAS build it runs on and its SIMD targets.

    OpenBLAS reports the kernel set it picked for this CPU, and numpy the
    SIMD targets its own loops dispatch to; either can change the last
    digits of a result.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    blas = "no bundled OpenBLAS"
    libs = Path(np.__file__).resolve().parent
    for path in sorted([*libs.parent.glob("numpy.libs/libscipy_openblas*"),
                        *libs.glob(".dylibs/libscipy_openblas*")]):
        try:
            config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        blas = " ".join(config().decode().split())
        break
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__}; {blas}; SIMD {' '.join(simd) or 'baseline'}"


def run_all_digests(seed: int, out: Path) -> dict:
    clean = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    with mock.patch.dict(os.environ, clean, clear=True):
        assert main(["run-all", "--seed", str(seed), "--out-dir", str(out)]) == 0
    return tree_digest(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_all_writes_the_pinned_bytes(tmp_path, seed):
    # bitwise equality holds on one numeric build only, so another build
    # skips rather than compare to a tolerance
    pinned = json.loads(PINNED_DIGESTS.read_text())
    here = numeric_build()
    if pinned["build"] != here:
        pytest.skip(f"digests were taken on [{pinned['build']}], this is [{here}]")
    assert run_all_digests(seed, tmp_path) == pinned["seeds"][str(seed)]


if __name__ == "__main__":
    old = json.loads(PINNED_DIGESTS.read_text())["seeds"] if PINNED_DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        seeds = {str(s): run_all_digests(s, Path(tmp) / str(s)) for s in (1, 2, 3)}
    for seed, digests in seeds.items():
        pinned = old.get(seed, {})
        added = sorted(digests.keys() - pinned.keys())
        missing = sorted(pinned.keys() - digests.keys())
        moved = sorted(f for f, h in digests.items() if f in pinned and pinned[f] != h)
        kept = len(digests) - len(added) - len(moved)
        print(f"seed {seed}: {len(moved)} moved, {kept} kept: {', '.join(moved) or '-'}; "
              f"added: {', '.join(added) or '-'}; missing: {', '.join(missing) or '-'}")
    PINNED_DIGESTS.write_text(
        json.dumps({"build": numeric_build(), "seeds": seeds}, indent=1) + "\n"
    )

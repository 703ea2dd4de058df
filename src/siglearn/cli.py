"""Experiment driver: reproducible runs and plot-ready artifacts.

Every emitted file starts with a header line naming the producing
subcommand, the config hash, and the seed; identical (config, seed) inputs
produce byte-identical artifacts.  BLAS runs on one thread whatever the
environment says, because a threaded BLAS changes the last digits of
results.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ReturnLaw,
    contraction_check,
    fixed_point_iterate,
    forecast_decay,
    lyapunov_estimate,
    whitened_norm_stress,
)
from .config import config_hash, default_config_text, load_config
from .errors import ConfigError, DivergenceError, SiglearnError
from .experiments import (
    Scenario,
    build_scenario,
    derive_seed,
    greeks_fd_report,
    realizable_td_experiment,
    risk_report,
    train_scf,
    variance_experiment,
)
from .proxy_flow import TrainResult

SUBCOMMANDS = ("run-scf", "run-td", "run-greeks", "run-analysis", "run-all")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_json(path: Path, header_meta: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"_meta": header_meta, **payload}, fh, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


class Runner:
    """Shared state for one CLI invocation."""

    def __init__(self, cfg: dict, seed: int, out_dir: Path, subcommand: str):
        self.cfg = cfg
        self.seed = seed
        self.out = out_dir
        self.subcommand = subcommand
        self.chash = config_hash(cfg)
        self.out.mkdir(parents=True, exist_ok=True)
        self._scenario: Scenario | None = None
        self._training: tuple[TrainResult, dict] | None = None

    def meta(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config_hash": self.chash,
            "seed": self.seed,
        }

    # -- artifact writers: a name under the output directory, and the header
    # line or _meta block that names this run

    def _path(self, name: str) -> Path:
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _csv(self, name: str, columns, rows) -> None:
        with open(self._path(name), "w", newline="") as fh:
            fh.write(f"# subcommand={self.subcommand} config={self.chash} seed={self.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])

    def _dict_rows(self, name: str, rows: list[dict]) -> None:
        """A CSV whose columns are the keys of the first row."""
        self._csv(name, list(rows[0]), [list(r.values()) for r in rows])

    def _json(self, name: str, payload: dict) -> None:
        _write_json(self._path(name), self.meta(), payload)

    @property
    def scenario(self) -> Scenario:
        if self._scenario is None:
            self._scenario = build_scenario(self.cfg, self.seed)
        return self._scenario

    def training(self) -> tuple[TrainResult, dict]:
        """The trained generator with its flow, and its first and final losses."""
        if self._training is None:
            self._training = train_scf(self.cfg, self.scenario)
        return self._training

    # -- subcommand bodies -------------------------------------------------

    def run_scf(self) -> None:
        result, diag = self.training()
        gen, traj = result.params, result.trajectory
        sc = self.scenario
        self._csv(
            "scf_trace.csv",
            ["step", "total", "score", "scf", "reg", "grad_norm", "update_max"],
            [
                [r["step"], r["total"], r["score"], r["scf"], r["reg"],
                 r["grad_norm"], r["update_max"]]
                for r in result.trace
            ],
        )
        self._json(
            "generator.json",
            {
                "channels": gen.channels,
                "degree": gen.degree,
                "lie_degree": gen.lie_degree,
                "n_proxy_features": gen.n_proxy_features,
                "phase_powers": gen.phase_powers,
                "clock_rate": gen.clock_rate,
                "weights": gen.weights.tolist(),
                "losses_before": diag["before"],
                "losses_after": diag["after"],
                "training_trace_total": [r["total"] for r in result.trace],
            },
        )
        self._csv(
            "proxy.csv",
            ["s", "channels", "degree"]
            + [f"c{i}" for i in range(traj.flats.shape[1])],
            [
                [s, traj.channels, traj.degree] + list(flat)
                for s, flat in zip(traj.grid, traj.flats)
            ],
        )
        nmap = sc.nmap
        self._json(
            "nystrom.json",
            {
                "channels": nmap.channels,
                "degree": nmap.degree,
                "ridge": nmap.ridge,
                "level_weights": nmap.level_weights.tolist(),
                "landmarks": [[repr(float(v)) for v in row] for row in nmap.landmarks],
            },
        )
        term = sc.terminal_metric()
        self._csv(
            "metric.csv",
            [f"q{i}" for i in range(term.dim)],
            [list(row) for row in term.precision],
        )
        hist = sc.history_path
        self._csv(
            "history.csv",
            ["path_id", "t"] + [f"x_{i + 1}" for i in range(hist.dim)] + ["jump_flag"],
            [
                [0, t] + list(x) + [int(flag)]
                for t, x, flag in zip(hist.times, hist.values, hist.jump_flags)
            ],
        )
        ens = sc.train_ensemble
        sample = min(8, ens.n_paths)
        rows = []
        for pid in range(sample):
            for j in range(ens.n_grid):
                reward = 0.0 if j == 0 else ens.rewards[pid, j - 1]
                rows.append(
                    [pid, ens.times[j]]
                    + list(ens.values[pid, j])
                    + [int(ens.jump_flags[pid, j]), reward]
                )
        dim = ens.values.shape[2]
        self._csv(
            "ensemble.csv",
            ["path_id", "t"] + [f"x_{i + 1}" for i in range(dim)] + ["jump_flag", "reward"],
            rows,
        )

    def run_td(self) -> None:
        rep = realizable_td_experiment(self.cfg, self.scenario)
        sweep = rep["sweep"]
        n = sweep.objective_trace.size
        # dense early trace, thinned tail, always the final iteration
        kept = [i for i in range(n) if i < 1000 or (i + 1) % 100 == 0 or i == n - 1]
        self._csv(
            "td_trace.csv",
            ["iter", "objective", "weight_norm", "max_abs_delta"],
            [
                [i + 1, sweep.objective_trace[i], sweep.weight_norms[i],
                 sweep.max_abs_delta[i]]
                for i in kept
            ],
        )
        self._json(
            "weights.json",
            {
                "gamma": rep["gamma"],
                "alpha": rep["alpha"],
                "w_sweep": sweep.w.tolist(),
                "w_solution": rep["solution"].w.tolist(),
                "w_true": rep["w_true"].tolist(),
                "solution_ridged": rep["solution"].ridged,
                "solution_residual": rep["solution"].residual,
                "sweep_vs_solve_rel": rep["sweep_vs_solve_rel"],
                "sweep_spectral_radius": sweep.spectral_radius,
                "sweep_predicted_iters": sweep.predicted_iters,
                "sweep_converged": rep["sweep_converged"],
                "max_delta_at_solution": rep["max_delta_at_solution"],
                "final_objective": rep["final_objective"],
            },
        )
        self._json("variance.json", variance_experiment(self.cfg, self.scenario))

    def run_greeks(self) -> None:
        sc = self.scenario
        result, _ = self.training()
        rows = greeks_fd_report(sc, result.params, result.trajectory)
        self._dict_rows("greeks.csv", rows)
        self._json("risk.json", risk_report(self.cfg, sc))

    def run_analysis(self) -> None:
        sc = self.scenario
        cfg_a = self.cfg["analysis"]
        gamma = self.cfg["td"]["gamma"]
        metric = sc.terminal_metric()

        con = contraction_check(
            metric, gamma,
            n_trials=cfg_a["contraction_trials"],
            seed=derive_seed(self.seed, "contraction"),
        )
        self._dict_rows("analysis/contraction.csv", [con])

        rng = np.random.default_rng(derive_seed(self.seed, "fixed-point"))
        fp = fixed_point_iterate(
            reward=0.3,
            gamma=gamma,
            next_features=rng.normal(size=metric.dim),
            eta0=ReturnLaw(rng.normal(), rng.normal(size=metric.dim)),
            metric=metric,
            tol=cfg_a["fixed_point_tol"],
        )
        self._csv(
            "analysis/fixed_point.csv",
            ["gamma", "iterations", "fitted_rate"],
            [[gamma, fp.iterations, fp.fitted_rate]],
        )

        decay = forecast_decay(
            self.training()[0].trajectory, metric, sc.env, sc.junction(),
            self.cfg["train"]["ensemble_size"],
            [derive_seed(self.seed, f"decay-{i}") for i in range(cfg_a["decay_seeds"])],
            sc.sig_config,
        )
        self._csv(
            "analysis/forecast_decay.csv",
            ["s", "error", "q_norm"],
            list(zip(decay["s"], decay["error"], decay["q_norms"])),
        )

        stress = whitened_norm_stress(
            sc.env, sc.junction(), sc.grid,
            self.cfg["train"]["ensemble_size"],
            derive_seed(self.seed, "stress"),
            sc.sig_config, sc.nmap, metric,
            scales=cfg_a["stress_scales"],
            n_groups=cfg_a["stress_groups"],
        )
        self._dict_rows("analysis/norm_stress.csv", stress)

        lam = lyapunov_estimate(
            sc.env, sc.junction(), sc.grid,
            [derive_seed(self.seed, f"lyap-{i}") for i in range(8)],
            sc.sig_config,
            nmap=sc.nmap,
        )
        summary = {
            "contraction": {
                "max_ratio": con["max_ratio"],
                "gamma": gamma,
                "pass": con["max_ratio"] <= gamma + 1e-9,
            },
            "fixed_point": {
                "fitted_rate": fp.fitted_rate,
                "pass": fp.fitted_rate is not None and abs(fp.fitted_rate - gamma) <= 0.02,
            },
            "forecast_decay": {
                "beta": decay["beta"],
                "max_q_norm": decay["max_q_norm"],
                "bounded": bool(np.isfinite(decay["max_q_norm"])),
            },
            "norm_stress": {
                "raw_growth": stress[-1]["raw_growth"],
                "whitened_growth": stress[-1]["whitened_growth"],
                "pass": stress[-1]["whitened_growth"] < stress[-1]["raw_growth"],
            },
            "lyapunov_exponent": lam,
        }
        self._json("summary.json", summary)

    def run_all(self) -> None:
        self.run_scf()
        self.run_td()
        self.run_greeks()
        self.run_analysis()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siglearn",
        description="Signature-proxy value learning experiments",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS + ("print-config",))
    parser.add_argument("--config", default=None, help="INI config path (built-in baseline if omitted)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    return parser


def pin_blas_threads() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; True if that call was made.

    The setter is looked up in the OpenBLAS that numpy's wheel ships.  If
    there is none, OPENBLAS_NUM_THREADS=1 is set instead, which OpenBLAS
    reads only when it loads: it then holds for a numpy loaded later, such
    as in a child process, not for one loaded already.
    """
    libs = Path(np.__file__).resolve().parent
    for path in sorted([*libs.parent.glob("numpy.libs/libscipy_openblas*"),
                        *libs.glob(".dylibs/libscipy_openblas*")]):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter(1)
        return True
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_blas_threads()
    if args.subcommand == "print-config":
        sys.stdout.write(default_config_text())
        return 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cfg, args.seed, Path(args.out_dir), args.subcommand)
    try:
        {
            "run-scf": runner.run_scf,
            "run-td": runner.run_td,
            "run-greeks": runner.run_greeks,
            "run-analysis": runner.run_analysis,
            "run-all": runner.run_all,
        }[args.subcommand]()
    except DivergenceError as exc:
        trace_path = Path(args.out_dir) / "error.json"
        _write_json(trace_path, runner.meta(), {"error": str(exc), "context": exc.context})
        print(f"numeric divergence: {exc} (trace in {trace_path})", file=sys.stderr)
        return 3
    except SiglearnError as exc:
        # raised on a value the config parser accepted but the run cannot use
        print(f"invalid configuration: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: set-up, one timed round, and the checks on its output.

A round is the unit a run repeats: one ``run-all`` command, one large
ensemble scan, or one pass that streams every observed history.  Each
round returns the latency of every operation it timed, so the runner can
report medians and supported tails, and a digest of its outputs, so the
runner can require identical results from identical inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

import reference as ref
from measure import rel_close


class CheckError(AssertionError):
    """An output of the program failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def sub_seed(*words: int) -> int:
    """A 63-bit seed derived from the run seed and a role, stable across runs."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Round:
    """Timings and outcome of one round; ``latencies_s`` has one entry per decision."""

    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    attempted: int
    failed: int = 0
    paths: int = 0
    digest: str = ""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _baseline_shape(cfg: dict):
    """Junction time, episode span and anticipation grid of the baseline config."""
    hist, hor = cfg["history"], cfg["horizon"]
    t0 = int(hist["steps"]) * float(hist["dt"])
    span = t0 + int(hor["steps"]) * float(hor["dt"])
    grid = t0 + float(hor["dt"]) * np.arange(int(hor["steps"]) + 1)
    return t0, span, grid


# ---------------------------------------------------------------------------
# run_all: the CLI as users run it


def run_all_paths(cfg: dict) -> int:
    """Sample paths the configuration makes ``run-all`` simulate.

    Scenario (history, bootstrap and training ensembles), the variance
    experiment (per seed: history, ensemble, single rollout), the action
    sensitivity (two ensembles), forecast decay, norm stress (one ensemble
    per scale) and the Lyapunov estimate (eight pairs of single paths).
    """
    n = int(cfg["train"]["ensemble_size"])
    var = cfg["variance"]
    an = cfg["analysis"]
    return (
        1 + 2 * n
        + int(var["seeds"]) * (int(var["ensemble_size"]) + 2)
        + 2 * n
        + int(an["decay_seeds"]) * n
        + len(an["stress_scales"]) * n
        + 16
    )


class RunAll:
    name = "run_all"
    repeats_inputs = True
    min_rounds = 1

    def __init__(self, seed: int, root: Path, env: dict):
        t = time.perf_counter()
        import siglearn.cli  # noqa: F401

        self.import_s = time.perf_counter() - t
        from siglearn.config import config_hash, load_config

        self.cfg = load_config(None)
        self.chash = config_hash(self.cfg)
        self.seed = seed
        self.env = env
        self.work = root / "perfbench" / "out" / "run_all"
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths = run_all_paths(self.cfg)
        _, self.span, grid = _baseline_shape(self.cfg)
        self.horizon = float(grid[-1] - grid[0])

    def _argv(self, out: str) -> list[str]:
        return ["run-all", "--seed", str(self.seed), "--out-dir", out]

    def _command(self, out: str):
        """The command in a subprocess: exit code, wall and CPU seconds."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "siglearn.cli", *self._argv(out)],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc.returncode, wall, cpu

    def _in_process(self, out: str, tracer):
        """The same command in this process, under the tracer."""
        import siglearn.cli as cli

        t, c = time.perf_counter(), time.process_time()
        with tracer, tracer.span("cli.runner"):
            code = cli.main(self._argv(out))
        return code, time.perf_counter() - t, time.process_time() - c

    def round(self, r: int, tracer=None) -> Round:
        out = tempfile.mkdtemp(prefix=f"s{self.seed}-r{r}-", dir=self.work)
        try:
            if tracer is None:
                code, wall, cpu = self._command(out)
            else:
                code, wall, cpu = self._in_process(out, tracer)
            if code != 0:
                return Round(wall, cpu, [wall], attempted=1, failed=1)
            digest = self.check_artifacts(Path(out))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Round(wall, cpu, [wall], attempted=1, paths=self.paths, digest=digest)

    def check_artifacts(self, out: Path) -> str:
        files = sorted(p for p in out.rglob("*") if p.is_file())
        check(len(files) == 17, f"run-all wrote {len(files)} files, expected 17")
        meta = {"subcommand": "run-all", "config_hash": self.chash, "seed": self.seed}
        header = f"# subcommand=run-all config={self.chash} seed={self.seed}"
        docs = {}
        for p in files:
            text = p.read_text()
            if p.suffix == ".json":
                docs[p.name] = json.loads(text)
                check(docs[p.name]["_meta"] == meta, f"{p.name}: header {docs[p.name]['_meta']}")
            else:
                check(text.split("\n", 1)[0] == header, f"{p.name}: header line")

        risk = docs["risk.json"]
        n = int(self.cfg["train"]["ensemble_size"])
        pop_var = risk["sample_variance"] * (n - 1) / n
        spread = pop_var**0.5
        check(
            rel_close(risk["mean"], risk["sample_mean"], 1e-12, abs(risk["sample_mean"]) + spread),
            "risk.json: signature mean != sample mean",
        )
        check(
            rel_close(risk["variance"], pop_var, 1e-12, pop_var + risk["sample_mean"] ** 2),
            "risk.json: signature variance != population variance",
        )

        rows = (out / "proxy.csv").read_text().splitlines()[2:]
        first = np.array([float(v) for v in rows[0].split(",")[3:]])
        last = np.array([float(v) for v in rows[-1].split(",")[3:]])
        check(first[0] == 1.0 and not np.any(first[1:]), "proxy.csv: row 0 is not the identity")
        check(
            rel_close(last[1], self.horizon / self.span, 1e-12),
            "proxy.csv: time coordinate at T != horizon / time_scale",
        )

        check(docs["variance.json"]["ratio"] < 1.0, "variance.json: ratio >= 1")

        lines = (out / "greeks.csv").read_text().splitlines()[1:]
        cols = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(cols, (float(v) for v in line.split(","))))
            check(row["grad_w_fd_rel_err"] <= 1e-6, "greeks.csv: grad_w FD error")
            check(row["grad_proxy_fd_rel_err"] <= 1e-6, "greeks.csv: grad_proxy FD error")
            check(row["grad_theta_fd_rel_err"] <= 1e-4, "greeks.csv: grad_theta FD error")

        summary = docs["summary.json"]
        gamma = float(self.cfg["td"]["gamma"])
        check(summary["contraction"]["max_ratio"] <= gamma + 1e-9, "summary.json: contraction")
        rate = summary["fixed_point"]["fitted_rate"]
        check(rate is not None and abs(rate - gamma) <= 0.02, "summary.json: fixed-point rate")
        stress = summary["norm_stress"]
        check(stress["whitened_growth"] < stress["raw_growth"], "summary.json: whitened growth")

        gen = docs["generator.json"]
        check(
            gen["losses_after"]["score"] < gen["losses_before"]["score"],
            "generator.json: training did not lower the score loss",
        )

        h = hashlib.sha256()
        for p in files:
            h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# ensemble_scan: the large-batch path of scenario building


class EnsembleScan:
    name = "ensemble_scan"
    repeats_inputs = False  # every round draws a fresh ensemble
    min_rounds = 1
    # 5,120 rows of 121 coefficients is 4.7 MiB per flat array, above the
    # 4 MiB L2 cache of the reference machine
    n_paths = 5120
    n_reference_paths = 8

    def __init__(self, seed: int, root: Path, env: dict):
        from siglearn import experiments, jumpdiff, kernelspace, signature  # noqa: F401
        from siglearn.config import load_config

        self.seed = seed
        cfg = load_config(None)
        e = cfg["env"]
        self.t0, span, self.grid = _baseline_shape(cfg)
        self.degree = int(cfg["algebra"]["degree"])
        self.sig_config = signature.SignatureConfig(
            degree=self.degree, time_scale=span, mode="linear"
        )
        self.params = jumpdiff.JumpDiffusionParams(
            drift_base=np.asarray(e["drift_base"]),
            vol=np.diag(e["vol_diag"]),
            jump_intensity=float(e["jump_intensity"]),
            jump_mean=np.asarray(e["jump_mean"]),
            jump_scale=np.asarray(e["jump_scale"]),
            action_exposure=np.asarray(e["action_exposure"]),
            reward_coeffs=np.asarray(e["reward_coeffs"]),
            reward_action_exposure=np.asarray(e["reward_action_exposure"]),
        )
        self.x0 = np.zeros(int(e["dim"]))
        self.landmarks = int(cfg["nystrom"]["landmarks"])
        self.metric_lambda = float(cfg["nystrom"]["metric_lambda"])
        self.jump_p = 1.0 - np.exp(-self.params.jump_intensity * float(cfg["horizon"]["dt"]))

    def _run(self, r: int):
        from siglearn import experiments, jumpdiff, kernelspace

        ens = jumpdiff.generate_ensemble(
            self.params, (self.t0, self.x0, None), None, self.grid, self.n_paths,
            sub_seed(self.seed, 1, r), self.sig_config,
        )
        means, full = jumpdiff.prefix_mean_signatures(ens, keep_paths=True)
        sbar = jumpdiff.empirical_mean_signature(ens, self.grid[0], self.grid[-1])
        marks = experiments.sample_landmark_signatures(
            ens, self.landmarks, sub_seed(self.seed, 2, r)
        )
        nmap = kernelspace.build_nystrom(
            marks, channels=sbar.channels, degree=sbar.degree
        )
        feats = kernelspace.compress_flat(nmap, full)
        metrics = kernelspace.fit_metric_family(feats, self.metric_lambda)
        return ens, means, full, sbar, feats, metrics

    def round(self, r: int, tracer=None) -> Round:
        t, c = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = self._run(r)
            else:
                with tracer, tracer.span("bench"):
                    out = self._run(r)
        except Exception as exc:  # a failed operation is counted, not fatal
            sys.stderr.write(f"ensemble_scan round {r}: {exc!r}\n")
            wall = time.perf_counter() - t
            return Round(wall, time.process_time() - c, [wall], attempted=1, failed=1)
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        self.check(r, *out)
        ens, means, _, sbar, _, metrics = out
        digest = _digest(means, sbar.data, metrics[-1].precision)
        return Round(wall, cpu, [wall], attempted=1, paths=self.n_paths, digest=digest)

    def check(self, r, ens, means, full, sbar, feats, metrics) -> None:
        from siglearn import signature

        c, k = sbar.channels, self.degree
        offs = ref.offsets(c, k)
        ts = self.sig_config.time_scale

        sample = np.random.default_rng(sub_seed(self.seed, 3, r)).choice(
            ens.n_paths, self.n_reference_paths, replace=False
        )
        terminal = signature.batch_terminal_signatures(
            self.sig_config, ens.times, ens.values[sample], ens.jump_flags[sample]
        )
        for row, i in enumerate(sample):
            want = ref.prefix_signatures(
                ens.times, ens.values[i], ens.jump_flags[i], ts, True, k
            )
            check(np.max(np.abs(full[:, i] - want)) <= 1e-10, f"prefix signature of path {i}")
            check(np.max(np.abs(terminal[row] - want[-1])) <= 1e-10, f"terminal signature of path {i}")

        check(np.all(full[:, :, 0] == 1.0), "scalar part != 1")
        incr = np.concatenate(
            [
                np.broadcast_to(((ens.times - ens.times[0]) / ts)[:, None, None], full.shape[:2] + (1,)),
                np.swapaxes(ens.values - ens.values[:, :1], 0, 1),
            ],
            axis=2,
        )
        level1 = full[:, :, offs[1] : offs[2]]
        check(np.max(np.abs(level1 - incr)) <= 1e-12, "level 1 != total increments")
        diag = full[:, :, offs[2] : offs[3]][:, :, :: c + 1]
        check(np.max(np.abs(diag - 0.5 * incr**2)) <= 1e-12, "level-2 diagonal != increment^2 / 2")
        check(np.max(np.abs(means - full.mean(axis=1))) <= 1e-12, "prefix means != mean of paths")

        totals = ens.rewards.sum(axis=1)
        reward = c - 1
        mean = sbar.data[offs[1] + reward]
        var = 2.0 * sbar.data[offs[2] + reward * c + reward] - mean**2
        pop_var = totals.var()
        scale = pop_var + totals.mean() ** 2
        check(rel_close(mean, totals.mean(), 1e-12, scale**0.5), "mean signature reward read != sample mean")
        check(rel_close(var, pop_var, 1e-12, scale), "mean signature variance read != population variance")

        flags = ens.jump_flags[:, 1:]
        se = np.sqrt(self.jump_p * (1 - self.jump_p) / flags.size)
        check(abs(flags.mean() - self.jump_p) <= 5 * se, "jump rate outside 5 binomial SE")

        for j, metric in enumerate(metrics):
            p = metric.precision
            cov = np.atleast_2d(np.cov(feats[j], rowvar=False, ddof=1))
            ev = np.linalg.eigvalsh(p @ cov @ p)
            check(ev[0] >= -1e-12 and ev[-1] < 1.0, f"whitened covariance eigenvalues at point {j}")


# ---------------------------------------------------------------------------
# online_agent: one caller deciding at every observation


class OnlineAgent:
    name = "online_agent"
    repeats_inputs = True
    n_histories = 16
    min_rounds = 4  # 1,024 decisions at least, so the 90th percentile is a tail

    def __init__(self, seed: int, root: Path, env: dict):
        from siglearn import greeks, jumpdiff, proxy_flow, signature, td_learning  # noqa: F401
        from siglearn.config import load_config
        from siglearn.experiments import build_scenario

        cfg = load_config(None)
        self.seed = seed
        self.sc = sc = build_scenario(cfg, seed)
        flow = cfg["flow"]
        gen = proxy_flow.new_generator(
            sc.channels, sc.degree,
            lie_degree=int(flow["lie_degree"]),
            n_proxy_features=int(flow["proxy_features"]),
            phase_powers=int(flow["phase_powers"]),
            clock_rate=1.0 / sc.sig_config.time_scale,
            seed=sub_seed(seed, 4),
            init_scale=float(flow["init_scale"]),
        )
        # moment-matched bias: the generator's constant term is the mean
        # one-step log-signature of the training ensemble, so the anticipated
        # reward variance is positive whatever the seeded noise
        weights = gen.weights.copy()
        weights[:, -1] += proxy_flow.step_targets(sc.train_ensemble).mean(axis=0)[1 : 1 + gen.out_dim]
        self.gen = gen.with_theta(weights.ravel())
        hist = cfg["history"]
        self.histories = [
            jumpdiff.simulate_history(
                sc.env, 0.0, sc.history_path.values[0, : sc.env.dim],
                int(hist["steps"]), float(hist["dt"]), sub_seed(seed, 5, i),
                sc.sig_config, nmap=sc.nmap,
            )[0]
            for i in range(self.n_histories)
        ]
        self.offsets = sc.grid - sc.grid[0]
        self.w = np.random.default_rng(sub_seed(seed, 6)).normal(size=sc.nmap.n_landmarks)
        self.alpha = float(cfg["risk"]["alpha_tail"])
        self._refs: list[np.ndarray] | None = None

    def _decide(self, proxy, t, x, jumped):
        from siglearn import greeks, proxy_flow, signature, td_learning

        proxy = signature.incremental_update(proxy, t, x, jumped)
        grid = t + self.offsets
        traj = proxy_flow.integrate_flow(self.gen, self.sc.nmap, proxy.sig, grid)
        value = td_learning.value_at(traj, self.w, grid[0])
        mean, var = greeks.return_moments(traj.terminal())
        tail = greeks.cvar(mean, var, self.alpha)
        return proxy, traj, (value, mean, var, tail)

    def round(self, r: int, tracer=None) -> Round:
        from siglearn import signature

        if self._refs is None:
            k, ts = self.sc.degree, self.sc.sig_config.time_scale
            self._refs = [
                ref.prefix_signatures(h.times, h.values, h.jump_flags, ts, True, k)
                for h in self.histories
            ]
        lat, done = [], []
        attempted = failed = 0
        wall = cpu = 0.0
        # the tracer stays installed for the whole pass; checks run after it
        with tracer if tracer is not None else contextlib.nullcontext():
            for h, want in zip(self.histories, self._refs):
                proxy = signature.new_filtered_proxy(self.sc.sig_config, h.times[0], h.values[0])
                for i in range(1, h.n_points):
                    args = (proxy, h.times[i], h.values[i], bool(h.jump_flags[i]))
                    attempted += 1
                    t, c = time.perf_counter(), time.process_time()
                    try:
                        if tracer is None:
                            proxy, traj, out = self._decide(*args)
                        else:
                            with tracer.span("bench"):
                                proxy, traj, out = self._decide(*args)
                    except Exception as exc:  # a failed operation is counted, not fatal
                        sys.stderr.write(f"online_agent decision: {exc!r}\n")
                        failed += 1
                        continue
                    finally:
                        dt = time.perf_counter() - t
                        wall += dt
                        cpu += time.process_time() - c
                        lat.append(dt)
                    done.append((proxy.sig.data, want[i], traj, out))
        for item in done:
            self.check(*item)
        return Round(
            wall, cpu, lat, attempted=attempted, failed=failed, paths=self.n_histories,
            digest=_digest(np.array([item[-1] for item in done])),
        )

    def check(self, streamed, want, traj, out) -> None:
        c, k = traj.channels, traj.degree
        check(np.max(np.abs(streamed - want)) <= 1e-10, "streamed junction signature")
        flats = traj.flats
        check(flats[0][0] == 1.0 and not np.any(flats[0][1:]), "trajectory element 0 != identity")
        res = traj.residual_flats()
        tol = 1e-12 * max(1.0, float(np.max(np.abs(flats[-1]))))
        for i in range(flats.shape[0]):
            got = ref.chen(flats[i], res[i], c, k)
            check(np.max(np.abs(got - flats[-1])) <= tol, "nested-residual identity")
        span = self.offsets[-1] / self.sc.sig_config.time_scale
        check(rel_close(flats[-1][1], span, 1e-12), "time coordinate at T != horizon / time_scale")
        _, mean, var, tail = out
        check(tail <= mean, "cvar > mean")
        nd = NormalDist()
        sigma = max(var, 0.0) ** 0.5
        want_tail = mean - sigma * nd.pdf(nd.inv_cdf(self.alpha)) / self.alpha
        check(rel_close(tail, want_tail, 1e-12, max(abs(want_tail), sigma)), "cvar != Gaussian tail mean")


WORKLOADS = {cls.name: cls for cls in (RunAll, EnsembleScan, OnlineAgent)}

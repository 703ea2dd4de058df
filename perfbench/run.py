#!/usr/bin/env python3
"""Benchmark of siglearn, one workload per invocation.

    python3 perfbench/run.py --workload online_agent --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` without being installed.  The run measures whole rounds of the
workload until ``--seconds`` have passed, checks every output, and prints
one JSON object as the last line of standard output: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits 1 if a check fails and 2 if the checkout holds no ``src/siglearn``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: more threads than one made
# run-all slower on two cores and change the last digits of its artifacts
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
for _name in [n for n in os.environ if n.startswith("SIGLEARN_")]:
    del os.environ[_name]  # the workloads run the built-in baseline config

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# fresh interpreters timed per run for setup_s, which reports their median
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and sets up the workload."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    t = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def end_to_end(wl, rounds, setups) -> dict:
    from measure import UPPER, median, supported_percentile, upper

    wall = upper([r.wall_s for r in rounds])
    tail = supported_percentile([x for r in rounds for x in r.latencies_s], UPPER)
    own = resource.RUSAGE_CHILDREN if wl.name == "run_all" else resource.RUSAGE_SELF
    return {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": upper([r.cpu_s for r in rounds]),
        "peak_rss_mb": resource.getrusage(own).ru_maxrss / 1024.0,
        "paths_per_s": max(r.paths for r in rounds) / wall,
        "decisions_per_s": max(len(r.latencies_s) for r in rounds) / wall,
        # the batch workloads make too few decisions for a tail: one round
        "decision_p90_ms": 1e3 * (tail if tail is not None else wall),
    }


def per_layer(wl, tracer, plain, traced) -> dict:
    from measure import median
    from tracer import layer_metrics
    from workloads import check

    n = len(traced)
    out = layer_metrics(tracer.summary(), n)
    roots = tracer.root_seconds()
    check(
        abs(sum(tracer.self_times()) - roots) <= 1e-9 * max(roots, 1.0),
        "span self times do not sum to the traced wall time",
    )
    out["cli.import_s"] = wl.import_s if wl.name == "run_all" else 0.0
    out["trace.wall_s"] = roots / n + out["cli.import_s"]
    out["trace.overhead_s"] = (
        median([r.wall_s for r in traced]) + out["cli.import_s"] - median([r.wall_s for r in plain])
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("run_all", "ensemble_scan", "online_agent"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "siglearn" / "__init__.py").is_file():
        print(f"error: no siglearn sources under {SRC}; run from a siglearn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import END_TO_END_UNITS
    from tracer import Tracer, unit_of
    from workloads import WORKLOADS, CheckError, check

    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, ROOT, child_env())
        return 0

    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"OPENBLAS_NUM_THREADS={BLAS_THREADS} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__}",
        file=sys.stderr,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    setups = [] if args.trace else [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    wl = cls(args.seed, ROOT, child_env())
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    try:
        # whole rounds only: stop before a round that would end past the
        # deadline, once the workload's minimum is met
        start = time.perf_counter()
        lengths = []
        while True:
            t = time.perf_counter()
            r = len(plain)
            plain.append(wl.round(r))
            if tracer is not None:
                traced.append(wl.round(r, tracer))
                check(traced[-1].digest == plain[-1].digest, "traced round changed the outputs")
            lengths.append(time.perf_counter() - t)
            done = len(plain) >= (1 if tracer is not None else wl.min_rounds)
            if done and time.perf_counter() - start + max(lengths) > args.seconds:
                break
        if wl.repeats_inputs:
            digests = {x.digest for x in plain if not x.failed}
            check(len(digests) <= 1, "identical inputs gave different outputs across rounds")
        metrics = per_layer(wl, tracer, plain, traced) if tracer else end_to_end(wl, plain, setups)
        correct = True
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
    rounds = plain + traced
    result = {
        "correct": correct,
        "attempted": sum(x.attempted for x in rounds),
        "failed": sum(x.failed for x in rounds),
        "metrics": {
            k: {"value": float(v), "unit": unit_of(k) if tracer else END_TO_END_UNITS[k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of siglearn from outside the package.

The tracer replaces chosen public functions with wrappers that open a span
on entry and close it on exit.  A function imported by name into another
module (``from .signature import step_factor_flat``) has one binding per
importing module, so every binding in every loaded ``siglearn`` module that
is the original function object is replaced, and restored on exit.

Spans are kept in memory as parallel arrays (name, start, end, parent).
Self time is a span's duration minus the part of it that its children
cover; it is computed after the run, never while the program runs.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import sys
import time
from array import array

import numpy as np


def _shape(x) -> tuple:
    shape = getattr(x, "shape", None)
    return np.shape(x) if shape is None else shape


def _rows(x) -> int:
    return math.prod(_shape(x)[:-1])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


@functools.lru_cache(maxsize=None)
def _product_flops(c: int, k: int) -> int:
    # level n takes (n + 1) blocks of c**n multiply-adds
    return 2 * sum((n + 1) * c**n for n in range(k + 1))


def _product_counters(args, kwargs):
    c, k = _arg(args, kwargs, 0, "channels"), _arg(args, kwargs, 1, "degree")
    sa = _shape(_arg(args, kwargs, 2, "a"))[:-1]
    sb = _shape(_arg(args, kwargs, 3, "b"))[:-1]
    n = max(len(sa), len(sb))
    sa, sb = (1,) * (n - len(sa)) + tuple(sa), (1,) * (n - len(sb)) + tuple(sb)
    rows = math.prod(max(x, y) for x, y in zip(sa, sb))
    return {"rows": rows, "gflop": rows * _product_flops(c, k) / 1e9}


def _flat_rows(name):
    return lambda args, kwargs: {"rows": _rows(_arg(args, kwargs, 2, name))}


def _one_row(args, kwargs):
    return {"rows": 1}


# module -> function -> (reported quantities, counters taken from the call).
# Functions that report nothing are wrapped so that their time counts to
# their own layer rather than to their caller's.
TRACED = {
    "tensor_algebra": {
        "product_flat": (("calls", "self_s", "rows", "gflop"), _product_counters),
        "exp_flat": (("calls", "self_s", "rows"), _flat_rows("x")),
        "log_flat": (("calls", "self_s", "rows"), _flat_rows("g")),
        "inverse_flat": (("calls", "self_s", "rows"), _flat_rows("g")),
    },
    "signature": {
        "step_factor_flat": (
            ("calls", "self_s", "rows"),
            lambda a, kw: {"rows": _rows(_arg(a, kw, 3, "dx"))},
        ),
        "batch_prefix_signatures": (
            ("calls", "self_s", "rows"),
            lambda a, kw: {"rows": _shape(_arg(a, kw, 2, "values"))[0]},
        ),
        "batch_terminal_signatures": (
            ("calls", "self_s", "rows"),
            lambda a, kw: {"rows": _shape(_arg(a, kw, 2, "values"))[0]},
        ),
        "path_signature": (("calls", "self_s", "rows"), _one_row),
        "incremental_update": (("calls", "self_s", "rows"), _one_row),
    },
    "jumpdiff": {
        "generate_ensemble": (
            ("calls", "self_s", "paths"),
            lambda a, kw: {"paths": int(_arg(a, kw, 4, "n_paths"))},
        ),
        "path_streams": (("calls", "self_s"), None),
        "simulate_history": (("calls", "self_s"), None),
        "prefix_mean_signatures": ((), None),
        "empirical_mean_signature": ((), None),
    },
    "kernelspace": {
        "compress_flat": (("calls", "self_s"), None),
        "build_nystrom": (("calls", "self_s"), None),
        "fit_metric_family": (("calls", "self_s"), None),
        "compress": ((), None),
    },
    "proxy_flow": {
        "train_generator": (("calls", "self_s", "product_rows"), None),
        "integrate_flow": (("calls", "self_s"), None),
        "step_targets": (("calls", "self_s"), None),
        "score_matching_loss": (("calls", "self_s"), None),
    },
    "td_learning": {
        "td0_sweep": (("calls", "self_s"), None),
        "classical_td0_baseline": (("calls", "self_s"), None),
        "assemble_system": (("calls", "self_s"), None),
        "solve_fixed_point": (("calls", "self_s"), None),
        "value_at": ((), None),
    },
    "greeks": {
        "grad_theta": (("calls", "self_s"), None),
        "action_sensitivity": (("calls", "self_s"), None),
        "cvar": (("calls", "self_s"), None),
        "return_moments": ((), None),
    },
    "analysis": {
        "forecast_decay": (("self_s",), None),
        "whitened_norm_stress": (("self_s",), None),
        "contraction_check": (("self_s",), None),
        "lyapunov_estimate": (("self_s",), None),
    },
    "experiments": {
        "build_scenario": (("total_s",), None),
        "train_scf": (("total_s",), None),
        "realizable_td_experiment": (("total_s",), None),
        "variance_experiment": (("total_s",), None),
        "greeks_fd_report": (("total_s",), None),
        "risk_report": (("total_s",), None),
        "sample_landmark_signatures": ((), None),
    },
    "config": {
        "load_config": (("self_s",), None),
    },
}

# layers whose summed self time is reported as <module>.self_s
LAYER_TOTALS = tuple(m for m in TRACED if m != "config")

# spans the benchmark opens itself: the CLI driver around an in-process
# run-all, and the benchmark's own code around each timed operation
ROOTS = ("cli.runner", "bench")

# quantities the runner adds from outside the spans
RUN_QUANTITIES = ("cli.import_s", "trace.wall_s", "trace.overhead_s")

COUNT_UNITS = {"calls": "count", "rows": "count", "paths": "count", "product_rows": "count", "gflop": "GFLOP"}

TRAINING = "proxy_flow.train_generator"
PRODUCT = "tensor_algebra.product_flat"


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of the children's intervals, per span."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for i in sorted(kids, key=lambda j: starts[j]):
            a, b = max(starts[i], lo), min(ends[i], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers, exit restores."""

    def __init__(self):
        self.names: list[str] = list(ROOTS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._training = 0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, root: str):
        """One of the benchmark's own root spans."""
        idx = self._open(self._ids[root])
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, qual: str, fn, counters):
        tracer = self
        name_id = len(self.names)
        self.names.append(qual)
        self._ids[qual] = name_id
        is_training = qual == TRAINING
        is_product = qual == PRODUCT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counters is not None:
                for key, value in counters(args, kwargs).items():
                    tracer._count(f"{qual}.{key}", value)
                    if is_product and key == "rows" and tracer._training:
                        tracer._count(f"{TRAINING}.product_rows", value)
            tracer._count(f"{qual}.calls", 1)
            idx = tracer._open(name_id)
            if is_training:
                tracer._training += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_training:
                    tracer._training -= 1
                tracer._close(idx)

        return wrapper

    def __enter__(self):
        if not self._wrappers:
            for mod, funcs in TRACED.items():
                module = importlib.import_module(f"siglearn.{mod}")
                for fn_name, (_, counters) in funcs.items():
                    fn = getattr(module, fn_name)
                    wrapper = self._wrapper(f"{mod}.{fn_name}", fn, counters)
                    self._wrappers[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if not (name == "siglearn" or name.startswith("siglearn.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def root_seconds(self) -> float:
        """Total duration of the root spans, the traced wall time."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.starts))
            if self.parents[i] < 0
        )

    def summary(self) -> dict[str, float]:
        """Per-function totals: calls, counters, self_s and total_s."""
        selfs = self.self_times()
        out = dict(self.counters)
        for i, s in enumerate(selfs):
            name = self.names[self.name_of[i]]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
            if self.parents[i] < 0 or self.names[self.name_of[self.parents[i]]] != name:
                # outermost span of a recursive chain only
                key = f"{name}.total_s"
                out[key] = out.get(key, 0.0) + (self.ends[i] - self.starts[i])
        return out

    def write(self, path) -> None:
        """Write every span, columnar and gzipped, after the run."""
        payload = {
            "names": self.names,
            "name": list(self.name_of),
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
            "self_s": self.self_times(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def layer_metrics(summary: dict[str, float], rounds: int) -> dict[str, float]:
    """Every reported per-layer quantity, per round; absent ones read 0."""
    out = {}
    for mod, funcs in TRACED.items():
        for fn_name, (quantities, _) in funcs.items():
            for q in quantities:
                key = f"{mod}.{fn_name}.{q}"
                out[key] = summary.get(key, 0.0) / rounds
    for mod in LAYER_TOTALS:
        out[f"{mod}.self_s"] = (
            sum(summary.get(f"{mod}.{fn}.self_s", 0.0) for fn in TRACED[mod]) / rounds
        )
    for root in ROOTS:
        out[f"{root}.self_s"] = summary.get(f"{root}.self_s", 0.0) / rounds
    return out


def unit_of(name: str) -> str:
    return COUNT_UNITS.get(name.rsplit(".", 1)[1], "s")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in order."""
    return list(layer_metrics({}, 1)) + list(RUN_QUANTITIES)

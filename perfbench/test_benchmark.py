"""Tests of the benchmark's own code: references, statistics and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import tracer  # noqa: E402
from measure import END_TO_END_UNITS, supported_percentile  # noqa: E402


def test_segment_exp_by_hand():
    # v = (1, 2): level n is v^{(x)n} / n!
    got = ref.segment_exp(np.array([1.0, 2.0]), 3)
    want = np.concatenate([
        [1.0],
        [1.0, 2.0],
        [0.5, 1.0, 1.0, 2.0],
        np.array([1, 2, 2, 4, 2, 4, 4, 8]) / 6.0,
    ])
    np.testing.assert_array_equal(got, want)


def test_two_segments_by_hand():
    # a = (1, 0) then b = (0, 1): level 2 is a(x)a/2 + a(x)b + b(x)b/2
    a = ref.segment_exp(np.array([1.0, 0.0]), 2)
    b = ref.segment_exp(np.array([0.0, 1.0]), 2)
    got = ref.chen(a, b, 2, 2)
    np.testing.assert_array_equal(got, [1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.5])
    # the other order swaps the area term
    np.testing.assert_array_equal(ref.chen(b, a, 2, 2), [1.0, 1.0, 1.0, 0.5, 0.0, 1.0, 0.5])


def test_collinear_segments_compose_to_one():
    v = np.array([0.3, -1.2, 0.7])
    both = ref.chen(ref.segment_exp(v, 4), ref.segment_exp(2 * v, 4), 3, 4)
    np.testing.assert_allclose(both, ref.segment_exp(3 * v, 4), rtol=0, atol=1e-14)


def test_jump_step_is_time_then_space():
    dx = np.array([0.4, -0.1])
    want = ref.chen(
        ref.segment_exp(np.array([0.05, 0.0, 0.0]), 3),
        ref.segment_exp(np.array([0.0, 0.4, -0.1]), 3),
        3, 3,
    )
    np.testing.assert_array_equal(ref.step_factor(0.05, dx, True, True, 3), want)
    np.testing.assert_array_equal(ref.step_factor(0.05, dx, False, False, 3), want)
    np.testing.assert_array_equal(
        ref.step_factor(0.05, dx, False, True, 3),
        ref.segment_exp(np.array([0.05, 0.4, -0.1]), 3),
    )


def test_reference_matches_library_signature():
    from siglearn.signature import CadlagPath, SignatureConfig, path_signature

    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.1, 0.3, size=6))
    values = rng.normal(size=(6, 2))
    flags = np.array([False, False, True, False, True, False])
    for mode in ("linear", "rectilinear"):
        cfg = SignatureConfig(degree=3, time_scale=2.0, mode=mode)
        lib = path_signature(cfg, CadlagPath(times, values, flags), times[0], times[-1])
        want = ref.prefix_signatures(times, values, flags, 2.0, mode == "linear", 3)[-1]
        np.testing.assert_allclose(lib.data, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "n, p, reported",
    [(999, 99.0, False), (1000, 99.0, True), (99, 90.0, False), (100, 90.0, True), (0, 50.0, False)],
)
def test_percentile_needs_ten_samples_beyond(n, p, reported):
    got = supported_percentile(list(range(n)), p)
    assert (got is not None) == reported


def test_self_time_of_nested_trace():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [6, 7], and [9, 12]
    # runs past the root; a grandchild [1.5, 2.5] sits inside the first child
    starts = [0.0, 1.0, 2.0, 6.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 7.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 0, 1]
    got = tracer.self_times(starts, ends, parents)
    # root loses [1, 5], [6, 7] and the [9, 10] part of the last child
    assert got == pytest.approx([10 - 4 - 1 - 1, 2 - 1, 3, 1, 3, 1])


def test_tracer_replaces_every_binding_and_restores_it():
    import siglearn.proxy_flow as pf
    import siglearn.signature as sg
    import siglearn.tensor_algebra as ta

    original = sg.step_factor_flat
    t = tracer.Tracer()
    with t, t.span("bench"):
        assert pf.step_factor_flat is not original
        sg.step_factor_flat(sg.SignatureConfig(degree=3, mode="linear"), 1, 0.1, np.ones((4, 1)), np.zeros(4, bool))
    assert sg.step_factor_flat is original and pf.step_factor_flat is original
    assert ta.product_flat.__module__ == "siglearn.tensor_algebra"
    summary = t.summary()
    assert summary["signature.step_factor_flat.calls"] == 1
    assert summary["signature.step_factor_flat.rows"] == 4
    assert summary["tensor_algebra.product_flat.calls"] >= 1
    assert sum(t.self_times()) == pytest.approx(t.root_seconds(), rel=1e-12)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])

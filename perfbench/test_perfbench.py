"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refclock import REFERENCE_CAL_S, RefClock  # noqa: E402
from tracing import Patches, Tracer, percentile, self_times  # noqa: E402


def test_self_time_subtracts_children_and_covered_time():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
        (1, 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert self_times(spans, {3: 1.5}) == [3.0, 2.0, 1.0, 2.5]


def test_tracer_nests_spans_and_leaf_time_is_covered():
    tracer = Tracer()
    leaf = tracer.leaf("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: [inner(), inner()], on_exit=lambda args: tracer.add("n", 1))
    outer()
    totals = tracer.layer_totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    assert [tracer.names[s[0]] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.leaf_totals["leaf"][0] == 2
    assert tracer.counts == {"n": 1}
    assert sum(tracer.covered.values()) == pytest.approx(tracer.leaf_totals["leaf"][1])
    calls, total, own = totals["inner"]
    assert own == pytest.approx(total - tracer.leaf_totals["leaf"][1])


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", fail)()
    assert tracer.innermost() is None
    assert tracer.layer_totals()["boom"][0] == 1


def test_patches_restore_originals():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    with Patches() as patches:
        patches.wrap(mod, "f", lambda fn: lambda: fn() + 1)
        assert mod.f() == 2
    assert mod.f is original


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([3.0], 90, 3.0),
        ([4.0, 1.0, 3.0, 2.0], 50, 2.5),
        ([1.0, 2.0, 3.0, 4.0, 5.0], 0, 1.0),
        ([1.0, 2.0, 3.0, 4.0, 5.0], 100, 5.0),
        (list(range(1, 102)), 90, 91.0),
        ([10.0, 20.0], 90, 19.0),
    ],
)
def test_percentile_interpolates_between_ranks(values, q, expected):
    assert percentile(values, q) == pytest.approx(expected)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_refclock_stops_while_calibrating_and_scales_by_the_mean():
    clock = RefClock(every_s=0.0)
    mark = clock.mark()
    before = clock.now()
    clock.tick()
    clock.tick()
    assert len(clock.cals) == 3
    assert clock.now() - before < 0.5 * sum(clock.cals[1:])
    scale = clock.scale(mark)
    assert scale == pytest.approx(REFERENCE_CAL_S / (sum(clock.cals) / len(clock.cals)))
    idle = RefClock()
    idle.tick()
    assert len(idle.cals) == 1


def test_benchmark_json_lists_the_metrics_the_run_prints():
    sys.path.insert(0, str(HERE.parent / "src"))
    import layers
    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)

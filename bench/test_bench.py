"""Checks of the benchmark's own arithmetic, generators and instrumentation."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from fds import controller, core, harness, hierarchy  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, "sim"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("run", 0, 100, -1),
        _span("send", 10, 60, 0),
        _span("derive", 20, 40, 1),
        _span("state", 25, 30, 2),
        _span("tick", 70, 90, 0),
    ]
    assert layers.self_times(spans) == [100 - 50 - 20, 50 - 20, 20 - 5, 5, 20]


def test_self_times_sum_to_root_duration():
    spans = [_span("a", 0, 1000, -1)]
    for i in range(10):
        spans.append(_span("b", 100 * i, 100 * i + 50, 0))
        spans.append(_span("c", 100 * i + 10, 100 * i + 20, len(spans) - 1))
    assert sum(layers.self_times(spans)) == 1000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    gen = workloads.WORKLOADS[name]
    first = json.dumps(gen(3), sort_keys=True)
    assert first == json.dumps(gen(3), sort_keys=True)
    assert first != json.dumps(gen(4), sort_keys=True)


def test_patches_wrap_every_binding_and_restore_it():
    original = hierarchy.derive_ruling
    calls = []

    def make(fn, module_name):
        def wrapper(*args, **kwargs):
            calls.append(module_name)
            return fn(*args, **kwargs)

        return wrapper

    with layers.Patches() as patches:
        patches.function(hierarchy, "derive_ruling", make)
        assert controller.derive_ruling is not original
        assert harness.derive_ruling is not original
    assert controller.derive_ruling is original
    assert harness.derive_ruling is original
    assert hierarchy.derive_ruling is original


def test_traced_run_counts_layers_and_leaves_the_program_unchanged():
    scenario = workloads.acme_stacked(5, orders=40)
    plain = harness.run_scenario(scenario)
    tracer = layers.Tracer()
    with layers.Patches() as patches:
        tracer.install(patches)
        traced = harness.run_scenario(scenario)
    assert core.ControlState.__init__.__name__ == "__init__"
    assert not hasattr(core.ControlState.__init__, "__wrapped__")
    assert traced.trace_lines() == plain.trace_lines()
    assert traced.ok() and plain.ok()
    rulings = traced.metrics["events"]
    summary = tracer.rep_summary()
    values = layers.layer_metrics(summary, dict(tracer.counts), rulings)
    assert values["hierarchy.levels_per_ruling"] >= 1
    assert values["lawlang.aspect_checks_per_ruling"] > 0
    assert values["core.state.copies_per_ruling"] > 0
    assert values["harness.compile_s"] > 0
    assert 0 < values["lawlang.guard_hit_ratio"] < 1
    assert tracer.counts["sim", "hierarchy.derive_ruling"] == rulings

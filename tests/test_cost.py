"""A host-independent cost guard: Python calls per ruling.

The number of calls a run makes is exact, where its host time is not. Each
count sums the raw ``callcount`` of every entry ``cProfile`` saw, read from
``Profile.getstats()``: ``pstats`` files every dataclass-generated
``__init__`` under one label and keeps one of them, so it under-counts. A
scenario runs once to warm up, then once profiled with its assertions
removed, and its report is then replayed once profiled. The warm-up also
fills the law memo (``lawlang.parse_law``) with the laws' texts, which are
the canonical texts replay republishes, so neither profiled count holds
parsing or compiling a law: what is left is the work each ruling costs.

Each bound is 5 % above the count measured when it was set, which CPython
3.10 and 3.11 share (3.10 counts one call per ruling fewer on acme-bc) and
no hash seed moves, so a change that adds work to every ruling fails here
before any paired benchmark is run.
"""

import cProfile
import pathlib

import pytest

from fds.harness import load_scenario, replay_report, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "src" / "fds" / "scenarios"

# scenario -> (simulation, replay) calls per ruling: bound (count when set)
BOUNDS = {
    "acme-bc.json": (124.0, 104.4),  # 118.1, 99.5
    "ring-churn.json": (118.5, 98.3),  # 112.9, 93.7
}


def _calls(fn):
    profile = cProfile.Profile()
    profile.enable()
    try:
        out = fn()
    finally:
        profile.disable()
    return out, sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_calls_per_ruling_stay_within_their_bounds(name):
    scenario = dict(load_scenario(SCENARIOS / name), assertions=[])
    run_scenario(scenario)
    report, sim = _calls(lambda: run_scenario(scenario))
    rulings = report.metrics["events"]
    (ok, problems), replay = _calls(lambda: replay_report(report))
    assert ok, problems[:3]
    sim_bound, replay_bound = BOUNDS[name]
    per_ruling = sim / rulings, replay / rulings
    assert per_ruling[0] <= sim_bound and per_ruling[1] <= replay_bound, per_ruling

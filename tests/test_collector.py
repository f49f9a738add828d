"""The cyclic collector is held off across the event loop and file replay.

``Scheduler.run`` and ``replay_report_file`` run under
``transport.collector_paused``. That is safe only while reference counting
frees everything they make: a cycle made per event would pile up unfreed
for as long as the run lasts. So each case here counts, with
``gc.collect()``, the unreachable objects left as ``Scheduler.run`` returns
(while everything the run built is still referenced) and as
``replay_report`` returns inside ``replay_report_file``; each count must
be 0. The pause must also hand the collector back as the caller had it,
whether the call returns or raises.

Run as a script (``PYTHONPATH=src python tests/test_collector.py``), the
module makes the same check on the three ``bench/workloads.py`` workloads
at full size and seed 1, and exits 1 if any count is not 0.
"""

import contextlib
import gc
import json
import pathlib
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fds import harness
from fds.core import FdsError, StateError
from fds.harness import load_scenario, replay_report_file, run_scenario
from fds.transport import Scheduler, collector_paused
from test_harness import SCENARIOS, SHIPPED, small_workload, workloads


def _scenario(name):
    return dict(load_scenario(SCENARIOS / name), assertions=[])


def _refused_adoption():
    # d1 admits only agents of division D1: one action-error record, as
    # test_harness's test_a_refused_adoption_is_recorded_and_the_run_goes_on shows
    scenario = _scenario("acme-basic.json")
    return dict(scenario, timeline=scenario["timeline"] + [
        {"action": "adopt", "at": 3, "name": "zz", "division": "D2", "law": "d1"}])


def _law_error():
    # a second seed token makes the ring law add hasToken to a holder: the
    # arrival raises StateError out of the loop (ROADMAP item 3)
    scenario = _scenario("ring-churn.json")
    return dict(scenario, timeline=scenario["timeline"] + [
        {"action": "send", "at": at, "from": "ringmgr", "to": "m3", "payload": "seedToken()"}
        for at in (50, 51)])


CASES = {
    **{name: lambda name=name: _scenario(name) for name in SHIPPED},
    "refused-adoption": _refused_adoption,
    **{"small-" + name: lambda name=name: small_workload(name)
       for name in sorted(workloads.WORKLOADS)},
}


@contextlib.contextmanager
def _collecting_after(owner, name):
    """Wrap ``owner.name`` so that it collects before it runs, to start
    clean, and again as it returns or raises; yields the list of the
    second collections' counts. The collector is held off in between, so no
    automatic collection (one falls due as soon as the pause inside ends)
    frees a cycle before the second collection counts it."""
    counts = []
    original = getattr(owner, name)

    def collecting(*args, **kwargs):
        gc.collect()
        with collector_paused():
            try:
                return original(*args, **kwargs)
            finally:
                counts.append(gc.collect())

    with mock.patch.object(owner, name, collecting):
        yield counts


def cyclic_garbage(scenario, directory):
    """Unreachable objects found as the event loop returns, then as
    ``replay_report`` and ``replay_report_file`` return on the saved report;
    a run that raises out of the loop is not replayed."""
    with _collecting_after(Scheduler, "run") as loop:
        try:
            report = run_scenario(scenario)
        except FdsError:
            return loop, []
    path = pathlib.Path(directory) / "report.json"
    path.write_text(report.to_json())
    del report
    with _collecting_after(harness, "replay_report") as replay, collector_paused():
        gc.collect()
        ok, problems = replay_report_file(path)
        replay.append(gc.collect())
    assert ok, problems[:3]
    return loop, replay


@contextlib.contextmanager
def _collector(enabled):
    """The collector on or off for the block, and on again after it."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


class TestPause:
    def test_the_collector_is_off_inside_the_loop_and_replay(self, tmp_path):
        seen = []

        class Probe(Scheduler):
            def __init__(self):
                super().__init__()
                self.schedule(1, lambda: seen.append(("loop", gc.isenabled())))

        def probe(report, replay=harness.replay_report):
            seen.append(("replay", gc.isenabled()))
            return replay(report)

        with mock.patch.object(harness, "Scheduler", Probe):
            report = run_scenario(_scenario("acme-basic.json"))
        (tmp_path / "r.json").write_text(report.to_json())
        with mock.patch.object(harness, "replay_report", probe):
            assert replay_report_file(tmp_path / "r.json") == (True, [])
        assert seen == [("loop", False), ("replay", False)]
        assert gc.isenabled()

    def test_a_pause_inside_a_pause_keeps_it_off(self):
        with collector_paused():
            with collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_gives_the_collector_back_as_it_was(self, enabled):
        with _collector(enabled):
            assert run_scenario(_scenario("acme-basic.json")).records
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_that_raises_out_of_the_loop_gives_it_back(self, enabled):
        with _collector(enabled):
            with pytest.raises(StateError):
                run_scenario(_law_error())
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_replay_of_an_unreadable_file_gives_it_back(self, enabled, tmp_path):
        with _collector(enabled):
            ok, problems = replay_report_file(tmp_path / "absent.json")
            assert not ok and problems[0].startswith("cannot read a report")
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_replay_of_a_tampered_file_gives_it_back(self, enabled, tmp_path):
        data = json.loads(run_scenario(_scenario("acme-basic.json")).to_json())
        ruling = next(r for r in data["trace"] if r["type"] == "ruling")
        ruling["ops"] = "block(\"tampered\")"
        (tmp_path / "r.json").write_text(json.dumps(data))
        with _collector(enabled):
            ok, problems = replay_report_file(tmp_path / "r.json")
            assert not ok and problems
            assert gc.isenabled() is enabled


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_neither_the_loop_nor_replay_leaves_any(self, name, tmp_path):
        loop, replay = cyclic_garbage(CASES[name](), tmp_path)
        assert loop == [0] and replay == [0, 0]

    def test_a_run_that_raises_out_of_the_loop_leaves_none(self, tmp_path):
        loop, replay = cyclic_garbage(_law_error(), tmp_path)
        assert loop == [0] and replay == []

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_random_sends_over_the_shipped_laws_leave_none(self, data):
        scenario = _scenario(data.draw(st.sampled_from(SHIPPED)))
        names = [c["name"] for c in scenario["cast"]]
        # each payload the scenario sends, a send-every's as its second send
        payloads = sorted({item["payload"].format(i=1) if item["action"] == "send-every"
                           else item["payload"] for item in scenario["timeline"]
                           if "payload" in item} | {"m(1)", 'order("i1", 5)'})
        sends = data.draw(st.lists(st.fixed_dictionaries({
            "action": st.just("send"), "at": st.integers(0, 60),
            "from": st.sampled_from(names), "to": st.sampled_from(names),
            "payload": st.sampled_from(payloads)}), min_size=1, max_size=15))
        scenario = dict(scenario, timeline=sends, duration=120)
        with tempfile.TemporaryDirectory() as directory:
            loop, replay = cyclic_garbage(scenario, directory)
        assert loop == [0] and replay in ([], [0, 0])


def main():
    failed = False
    for name, make in sorted(workloads.WORKLOADS.items()):
        with tempfile.TemporaryDirectory() as directory:
            loop, replay = cyclic_garbage(dict(make(1), assertions=[]), directory)
        failed |= loop != [0] or replay != [0, 0]
        print("%s seed 1: loop %s, replay %s" % (name, loop, replay))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

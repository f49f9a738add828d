import importlib.util
import json
import pathlib
import re
import sys
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fds import harness
from fds.core import (
    Adopted,
    AgentName,
    Arrived,
    ControlState,
    ExceptionEvent,
    FdsError,
    ObligationDue,
    Sent,
    StateError,
    parse_term,
    parse_terms,
)
from fds.harness import (
    RunReport,
    ScenarioError,
    build_bundle,
    check_assertion,
    load_laws_dir,
    load_scenario,
    rebuild_framework,
    replay_report,
    replay_report_file,
    run_scenario,
)
from fds.library import build_acme_hierarchy, make_acme_root, make_division_law

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "fds" / "scenarios"


def _load_bench_workloads():
    """bench/workloads.py as a private module, leaving sys.path alone."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_workloads()

MINI = {
    "name": "mini",
    "seed": 3,
    "laws": {"bundle": "acme"},
    "cast": [
        {"name": "a", "division": "D1", "law": "d1", "behavior": "sink"},
        {"name": "b", "division": "D1", "law": "d1", "behavior": "echo"},
    ],
    "timeline": [
        {"action": "send", "at": 1, "from": "a", "to": "b", "payload": "m(1)"},
    ],
    "duration": 20,
    "assertions": ["mediation-complete", "replay-equiv"],
}


class TestLoading:
    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such scenario"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json_errors(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="bad scenario"):
            load_scenario(p)

    def test_scenario_must_have_cast(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x"}')
        with pytest.raises(ScenarioError, match="cast"):
            load_scenario(p)

    def test_unknown_law_ref_errors(self):
        bad = dict(MINI, cast=[{"name": "a", "law": "mystery"}])
        with pytest.raises(ScenarioError, match="unknown-law"):
            run_scenario(bad)

    def test_missing_seed_warns_and_defaults(self):
        bad = {k: v for k, v in MINI.items() if k != "seed"}
        report = run_scenario(bad)
        assert any("seed" in w for w in report.warnings)
        assert report.scenario["seed"] == 0


class TestRunner:
    def test_mini_scenario_passes_its_assertions(self):
        report = run_scenario(MINI)
        assert report.ok()
        # the echo actor answered, so there are two deliveries
        assert report.metrics["deliveries"] == 2

    def test_identical_runs_are_byte_identical(self):
        a = run_scenario(MINI)
        b = run_scenario(MINI)
        assert a.trace_lines() == b.trace_lines()

    def test_seed_override_changes_nothing_without_randomness(self):
        # fixed timelines with fixed latency do not depend on the seed
        a = run_scenario(MINI, seed=1)
        b = run_scenario(MINI, seed=2)
        assert a.trace_lines() == b.trace_lines()

    def test_firewall_override_is_recorded(self):
        report = run_scenario(MINI, firewall=True)
        assert report.scenario["net"]["firewall"] is True

    def test_unknown_assertion_name_errors(self):
        report = run_scenario(MINI)
        with pytest.raises(ScenarioError, match="unknown assertion"):
            check_assertion("no-such-check", report, {})

    def test_metrics_report_median_per_law(self):
        report = run_scenario(MINI)
        for stats in report.metrics["laws"].values():
            assert stats["count"] > 0
            assert 0 < stats["median_us"] < 10_000


class TestReplay:
    def test_report_file_round_trip(self, tmp_path):
        report = run_scenario(MINI)
        p = tmp_path / "report.json"
        p.write_text(report.to_json())
        ok, problems = replay_report_file(p)
        assert ok, problems

    def test_tampered_trace_is_detected(self, tmp_path):
        report = run_scenario(MINI)
        data = json.loads(report.to_json())
        rulings = [r for r in data["trace"] if r["type"] == "ruling"
                   and "forward" in r["ops"]]
        rulings[0]["ops"] = rulings[0]["ops"].replace("forward", "block")
        p = tmp_path / "report.json"
        p.write_text(json.dumps(data))
        ok, problems = replay_report_file(p)
        assert not ok and problems

    def test_state_strings_with_separators_replay(self):
        scenario = load_scenario(SCENARIOS / "rc-buffer.json")
        scenario["timeline"] = [dict(e, payload=e["payload"].replace('"a"', '"a;b"'))
                                for e in scenario["timeline"]]
        scenario["assertions"] = []
        report = run_scenario(scenario)
        assert any('"a;b"' in r["stateBefore"] for r in report.records
                   if r["type"] == "ruling")
        assert replay_report(report) == (True, [])

    def test_rebuild_framework_restores_hashes(self):
        acme = build_acme_hierarchy()
        fw = rebuild_framework(dict(acme.framework.texts))
        assert set(fw.docs) == set(acme.framework.docs)
        assert fw.root == acme.root

    def test_rebuild_framework_rejects_text_under_another_hash(self):
        acme = build_acme_hierarchy()
        laws = dict(acme.framework.texts)
        laws[acme.d2] = laws[acme.d1]
        with pytest.raises(FdsError, match="does not hash to %s" % acme.d2):
            rebuild_framework(laws)


class TestBundles:
    @pytest.mark.parametrize("kind,refs", [
        ("acme", {"root", "d1", "d2", "bc", "travel"}),
        ("rc", {"rc"}),
        ("cc", {"cc"}),
        ("ring", {"ring"}),
        ("dir", {"acme-root", "acme-d1"}),
    ])
    def test_refs_and_hashes_resolve(self, kind, refs, tmp_path):
        (tmp_path / "a-root.law").write_text(make_acme_root())
        (tmp_path / "b-d1.law").write_text(make_division_law("D1"))
        bundle = build_bundle({"bundle": kind, "params": {"dir": str(tmp_path)}})
        assert set(bundle.by_name) == refs
        for ref in refs:
            assert bundle.law(ref) == bundle.by_name[ref]
        for h in bundle.framework.docs:
            assert bundle.law(h) == h
        with pytest.raises(KeyError, match="unknown-law"):
            bundle.law("nonsense")

    def test_refs_are_attributes(self):
        acme = build_bundle({"bundle": "acme"})
        assert acme.d1 == acme.by_name["d1"]
        with pytest.raises(AttributeError):
            acme.nonsense

    def test_unknown_bundle_kind_errors(self):
        with pytest.raises(ScenarioError, match="unknown law bundle"):
            build_bundle({"bundle": "mystery"})


class TestLawsDir:
    def test_load_directory_publishes_by_name(self, tmp_path):
        (tmp_path / "a-root.law").write_text(make_acme_root())
        (tmp_path / "b-d1.law").write_text(make_division_law("D1"))
        bundle = load_laws_dir(tmp_path)
        assert set(bundle.by_name) == {"acme-root", "acme-d1"}

    def test_unresolved_superior_errors(self, tmp_path):
        (tmp_path / "orphan.law").write_text(
            "law orphan\nextends nowhere\n")
        with pytest.raises(ScenarioError, match="unresolved"):
            load_laws_dir(tmp_path)

    def test_duplicate_law_names_error(self, tmp_path):
        (tmp_path / "a-root.law").write_text(make_acme_root())
        (tmp_path / "b-d1.law").write_text(make_division_law("D1"))
        (tmp_path / "c-d1.law").write_text(make_division_law("D1"))
        with pytest.raises(ScenarioError, match="duplicate law names"):
            load_laws_dir(tmp_path)


# ---------------------------------------------------------------------------
# carried replay


def _reference_event(rec, overlay):
    kind = rec["event"]
    args = rec["eventArgs"]
    if kind == "sent":
        return Sent(AgentName(args[2]), parse_term(args[1]))
    if kind == "arrived":
        ov = {t.functor: t for t in overlay}
        division = ov["peerDivision"].args[0] if "peerDivision" in ov else ""
        law = ov["peerLaw"].args[0] if "peerLaw" in ov else ""
        return Arrived(AgentName(args[0], division), law, parse_term(args[1]))
    if kind == "adopted":
        return Adopted(parse_term(args[0]))
    if kind == "obligationDue":
        return ObligationDue(parse_term(args[0]))
    return ExceptionEvent(args[0])


def _fresh_parse_replay(report):
    """Replay as it was before states were carried: every ruling parses its
    whole stateBefore and overlay. The reference carried replay must match."""
    fw = report.framework or rebuild_framework(report.laws)
    problems = []
    for rec in report.records:
        if rec["type"] != "ruling":
            continue
        path = fw.resolve_path(rec["law"])
        state = ControlState(parse_terms(rec["stateBefore"]), path.multi)
        overlay = parse_terms(rec["overlay"])
        event = _reference_event(rec, overlay)
        ruling = harness.derive_ruling(path, event, state.with_overlay(overlay))
        if ruling.canonical_ops() != rec["ops"]:
            problems.append("seq %d: ops %r != %r"
                            % (rec["seq"], ruling.canonical_ops(), rec["ops"]))
        elif ruling.new_state.canonical() != rec["stateAfter"]:
            problems.append("seq %d: state %r != %r"
                            % (rec["seq"], ruling.new_state.canonical(),
                               rec["stateAfter"]))
    return not problems, problems


def _outcome(replay, report):
    """What a replay returns, or the error it raises."""
    try:
        return replay(report)
    except AssertionError:
        raise
    except Exception as exc:  # a tampered trace may not parse or evaluate
        return type(exc), str(exc)


class _CarryProbe:
    """Stands in for ``derive_ruling`` during one replay and checks the state
    each ruling starts from: term for term (argument types included) and
    multi set, the state ``stateBefore`` parses to; and when that state is
    one an earlier ruling derived (it shares its term dict), that ruling is
    the latest of the same (agent, chain, law) and matched its record."""

    def __init__(self, records):
        self.rulings = [r for r in records if r["type"] == "ruling"]
        self.done = 0
        self.carried = 0
        self.made_by = {}  # id of a derived state's term dict -> (key, index, matched)
        self.latest = {}  # key -> index of its latest ruling
        self.derived = []  # keeps derived states alive, so ids stay unique

    def __call__(self, path, event, state, view=None):
        rec = self.rulings[self.done]
        key = (rec["agent"], rec["chain"], rec["law"])
        fresh = ControlState(parse_terms(rec["stateBefore"]), path.multi)
        assert [repr(t) for t in state.terms()] == [repr(t) for t in fresh.terms()], \
            "seq %d" % rec["seq"]
        assert state.multi == fresh.multi, "seq %d" % rec["seq"]
        source = self.made_by.get(id(state._terms))
        if source is not None:
            self.carried += 1
            assert source == (key, self.latest[key], True), "seq %d" % rec["seq"]
        ruling = _real_derive(path, event, state, view)
        matched = (ruling.canonical_ops() == rec["ops"]
                   and ruling.new_state.canonical() == rec["stateAfter"])
        self.made_by[id(ruling.new_state._terms)] = (key, self.done, matched)
        self.derived.append(ruling.new_state)
        self.latest[key] = self.done
        self.done += 1
        return ruling


_real_derive = harness.derive_ruling


def _carried(report):
    """replay_report's outcome, with every state it starts from checked."""
    probe = _CarryProbe(report.records)
    with mock.patch.object(harness, "derive_ruling", probe):
        return _outcome(replay_report, report), probe


def _assert_carried_replay_agrees(report):
    got, probe = _carried(report)
    assert got == _outcome(_fresh_parse_replay, report)
    return got, probe


def _without_assertions(scenario):
    return dict(scenario, assertions=[])


@lru_cache(maxsize=None)
def _small_workload(name):
    if name == "acme-stacked":
        return run_scenario(_without_assertions(workloads.acme_stacked(5, orders=40)))
    sizes = {
        "buffer-deep": dict(BUFFER_CLIENTS=2, BUFFER_DEPTH=8, BUFFER_LIGHT=2),
        "ring-large": dict(RING_MEMBERS=12, RING_HOPS=150, RING_CHURN_PERIOD=200),
    }[name]
    with mock.patch.multiple(workloads, **sizes):
        return run_scenario(_without_assertions(workloads.WORKLOADS[name](5)))


@lru_cache(maxsize=None)
def _shipped(name):
    return run_scenario(_without_assertions(load_scenario(SCENARIOS / name)))


SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.json"))
SMALL_WORKLOADS = sorted(workloads.WORKLOADS)
# small enough to replay twice per hypothesis example
TAMPERED = ["acme-basic.json", "cc-demo.json", "rc-buffer.json"] + SMALL_WORKLOADS


def _trace(name):
    return _shipped(name) if name.endswith(".json") else _small_workload(name)


def _keys(report):
    return {(r["agent"], r["chain"], r["law"]) for r in report.records
            if r["type"] == "ruling"}


class TestCarriedReplay:
    def test_six_scenarios_ship(self):
        assert len(SHIPPED) == 6

    @pytest.mark.parametrize("name", SHIPPED + SMALL_WORKLOADS)
    def test_agrees_with_fresh_parse_and_carries_state(self, name):
        report = _trace(name)
        got, probe = _assert_carried_replay_agrees(report)
        assert got == (True, [])
        # every ruling but each chain's first starts from the carried state
        assert probe.carried == probe.done - len(_keys(report))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_agrees_with_fresh_parse_on_tampered_traces(self, data):
        name = data.draw(st.sampled_from(TAMPERED))
        original = _trace(name)
        rulings = [i for i, r in enumerate(original.records) if r["type"] == "ruling"]
        i = data.draw(st.sampled_from(rulings))
        field = data.draw(st.sampled_from(("stateBefore", "stateAfter", "ops", "overlay")))
        text = original.records[i][field]
        how = data.draw(st.sampled_from(("other", "bump", "drop", "append", "empty")))
        if how == "other":
            new = original.records[data.draw(st.sampled_from(rulings))][field]
        elif how == "bump":
            numbers = list(re.finditer(r"\d+", text))
            if not numbers:
                return
            m = data.draw(st.sampled_from(numbers))
            new = "%s%d%s" % (text[:m.start()],
                              int(m.group()) + data.draw(st.integers(1, 1000)),
                              text[m.end():])
        elif how == "drop":
            parts = text.split(";")
            del parts[data.draw(st.integers(0, len(parts) - 1))]
            new = ";".join(parts)
        elif how == "append":
            extra = data.draw(st.sampled_from(('zz(1)', 'zz(a())', 'q(0,"x")', 'clock(5)')))
            new = "%s;%s" % (text, extra) if text else extra
        else:
            new = ""
        records = list(original.records)
        records[i] = dict(records[i], **{field: new})
        report = RunReport(scenario={}, laws=original.laws, records=records, audit=[],
                           metrics={}, framework=original.framework)
        _assert_carried_replay_agrees(report)

    def test_a_failed_ruling_passes_no_state_on(self):
        # the recorded ops are wrong but the derived state is right: the
        # next ruling of the chain must still parse its stateBefore
        report = _shipped("rc-buffer.json")
        records = [dict(r) for r in report.records]
        by_chain = {}
        for i, r in enumerate(records):
            if r["type"] == "ruling":
                by_chain.setdefault((r["agent"], r["chain"], r["law"]), []).append(i)
        chain = max(by_chain.values(), key=len)
        records[chain[2]]["ops"] += ";forward(\"v\",nothing)"
        tampered = RunReport(scenario={}, laws=report.laws, records=records, audit=[],
                             metrics={}, framework=report.framework)
        (ok, problems), probe = _assert_carried_replay_agrees(tampered)
        assert not ok and len(problems) == 1
        assert probe.carried == probe.done - len(by_chain) - 1

    def test_a_state_read_from_text_that_is_not_canonical_is_carried(self):
        # "zz( a() )" parses to the term whose text is "zz(a())": the state
        # derived from it matches its record and passes on to the next ruling
        report = _shipped("rc-buffer.json")
        records = [dict(r) for r in report.records]
        rulings = [r for r in records if r["type"] == "ruling"]
        key = (rulings[0]["agent"], rulings[0]["chain"], rulings[0]["law"])
        chain = [r for r in rulings if (r["agent"], r["chain"], r["law"]) == key]
        assert len(chain) >= 3
        chain[0]["stateBefore"] += ";zz( a() )"
        chain[0]["stateAfter"] += ";zz(a())"
        for r in chain[1:]:
            r["stateBefore"] += ";zz(a())"
            r["stateAfter"] += ";zz(a())"
        tampered = RunReport(scenario={}, laws=report.laws, records=records, audit=[],
                             metrics={}, framework=report.framework)
        got, probe = _assert_carried_replay_agrees(tampered)
        assert got == (True, [])
        assert probe.carried == probe.done - len(_keys(tampered))

    def test_a_law_writing_a_nested_atom_term_replays(self, tmp_path):
        # seen(a()) renders as seen(a()), which parses back to the same term
        (tmp_path / "nest.law").write_text(
            "law nest\ndefault pass\nmulti { seen }\n"
            "rule n1 aspect n:mark on sent(_, _, _) do { add seen(a()); forward }\n")
        scenario = {
            "name": "nest", "seed": 1, "duration": 20,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "nest"}, {"name": "b", "law": "nest"}],
            "timeline": [{"action": "send", "at": t, "from": "a", "to": "b",
                          "payload": "m(%d)" % t} for t in (1, 2, 3)],
        }
        report = run_scenario(scenario)
        assert any("seen(a())" in r.get("stateAfter", "") for r in report.records)
        got, probe = _assert_carried_replay_agrees(report)
        assert got == (True, [])
        assert probe.carried == probe.done - len(_keys(report))


class TestContinuityBreaks:
    """Where an (agent, chain) legitimately starts over from a new state."""

    def _replay_file(self, report, tmp_path):
        p = tmp_path / "report.json"
        p.write_text(report.to_json())
        return replay_report_file(p)

    def test_quit_and_readoption_under_another_law(self, tmp_path):
        # d1 and travel give "t" the same initial state text but not the
        # same multi set: travel's reserved is set-valued
        scenario = {
            "name": "readopt", "seed": 1, "duration": 200,
            "laws": {"bundle": "acme"},
            "cast": [{"name": "t", "division": "D1", "law": "d1"},
                     {"name": "c", "division": "D1", "law": "d1"}],
            "timeline": [
                {"action": "send", "at": 1, "from": "t", "to": "c", "payload": "hello(1)"},
                {"action": "quit", "at": 5, "agent": "t"},
                {"action": "adopt", "at": 10, "name": "t", "division": "D1",
                 "law": "travel"},
                {"action": "send", "at": 12, "from": "t", "to": "c",
                 "payload": 'reserveOk("t1",100)'},
                {"action": "send", "at": 13, "from": "t", "to": "c",
                 "payload": 'reserveOk("t2",200)'},
                {"action": "send", "at": 14, "from": "t", "to": "c",
                 "payload": 'sell("t1",100)'},
            ],
        }
        report = run_scenario(scenario)
        laws = {r["law"] for r in report.records if r["type"] == "ruling"
                and r["agent"] == "t" and r["chain"] == 0}
        assert len(laws) == 2
        assert any("reserved" in r.get("stateAfter", "") for r in report.records)
        assert self._replay_file(report, tmp_path) == (True, [])
        _assert_carried_replay_agrees(report)

    def test_refused_stack_adopt_then_accepted_at_the_same_chain(self, tmp_path):
        (tmp_path / "base.law").write_text("law base\ndefault pass\n")
        (tmp_path / "gate.law").write_text(
            "law gate\nextends base\n"
            "rule g1 aspect gate:stack on adopted(stack(_)) when clock(T)@CS, T < 10 "
            "do { add tried(T); block(\"too-early\") }\n")
        scenario = {
            "name": "restack", "seed": 1, "duration": 40,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "base"}, {"name": "b", "law": "base"}],
            "timeline": [
                {"action": "stack-adopt", "at": 5, "agent": "a", "law": "gate"},
                {"action": "stack-adopt", "at": 20, "agent": "a", "law": "gate"},
                {"action": "send", "at": 25, "from": "a", "to": "b", "payload": "m(1)"},
            ],
        }
        report = run_scenario(scenario)
        stacked = [r for r in report.records if r["type"] == "ruling"
                   and r["agent"] == "a" and r["chain"] == 1]
        assert [r["blocked"] for r in stacked[:2]] == [True, False]
        assert "tried(5)" in stacked[0]["stateAfter"]
        assert "tried" not in stacked[1]["stateBefore"]
        assert self._replay_file(report, tmp_path) == (True, [])
        _assert_carried_replay_agrees(report)


@pytest.mark.xfail(strict=True, raises=StateError,
                   reason="ROADMAP item 3: a law error aborts the run instead of "
                   "becoming an exception event for the law")
def test_roadmap_item_3_a_law_error_does_not_abort_the_run():
    # a second seed token makes the ring law add hasToken to a holder
    scenario = _without_assertions(load_scenario(SCENARIOS / "ring-churn.json"))
    scenario["timeline"] = scenario["timeline"] + [
        {"action": "send", "at": at, "from": "ringmgr", "to": "m3", "payload": "seedToken()"}
        for at in (50, 51)]
    assert run_scenario(scenario).records


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: replay does not check that "
                   "a stateBefore continues the state replay derived (needs trace v2)")
def test_roadmap_item_4_state_continuity_is_checked():
    report = _shipped("acme-bc.json")
    records = [dict(r) for r in report.records]
    rec = next(r for r in records if r["seq"] == 3)
    assert rec["type"] == "ruling" and "budget(0)" in rec["stateBefore"]
    for field in ("stateBefore", "stateAfter"):
        rec[field] = rec[field].replace("budget(0)", "budget(1000)")
    tampered = RunReport(scenario={}, laws=report.laws, records=records, audit=[],
                         metrics={}, framework=report.framework)
    ok, _ = replay_report(tampered)
    assert not ok

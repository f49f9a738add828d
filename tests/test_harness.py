import importlib.util
import json
import pathlib
import re
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fds import controller, harness
from fds.actors import BaseActor, SinkActor
from fds.controller import AdoptionError, issue_certificate
from fds.core import FdsError, StateError, parse_term
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

    def test_an_actor_is_bound_once_and_only_when_admitted(self):
        binds = []
        real = BaseActor.bind

        def bind(actor, pool, name):
            binds.append(name)
            real(actor, pool, name)

        refused = SinkActor()
        with mock.patch.object(BaseActor, "bind", bind):
            report = run_scenario(MINI)
            assert binds == ["a", "b"]
            pool = report.actors["a"].pool
            d1 = next(r["laws"][0] for r in report.records if r["type"] == "adopt")
            # d1 admits only agents of division D1
            with pytest.raises(AdoptionError, match="adoption-refused: c"):
                pool.adopt(refused, issue_certificate("c", "D2"), d1)
        assert binds == ["a", "b"] and refused.pool is None

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

    def test_report_files_of_two_runs_are_byte_identical(self):
        scenario = load_scenario(SCENARIOS / "acme-basic.json")
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert first.verdicts and first.to_json() == second.to_json()
        # host latencies stay in memory, out of the file
        assert "laws" in first.metrics
        assert "laws" not in json.loads(first.to_json())["metrics"]

    def test_a_report_file_of_another_trace_version_is_refused(self, tmp_path):
        data = json.loads(run_scenario(MINI).to_json())
        assert data["traceVersion"] == 2
        p = tmp_path / "report.json"
        for version, name in ((1, "1"), (None, "None"), ("2", "'2'")):
            p.write_text(json.dumps(dict(data, traceVersion=version)))
            assert replay_report_file(p) == (False, ["trace version %s is not 2" % name])
        del data["traceVersion"]
        p.write_text(json.dumps(data))
        assert replay_report_file(p) == (False, ["trace version None is not 2"])

    def test_state_strings_with_separators_replay(self):
        scenario = load_scenario(SCENARIOS / "rc-buffer.json")
        scenario["timeline"] = [dict(e, payload=e["payload"].replace('"a"', '"a;b"'))
                                for e in scenario["timeline"]]
        scenario["assertions"] = []
        report = run_scenario(scenario)
        ops = [r["ops"] for r in report.records if r["type"] == "ruling"]
        # the buffer holds a term with the string, and replay must find it there
        assert any('add q(0,m("a;b",1))' in o for o in ops)
        assert any('remove q(0,m("a;b",1))' in o for o in ops)
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


def _starting_states(module, fn):
    """``fn()``, with the base state each ruling ``module`` derives starts
    from, in order."""
    states = []
    real = module.derive_ruling

    def probe(path, event, state, view=None):
        states.append(state.without_overlay())
        return real(path, event, state, view)

    with mock.patch.object(module, "derive_ruling", probe):
        return fn(), states


def _term_reprs(states):
    """States term for term, argument types included, with their multi sets."""
    return [([repr(t) for t in s.terms()], s.multi) for s in states]


def _without_assertions(scenario):
    return dict(scenario, assertions=[])


@lru_cache(maxsize=None)
def _run(name):
    """The report of a shipped scenario or a small workload, and the state
    the controller started each of its rulings from."""
    if name.endswith(".json"):
        scenario = _without_assertions(load_scenario(SCENARIOS / name))
        return _starting_states(controller, lambda: run_scenario(scenario))
    if name == "acme-stacked":
        scenario = _without_assertions(workloads.acme_stacked(5, orders=40))
        return _starting_states(controller, lambda: run_scenario(scenario))
    sizes = {
        "buffer-deep": dict(BUFFER_CLIENTS=2, BUFFER_DEPTH=8, BUFFER_LIGHT=2),
        "ring-large": dict(RING_MEMBERS=12, RING_HOPS=150, RING_CHURN_PERIOD=200),
    }[name]
    with mock.patch.multiple(workloads, **sizes):
        scenario = _without_assertions(workloads.WORKLOADS[name](5))
    return _starting_states(controller, lambda: run_scenario(scenario))


def _trace(name):
    return _run(name)[0]


SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.json"))
SMALL_WORKLOADS = sorted(workloads.WORKLOADS)
# small enough to replay twice per hypothesis example
TAMPERED = ["acme-basic.json", "cc-demo.json", "rc-buffer.json"] + SMALL_WORKLOADS


def _opens(rec):
    """Whether a ruling opens a chain: an adoption, or a chain's stacking."""
    return rec["event"] == "adopted" and (
        rec["chain"] > 0 or rec["eventArgs"][0].startswith("cert("))


def _tampered(report, records):
    return RunReport(scenario={}, laws=report.laws, records=records, audit=[],
                     metrics={}, framework=report.framework)


def _replay_fresh_parse(report, directory):
    """Replay of ``report`` written as a report file and read back."""
    p = directory / "report.json"
    p.write_text(report.to_json())
    return replay_report_file(p)


class TestCarriedReplay:
    def test_six_scenarios_ship(self):
        assert len(SHIPPED) == 6

    @pytest.mark.parametrize("name", SHIPPED + SMALL_WORKLOADS)
    def test_agrees_with_fresh_parse_and_carries_state(self, name, tmp_path):
        report, live = _run(name)
        rulings = [r for r in report.records if r["type"] == "ruling"]
        assert not any("stateAfter" in r for r in rulings)
        assert [r["seq"] for r in rulings if "stateBefore" in r] == \
            [r["seq"] for r in rulings if _opens(r)]
        got, replayed = _starting_states(harness, lambda: replay_report(report))
        assert got == (True, []) == _replay_fresh_parse(report, tmp_path)
        # every ruling starts from the state the controller started it from,
        # though only the chains' openings record one
        assert _term_reprs(replayed) == _term_reprs(live)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_agrees_with_fresh_parse_on_tampered_traces(self, data, tmp_path_factory):
        name = data.draw(st.sampled_from(TAMPERED))
        original = _trace(name)
        of_type = lambda kind: [i for i, r in enumerate(original.records) if r["type"] == kind]
        rulings = of_type("ruling")
        openings = [i for i in rulings if "stateBefore" in original.records[i]]
        continuing = [i for i in rulings if i not in openings]
        how = data.draw(st.sampled_from(("ops", "add", "drop", "stateBefore", "overlay",
                                         "time", *OVERLAY_INPUTS)))
        kind = OVERLAY_INPUTS.get(how, "ruling")
        i = data.draw(st.sampled_from(
            {"add": continuing, "drop": openings, "stateBefore": openings}.get(
                how, of_type(kind))))
        rec = dict(original.records[i])
        if how == "add":
            rec["stateBefore"] = original.records[data.draw(st.sampled_from(openings))][
                "stateBefore"]
        elif how == "drop":
            del rec["stateBefore"]
        elif how == "time":
            rec["time"] = data.draw(st.one_of(
                st.sampled_from([original.records[j]["time"] for j in rulings]),
                st.integers(0, 10**6)))
        else:
            rec[how] = _edit(data, rec[how], [original.records[j][how] for j in of_type(kind)
                                              if how in original.records[j]])
            if how == "ops" and rec["ops"] == original.records[i]["ops"]:
                return
        records = list(original.records)
        records[i] = rec
        tampered = _tampered(original, records)
        ok, problems = replay_report(tampered)
        assert (ok, problems) == _replay_fresh_parse(
            tampered, tmp_path_factory.mktemp("tampered"))
        flagged = {p.split(":")[0] for p in problems}
        if how in ("ops", "add", "drop"):
            assert "seq %d" % rec["seq"] in flagged, problems
        elif how != "stateBefore" and rec[how] != original.records[i][how]:
            # a changed overlay, or a changed input of one, flags every
            # ruling whose overlay it feeds
            assert {"seq %d" % s for s in _fed(records, i, how)} <= flagged, problems

    def test_a_failed_ruling_passes_no_state_on(self, tmp_path):
        # a refused stacking commits nothing on the native chain: had replay
        # committed the state its ruling derived, as any other blocked ruling
        # commits, the send's ruling would block on tried(5) instead
        (tmp_path / "base.law").write_text(
            "law base\ndefault pass\nmulti { tried }\n"
            "rule b1 aspect base:stack on adopted(stack(_)) when clock(T)@CS "
            "do { add tried(T); block(\"no-stack\") }\n"
            "rule b2 aspect base:send on sent(_, _, _) when tried(T)@CS "
            "do { block(\"tried\") }\n")
        (tmp_path / "other.law").write_text("law other\nextends base\n")
        scenario = {
            "name": "refused", "seed": 1, "duration": 20,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "base"}, {"name": "b", "law": "base"}],
            "timeline": [
                {"action": "stack-adopt", "at": 5, "agent": "a", "law": "other"},
                {"action": "send", "at": 8, "from": "a", "to": "b", "payload": "m(1)"},
            ],
        }
        report = run_scenario(scenario)
        native = [r for r in report.records if r["type"] == "ruling"
                  and r["agent"] == "a" and r["chain"] == 0]
        assert [(r["event"], r["ops"]) for r in native[1:]] == [
            ("adopted", 'add tried(5);block("no-stack")'), ("sent", 'forward("b",m(1))')]
        assert replay_report(report) == (True, [])

    def test_a_state_read_from_text_that_is_not_canonical_is_carried(self):
        # "zz( a() )" parses to the term whose text is "zz(a())": the chain
        # opens with it and every later ruling of the chain starts from it
        report = _trace("rc-buffer.json")
        records = [dict(r) for r in report.records]
        opening = next(r for r in records if "stateBefore" in r)
        opening["stateBefore"] += ";zz( a() )"
        tampered = _tampered(report, records)
        got, replayed = _starting_states(harness, lambda: replay_report(tampered))
        assert got == (True, [])
        rulings = [r for r in records if r["type"] == "ruling"]
        chain = [s for r, s in zip(rulings, replayed)
                 if (r["agent"], r["chain"]) == (opening["agent"], opening["chain"])]
        assert len(chain) >= 3
        assert all(s.lookup("zz") == [parse_term("zz(a())")] for s in chain)

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
        assert any(r.get("ops", "").startswith("add seen(a())") for r in report.records)
        assert replay_report(report) == (True, []) == _replay_fresh_parse(report, tmp_path)


# the fields of other records that feed a ruling's overlay, with their record type
OVERLAY_INPUTS = {"senderDivision": "envelope", "senderLaw": "envelope", "division": "adopt"}


def _fed(records, i, how):
    """The seqs of the rulings whose overlay field ``how`` of record ``i``
    feeds: its own, for a ruling's overlay or time; the arrivals that cite
    it, for an envelope's sender division or law; the sends to its agent
    until that agent quits or is adopted again, for an adoption's division."""
    rec = records[i]
    if rec["type"] == "ruling":
        return [rec["seq"]]
    if rec["type"] == "envelope":
        return [r["seq"] for r in records
                if r["type"] == "ruling" and r.get("envelope") == rec["seq"]]
    fed = []
    for r in records[i + 1:]:
        if r["type"] in ("adopt", "quit") and r["agent"] == rec["agent"]:
            break
        if r["type"] == "ruling" and r["event"] == "sent" and r["eventArgs"][2] == rec["agent"]:
            fed.append(r["seq"])
    return fed


def _edit(data, text, others):
    """``text`` changed in one of a few ways: another record's, a number
    bumped, a ``;``-part dropped, a term appended, or emptied."""
    how = data.draw(st.sampled_from(("other", "bump", "drop", "append", "empty")))
    if how == "other":
        return data.draw(st.sampled_from(others))
    if how == "bump":
        numbers = list(re.finditer(r"\d+", text))
        if not numbers:
            return text
        m = data.draw(st.sampled_from(numbers))
        return "%s%d%s" % (text[:m.start()], int(m.group()) + data.draw(st.integers(1, 1000)),
                           text[m.end():])
    if how == "drop":
        parts = text.split(";")
        del parts[data.draw(st.integers(0, len(parts) - 1))]
        return ";".join(parts)
    if how == "append":
        extra = data.draw(st.sampled_from(("zz(1)", "zz(a())", 'q(0,"x")', "clock(5)")))
        return "%s;%s" % (text, extra) if text else extra
    return ""


class TestContinuityBreaks:
    """Where an (agent, chain) legitimately starts over from a new state."""

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
                {"action": "quit", "at": 20, "agent": "t"},
                {"action": "adopt", "at": 25, "name": "t", "division": "D1",
                 "law": "travel"},
                {"action": "send", "at": 27, "from": "t", "to": "c",
                 "payload": 'reserveOk("t3",50)'},
            ],
        }
        report = run_scenario(scenario)
        own = [r for r in report.records if r["type"] == "ruling"
               and r["agent"] == "t" and r["chain"] == 0]
        assert len({r["law"] for r in own}) == 2
        openings = [r["seq"] for r in own if "stateBefore" in r]
        assert len(openings) == 3
        assert any("reserved" in r["ops"] for r in own)
        assert _replay_fresh_parse(report, tmp_path) == (True, [])
        # without its quit record, the agent's travel chain is still open
        # when it is adopted under travel again
        records = [r for r in report.records if r["type"] != "quit"]
        assert replay_report(_tampered(report, records)) == (
            False, ["seq %d: chain 0 of t is open" % openings[2]])

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
        assert "add tried(5)" in stacked[0]["ops"]
        assert "tried" not in stacked[1]["stateBefore"]
        assert _replay_fresh_parse(report, tmp_path) == (True, [])


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


def test_roadmap_item_4_state_continuity_is_checked():
    report = _trace("acme-bc.json")

    def replay_with(seq, change):
        records = [change(dict(r)) if r["seq"] == seq else r for r in report.records]
        return replay_report(_tampered(report, records))

    # a stateBefore on a ruling that continues a chain
    rec = report.records[2]
    assert rec["type"] == "ruling" and "stateBefore" not in rec
    assert replay_with(2, lambda r: dict(r, stateBefore='division("");name("x")')) == (
        False, ["seq 2: chain 0 of budget-office is open"])
    # no stateBefore on the ruling that opens a chain: every ruling of it is
    # on a closed chain
    ok, problems = replay_with(3, lambda r: {k: v for k, v in r.items()
                                             if k != "stateBefore"})
    assert not ok and problems[0] == "seq 3: chain 1 of budget-office is closed"
    # c1's bc chain opens with a budget of 1000 instead of 0: the first grant
    # it receives replaces a budget of 1000, not the recorded 0
    rec = report.records[13]
    assert rec["agent"] == "c1" and "budget(0)" in rec["stateBefore"]
    ok, problems = replay_with(13, lambda r: dict(
        r, stateBefore=r["stateBefore"].replace("budget(0)", "budget(1000)")))
    assert not ok and problems[0].startswith("seq 106: ops")


@pytest.mark.parametrize("how,change,built", [
    # (field, its new value from the old, the overlay replay then builds from
    # the one the run recorded)
    ("overlay", lambda v: v + ";zz(1)", lambda ov: ov),
    ("time", lambda v: v + 1,
     lambda ov: re.sub(r"^clock\((\d+)\)", lambda m: "clock(%d)" % (int(m[1]) + 1), ov)),
    ("senderDivision", lambda v: "D9",
     lambda ov: ov.replace('peerDivision("")', 'peerDivision("D9")')),
    ("senderLaw", lambda v: "x",
     lambda ov: re.sub(r'peerLaw\("\w+"\);peerSameLaw\(\d\)', 'peerLaw("x");peerSameLaw(0)',
                       ov)),
    ("division", lambda v: "D9",
     lambda ov: ov.replace('peerDivision("")', 'peerDivision("D9")')),
], ids=["overlay", "time", "senderDivision", "senderLaw", "division"])
def test_a_changed_overlay_input_flags_the_rulings_it_feeds(how, change, built):
    report = _trace("acme-bc.json")
    records = [dict(r) for r in report.records]
    kind = OVERLAY_INPUTS.get(how, "ruling")
    # the first record of its type whose field feeds a ruling on a message
    i = next(i for i, r in enumerate(records) if r["type"] == kind and any(
        records[s]["event"] in ("sent", "arrived") for s in _fed(records, i, how)))
    records[i][how] = change(records[i][how])
    fed = _fed(records, i, how)
    ok, problems = replay_report(_tampered(report, records))
    assert not ok and len(fed) >= (1 if kind == "ruling" else 2)
    for seq in fed:
        recorded = records[seq]["overlay"]
        assert built(report.records[seq]["overlay"]) != recorded
        assert "seq %d: overlay %r != %r" % (
            seq, built(report.records[seq]["overlay"]), recorded) in problems

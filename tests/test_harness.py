import importlib.util
import json
import pathlib
import re
import tracemalloc
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fds import controller, harness, lawlang
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


# a well-formed random-traffic item for MINI's agents
TRAFFIC = {"action": "random-traffic", "senders": ["a"], "targets": ["b"], "count": 2}


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

    @pytest.mark.parametrize("net", [
        {"latency": [5, 1]},
        {"latency": [-3, -3]},
        {"latency": [1]},
        {"latency": [1, 2.5]},
        {"latency": [False, 1]},
        {"order": "lifo"},
        {"firewall": "false"},
    ], ids=["lo-above-hi", "negative", "one-bound", "not-integer", "boolean", "unknown-order",
            "firewall-string"])
    def test_a_bad_net_section_is_a_scenario_error(self, net):
        with pytest.raises(ScenarioError, match="^net (latency|order|firewall) must be "):
            run_scenario(dict(MINI, net=net))

    @pytest.mark.parametrize("section,entry,error", [
        ("timeline", {"action": "send", "from": "a", "to": "b", "payload": "m(2)"},
         "has no 'at'"),
        ("cast", {"law": "d1"}, "has no 'name'"),
        ("timeline", {"action": "send-every", "from": "a", "to": "b", "payload": "m({i})",
                      "until": 9}, "has no 'period'"),
        ("timeline", {"action": "send-every", "from": "a", "to": "b", "payload": "m({i})",
                      "until": 9, "period": 0}, None),
        ("timeline", {"action": "send", "at": "5", "from": "a", "to": "b", "payload": "m(2)"},
         "has a non-integer 'at'"),
        ("timeline", {"action": "send", "at": True, "from": "a", "to": "b", "payload": "m(2)"},
         "has a non-integer 'at'"),
        ("timeline", "send", "is not an object"),
        ("cast", "c", "is not an object"),
        ("timeline", {"action": "send-every", "from": "a", "to": "b", "payload": "m({i})",
                      "until": "20", "period": 5}, "has a non-integer 'until'"),
        ("timeline", {"action": "send-every", "from": "a", "to": "b", "payload": "m({j})",
                      "until": 20, "period": 5},
         "has a payload that does not format with i=0: KeyError('j')"),
        ("timeline", {"action": "send", "at": 2, "from": ["a"], "to": "b", "payload": "m(2)"},
         "has a non-string 'from'"),
        ("timeline", {"action": "send", "at": 2, "from": "a", "to": 7, "payload": "m(2)"},
         "has a non-string 'to'"),
        ("timeline", {"action": "send", "at": 2, "from": "a", "to": "b", "payload": 5},
         "has a non-string 'payload'"),
        ("timeline", {"action": "quit", "at": 2, "agent": ["a"]}, "has a non-string 'agent'"),
        ("timeline", {"action": "stack-adopt", "at": 2, "agent": "a", "law": 5},
         "has a non-string 'law'"),
        ("cast", {"name": 5, "law": "d1"}, "has a non-string 'name'"),
        ("cast", {"name": "c", "division": 5, "law": "d1"}, "has a non-string 'division'"),
        ("cast", {"name": "c", "law": "d1", "behavior": ["sink"]},
         "has a non-string 'behavior'"),
        ("cast", {"name": "c", "law": "d1", "params": 5}, "has a non-object 'params'"),
        ("cast", {"name": "c", "law": "d1", "stack": "d1"}, "has a non-string-list 'stack'"),
        # an actor's params are checked by its behavior before the run starts
        ("cast", {"name": "c", "law": "d1", "behavior": "ring-member", "params": {"hold": "5"}},
         "has params its 'ring-member' behavior refuses: hold must be a non-negative integer, "
         "not '5'"),
        ("cast", {"name": "c", "law": "d1", "behavior": "ring-member", "params": {"hodl": 50}},
         "has params its 'ring-member' behavior refuses: RingMemberActor.__init__() got an "
         "unexpected keyword argument 'hodl'"),
        ("cast", {"name": "c", "law": "d1", "params": {"anything": 1}},
         "has params its 'sink' behavior refuses: BaseActor.__init__() got an unexpected "
         "keyword argument 'anything'"),
        ("timeline", dict(TRAFFIC, count="2"), "has a non-integer 'count'"),
        ("timeline", dict(TRAFFIC, seedOffset="x"), "has a non-integer 'seedOffset'"),
        ("timeline", dict(TRAFFIC, gap=5), "has a non-range 'gap'"),
        ("timeline", dict(TRAFFIC, gap=[3, 1]), "has a non-range 'gap'"),
        ("timeline", dict(TRAFFIC, costRange=[1]), "has a non-range 'costRange'"),
        ("timeline", dict(TRAFFIC, rogueProb="0.1"), "has a non-number 'rogueProb'"),
        ("timeline", dict(TRAFFIC, rogueProb=True), "has a non-number 'rogueProb'"),
        ("timeline", dict(TRAFFIC, senders=[]), "has a non-agent-list 'senders'"),
        ("timeline", dict(TRAFFIC, senders="a"), "has a non-agent-list 'senders'"),
        ("timeline", dict(TRAFFIC, targets=[1]), "has a non-agent-list 'targets'"),
    ], ids=["send-without-at", "cast-without-name", "send-every-without-period",
            "period-zero", "at-string", "at-bool", "item-string", "cast-entry-string",
            "until-string", "payload-unknown-field", "from-list", "to-integer",
            "payload-integer", "agent-list", "law-integer", "name-integer",
            "division-integer", "behavior-list", "params-integer", "stack-string",
            "hold-string", "params-misspelt", "params-for-no-parameter",
            "count-string", "seed-offset-string", "gap-integer", "gap-lo-above-hi",
            "cost-range-one-bound", "rogue-prob-string", "rogue-prob-bool", "senders-empty",
            "senders-string", "targets-integers"])
    def test_a_malformed_cast_entry_or_timeline_item_is_a_scenario_error(
            self, section, entry, error):
        # the item and what is wrong with it are named before the run starts
        message = "send-every period must be a positive integer, not 0" if error is None \
            else json.dumps(entry, sort_keys=True, separators=(",", ":")) + " " + error
        with pytest.raises(ScenarioError, match="^%s$" % re.escape(message)):
            run_scenario(dict(MINI, **{section: MINI[section] + [entry]}))

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

    def test_a_refused_adoption_is_recorded_and_the_run_goes_on(self):
        scenario = load_scenario(SCENARIOS / "acme-basic.json")
        # d1 admits only agents of division D1
        refused = dict(scenario, timeline=scenario["timeline"] + [
            {"action": "adopt", "at": 3, "name": "zz", "division": "D2", "law": "d1"}])
        report = run_scenario(refused)
        errors = [r for r in report.records if r["type"] == "action-error"]
        assert [(r["action"], r["agent"], r["time"], r["error"]) for r in errors] == [
            ("adopt", "zz", 3, "adoption-refused: zz")]
        assert replay_report(report) == (True, [])
        assert report.verdicts == run_scenario(scenario).verdicts
        assert "zz" not in report.actors

    @pytest.mark.parametrize("payload", ["lawText(1,2)", 'lawText("h",f("x"))'])
    def test_a_fetched_law_text_that_is_not_a_string_fails_law_fetch(self, payload):
        scenario = load_scenario(SCENARIOS / "acme-basic.json")
        forged = dict(scenario, timeline=scenario["timeline"] + [
            {"action": "send", "at": 100, "from": "law-server", "to": "p", "payload": payload}])
        report = run_scenario(forged)
        assert [r["payload"] for r in report.records
                if r["type"] == "deliver" and r["payload"].startswith("lawText")][-1] == payload
        assert report.verdicts["law-fetch"] == {
            "ok": False, "detail": "fetched=3 consistent=[True, True, False]"}
        assert run_scenario(scenario).verdicts["law-fetch"]["ok"]

    def test_a_prober_keeps_a_fetched_law_text_only_if_both_arguments_are_strings(self):
        scenario = load_scenario(SCENARIOS / "acme-basic.json")
        forged = dict(scenario, timeline=scenario["timeline"] + [
            {"action": "send", "at": 100 + i, "from": "law-server", "to": "p",
             "payload": payload}
            for i, payload in enumerate(['lawText(1,2)', 'lawText("h",f("x"))',
                                         'lawText("g","not the text of g")'])])
        texts = run_scenario(forged).actors["p"].texts
        assert texts == dict(run_scenario(scenario).actors["p"].texts,
                             g="not the text of g")

    def test_an_adoption_under_a_taken_name_keeps_the_first_actor(self):
        taken = dict(MINI, timeline=MINI["timeline"] + [
            {"action": "adopt", "at": 3, "name": "a", "division": "D1", "law": "d1",
             "behavior": "echo"}])
        report = run_scenario(taken)
        errors = [(r["action"], r["agent"], r["error"])
                  for r in report.records if r["type"] == "action-error"]
        assert errors == [("adopt", "a", "name-taken: a")]
        first = report.actors["a"]
        assert isinstance(first, SinkActor) and first.pool.agents["a"].actor is first

    def test_a_failed_state_op_records_no_ruling_and_commits_nothing(self, tmp_path):
        # the ruling is recorded only after the state it commits is computed
        (tmp_path / "bad.law").write_text(
            "law bad\ndefault pass\ninit { n(0) }\n"
            "rule r aspect bad:send on sent(_, m(_), _) do { remove absent(1); forward }\n")
        scenario = {
            "name": "bad", "seed": 1, "duration": 20,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "bad"}, {"name": "b", "law": "bad"}],
            "timeline": [{"action": "send", "at": 5, "from": "a", "to": "b",
                          "payload": "m(1)"}],
        }
        report = run_scenario(scenario)
        errors = [(r["action"], r["agent"], r["time"], r["error"])
                  for r in report.records if r["type"] == "action-error"]
        assert errors == [("send", "a", 5, "stale-state-update: absent(1) not in state")]
        rulings = [r for r in report.records if r["type"] == "ruling"]
        assert [(r["agent"], r["event"]) for r in rulings] == [
            ("a", "adopted"), ("b", "adopted")]
        chain = report.actors["a"].pool.agents["a"].chains[0]
        assert chain.state == chain.path.initial_state("a", "")
        assert replay_report(report) == (True, [])

    def test_an_obligation_delivery_is_recorded_citing_its_ruling(self, tmp_path):
        # a due obligation has no envelope, so its delivery cites the ruling
        (tmp_path / "remind.law").write_text(
            "law remind\ndefault pass\n"
            "rule s aspect remind:send on sent(_, _, _) do { oblige reminder() in 3; forward }\n"
            "rule o aspect remind:due on obligationDue(reminder()) do { deliver(reminder(1)) }\n")
        scenario = {
            "name": "remind", "seed": 1, "duration": 20,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "remind"}, {"name": "b", "law": "remind"}],
            "timeline": [{"action": "send", "at": 5, "from": "a", "to": "b",
                          "payload": "m(1)"}],
            "assertions": ["mediation-complete", "replay-equiv"],
        }
        report = run_scenario(scenario)
        due = [r for r in report.records if r["type"] == "ruling"
               and r["event"] == "obligationDue"]
        assert [(r["agent"], r["time"], r["ops"]) for r in due] == [
            ("a", 8, "deliver(reminder(1))")]
        delivered = [r for r in report.records if r["type"] == "deliver" and "ruling" in r]
        assert [(r["agent"], r["sender"], r["payload"], r["ruling"]) for r in delivered] == [
            ("a", "a", "reminder(1)", due[0]["seq"])]
        assert report.actors["a"].deliveries == [(8, "a", parse_term("reminder(1)"))]
        assert report.ok(), report.verdicts

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

    def test_report_file_holds_one_trace_record_per_line(self):
        report = run_scenario(MINI)
        text = report.to_json()
        start = text.index('"trace":[\n') + len('"trace":[\n')
        assert text[start:text.index("\n]", start)] == ",\n".join(report.trace_lines())
        assert text.count("\n") == len(report.records) + 1

    def test_report_file_reads_as_the_indented_layout(self):
        report = run_scenario(MINI)
        indented = json.dumps({
            "traceVersion": 3,
            "scenario": report.scenario,
            "laws": report.laws,
            "trace": report.records,
            "audit": report.audit,
            "metrics": {k: v for k, v in report.metrics.items() if k != "laws"},
            "verdicts": report.verdicts,
            "warnings": report.warnings,
        }, sort_keys=True, indent=1)
        assert json.loads(report.to_json()) == json.loads(indented)

    def test_an_indented_report_file_replays(self, tmp_path):
        p = tmp_path / "report.json"
        p.write_text(json.dumps(json.loads(run_scenario(MINI).to_json()),
                                sort_keys=True, indent=1))
        assert replay_report_file(p) == (True, [])

    def test_writing_a_report_file_peaks_at_three_times_its_size(self, acme_bc_report):
        tracemalloc.start()
        try:
            text = acme_bc_report.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))

    def test_a_report_file_of_another_trace_version_is_refused(self, tmp_path):
        data = json.loads(run_scenario(MINI).to_json())
        assert data["traceVersion"] == 3
        p = tmp_path / "report.json"
        for version, name in ((2, "2"), (None, "None"), ("3", "'3'")):
            p.write_text(json.dumps(dict(data, traceVersion=version)))
            assert replay_report_file(p) == (False, ["trace version %s is not 3" % name])
        del data["traceVersion"]
        p.write_text(json.dumps(data))
        assert replay_report_file(p) == (False, ["trace version None is not 3"])

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
        fw = rebuild_framework({h: d.canonical() for h, d in acme.framework.docs.items()})
        assert set(fw.docs) == set(acme.framework.docs)
        assert fw.root == acme.root

    def test_rebuild_framework_rejects_text_under_another_hash(self):
        acme = build_acme_hierarchy()
        laws = {h: d.canonical() for h, d in acme.framework.docs.items()}
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

    @pytest.mark.parametrize("where", ["missing", "."])
    def test_a_directory_without_law_files_errors(self, tmp_path, where):
        (tmp_path / "notes.txt").write_text("not a law")
        directory = tmp_path / where
        with pytest.raises(ScenarioError, match=re.escape("no .law files in %s" % directory)):
            load_laws_dir(directory)


def _compiled_rules(fn):
    """``fn()`` and the number of ``CompiledRule`` objects it constructed."""
    built = []
    init = lawlang.CompiledRule.__init__

    def counting(self, rule):
        built.append(rule)
        init(self, rule)

    with mock.patch.object(lawlang.CompiledRule, "__init__", counting):
        return fn(), len(built)


class TestLawMemo:
    """Each law text is parsed, checked and compiled once per process."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_a_warm_run_and_its_replay_compile_nothing_and_match_a_cold_run(self, name):
        scenario = load_scenario(SCENARIOS / name)
        lawlang.parse_law.cache_clear()
        cold, cold_built = _compiled_rules(lambda: run_scenario(scenario))
        # the cold run's replay-equiv assertion republishes the laws the run
        # published, by the same texts: each law was parsed once
        assert cold.verdicts["replay-equiv"]["ok"]
        assert lawlang.parse_law.cache_info().misses == len(cold.laws)
        warm, warm_built = _compiled_rules(lambda: run_scenario(scenario))
        (ok, problems), replay_built = _compiled_rules(lambda: replay_report(warm))
        assert ok, problems[:3]
        assert cold_built > 0 and (warm_built, replay_built) == (0, 0)
        assert warm.to_json() == cold.to_json()


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


def small_workload(name):
    """A small instance of a bench workload, with no assertions; acme-stacked's
    agents have two stacked chains each."""
    if name == "acme-stacked":
        return _without_assertions(workloads.acme_stacked(5, orders=40))
    sizes = {
        "buffer-deep": dict(BUFFER_CLIENTS=2, BUFFER_DEPTH=8, BUFFER_LIGHT=2),
        "ring-large": dict(RING_MEMBERS=12, RING_HOPS=150, RING_CHURN_PERIOD=200),
    }[name]
    with mock.patch.multiple(workloads, **sizes):
        return _without_assertions(workloads.WORKLOADS[name](5))


@lru_cache(maxsize=None)
def _run(name):
    """The report of a shipped scenario or a small workload, and the state
    the controller started each of its rulings from."""
    if name.endswith(".json"):
        scenario = _without_assertions(load_scenario(SCENARIOS / name))
    else:
        scenario = small_workload(name)
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
    """``report`` with ``records``, which leave its audit records as they were."""
    return RunReport(scenario={}, laws=report.laws, records=records, audit=report.audit,
                     metrics={})


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
        assert not any("stateAfter" in r for r in report.records)
        got, replayed = _starting_states(harness, lambda: replay_report(report))
        assert got == (True, []) == _replay_fresh_parse(report, tmp_path)
        # every ruling starts from the state the controller started it from,
        # though no record holds a state
        assert _term_reprs(replayed) == _term_reprs(live)

    @pytest.mark.parametrize("name", SHIPPED + SMALL_WORKLOADS)
    def test_each_chain_opens_in_its_law_paths_initial_state(self, name):
        report = _trace(name)
        assert not any("stateBefore" in r for r in report.records)
        fw = rebuild_framework(report.laws)
        got, replayed = _starting_states(harness, lambda: replay_report(report))
        assert got == (True, [])
        divisions, opened = {}, 0
        rulings = iter(replayed)
        for rec in report.records:
            if rec["type"] == "adopt":
                divisions[rec["agent"]] = rec["division"]
            if rec["type"] != "ruling":
                continue
            state = next(rulings)
            if _opens(rec):
                division = parse_term(rec["eventArgs"][0]).args[1] if rec["chain"] == 0 \
                    else divisions[rec["agent"]]
                initial = fw.resolve_path(rec["law"]).initial_state(rec["agent"], division)
                assert _term_reprs([state]) == _term_reprs([initial]), rec["seq"]
                opened += 1
        assert opened >= 2 and next(rulings, None) is None

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_agrees_with_fresh_parse_on_tampered_traces(self, data, tmp_path_factory):
        name = data.draw(st.sampled_from(TAMPERED))
        original = _trace(name)
        of_type = lambda kind: [i for i, r in enumerate(original.records) if r["type"] == kind]
        rulings = of_type("ruling")
        how = data.draw(st.sampled_from(("ops", "overlay", "time", *OVERLAY_INPUTS)))
        kind = OVERLAY_INPUTS.get(how, "ruling")
        i = data.draw(st.sampled_from(of_type(kind)))
        rec = dict(original.records[i])
        if how == "time":
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
        if how == "ops":
            assert "seq %d" % rec["seq"] in flagged, problems
        elif rec[how] != original.records[i][how]:
            # a changed overlay, or a changed input of one, flags every
            # ruling whose overlay it feeds
            assert {"seq %d" % s for s in _fed(records, i, how)} <= flagged, problems

    @pytest.mark.parametrize("name", ["buffer-deep", "ring-large"])
    def test_each_distinct_term_text_is_parsed_once(self, name):
        report = _trace(name)
        rulings = [r for r in report.records if r["type"] == "ruling"]
        texts = [r["eventArgs"][1] for r in rulings if r["event"] in ("sent", "arrived")]
        texts += [r["eventArgs"][0] for r in rulings
                  if r["event"] in ("adopted", "obligationDue")]
        parsed = []
        real = harness.parse_term

        def counted(text):
            parsed.append(text)
            return real(text)

        with mock.patch.object(harness, "parse_term", counted):
            assert replay_report(report) == (True, [])
        # a payload, an adoption's argument or an obligation name: each text
        # once, though texts recur
        assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts)

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

    def test_a_stacking_whose_opening_ruling_raises_leaves_no_chain(self, tmp_path):
        # the new chain's opening ruling removes a term its state lacks: the
        # stacking is an action error, and the later send sees one chain
        (tmp_path / "base.law").write_text("law base\ndefault pass\n")
        (tmp_path / "gate.law").write_text(
            "law gate\nextends base\n"
            "rule g1 aspect gate:stack on adopted(stack(_)) do { remove nothere(1) }\n")
        scenario = {
            "name": "gate", "seed": 1, "duration": 20,
            "laws": {"bundle": "dir", "params": {"dir": str(tmp_path)}},
            "cast": [{"name": "a", "law": "base"}, {"name": "b", "law": "base"}],
            "timeline": [
                {"action": "stack-adopt", "at": 5, "agent": "a", "law": "gate"},
                {"action": "send", "at": 8, "from": "a", "to": "b", "payload": "m(1)"},
            ],
        }
        report = run_scenario(scenario)
        assert [(r["action"], r["agent"], r["time"]) for r in report.records
                if r["type"] == "action-error"] == [("stack-adopt", "a", 5)]
        assert not [r for r in report.records if r["type"] == "ruling" and r["chain"] == 1]
        assert replay_report(report) == (True, [])

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
        openings = [r["seq"] for r in own if _opens(r)]
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
        rulings = [r for r in report.records if r["type"] == "ruling"]
        got, replayed = _starting_states(harness, lambda: replay_report(report))
        assert got == (True, [])
        stacked = [(r, state) for r, state in zip(rulings, replayed)
                   if r["agent"] == "a" and r["chain"] == 1]
        assert [r["blocked"] for r, _ in stacked[:2]] == [True, False]
        assert "add tried(5)" in stacked[0][0]["ops"]
        # the refused stacking's tried(5) is not in the state the accepted one opens
        assert all(_opens(r) for r, _ in stacked[:2])
        assert not list(stacked[1][1].visible("tried"))
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
    def replay_with(report, seq, change):
        records = [change(dict(r)) if r["seq"] == seq else r for r in report.records]
        return replay_report(_tampered(report, records))

    # a deleted opening ruling: the next ruling of its chain is on a closed chain
    report = _trace("acme-bc.json")
    rec = report.records[3]
    assert rec["type"] == "ruling" and _opens(rec) and rec["chain"] == 1
    later = next(r for r in report.records[4:] if r["type"] == "ruling"
                 and (r["agent"], r["chain"]) == (rec["agent"], rec["chain"]))
    ok, problems = replay_report(_tampered(report, [r for r in report.records if r is not rec]))
    assert not ok and problems[0] == "seq %d: chain 1 of budget-office is closed" % later["seq"]
    # a re-adoption whose quit record is missing: its chain is still open
    scenario = _without_assertions(load_scenario(SCENARIOS / "acme-basic.json"))
    scenario["timeline"] = scenario["timeline"] + [
        {"action": "quit", "at": 100, "agent": "a1"},
        {"action": "adopt", "at": 105, "name": "a1", "division": "D1", "law": "d1"}]
    report = run_scenario(scenario)
    assert replay_report(report) == (True, [])
    readoption = [r for r in report.records if r["type"] == "ruling" and r["agent"] == "a1"
                  and _opens(r)][1]
    assert replay_report(_tampered(report, [r for r in report.records
                                            if r["type"] != "quit"])) == (
        False, ["seq %d: chain 0 of a1 is open" % readoption["seq"]])
    # the certificate division of an opening ruling edited from D1 to D2:
    # the chain opens in D2's initial state, where d1 refuses the adoption
    report = _trace("acme-basic.json")
    rec = report.records[4]
    assert _opens(rec) and '"D1"' in rec["eventArgs"][0]
    ok, problems = replay_with(report, 4, lambda r: dict(
        r, eventArgs=[r["eventArgs"][0].replace('"D1"', '"D2"')]))
    assert not ok and problems[0] == """seq 4: ops 'block("adoption-refused")' != ''"""


@pytest.mark.parametrize("event,field,change", [
    ("sent", "blocked", lambda r: not r["blocked"]),
    # the self name of a send is its first argument, of an arrival its last:
    # each renamed to the other party of the message
    ("sent", "eventArgs", lambda r: [r["eventArgs"][2]] + r["eventArgs"][1:]),
    ("arrived", "eventArgs", lambda r: r["eventArgs"][:2] + [r["eventArgs"][0]]),
], ids=["sent-blocked", "sent-self-name", "arrived-self-name"])
def test_a_changed_blocked_flag_or_event_argument_is_flagged(event, field, change):
    report = _trace("acme-bc.json")
    records = [dict(r) for r in report.records]
    rec = next(r for r in records if r["type"] == "ruling" and r["event"] == event
               and r["eventArgs"][0] != r["eventArgs"][2])
    recorded = rec[field]
    rec[field] = change(rec)
    assert replay_report(_tampered(report, records)) == (
        False, ["seq %d: %s %r != %r" % (rec["seq"], field, recorded, rec[field])])


def test_an_edited_arrival_payload_is_ruled_on_as_recorded():
    # replay hands an arrival the payload term its send parsed only while the
    # arrival's payload text is the envelope's; an edited one is parsed and
    # ruled on, so the rulings differ in their ops and not in eventArgs
    report = _trace("acme-bc.json")
    records = [dict(r) for r in report.records]
    cited = set()
    for rec in records:
        if rec["type"] == "ruling" and rec["event"] == "arrived":
            if rec["envelope"] not in cited and "deliver(" in rec["ops"]:
                break
            cited.add(rec["envelope"])
    payload = rec["eventArgs"][1]
    assert payload == records[rec["envelope"]]["payload"]
    rec["eventArgs"] = [rec["eventArgs"][0], "zz(%s)" % payload, rec["eventArgs"][2]]
    ok, problems = replay_report(_tampered(report, records))
    assert not ok and problems[0].startswith("seq %d: ops " % rec["seq"])
    assert not [p for p in problems if p.startswith("seq %d: eventArgs" % rec["seq"])]


def test_replay_checks_every_field_the_controller_derives():
    # a field added to the one function that builds a ruling's derived
    # fields is recorded by the controller and checked by replay
    real = controller.ruling_fields

    def with_op_count(view, overlay, ruling):
        return dict(real(view, overlay, ruling), opCount=len(ruling.ops))

    scenario = _without_assertions(load_scenario(SCENARIOS / "acme-bc.json"))
    with mock.patch.object(controller, "ruling_fields", with_op_count), \
            mock.patch.object(harness, "ruling_fields", with_op_count):
        report = run_scenario(scenario)
        assert replay_report(report) == (True, [])
        records = [dict(r) for r in report.records]
        rec = next(r for r in records if r["type"] == "ruling" and r["opCount"] > 0)
        rec["opCount"] += 1
        assert replay_report(_tampered(report, records)) == (
            False, ["seq %d: opCount %r != %r" % (rec["seq"], rec["opCount"] - 1, rec["opCount"])])


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

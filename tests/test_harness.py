import json
import pathlib

import pytest

from fds.core import FdsError
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

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "src" / "fds" / "scenarios"

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

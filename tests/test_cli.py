import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import fds
from fds.cli import main
from fds.core import TermSyntaxError, parse_term, parse_terms
from fds.harness import load_scenario, run_scenario
from fds.lawlang import LawSyntaxError, parse_law
from fds.library import build_acme_hierarchy, make_acme_root, make_division_law

SCENARIO = Path(fds.__file__).parent / "scenarios" / "acme-basic.json"

# one digit more than int() converts from text, on an interpreter with a limit
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (LIMIT + 1)
needs_limit = pytest.mark.skipif(not LIMIT, reason="int() converts any number of digits")


class TestLawsCheck:
    def test_prints_hash_and_name_per_law(self, tmp_path, capsys):
        (tmp_path / "a-root.law").write_text(make_acme_root())
        (tmp_path / "b-d1.law").write_text(make_division_law("D1"))
        assert main(["laws", "check", str(tmp_path)]) == 0
        acme = build_acme_hierarchy()
        assert capsys.readouterr().out.splitlines() == [
            "ok %s acme-d1" % acme.d1,
            "ok %s acme-root" % acme.root,
        ]

    def test_orphan_delta_fails(self, tmp_path, capsys):
        (tmp_path / "orphan.law").write_text("law orphan\nextends nowhere\n")
        assert main(["laws", "check", str(tmp_path)]) == 1
        assert "unresolved superiors" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [lambda tmp: tmp / "missing", lambda tmp: tmp],
                             ids=["missing", "no-law-files"])
    def test_a_directory_with_no_law_file_fails(self, make, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not a law")
        directory = make(tmp_path)
        assert main(["laws", "check", str(directory)]) == 1
        assert capsys.readouterr().out == "FAIL no .law files in %s\n" % directory


class TestRunAndReplay:
    def test_trace_out_replays(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", str(SCENARIO), "--trace-out", str(trace)]) == 0
        assert "PASS replay-equiv" in capsys.readouterr().out
        assert main(["replay", str(trace)]) == 0
        assert capsys.readouterr().out.startswith("PASS replay")

    def test_a_laws_dir_with_no_law_file_is_an_error(self, tmp_path, capsys):
        directory = tmp_path / "missing"
        assert main(["run", str(SCENARIO), "--laws-dir", str(directory)]) == 2
        assert capsys.readouterr().err == "error: no .law files in %s\n" % directory

    def test_a_payload_that_is_no_term_is_an_error(self, tmp_path, capsys):
        # a non-ASCII digit is no digit of the term syntax
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"] = [{"action": "send", "at": 1, "from": "a", "to": "b",
                                 "payload": "f(\u00b2)"}]
        path = tmp_path / "bad-payload.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: unexpected '\u00b2' at 2 in 'f(")

    def test_a_bad_net_section_is_an_error(self, tmp_path, capsys):
        for key, value, error in [
            ("latency", [5, 1], "net latency must be two integers lo, hi with 0 <= lo <= hi, "
                                "not [5, 1]"),
            ("firewall", "false", "net firewall must be true or false, not 'false'"),
        ]:
            scenario = json.loads(SCENARIO.read_text())
            scenario["net"][key] = value
            path = tmp_path / "bad-net.json"
            path.write_text(json.dumps(scenario))
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err == "error: %s\n" % error

    def test_a_timeline_item_without_a_key_it_needs_is_an_error(self, tmp_path, capsys):
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"] = [{"action": "send", "from": "a", "to": "b", "payload": "m(1)"}]
        path = tmp_path / "no-at.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            'error: {"action":"send","from":"a","payload":"m(1)","to":"b"} has no \'at\'\n')

    def test_a_timeline_item_with_a_time_of_the_wrong_type_is_an_error(self, tmp_path, capsys):
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"].append({"action": "send", "at": "5", "from": "a", "to": "b",
                                     "payload": "m(1)"})
        path = tmp_path / "string-at.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            'error: {"action":"send","at":"5","from":"a","payload":"m(1)","to":"b"} '
            'has a non-integer \'at\'\n')

    def test_a_timeline_item_with_a_target_of_the_wrong_type_is_an_error(self, tmp_path,
                                                                          capsys):
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"].append({"action": "send", "at": 5, "from": "a", "to": 7,
                                     "payload": "m(1)"})
        path = tmp_path / "integer-to.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            'error: {"action":"send","at":5,"from":"a","payload":"m(1)","to":7} '
            'has a non-string \'to\'\n')

    @needs_limit
    def test_a_payload_integer_too_long_to_convert_is_an_error(self, tmp_path, capsys):
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"] = [{"action": "send", "at": 1, "from": "a", "to": "b",
                                 "payload": "f(%s)" % LONG}]
        path = tmp_path / "long-payload.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: integer of %d digits at 2 in 'f(" % len(LONG))

    @pytest.mark.parametrize("tamper,problem", [
        (lambda data: "{nope", "cannot read a report from "),
        (lambda data: [data], "a report is a JSON object, not list"),
        (lambda data: _without(data, "laws"), "report has no laws object of law texts"),
        (lambda data: dict(data, laws={h: 5 for h in data["laws"]}),
         "report has no laws object of law texts"),
        (lambda data: _without(data, "trace"), "report has no trace list"),
        (lambda data: _first_ruling(data, "sent", lambda r: r.update(
            eventArgs=r["eventArgs"][:2])), ": 'sent' event with 2 eventArgs"),
        (lambda data: _first_ruling(data, "arrived", lambda r: r.pop("envelope")),
         ": arrival cites no envelope before it (None)"),
        (lambda data: _first_ruling(data, "arrived", lambda r: r.update(envelope=10 ** 6)),
         ": arrival cites no envelope before it (1000000)"),
        (lambda data: dict(data, laws=dict(data["laws"], **{min(data["laws"]): "law broken"})),
         "laws: root law must declare a default directive"),
        (lambda data: _edit_law(data, "oblige expire(Tk) in 80", "oblige expire(Tk) in 81"),
         "laws: law text does not hash to "),
        # replay builds each overlay from the records before its ruling
        (lambda data: _first_ruling(data, "sent", lambda r: r.update(
            overlay=r["overlay"] + ";zz(1)")), ": overlay "),
        # and re-derives each blocked flag
        (lambda data: _first_ruling(data, "sent", lambda r: r.update(
            blocked=not r["blocked"])), ": blocked "),
    ], ids=["not-json", "not-an-object", "no-laws", "law-not-text", "no-trace", "short-eventArgs",
            "no-envelope", "unknown-envelope", "law-unparsable", "law-rule-edited",
            "overlay-edited", "blocked-flipped"])
    def test_a_malformed_report_fails_replay(self, tamper, problem, tmp_path, capsys):
        data = tamper(json.loads(_report_text()))
        trace = tmp_path / "trace.json"
        trace.write_text(data if isinstance(data, str) else json.dumps(data))
        assert main(["replay", str(trace)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out and all(line.startswith("FAIL replay: ") for line in out)
        assert problem in out[0]


@lru_cache(maxsize=None)
def _report_text():
    return run_scenario(load_scenario(SCENARIO)).to_json()


def _without(data, key):
    del data[key]
    return data


def _edit_law(data, old, new):
    """``data`` with ``old`` replaced by ``new`` in the law text that holds it."""
    ref = next(ref for ref, text in data["laws"].items() if old in text)
    data["laws"][ref] = data["laws"][ref].replace(old, new)
    return data


def _first_ruling(data, event, change):
    change(next(r for r in data["trace"] if r["type"] == "ruling" and r["event"] == event))
    return data


@needs_limit
@pytest.mark.parametrize("text", ["f(%s)" % LONG, "f(g(-%s))" % LONG, "a;f(%s)" % LONG])
def test_term_text_with_an_integer_too_long_is_a_term_syntax_error(text):
    with pytest.raises(TermSyntaxError, match="integer of %d digits" % len(LONG)):
        parse_terms(text) if ";" in text else parse_term(text)


@needs_limit
@pytest.mark.parametrize("law", [
    "law x\ndefault block\ninit { n(%s) }\n" % LONG,
    "law x\ndefault block\nrule r aspect a on sent(_, m(X), _) when X < -%s do { forward }\n"
    % LONG,
])
def test_law_text_with_an_integer_too_long_is_a_law_syntax_error(law):
    with pytest.raises(LawSyntaxError, match="integer of %d digits" % len(LONG)):
        parse_law(law)

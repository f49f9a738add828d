import json
from pathlib import Path

import fds
from fds.cli import main
from fds.library import build_acme_hierarchy, make_acme_root, make_division_law

SCENARIO = Path(fds.__file__).parent / "scenarios" / "acme-basic.json"


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


class TestRunAndReplay:
    def test_trace_out_replays(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", str(SCENARIO), "--trace-out", str(trace)]) == 0
        assert "PASS replay-equiv" in capsys.readouterr().out
        assert main(["replay", str(trace)]) == 0
        assert capsys.readouterr().out.startswith("PASS replay")

    def test_a_payload_that_is_no_term_is_an_error(self, tmp_path, capsys):
        # a non-ASCII digit is no digit of the term syntax
        scenario = json.loads(SCENARIO.read_text())
        scenario["timeline"] = [{"action": "send", "at": 1, "from": "a", "to": "b",
                                 "payload": "f(\u00b2)"}]
        path = tmp_path / "bad-payload.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: unexpected '\u00b2' at 2 in 'f(")

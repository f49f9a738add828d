"""Oracles judged on small runs whose custody history is known."""

from fds.harness import run_scenario
from fds.oracles import ring_token_oracle


def _ring_run(timeline):
    return run_scenario({
        "name": "ring-oracle",
        "seed": 1,
        "net": {"latency": [1, 1], "order": "fifo-per-pair", "firewall": False},
        "laws": {"bundle": "ring", "params": {"confirmWait": 25}},
        "cast": [{"name": n, "division": "", "law": "ring", "behavior": "sink"}
                 for n in ("ringmgr", "m1", "m2")],
        "timeline": timeline,
        "duration": 20,
        "assertions": [],
    })


def test_ring_oracle_counts_a_seed_token_in_flight():
    # m1 holds the token from t=3; a second seed token leaves for m2 at t=5
    # and is dead-lettered at t=6, because m2 quits before it arrives
    report = _ring_run([
        {"action": "send", "at": 2, "from": "ringmgr", "to": "m1", "payload": "seedToken()"},
        {"action": "send", "at": 5, "from": "ringmgr", "to": "m2", "payload": "seedToken()"},
        {"action": "quit", "at": 5, "agent": "m2"},
    ])
    assert [r["type"] for r in report.records if r["time"] == 6] == ["dead-letter"]
    assert ring_token_oracle(report.records).problems == ["time 5: token count 2"]

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from fds.actors import SinkActor
from fds.controller import (
    AdoptionError,
    Certificate,
    ControllerPool,
    issue_certificate,
    verify_certificate,
)
from fds.core import Deliver, FdsError, Forward, ObligationDue, StateError, Term, parse_term
from fds.library import build_acme_hierarchy, make_token_ring_law
from fds.lawlang import parse_law
from fds.hierarchy import Framework, publish_laws
from fds.transport import Envelope, Scheduler, SimNet, SimNetConfig, Trace


def make_pool(framework):
    sched = Scheduler()
    trace = Trace(lambda: sched.now)
    net = SimNet(sched, SimNetConfig(seed=0, latency=(1, 1)), trace)
    return ControllerPool(framework, net, trace), sched, trace


@pytest.fixture()
def acme():
    return build_acme_hierarchy()


@pytest.fixture()
def pool(acme):
    p, sched, trace = make_pool(acme.framework)
    return p


class TestCertificates:
    def test_issue_and_verify(self):
        cert = issue_certificate("a", "D1")
        assert verify_certificate(cert)

    def test_forged_signature_fails(self):
        cert = issue_certificate("a", "D1")
        forged = Certificate("a", "D2", cert.issuer, cert.signature)
        assert not verify_certificate(forged)


class TestAdoption:
    def test_adopt_registers_identity_terms(self, acme, pool):
        rec = pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.d1)
        assert rec.states[0].lookup("name") == [Term("name", ("a",))]
        assert rec.states[0].lookup("division") == [Term("division", ("D1",))]

    def test_bad_certificate_is_auth_failed(self, acme, pool):
        bad = Certificate("a", "D1", "AcmeCA", "junk")
        with pytest.raises(AdoptionError, match="auth-failed"):
            pool.adopt(SinkActor(), bad, acme.d1)

    def test_wrong_division_cert_is_refused_by_division_law(self, acme, pool):
        with pytest.raises(AdoptionError, match="adoption-refused"):
            pool.adopt(SinkActor(), issue_certificate("a", "D2"), acme.d1)

    def test_name_collision_rejected(self, acme, pool):
        pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.d1)
        with pytest.raises(AdoptionError, match="name-taken"):
            pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.d1)

    def test_quit_unknown_agent_errors(self, pool):
        with pytest.raises(FdsError, match="unknown-agent"):
            pool.quit("ghost")


class TestMediation:
    def test_intradivision_send_delivers(self, acme, pool):
        a = SinkActor()
        b = SinkActor()
        pool.adopt(a, issue_certificate("a", "D1"), acme.d1)
        pool.adopt(b, issue_certificate("b", "D1"), acme.d1)
        assert pool.send("a", "b", Term("m", (1,)))
        pool.net.scheduler.run()
        assert [(s, p.canonical()) for _, s, p in b.deliveries] == [("a", "m(1)")]

    def _send_nested_atom(self, acme):
        pool, sched, trace = make_pool(acme.framework)
        b = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.d1)
        pool.adopt(b, issue_certificate("b", "D1"), acme.d1)
        assert pool.send("a", "b", Term("f", (Term("a"),)))
        sched.run()
        return trace.records, b.deliveries

    def test_receiver_rules_on_the_term_the_wire_text_reads_as(self, acme, monkeypatch):
        records, deliveries = self._send_nested_atom(acme)
        rulings = [r for r in records if r["type"] == "ruling" and r["event"] != "adopted"]
        assert [(r["event"], r["eventArgs"][1]) for r in rulings] == [
            ("sent", "f(a())"), ("arrived", "f(a())")]
        assert [(s, p) for _, s, p in deliveries] == [("a", Term("f", (Term("a"),)))]
        # the same records as when the receiver parses the wire text
        monkeypatch.setattr(Envelope, "payload_term", lambda env: parse_term(env.payload))
        assert self._send_nested_atom(acme) == (records, deliveries)

    def test_interdivision_blocked_under_root_only(self, acme, pool):
        a = SinkActor()
        pool.adopt(a, issue_certificate("a", "D1"), acme.root)
        pool.adopt(SinkActor(), issue_certificate("b", "D2"), acme.root)
        assert not pool.send("a", "b", Term("m", (1,)))
        assert a.blocked and a.blocked[0][2] == "interdivision-prohibited"

    def test_interdivision_allowed_and_audited_under_division_laws(self, acme, pool):
        b = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.d1)
        pool.adopt(b, issue_certificate("b", "D2"), acme.d2)
        assert pool.send("a", "b", Term("m", (1,)))
        pool.net.scheduler.run()
        assert len(b.deliveries) == 1
        assert [x["senderName"] for x in pool.audit] == ["a"]
        assert pool.audit[0]["target"] == "b"
        assert pool.audit[0]["payloadFunctor"] == "m"

    def test_blocked_pipeline_writes_no_audit(self, acme, pool):
        pool.adopt(SinkActor(), issue_certificate("a", "D1"), acme.root)
        pool.adopt(SinkActor(), issue_certificate("b", "D2"), acme.d2)
        pool.send("a", "b", Term("m", (1,)))
        pool.net.scheduler.run()
        assert pool.audit == []

    def test_manager_stop_halts_sends(self, acme, pool):
        a = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("mgr", ""), acme.root)
        pool.adopt(a, issue_certificate("a", "D1"), acme.d1)
        pool.adopt(SinkActor(), issue_certificate("b", "D1"), acme.d1)
        assert pool.send("a", "b", Term("m", (1,)))
        pool.send("mgr", "a", parse_term('stop("all")'))
        pool.net.scheduler.run()
        assert not pool.send("a", "b", Term("m", (2,)))
        assert a.blocked[-1][2] == "stopped-by-mgr"


class TestStacking:
    def test_stacked_chain_rules_both_sides(self, acme, pool):
        s1 = SinkActor()
        s2 = SinkActor()
        pool.adopt(s1, issue_certificate("s1", "D1"), acme.d1)
        pool.adopt(s2, issue_certificate("s2", "D1"), acme.d1)
        pool.stack_adopt("s1", acme.bc)
        pool.stack_adopt("s2", acme.bc)
        assert pool.send("s1", "s2", Term("msg", ("hi",)))
        pool.net.scheduler.run()
        rulings = pool.trace.of_type("ruling")
        outbound = [r for r in rulings if r["agent"] == "s1" and r["event"] == "sent"]
        inbound = [r for r in rulings if r["agent"] == "s2" and r["event"] == "arrived"]
        assert len(outbound) == 2 and len(inbound) == 2
        assert len(s2.deliveries) == 1

    def test_budget_law_blocks_overspend(self, acme, pool):
        c = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("budget-office", ""), acme.root)
        pool.stack_adopt("budget-office", acme.bc)
        pool.adopt(c, issue_certificate("c", ""), acme.root)
        pool.stack_adopt("c", acme.bc)
        pool.adopt(SinkActor(), issue_certificate("svc", ""), acme.root)
        pool.stack_adopt("svc", acme.bc)
        pool.send("budget-office", "c", parse_term("grant(100)"))
        pool.net.scheduler.run()
        assert pool.send("c", "svc", parse_term('order("t1",60)'))
        assert not pool.send("c", "svc", parse_term('order("t2",60)'))
        assert c.blocked[-1][2] == "overspend"
        assert pool.send("c", "svc", parse_term('order("t3",40)'))

    def test_grant_from_anyone_else_is_blocked(self, acme, pool):
        c = SinkActor()
        pool.adopt(c, issue_certificate("c", ""), acme.root)
        pool.stack_adopt("c", acme.bc)
        assert not pool.send("c", "x", parse_term("grant(5)"))
        assert c.blocked[-1][2] == "grant-restricted"


class TestObligations:
    def _ring_pool(self):
        fw = Framework()
        leaf = fw.publish_root(parse_law(make_token_ring_law(10)))
        pool, sched, trace = make_pool(fw)
        return pool, sched, leaf

    def test_obligation_fires_on_time_without_other_traffic(self):
        pool, sched, leaf = self._ring_pool()
        b = SinkActor()
        c = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("ringmgr", ""), leaf)
        pool.adopt(SinkActor(), issue_certificate("a", ""), leaf)
        pool.adopt(b, issue_certificate("b", ""), leaf)
        pool.adopt(c, issue_certificate("c", ""), leaf)
        pool.send("ringmgr", "a", parse_term('setNext("b")'))
        pool.send("ringmgr", "a", parse_term("seedToken()"))
        sched.run(until=2)
        assert pool.send("a", "ring", Term("pass"))  # confirm armed, due 12
        sched.run(until=4)
        # b is removed while holding: resplice, then revoke its token
        pool.send("ringmgr", "a", parse_term('setNext("c")'))
        pool.send("ringmgr", "b", parse_term("revoke()"))
        # nothing else is scheduled: the confirm timeout alone must wake the
        # clock, fire at exactly +10, and regenerate the token at c
        sched.run(until=40)
        assert [p.functor for _, _, p in c.deliveries] == ["token"]
        assert sum(1 for _, _, p in b.deliveries if p.functor == "token") == 1

    def test_repeal_cancels_pending_obligation(self):
        pool, sched, leaf = self._ring_pool()
        a = SinkActor()
        b = SinkActor()
        pool.adopt(SinkActor(), issue_certificate("ringmgr", ""), leaf)
        pool.adopt(a, issue_certificate("a", ""), leaf)
        pool.adopt(b, issue_certificate("b", ""), leaf)
        for msg, to in [('setNext("b")', "a"), ('setNext("a")', "b"),
                        ("seedToken()", "a")]:
            pool.send("ringmgr", to, parse_term(msg))
        sched.run(until=2)
        pool.send("a", "ring", Term("pass"))  # a's confirm due at 12
        sched.run(until=4)
        pool.send("b", "ring", Term("pass"))  # acks a: repeals a's confirm
        # past a's due time: a repealed confirm must not regenerate a token
        sched.run(until=13)
        token_deliveries = [p for _, _, p in a.deliveries + b.deliveries
                            if p.functor == "token"]
        assert len(token_deliveries) == 2


# Obligation-clock law: chain C of an agent imposes ob(N) in D on imp(C,N,D),
# relay(N) in D on rel(C,N,D) (whose firing imposes ob(N) in 0), and repeals
# ob(N) on rep(C,N). Payloads for a later chain pass chain 0 by forward.
CLOCK_ROOT = """\
law clock-root
default block
rule a1 aspect clock:adopt on adopted(_) do { }
"""


def _clock_law(chain):
    return """\
law clock-{c}
extends clock-root
rule i1 aspect clock:{c} on sent(_, imp({c}, N, D), _) do {{ oblige ob(N) in D }}
rule i2 aspect clock:{c} on sent(_, rel({c}, N, D), _) do {{ oblige relay(N) in D }}
rule r1 aspect clock:{c} on sent(_, rep({c}, N), _) do {{ repeal ob(N) }}
rule f1 aspect clock:{c} on sent(_, _, _) do {{ forward }}
rule d1 aspect clock:{c} on obligationDue(relay(N)) do {{ oblige ob(N) in 0 }}
rule d2 aspect clock:{c} on obligationDue(_) do {{ }}
""".format(c=chain)


def _clock_bundle():
    return publish_laws({"root": parse_law(CLOCK_ROOT),
                         "c0": parse_law(_clock_law(0)),
                         "c1": parse_law(_clock_law(1))})


def _clock_adopt(pool, bundle, name, chains):
    pool.adopt(SinkActor(), issue_certificate(name, ""), bundle.c0)
    if chains == 2:
        pool.stack_adopt(name, bundle.c1)


def _fired(trace):
    return [(r["time"], r["agent"], r["chain"], r["eventArgs"][0])
            for r in trace.of_type("ruling") if r["event"] == "obligationDue"]


class ScanPool(ControllerPool):
    """Reference obligation clock: scan and sort every table per advance."""

    def tick(self, now: int):
        due = []
        for rec in self.agents.values():
            for idx, table in enumerate(rec.obligations):
                for canon, (when, seq) in table.items():
                    if when <= now:
                        due.append((when, seq, rec.name, idx, canon))
        due.sort(key=lambda d: (d[0], d[1]))
        for when, seq, name, idx, canon in due:
            rec = self.agents.get(name)
            if rec is None or rec.obligations[idx].get(canon, (None, None))[1] != seq:
                continue
            del rec.obligations[idx][canon]
            ruling, rseq = self._mediate(rec, idx, ObligationDue(parse_term(canon)),
                                         self.overlays.base(now))
            if ruling.blocks():
                continue
            for op in ruling.ops:
                if isinstance(op, Forward):
                    self._emit(rec, idx, op, [rseq])
                elif isinstance(op, Deliver):
                    rec.actor.on_deliver(rec.name, op.payload)


class TestObligationClock:
    def _pool(self, agents, pool_cls=ControllerPool):
        bundle = _clock_bundle()
        sched = Scheduler()
        trace = Trace(lambda: sched.now)
        net = SimNet(sched, SimNetConfig(seed=0, latency=(1, 1)), trace)
        pool = pool_cls(bundle.framework, net, trace)
        for name, chains in agents:
            _clock_adopt(pool, bundle, name, chains)
        return pool, sched, trace, bundle

    def test_due_obligations_fire_in_due_then_imposition_order(self):
        pool, sched, trace, _ = self._pool([("a", 2), ("b", 1)])
        pool.send("a", "x", parse_term("rel(0, 9, 2)"))  # relay(9) due 2
        for who, msg in [("b", "imp(0, 1, 6)"), ("a", "imp(1, 2, 6)"),
                         ("a", "imp(0, 3, 6)"), ("b", "imp(0, 4, 6)")]:
            pool.send(who, "x", parse_term(msg))
        # relay(9) fires at 2 and imposes ob(9) due 2; it waits for the
        # advance to 6, where it is the earliest due of five
        sched.run(until=20)
        assert _fired(trace) == [
            (2, "a", 0, "relay(9)"),
            (6, "a", 0, "ob(9)"),
            (6, "b", 0, "ob(1)"),
            (6, "a", 1, "ob(2)"),
            (6, "a", 0, "ob(3)"),
            (6, "b", 0, "ob(4)"),
        ]

    def test_repeal_before_due_means_never_fired(self):
        pool, sched, trace, _ = self._pool([("a", 2)])
        pool.send("a", "x", parse_term("imp(0, 1, 5)"))
        pool.send("a", "x", parse_term("imp(1, 1, 5)"))
        sched.run(until=2)
        pool.send("a", "x", parse_term("rep(0, 1)"))
        sched.run(until=20)
        assert _fired(trace) == [(5, "a", 1, "ob(1)")]

    def test_reimposition_fires_once_at_the_new_due_time(self):
        pool, sched, trace, _ = self._pool([("a", 1)])
        pool.send("a", "x", parse_term("imp(0, 1, 5)"))
        sched.run(until=2)
        pool.send("a", "x", parse_term("imp(0, 1, 5)"))
        sched.run(until=20)
        assert _fired(trace) == [(7, "a", 0, "ob(1)")]

    def test_due_in_zero_from_an_obligation_waits_for_the_next_advance(self):
        pool, sched, trace, _ = self._pool([("a", 1)])
        pool.send("a", "x", parse_term("rel(0, 1, 3)"))
        sched.run(until=3)
        assert _fired(trace) == [(3, "a", 0, "relay(1)")]
        sched.run(until=4)
        assert _fired(trace) == [(3, "a", 0, "relay(1)"), (4, "a", 0, "ob(1)")]

    def test_quit_then_readoption_with_fewer_chains_drops_old_obligations(self):
        pool, sched, trace, bundle = self._pool([("a", 2)])
        pool.send("a", "x", parse_term("imp(1, 1, 5)"))
        pool.send("a", "x", parse_term("imp(0, 2, 5)"))
        sched.run(until=1)
        pool.quit("a")
        _clock_adopt(pool, bundle, "a", 1)
        sched.run(until=20)
        assert _fired(trace) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(("imp", "rel")), st.sampled_from("abc"),
                  st.integers(0, 1), st.integers(0, 3), st.integers(0, 6)),
        st.tuples(st.just("rep"), st.sampled_from("abc"), st.integers(0, 1),
                  st.integers(0, 3)),
        st.tuples(st.just("quit"), st.sampled_from("abc"), st.integers(1, 2)),
        st.tuples(st.just("advance"), st.integers(0, 4)),
    ), max_size=40))
    def test_matches_a_full_scan_of_every_table(self, ops):
        runs = []
        for pool_cls in (ControllerPool, ScanPool):
            pool, sched, trace, bundle = self._pool([("a", 1), ("b", 2)], pool_cls)
            for op in ops:
                kind, rest = op[0], op[1:]
                if kind == "advance":
                    sched.run(until=sched.now + rest[0])
                elif kind == "quit":
                    name, chains = rest
                    if name in pool.agents:
                        pool.quit(name)
                    else:
                        _clock_adopt(pool, bundle, name, chains)
                elif rest[0] in pool.agents:
                    name, chain, args = rest[0], rest[1], rest[2:]
                    chain %= len(pool.agents[name].chains)
                    pool.send(name, "x", Term(kind, (chain,) + args))
            sched.run(until=sched.now + 20)
            runs.append((_fired(trace), trace.records))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


# A root that counts sends and three deltas: capped counts a send, imposes
# nudge() and blocks it; fussy writes tried(1), imposes nudge() and refuses
# any stacking; seen adds the single-valued seen(1) on every send.
MINI_ROOT = """\
law mini
default pass
init { count(0) }
meta { mini:send open }
rule s1 aspect mini:send on sent(_, _, _) when count(C)@CS do { replace count(C) <- count(C + 1); forward }
"""
MINI_DELTAS = {
    "capped": 'rule c1 aspect mini:send on sent(_, _, _) when count(C)@CS do '
              '{ replace count(C) <- count(C + 1); oblige nudge() in 1; block("capped") }',
    "fussy": 'rule f1 aspect mini:stack on adopted(stack(_)) do '
             '{ add tried(1); oblige nudge() in 1; block("no-stack") }',
    "seen": "rule n1 aspect seen:send on sent(_, _, _) do { add seen(1); forward }",
}


class TestCommitRule:
    """A ruling that blocks an adopted event commits nothing; every other
    ruling, blocked or not, commits its state and its obligations."""

    def _pool(self):
        docs = {"root": parse_law(MINI_ROOT)}
        for name, rule in MINI_DELTAS.items():
            docs[name] = parse_law("law %s\nextends mini\n%s\n" % (name, rule))
        bundle = publish_laws(docs)
        pool, sched, trace = make_pool(bundle.framework)
        return pool, sched, trace, bundle

    def test_a_blocked_send_commits_its_state_and_obligations(self):
        pool, sched, trace, bundle = self._pool()
        a = SinkActor()
        rec = pool.adopt(a, issue_certificate("a", ""), bundle.capped)
        pool.adopt(SinkActor(), issue_certificate("b", ""), bundle.capped)
        assert not pool.send("a", "b", Term("m"))
        assert a.blocked[-1][2] == "capped"
        assert rec.states[0].lookup("count") == [Term("count", (1,))]
        sched.run(until=5)
        assert _fired(trace) == [(1, "a", 0, "nudge")]

    def test_a_stacking_the_native_chain_refuses_commits_nothing(self):
        pool, sched, trace, bundle = self._pool()
        rec = pool.adopt(SinkActor(), issue_certificate("a", ""), bundle.fussy)
        before = rec.states[0].canonical()
        with pytest.raises(AdoptionError, match="stack-refused"):
            pool.stack_adopt("a", bundle.seen)
        assert "add tried(1)" in trace.of_type("ruling")[-1]["ops"]
        assert rec.states[0].canonical() == before
        sched.run(until=5)
        assert _fired(trace) == []

    def test_a_refusing_new_chain_leaves_no_chain_or_obligation(self):
        pool, sched, trace, bundle = self._pool()
        rec = pool.adopt(SinkActor(), issue_certificate("a", ""), bundle.root)
        with pytest.raises(AdoptionError, match="stack-refused"):
            pool.stack_adopt("a", bundle.fussy)
        refusal = trace.of_type("ruling")[-1]
        assert refusal["chain"] == 1 and "oblige nudge in 1" in refusal["ops"]
        assert len(rec.chains) == len(rec.states) == len(rec.obligations) == 1
        sched.run(until=5)
        assert _fired(trace) == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: a stacked send that fails in a later "
                       "chain keeps what the earlier chains committed")
    def test_roadmap_item_3_a_failed_send_commits_on_no_chain(self):
        pool, sched, trace, bundle = self._pool()
        rec = pool.adopt(SinkActor(), issue_certificate("a", ""), bundle.root)
        pool.adopt(SinkActor(), issue_certificate("b", ""), bundle.root)
        pool.stack_adopt("a", bundle.seen)
        assert pool.send("a", "b", Term("m"))
        before = rec.states[0].canonical()
        with contextlib.suppress(StateError):  # seen(1) is already there in chain 1
            pool.send("a", "b", Term("m"))
        assert rec.states[0].canonical() == before

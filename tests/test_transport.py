"""The envelope record, the trace, the scheduler and the simulated net."""

from hypothesis import given, strategies as st

from fds.core import Term, parse_term
from fds.transport import Scheduler, SimNet, SimNetConfig


def _env(payload=Term("m", (1, "x")), target="b", from_rulings=()):
    """The envelope record a controller builds for ``payload``, and the payload."""
    return {"sender": "a", "senderDivision": "D1", "senderLaw": "h2", "target": target,
            "payload": payload.canonical(), "kind": "lgi-message",
            "fromRulings": list(from_rulings)}, payload


def _net(**cfg):
    sched = Scheduler()
    net = SimNet(sched, SimNetConfig(**cfg))
    return sched, net.trace, net


def _carry(payload):
    """Send ``payload`` over a net; the envelope record and what arrived."""
    sched, trace, net = _net()
    got = []
    seq = net.send(*_env(payload), lambda env, p: got.append((env, p)))
    sched.run()
    return trace.records[seq], got


# payloads the wire must carry exactly: nested terms of any arity, zero
# included, negative integers, and strings with the characters the syntax
# quotes, escapes or splits on
WIRE_TERMS = st.recursive(
    st.one_of(st.integers(-10**6, 10**6),
              st.text(st.sampled_from('ab ;,()"\\'), max_size=6)),
    lambda children: st.builds(Term, st.sampled_from(["f", "g", "a", "m_1"]),
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=8).filter(lambda v: isinstance(v, Term))


class TestCarriedTerm:
    @given(WIRE_TERMS)
    def test_carried_term_is_what_the_text_parses_to(self, term):
        record, got = _carry(term)
        assert record["payload"] == term.canonical()
        assert [(env["seq"], p) for env, p in got] == [(record["seq"], term)]
        assert repr(parse_term(record["payload"])) == repr(term)

    def test_nested_zero_arity_term_arrives_as_a_term(self):
        term = Term("f", (Term("a"), Term("g", (Term("b", ()), 1))))
        record, _ = _carry(term)
        assert record["payload"] == "f(a(),g(b(),1))"
        back = parse_term(record["payload"])
        assert back == term
        assert back.args[0] == Term("a") and back.args[0] != "a"

    def test_plain_term_travels_as_the_same_object(self):
        term = Term("m", (1, "x", Term("n", (-2,))))
        record, got = _carry(term)
        assert len(got) == 1 and got[0][0] is record and got[0][1] is term


class TestScheduler:
    def test_time_order_with_stable_ties(self):
        sched = Scheduler()
        out = []
        sched.schedule(5, lambda: out.append("b"))
        sched.schedule(3, lambda: out.append("a"))
        sched.schedule(5, lambda: out.append("c"))
        sched.run()
        assert out == ["a", "b", "c"]

    def test_an_obligation_due_at_t_runs_before_an_earlier_item_of_t(self):
        sched = Scheduler()
        out = []
        sched.schedule(2, lambda: out.append("item"))
        sched.oblige(2, lambda: out.append("obligation"))
        sched.run()
        assert out == ["obligation", "item"]

    def test_obligations_due_by_one_advance_fire_in_due_then_seq_order(self):
        sched = Scheduler()
        out = []

        def note(name):
            return lambda: out.append((name, sched.now))

        sched.run(until=5)
        sched.schedule(6, note("item"))
        sched.oblige(6, note("due 6"))
        sched.oblige(5, note("due 5"))  # due in 0
        sched.oblige(2, note("due 2"))  # due in -3
        sched.oblige(5, note("due 5 again"))
        sched.run()
        assert out == [("due 2", 6), ("due 5", 6), ("due 5 again", 6), ("due 6", 6),
                       ("item", 6)]

    def test_an_obligation_due_by_now_waits_for_the_next_advance_or_the_stop(self):
        sched = Scheduler()
        out = []

        def fire():
            out.append(sched.now)

        sched.schedule(3, lambda: sched.oblige(3, fire))
        sched.schedule(5, lambda: sched.oblige(4, fire))
        sched.run(until=5)
        assert out == [5]  # the second, imposed at 5, waits
        sched.run(until=5)
        assert out == [5]  # no advance, no stop past 5
        sched.run(until=9)
        assert out == [5, 9]

    def test_an_item_a_stop_time_firing_schedules_at_until_waits_for_the_next_run(self):
        sched = Scheduler()
        out = []
        sched.oblige(0, lambda: sched.schedule(sched.now, lambda: out.append(sched.now)))
        sched.run(until=4)
        assert out == [] and sched.now == 4
        sched.run()
        assert out == [4]

    def test_run_until_advances_clock_to_bound(self):
        sched = Scheduler()
        sched.schedule(100, lambda: None)
        sched.run(until=10)
        assert sched.now == 10


class TestSimNet:
    def test_envelope_record_names_the_sender_and_the_rulings(self):
        sched, trace, net = _net(latency=(3, 3))
        sched.schedule(4, lambda: net.send(*_env(from_rulings=[7, 9]), lambda env, p: None))
        sched.run()
        record = trace.of_type("envelope")[0]
        assert {k: v for k, v in record.items() if k != "seq"} == {
            "time": 4, "type": "envelope", "sender": "a", "senderDivision": "D1",
            "senderLaw": "h2", "target": "b", "payload": 'm(1,"x")',
            "kind": "lgi-message", "deliverAt": 7, "fromRulings": [7, 9]}

    def test_seeded_delivery_is_reproducible(self):
        def run():
            sched, trace, net = _net(seed=5, latency=(1, 9))
            got = []
            for i in range(20):
                sched.schedule(i, lambda i=i: net.send(
                    *_env(Term("m", (i,))),
                    lambda env, p: got.append((sched.now, p))))
            sched.run()
            return got

        assert run() == run()

    def test_fifo_per_pair_preserves_order(self):
        sched, trace, net = _net(seed=1, latency=(1, 20))
        got = []
        for i in range(30):
            net.send(*_env(Term("m", (i,))), lambda env, p: got.append(p.args[0]))
        sched.run()
        assert got == list(range(30))

    def test_firewall_blocks_rogue_channel(self):
        sched, trace, net = _net(firewall=True)
        hits = []

        class A:
            def receive_rogue(self, s, p):
                hits.append(p)

        net.actors["b"] = A()
        assert net.rogue_send("x", "b", Term("covert")) is False
        assert hits == []
        assert trace.of_type("rogue-blocked")

    def test_open_rogue_channel_reaches_actor(self):
        sched, trace, net = _net(firewall=False)
        hits = []

        class A:
            def receive_rogue(self, s, p):
                hits.append((s, p))

        net.actors["b"] = A()
        assert net.rogue_send("x", "b", Term("covert")) is True
        assert hits == [("x", Term("covert"))]
        assert trace.of_type("rogue")

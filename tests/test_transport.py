import pytest
from hypothesis import given, strategies as st

from fds.core import Term, parse_term
from fds.transport import (
    CodecError,
    Scheduler,
    SimNet,
    SimNetConfig,
    Trace,
    make_envelope,
)


def _env(**overrides):
    kwargs = dict(kind="lgi-message", sender_name="a", sender_division="D1",
                  sender_path=("h1", "h2"), target="b",
                  payload=Term("m", (1, "x")), sent_at=7)
    kwargs.update(overrides)
    return make_envelope(
        kwargs["kind"], kwargs["sender_name"], kwargs["sender_division"],
        kwargs["sender_path"], kwargs["target"], kwargs["payload"],
        kwargs["sent_at"])


class TestCodec:
    def test_sender_law_is_path_tail(self):
        assert _env().sender_law == "h2"

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            _env(kind="smuggle")

    def test_empty_path_rejected(self):
        with pytest.raises(CodecError):
            _env(sender_path=())


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
        env = _env(payload=term)
        assert env.payload == term.canonical()
        assert env.term is term
        assert repr(parse_term(env.payload)) == repr(term) == repr(env.payload_term())
        back = _env(payload=env.payload)
        assert back == env and back.term is None
        assert back.payload_term() == env.payload_term()

    def test_nested_zero_arity_term_arrives_as_a_term(self):
        term = Term("f", (Term("a"), Term("g", (Term("b", ()), 1))))
        env = _env(payload=term)
        assert env.payload == "f(a(),g(b(),1))"
        back = _env(payload=env.payload).payload_term()
        assert back == env.payload_term() == term
        assert back.args[0] == Term("a") and back.args[0] != "a"

    def test_plain_term_travels_as_the_same_object(self):
        term = Term("m", (1, "x", Term("n", (-2,))))
        assert _env(payload=term).payload_term() is term

    def test_envelope_from_text_parses_on_demand(self):
        env = _env(payload='m(1,"x")')
        assert env.term is None and env.payload_term() == Term("m", (1, "x"))
        assert env == _env()


class TestScheduler:
    def test_time_order_with_stable_ties(self):
        sched = Scheduler()
        out = []
        sched.schedule(5, lambda: out.append("b"))
        sched.schedule(3, lambda: out.append("a"))
        sched.schedule(5, lambda: out.append("c"))
        sched.run()
        assert out == ["a", "b", "c"]

    def test_tickers_run_on_time_advance_before_due_items(self):
        sched = Scheduler()
        out = []
        sched.add_ticker(lambda now: out.append(("tick", now)))
        sched.schedule(2, lambda: out.append(("item", sched.now)))
        sched.run()
        assert out == [("tick", 2), ("item", 2)]

    def test_run_until_advances_clock_to_bound(self):
        sched = Scheduler()
        sched.schedule(100, lambda: None)
        sched.run(until=10)
        assert sched.now == 10


class TestSimNet:
    def _net(self, **cfg):
        sched = Scheduler()
        trace = Trace(lambda: sched.now)
        net = SimNet(sched, SimNetConfig(**cfg), trace)
        return sched, trace, net

    def test_seeded_delivery_is_reproducible(self):
        def run():
            sched, trace, net = self._net(seed=5, latency=(1, 9))
            got = []
            net.register("b", lambda env, seq: got.append((sched.now, env.payload)))
            for i in range(20):
                net.send(_env(payload=Term("m", (i,)), sent_at=i))
            sched.run()
            return got

        assert run() == run()

    def test_fifo_per_pair_preserves_order(self):
        sched, trace, net = self._net(seed=1, latency=(1, 20))
        got = []
        net.register("b", lambda env, seq: got.append(env.payload_term().args[0]))
        for i in range(30):
            net.send(_env(payload=Term("m", (i,)), sent_at=0))
        sched.run()
        assert got == list(range(30))

    def test_unknown_target_dead_letters(self):
        sched, trace, net = self._net()
        assert net.send(_env(target="ghost")) is None
        assert trace.of_type("dead-letter")

    def test_firewall_blocks_rogue_channel(self):
        sched, trace, net = self._net(firewall=True)
        hits = []

        class A:
            def receive_rogue(self, s, p):
                hits.append(p)

        net.register_actor("b", A())
        assert net.rogue_send("x", "b", Term("covert")) is False
        assert hits == []
        assert trace.of_type("rogue-blocked")

    def test_open_rogue_channel_reaches_actor(self):
        sched, trace, net = self._net(firewall=False)
        hits = []

        class A:
            def receive_rogue(self, s, p):
                hits.append((s, p))

        net.register_actor("b", A())
        assert net.rogue_send("x", "b", Term("covert")) is True
        assert hits == [("x", Term("covert"))]
        assert trace.of_type("rogue")

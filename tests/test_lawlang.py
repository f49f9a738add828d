import pytest
from hypothesis import given, settings, strategies as st

from fds import library
from fds.core import Arrived, AgentName, ControlState, Sent, Term, hash_law, parse_term
from fds.lawlang import (
    LawSyntaxError,
    aspect_matches,
    eval_guard,
    evaluate_law,
    first_match,
    match_pattern,
    parse_law,
    serialize_law,
)

ALL_LAW_TEXTS = [
    library.make_acme_root(),
    library.make_division_law("D1"),
    library.make_division_law("D2"),
    library.make_budget_law(),
    library.make_cc_law(),
    library.make_rate_control_law("drop", 0),
    library.make_rate_control_law("buffer", 100),
    library.make_token_ring_law(25),
    library.make_actor_promise_law(80),
]


class TestParsing:
    @pytest.mark.parametrize("text", ALL_LAW_TEXTS,
                             ids=lambda t: t.splitlines()[0].split()[1])
    def test_canonical_round_trip_is_a_fixpoint(self, text):
        doc = parse_law(text)
        canon = serialize_law(doc)
        doc2 = parse_law(canon)
        assert serialize_law(doc2) == canon

    def test_every_op_form_has_a_pinned_text_and_hash(self):
        # every op of a do block, bare and with arguments; ``block("")`` is a
        # bare ``block``. No shipped law writes a bare block, so no frozen
        # hash covers it.
        doc = parse_law(
            "law ops\n"
            "default block\n"
            "rule s1 aspect a on sent(S, M, T) when n(N)@CS do {\n"
            "  forward; forward(T, m(S, N + 1)); replace n(N) <- n(N - 1); add seen(M);\n"
            "  remove seen(M); oblige tick(T) in N + 2; repeal tick(T); audit; block }\n"
            'rule s2 aspect a on sent(_, _, _) do { block(""); block("no") }\n'
            "rule r1 aspect a on arrived(F, M, _) do { deliver; deliver(got(F, M)) }\n"
            "rule o1 aspect a on obligationDue(tick(T)) do { "
            "forward(T, ping()); deliver(pong()) }\n"
        )
        canon = serialize_law(doc)
        assert canon == (
            "law ops\n"
            "default block\n"
            "rule s1 aspect a on sent(S,M,T) when n(N)@CS do { forward; forward(T, m(S,(N + 1))); "
            "replace n(N) <- n((N - 1)); add seen(M); remove seen(M); oblige tick(T) in (N + 2); "
            "repeal tick(T); audit; block }\n"
            'rule s2 aspect a on sent(_,_,_) do { block; block("no") }\n'
            "rule r1 aspect a on arrived(F,M,_) do { deliver; deliver(got(F,M)) }\n"
            "rule o1 aspect a on obligationDue(tick(T)) do { "
            "forward(T, ping()); deliver(pong()) }\n"
        )
        assert hash_law(canon) == "d25ce118dc59065c2ca9091853b6ba235517929c2bbefe288b7857d013f6074b"
        assert serialize_law(parse_law(canon)) == canon

    def test_root_requires_default(self):
        with pytest.raises(LawSyntaxError):
            parse_law("law bad\nrule r1 aspect a on sent(_, _, _) do { forward }\n")

    def test_a_header_section_out_of_order_is_named(self):
        text = ("law x\ndefault block\nmeta { a sealed }\ninit { n(0) }\n"
                "rule r1 aspect a on sent(_, _, _) do { forward }\n")
        with pytest.raises(LawSyntaxError) as err:
            parse_law(text)
        assert str(err.value) == (
            "'init' section out of place: the header sections come before the rules, "
            "in the order default, multi, init, meta at line 4, col 1")
        in_order = parse_law(text.replace("meta { a sealed }\ninit { n(0) }",
                                          "init { n(0) }\nmeta { a sealed }"))
        assert in_order.init == (Term("n", (0,)),) and in_order.meta == (("a", "sealed"),)

    def test_init_terms_read_back_from_the_canonical_text(self):
        doc = parse_law("law x\ndefault pass\ninit { seen(a(), b(c())) }\n")
        assert doc.init == (Term("seen", (Term("a"), Term("b", (Term("c"),)))),)
        assert "init { seen(a(),b(c())) }" in serialize_law(doc)
        assert parse_law(serialize_law(doc)).init == doc.init

    def test_unbound_variable_rejected(self):
        with pytest.raises(LawSyntaxError, match="unbound"):
            parse_law('law bad\ndefault block\n'
                      'rule r1 aspect a on sent(_, _, _) do { forward("x", m(Y)) }\n')

    def test_forward_only_in_send_rules(self):
        with pytest.raises(LawSyntaxError, match="forward"):
            parse_law("law bad\ndefault block\n"
                      "rule r1 aspect a on arrived(_, _, _) do { forward }\n")

    def test_event_arity_checked(self):
        with pytest.raises(LawSyntaxError, match="pattern arguments"):
            parse_law("law bad\ndefault block\n"
                      "rule r1 aspect a on sent(_, _) do { block }\n")

    @pytest.mark.parametrize("query", ["budget(B + 1)@CS", "seen(functor(M))@CS",
                                       "q(n(1 - B))@CS"])
    def test_query_patterns_reject_arithmetic(self, query):
        # rejected when the law is parsed, as in an event pattern, rather than
        # failing with a GuardError when a run first reaches the query
        with pytest.raises(LawSyntaxError, match="arithmetic is not allowed in match patterns"):
            parse_law("law bad\ndefault block\nrule r aspect a on sent(_, M, _) when "
                      "budget(B)@CS, %s do { block }\n" % query)

    @pytest.mark.parametrize("query", ["budget(B)@XY", "budget(B)@"])
    def test_state_query_error_names_the_cs_suffix(self, query):
        with pytest.raises(LawSyntaxError, match="state query must end in @CS"):
            parse_law("law bad\ndefault block\nrule r aspect a on sent(_, _, _) when "
                      "%s do { block }\n" % query)

    def test_event_patterns_reject_arithmetic(self):
        with pytest.raises(LawSyntaxError, match="arithmetic is not allowed in match patterns"):
            parse_law("law bad\ndefault block\n"
                      "rule r aspect a on sent(_, m(B + 1), _) do { block }\n")

    def test_query_patterns_keep_terms_and_wildcards(self):
        doc = parse_law('law ok\ndefault block\nrule r aspect a on sent(_, M, _) when '
                        'q(n(_, "s"), F, M)@CS, F == functor(M) do { block }\n')
        assert serialize_law(parse_law(doc.canonical())) == doc.canonical()

    def test_comments_are_ignored(self):
        doc = parse_law("law c  # trailing\ndefault block\n# whole line\n")
        assert doc.name == "c"

    def test_aspect_star_patterns(self):
        assert aspect_matches("send:*", "send:interdivision")
        assert not aspect_matches("send:*", "arrive:interdivision")
        assert aspect_matches("mgr:stop", "mgr:stop")


def _rule(text):
    return parse_law("law t\ndefault block\n" + text + "\n").rules[0]


class TestMatching:
    def test_variable_binding_and_consistency(self):
        # X owns slot 0: its first occurrence binds it, the second agrees
        rule = _rule('rule r aspect a on sent(X, m(X), _) do { forward("x", m(X)) }')
        b = match_pattern(rule.compiled, ("a", Term("m", ("a",)), "b"))
        assert b == ["a"]
        ops = rule.compiled.build(b, Sent(AgentName("b"), Term("m", ("a",))))
        assert [o.canonical() for o in ops] == ['forward("x",m("a"))']

    def test_inconsistent_repeat_binding_fails(self):
        rule = _rule("rule r aspect a on sent(X, m(X), _) do { block }")
        assert match_pattern(rule.compiled, ("a", Term("m", ("z",)), "b")) is None
        # the repeat is checked inside a nested term and across arguments
        rule = _rule("rule r aspect a on sent(_, m(X, n(X)), X) do { block }")
        assert match_pattern(rule.compiled, ("s", Term("m", (1, Term("n", (1,)))), 1)) == [1]
        assert match_pattern(rule.compiled, ("s", Term("m", (1, Term("n", (2,)))), 1)) is None
        assert match_pattern(rule.compiled, ("s", Term("m", (1, Term("n", (1,)))), 2)) is None

    def test_bare_atom_matches_zero_arg_term_and_string(self):
        rule = _rule("rule r aspect a on obligationDue(flush()) do { }")
        assert match_pattern(rule.compiled, (Term("flush"),)) is not None
        assert match_pattern(rule.compiled, (Term("other"),)) is None
        atom = _rule('rule r aspect a on sent("mgr", stop(go), _) do { block }')
        assert match_pattern(atom.compiled, ("mgr", Term("stop", ("go",)), "b")) is not None
        assert match_pattern(atom.compiled, ("mgr", Term("stop", (Term("go"),)), "b")) is not None
        assert match_pattern(atom.compiled, ("mgr", Term("stop", (Term("go", (1,)),)), "b")) is None
        assert match_pattern(atom.compiled, (Term("mgr"), Term("stop", ("go",)), "b")) is not None


class TestGuards:
    def test_state_query_backtracks_over_candidates(self):
        doc = parse_law(
            "law t\ndefault block\nmulti { blocked }\n"
            "rule r aspect a on sent(_, M, _) when blocked(F)@CS, F == functor(M)"
            " do { block }\n"
        )
        state = ControlState(
            [Term("blocked", ("aaa",)), Term("blocked", ("zzz",)),
             Term("name", ("me",))],
            frozenset({"blocked"}),
        )
        event = Sent(AgentName("peer"), Term("zzz", (1,)))
        hit = first_match(doc, event, state)
        assert hit is not None and hit[1].blocks()
        # no candidate satisfies the comparison: rule does not fire
        miss = Sent(AgentName("peer"), Term("yyy", (1,)))
        assert first_match(doc, miss, state) is None

    def test_arithmetic_and_ordering(self):
        doc = parse_law(
            "law t\ndefault block\ninit { lastCall(0); delay(100) }\n"
            "rule r aspect a on sent(_, _, _) when clock(T)@CS, lastCall(Tl)@CS,"
            " delay(DT)@CS, T > Tl + DT do { forward }\n"
        )
        st_ = doc.initial_state().add(Term("name", ("c",)))
        late = st_.with_overlay([Term("clock", (101,))])
        early = st_.with_overlay([Term("clock", (100,))])
        event = Sent(AgentName("v"), Term("m"))
        assert first_match(doc, event, late) is not None
        assert first_match(doc, event, early) is None

    def test_guard_failure_is_none_not_error(self):
        state = ControlState([Term("k", (2,))])
        open_rule = _rule("rule r aspect a on obligationDue(_) do { }")
        b = match_pattern(open_rule.compiled, (Term("due"),))
        assert eval_guard(open_rule.compiled, b, state) is b
        for guard in ("k(1)@CS", "missing(_)@CS", "k(K)@CS, K > 2", "1 == 2"):
            rule = _rule("rule r aspect a on obligationDue(_) when %s do { }" % guard)
            b = match_pattern(rule.compiled, (Term("due"),))
            assert eval_guard(rule.compiled, b, state) is None, guard


class TestEvaluation:
    def test_first_matching_rule_wins(self):
        doc = parse_law(
            "law t\ndefault block\n"
            "rule r1 aspect a on sent(_, stopme(), _) do { block(\"first\") }\n"
            "rule r2 aspect a on sent(_, _, _) do { forward }\n"
        )
        st_ = ControlState([Term("name", ("x",))])
        blocked = evaluate_law(doc, Sent(AgentName("y"), Term("stopme")), st_)
        assert blocked.canonical_ops() == 'block("first")'
        passed = evaluate_law(doc, Sent(AgentName("y"), Term("other")), st_)
        assert passed.canonical_ops() == 'forward("y",other)'

    def test_default_applies_only_to_send_and_arrive(self):
        doc = parse_law("law t\ndefault block\n")
        st_ = ControlState([Term("name", ("x",))])
        sent = evaluate_law(doc, Sent(AgentName("y"), Term("m")), st_)
        assert sent.blocks()
        arrived = evaluate_law(
            doc, Arrived(AgentName("y"), "h", Term("m")), st_)
        assert arrived.blocks()
        adopted = evaluate_law(doc, parse_adopted(), st_)
        assert adopted.ops == ()

    def test_default_pass_forwards_untouched(self):
        doc = parse_law("law t\ndefault pass\n")
        st_ = ControlState([Term("name", ("x",))])
        r = evaluate_law(doc, Sent(AgentName("y"), Term("m", (1,))), st_)
        assert r.canonical_ops() == 'forward("y",m(1))'

    def test_state_ops_applied_in_rule_order(self):
        doc = parse_law(
            "law t\ndefault block\ninit { n(0) }\n"
            "rule r aspect a on sent(_, _, _) when n(K)@CS"
            " do { replace n(K) <- n(K + 1); forward }\n"
        )
        st_ = doc.initial_state().add(Term("name", ("x",)))
        r = evaluate_law(doc, Sent(AgentName("y"), Term("m")), st_)
        assert list(r.new_state.visible("n")) == [Term("n", (1,))]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 200))
    def test_cc_spacing_guard_matches_arithmetic(self, clock, last, delay):
        doc = parse_law(library.make_cc_law("s", 100))
        st_ = ControlState(
            [Term("delay", (delay,)), Term("lastCall", (last,)),
             Term("name", ("c",))]
        ).with_overlay([Term("clock", (clock,))])
        r = evaluate_law(doc, Sent(AgentName("s"), Term("m")), st_)
        if clock > last + delay:
            assert not r.blocks()
        else:
            assert r.blocks()


def parse_adopted():
    from fds.core import Adopted
    return Adopted(parse_term('cert("x","","AcmeCA")'))

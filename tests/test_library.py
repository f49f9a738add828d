import pytest

from fds.core import AgentName, Arrived, ControlState, Sent, Term, commit, parse_term
from fds.hierarchy import derive_ruling
from fds.lawlang import parse_law
from fds.library import (
    build_acme_hierarchy,
    make_acme_root,
    make_budget_law,
    make_cc_law,
    make_division_law,
    make_rate_control_law,
    make_token_ring_law,
)

# law identity is the hash of the canonical text; these are frozen so an
# accidental semantic edit to a shipped law shows up as a test failure
FROZEN_HASHES = {
    "root": "48f38e673dd90be5c71925c42987b5f544c48db941948d427d60b44c7227e93a",
    "d1": "6e07db5d56138315f444dddeed0455270a2bbf2577a2d7e60bb83f56c123e593",
    "bc": "394f6f2e8a51903b395b3cf5614a561cadf0c2aa86e804f759fa9119e6efc3f1",
}


@pytest.fixture(scope="module")
def acme():
    return build_acme_hierarchy()


def _arrive(path, sender, sender_division, sender_law, payload, state):
    return derive_ruling(
        path,
        Arrived(AgentName(sender, sender_division), sender_law, payload),
        state,
    )


class TestBundle:
    def test_published_hashes_are_frozen(self, acme):
        assert acme.root == FROZEN_HASHES["root"]
        assert acme.d1 == FROZEN_HASHES["d1"]
        assert acme.bc == FROZEN_HASHES["bc"]

    def test_law_ref_resolution(self, acme):
        assert acme.law("d2") == acme.d2
        assert acme.law(acme.d2) == acme.d2
        with pytest.raises(KeyError):
            acme.law("nonsense")

    def test_texts_parse_and_rebuild_identically(self, acme):
        for h, text in acme.framework.texts.items():
            assert parse_law(text).canonical() == text


class TestDivisionPolicy:
    def _state(self, name, division):
        return ControlState([Term("name", (name,)), Term("division", (division,))])

    def test_interdivision_send_blocked_under_root(self, acme):
        path = acme.framework.resolve_path(acme.root)
        st = self._state("a", "D1").with_overlay(
            [Term("clock", (0,)), Term("peerDivision", ("D2",))])
        r = derive_ruling(path, Sent(AgentName("b", "D2"), Term("m")), st)
        assert r.blocks()

    def test_division_law_opens_and_audits_interdivision(self, acme):
        d1 = acme.framework.resolve_path(acme.d1)
        d2 = acme.framework.resolve_path(acme.d2)
        send_state = self._state("a", "D1").with_overlay(
            [Term("clock", (0,)), Term("peerDivision", ("D2",))])
        out = derive_ruling(d1, Sent(AgentName("b", "D2"), Term("m")), send_state)
        assert out.canonical_ops() == 'forward("b",m)'
        arrive_state = self._state("b", "D2").with_overlay(
            [Term("clock", (0,)), Term("peerDivision", ("D1",))])
        inn = _arrive(d2, "a", "D1", acme.d1, Term("m"), arrive_state)
        assert inn.canonical_ops() == "audit;deliver(m)"

    def test_empty_division_is_infrastructure_not_interdivision(self, acme):
        path = acme.framework.resolve_path(acme.root)
        st = self._state("law-server", "").with_overlay(
            [Term("clock", (0,)), Term("peerDivision", ("D1",))])
        r = derive_ruling(path, Sent(AgentName("b", "D1"), Term("m")), st)
        assert r.canonical_ops() == 'forward("b",m)'


class TestBudgetLaw:
    def _state(self, budget, income):
        return ControlState([
            Term("budget", (budget,)), Term("income", (income,)),
            Term("name", ("c",)), Term("division", ("",)),
        ])

    def _overlay(self, same):
        return [Term("clock", (0,)), Term("peerDivision", ("",)),
                Term("peerSameLaw", (same,))]

    def test_spend_within_budget_decrements(self, acme):
        path = acme.framework.resolve_path(acme.bc)
        st = self._state(100, 0).with_overlay(self._overlay(1))
        r = derive_ruling(path, Sent(AgentName("svc"), parse_term('order("t",30)')), st)
        assert not r.blocks()
        assert list(commit(st, "sent", r).visible("budget")) == [Term("budget", (70,))]

    def test_overspend_blocked(self, acme):
        path = acme.framework.resolve_path(acme.bc)
        st = self._state(20, 0).with_overlay(self._overlay(1))
        r = derive_ruling(path, Sent(AgentName("svc"), parse_term('order("t",30)')), st)
        assert r.blocks()

    def test_income_only_from_same_law_peers(self, acme):
        path = acme.framework.resolve_path(acme.bc)
        st = self._state(0, 10).with_overlay(self._overlay(1))
        r = _arrive(path, "c2", "", acme.bc, parse_term('order("t",5)'), st)
        assert list(commit(st, "arrived", r).visible("income")) == [Term("income", (15,))]
        st2 = self._state(0, 10).with_overlay(self._overlay(0))
        r2 = _arrive(path, "outsider", "", acme.root, parse_term('order("t",5)'), st2)
        assert r2.blocks()

    def test_income_report_is_built_from_controller_state(self, acme):
        path = acme.framework.resolve_path(acme.bc)
        st = self._state(0, 70).with_overlay(self._overlay(0))
        r = derive_ruling(
            path, Sent(AgentName("budget-office"), Term("reportIncome")), st)
        assert r.canonical_ops() == 'forward("budget-office",incomeReport("c",70))'


class TestRateControlLaws:
    def test_drop_variant_is_primed_for_time_zero(self):
        doc = parse_law(make_rate_control_law("drop", 100))
        st = doc.initial_state().add(Term("name", ("c",))).with_overlay(
            [Term("clock", (0,))])
        from fds.lawlang import evaluate_law
        r = evaluate_law(doc, Sent(AgentName("v"), Term("m")), st)
        assert not r.blocks()

    def test_cc_variant_starts_at_zero_last_call(self):
        doc = parse_law(make_cc_law("s", 100))
        assert Term("lastCall", (0,)) in doc.init

    def test_buffer_variant_declares_queue_functors(self):
        doc = parse_law(make_rate_control_law("buffer", 100))
        assert "q" in doc.multi
        assert Term("qHead", (0,)) in doc.init and Term("qTail", (0,)) in doc.init

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_rate_control_law("teleport", 1)


class TestTokenRingLaw:
    def test_only_holder_may_pass(self):
        doc = parse_law(make_token_ring_law(25))
        from fds.lawlang import evaluate_law
        st = doc.initial_state().add(Term("name", ("m1",)))
        r = evaluate_law(doc, Sent(AgentName("ring"), Term("pass")), st)
        assert r.blocks()
        holding = st.add(Term("hasToken", (1,))).add(Term("next", ("m2",)))
        r2 = evaluate_law(doc, Sent(AgentName("ring"), Term("pass")), holding)
        assert 'forward("m2",token(1))' in r2.canonical_ops()
        assert "oblige confirm in 25" in r2.canonical_ops()

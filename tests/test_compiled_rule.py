"""Rules compiled to closures against the tree-walking reference model.

Random rules are built straight from syntax-tree nodes, without the
parser's static checks, so they also hold what no parsed law can: unbound
variables, ``_`` where a value is needed, ill-typed templates. Every node
kind takes part: ``_``, variables (repeated ones too), atoms, integers,
nested terms, ``+``/``-``, ``functor()``, every comparison operator and all
nine op templates. For random events and states, ``first_match`` and the
reference's must pick the same rule with the same ops, and ``core.commit``
and the reference's ``commit`` must commit the same state, or both must
fail with the same error.
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from fds.core import (
    Adopted,
    AgentName,
    Arrived,
    AuditLog,
    Block,
    ControlState,
    Deliver,
    ExceptionEvent,
    FdsError,
    Forward,
    ImposeObligation,
    ObligationDue,
    RepealObligation,
    Sent,
    StateAdd,
    StateRemove,
    StateReplace,
    Term,
    commit,
)
from fds.lawlang import (
    EVENT_KINDS,
    WILDCARD,
    BinExpr,
    Comparison,
    FunctorOf,
    GroundRule,
    LawDoc,
    PTerm,
    StateQuery,
    Var,
    first_match,
)

# -- values: what events and states hold ----------------------------------------

ATOMS = ("a", "p", "q")  # "p" and "q" are also functors: the bare atom meets p()
INTS = (-1, 0, 1, 2)
FUNCTORS = ("p", "q")

flat_values = st.sampled_from(ATOMS + INTS + (Term("p"), Term("q")))
values = st.one_of(
    flat_values,
    st.builds(Term, st.sampled_from(FUNCTORS),
              st.lists(flat_values, max_size=2).map(tuple)),
)
term_args = st.lists(values, max_size=2).map(tuple)
terms = st.builds(Term, st.sampled_from(FUNCTORS), term_args)
agents = st.sampled_from(("a", "b")).map(AgentName)

# p and r are set-valued, so queries on them backtrack over several
# candidates: mostly p(<int>) for comparisons to order (now and then of
# another arity), and r(<atom>) or r(<zero-arity term>) for bare atoms to
# tell apart; q is single-valued
MULTI = frozenset({"p", "r"})
int_p_terms = st.builds(lambda n: Term("p", (n,)), st.sampled_from(INTS))
r_terms = st.builds(lambda a: Term("r", (a,)), st.sampled_from(("p", "q", Term("p"), Term("q"))))
states = st.builds(
    lambda ps, other_ps, rs, qs, clock: ControlState(
        [Term("name", ("a",))] + ps + other_ps + rs + qs,
        MULTI).with_overlay([Term("clock", (clock,))]),
    st.lists(int_p_terms, min_size=1, max_size=4),
    st.lists(st.builds(Term, st.just("p"), term_args), max_size=1),
    st.lists(r_terms, min_size=1, max_size=2),
    st.lists(st.builds(Term, st.just("q"), term_args), max_size=1),
    st.sampled_from(INTS),
)

events = st.one_of(
    st.builds(Sent, agents, terms),
    st.builds(Arrived, agents, st.just("h"), terms),
    st.builds(ObligationDue, terms),
    st.builds(Adopted, terms),
    st.builds(ExceptionEvent, st.sampled_from(ATOMS)),
)

# -- syntax trees ---------------------------------------------------------------

variables = st.sampled_from(("X", "Y", "Z")).map(Var)  # few names: repeats are common
literals = st.sampled_from(ATOMS + INTS)
int_literals = st.sampled_from(INTS)

patterns = st.recursive(
    st.one_of(st.just(WILDCARD), variables, variables, literals),
    lambda inner: st.builds(PTerm, st.sampled_from(FUNCTORS),
                            st.lists(inner, max_size=2).map(tuple)),
    max_leaves=4,
)
# an event argument: mostly _ or a variable, so that guards and ops run
event_patterns = st.one_of(st.just(WILDCARD), st.just(WILDCARD), variables, variables, patterns)
queries = st.builds(StateQuery, st.builds(PTerm, st.sampled_from(("p", "q", "r", "clock", "name")),
                                          st.lists(patterns, max_size=2).map(tuple)))
# r(p) and r(q) meet r("p") and r(p()) in the state
atom_queries = st.builds(lambda a: StateQuery(PTerm("r", (a,))), st.sampled_from(("p", "q")))
comparison_ops = st.sampled_from(("==", "!=", "<", "<=", ">", ">="))
# leaves that fail in some evaluation: possibly unbound variables, functor()
risky = st.one_of(variables, st.builds(FunctorOf, variables))


@functools.lru_cache(maxsize=None)
def exprs_over(names):
    """Expressions over literals and the variables ``names``, which are bound
    where the expression is read, with a risky leaf now and then; a term may
    hold ``_``, which cannot be evaluated."""
    bound = st.sampled_from(sorted(names)).map(Var) if names else int_literals
    return st.recursive(
        st.one_of(bound, bound, bound, int_literals, literals, risky),
        lambda inner: st.one_of(
            st.builds(BinExpr, st.sampled_from("+-"), inner, inner),
            st.builds(PTerm, st.sampled_from(FUNCTORS),
                      st.lists(st.one_of(inner, inner, inner, inner, st.just(WILDCARD)),
                               max_size=2).map(tuple)),
        ),
        max_leaves=3,
    )


@functools.lru_cache(maxsize=None)
def op_templates(kind, names):
    """The op templates the parser allows on an event kind, over ``names``.
    State ops write mostly p(...) (set-valued), with q(...) for
    single-valued clashes and clock(...) for writes to the overlay."""
    exprs = exprs_over(names)
    terms_ = st.builds(PTerm, st.sampled_from(("p", "p", "q", "clock")),
                       st.lists(exprs, max_size=2).map(tuple))
    common = [
        st.builds(StateReplace, terms_, terms_),
        st.builds(StateAdd, terms_),
        st.builds(StateRemove, terms_),
        st.builds(ImposeObligation, terms_, exprs),
        st.builds(RepealObligation, terms_),
        st.just(AuditLog()),
        st.builds(Block, st.sampled_from(("", "r"))),
    ]
    forward, deliver = st.builds(Forward, exprs, exprs), st.builds(Deliver, exprs)
    return st.one_of(*common, *{
        "sent": (st.just(Forward(None, None)), forward),
        "arrived": (st.just(Deliver(None)), deliver),
        "obligationDue": (forward, deliver),
    }.get(kind, ()))


def _bound(node, acc):
    """Add the names of the variables a pattern binds to ``acc``."""
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, PTerm):
        for a in node.args:
            _bound(a, acc)


@st.composite
def rules(draw, kind, rule_id):
    pattern = tuple(draw(event_patterns) for _ in range(EVENT_KINDS[kind]))
    names = set()
    for node in pattern:
        _bound(node, names)
    guard = []
    for _ in range(draw(st.sampled_from((0, 1, 1, 2, 2)))):
        part = draw(st.sampled_from(("query", "atom", "atom", "compare", "backtrack",
                                     "backtrack", "join", "join")))
        if part == "query":
            guard.append(draw(queries))
            _bound(guard[-1].pattern, names)
        elif part == "atom":
            guard.append(draw(atom_queries))
        elif part == "compare":
            exprs = exprs_over(frozenset(names))
            guard.append(Comparison(draw(comparison_ops), draw(exprs), draw(exprs)))
        elif part == "join":
            # p(V), p(W), V op W: the first pair tried is a tie
            names.update(("V", "W"))
            guard += [StateQuery(PTerm("p", (Var("V"),))), StateQuery(PTerm("p", (Var("W"),))),
                      Comparison(draw(comparison_ops), Var("V"), Var("W"))]
        else:
            # a query on p(V), V fresh, then a comparison of V with mostly an
            # integer: it rejects some candidates, so the query backtracks
            v = draw(st.sampled_from(("V", "W")))
            names.add(v)
            guard += [StateQuery(PTerm("p", (Var(v),))),
                      Comparison(draw(comparison_ops), Var(v),
                                 draw(st.one_of(int_literals, int_literals,
                                                exprs_over(frozenset(names)))))]
    ops = draw(st.lists(op_templates(kind, frozenset(names)), max_size=3))
    if draw(st.sampled_from((True, True, True, False))):
        # a witness records every binding in the new state, so a rule that
        # fires with other bindings than the reference's cannot pass unseen
        ops.append(StateAdd(PTerm("w", tuple(Var(n) for n in sorted(names)))))
    return GroundRule(rule_id, "a", kind, pattern, tuple(guard), tuple(ops))


@st.composite
def cases(draw):
    event = draw(events)
    rule_list = [draw(rules(event.kind, "r%d" % i)) for i in range(draw(st.integers(1, 3)))]
    return _doc(*rule_list), event, draw(states)


def _doc(*rule_list):
    return LawDoc("t", "root", None, "block", MULTI, (), (), tuple(rule_list))


def outcome(match, commit, doc, event, state):
    """Rule id, ops and committed state of a hit; None; or the law error."""
    try:
        hit = match(doc, event, state)
        if hit is None:
            return None
        rule, ruling = hit
        after = commit(state, event.kind, ruling)
    except FdsError as exc:
        return type(exc).__name__, str(exc)
    return rule.rule_id, ruling.canonical_ops(), None if after is None else after.canonical()


# -- hand-picked cases: one per law error, and the matching subtleties -------------

STATE = ControlState(
    [Term("name", ("a",)), Term("p", (1,)), Term("p", (2,)), Term("p", ("s",))],
    frozenset({"p"}),
).with_overlay([Term("clock", (5,))])
SEND = Sent(AgentName("b"), Term("p", (1,)))
X, Y = Var("X"), Var("Y")


def _sent_rule(pattern=(WILDCARD, WILDCARD, WILDCARD), guard=(), ops=()):
    return GroundRule("r0", "a", "sent", pattern, guard, ops)


ERROR_CASES = {
    "unbound variable Y": _sent_rule(guard=(Comparison("==", Y, 1),)),
    "ordering comparison on non-integers": _sent_rule(
        guard=(StateQuery(PTerm("p", (X,))), Comparison("<=", X, 1))),
    "forward payload must be a term": _sent_rule(ops=(Forward("b", X),),
                                                 pattern=(WILDCARD, PTerm("p", (X,)), WILDCARD)),
    "deliver payload must be a term": GroundRule("r0", "a", "obligationDue", (X,), (),
                                                 (Deliver(FunctorOf(X)),)),
    "forward target must be an agent name string": _sent_rule(ops=(Forward(1, PTerm("p", ())),)),
    "obligation due-in must be a non-negative integer": _sent_rule(
        ops=(ImposeObligation(PTerm("p", ()), BinExpr("-", 1, 2)),)),
    "functor() of a non-term value": _sent_rule(guard=(Comparison("==", FunctorOf(Y), "p"),)),
    "arithmetic on non-integers": _sent_rule(ops=(StateAdd(PTerm("p", (BinExpr("+", "a", 1),))),)),
    "cannot evaluate _": _sent_rule(ops=(StateAdd(PTerm("p", (WILDCARD,))),)),
}


@pytest.mark.parametrize("message", sorted(ERROR_CASES))
def test_law_errors_match_the_reference(message):
    event = SEND if ERROR_CASES[message].event_kind == "sent" else ObligationDue(Term("p", (1,)))
    doc = _doc(ERROR_CASES[message])
    got = outcome(first_match, commit, doc, event, STATE)
    assert got == outcome(reference.first_match, reference.commit, doc, event, STATE)
    assert got[0] == "GuardError" and got[1].startswith(message), got


@settings(max_examples=300, deadline=None)
@given(cases())
# a repeated variable across arguments and inside a nested term
@example((_doc(_sent_rule(pattern=(X, PTerm("p", (X,)), WILDCARD), ops=(Block("x"),))),
          Sent(AgentName("b"), Term("p", ("a",))), STATE))
# a bare atom matches the zero-argument term
@example((_doc(_sent_rule(pattern=(WILDCARD, PTerm("p", ("q",)), WILDCARD), ops=(Block("q"),))),
          Sent(AgentName("b"), Term("p", (Term("q"),))), STATE))
# the comparison rejects p("s") and p(1), so the query backtracks to p(2)
@example((_doc(_sent_rule(guard=(StateQuery(PTerm("p", (X,))), Comparison("==", X, 2)),
                          ops=(StateAdd(PTerm("p", (X, X))),))), SEND, STATE))
# <= holds at the bound
@example((_doc(_sent_rule(pattern=(WILDCARD, PTerm("p", (X,)), WILDCARD),
                          guard=(Comparison("<=", X, 1),), ops=(Block("le"),))), SEND, STATE))
# the arity filter skips p("s", ...) shapes a one-argument query cannot match
@example((_doc(_sent_rule(guard=(StateQuery(PTerm("p", (WILDCARD, WILDCARD))),),
                          ops=(Block("two"),))), SEND, STATE))
def test_compiled_rules_rule_like_the_reference(case):
    doc, event, state = case
    assert (outcome(first_match, commit, doc, event, state)
            == outcome(reference.first_match, reference.commit, doc, event, state))

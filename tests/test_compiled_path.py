"""Compiled law paths against the uncompiled derivation they replace.

The reference below re-derives every level's sealed skips and the winner's
meta mode per event, by the publish-time gate's rule written out afresh,
and tries every rule of the event's kind, as ``derive_ruling`` did before
paths were compiled, through the tree-walking rule interpreter of
``reference.py``. Random paths of one to three laws (meta modes with ``*``
patterns, repeated keys, rules on every event kind and on an aspect that
looks like a pattern, payload patterns of every shape, with and without
guards, deltas that rule on sealed aspects) and random events must get the
same ruling and, through
``core.commit`` and the reference's ``commit``, the same committed state,
or the same law error, from both.
"""

from hypothesis import example, given, settings, strategies as st

import reference
from fds.core import (
    Adopted,
    AgentName,
    Arrived,
    AuditLog,
    Block,
    ControlState,
    FdsError,
    ObligationDue,
    Ruling,
    Sent,
    Term,
    commit,
)
from fds.hierarchy import LawPath, derive_ruling
from fds.lawlang import META_MODES, default_ruling, event_args, parse_law

# -- reference: the per-event derivation --------------------------------------


RESTRICTIVENESS = ("open", "default-overridable", "tighten", "sealed")


def _ref_mode(laws, aspect):
    """The publish-time gate's rule: in each law the first meta key that
    matches the aspect decides, a law with no matching key that rules on
    exactly the aspect seals it, and the most restrictive law wins."""
    modes = []
    for doc in laws:
        mode = next((m for key, m in doc.meta
                     if key == aspect or key.endswith("*") and aspect.startswith(key[:-1])),
                    None)
        if mode is None and any(r.aspect == aspect for r in doc.rules):
            mode = "sealed"
        if mode is not None:
            modes.append(mode)
    return max(modes, key=RESTRICTIVENESS.index, default=None)


def _ref_first_match(doc, event, state, superiors):
    kind, _ = event_args(event, state)
    rules = [r for r in doc.rules if r.event_kind == kind
             and _ref_mode(superiors, r.aspect) != "sealed"]
    return reference.first_match(doc, event, state, rules)


def reference_ruling(path, event, state):
    winner = None  # (level, rule, ruling)
    winner_mode = None
    retained_audits = []
    for level, doc in enumerate(path.docs):
        hit = _ref_first_match(doc, event, state, path.docs[:level])
        if hit is None:
            continue
        rule, ruling = hit
        if winner is None:
            pass
        elif winner_mode == "sealed":
            break
        elif winner_mode == "tighten" and winner[2].blocks():
            break
        else:
            retained_audits.extend(o for o in winner[2].ops if isinstance(o, AuditLog))
        winner = (level, rule, ruling)
        winner_mode = _ref_mode(path.docs[: level + 1], rule.aspect) or "sealed"
        if winner_mode == "sealed":
            break
    if winner is None:
        default = next((d.default for d in reversed(path.docs) if d.default is not None),
                       "block")
        return default_ruling(default, event)
    ruling = winner[2]
    ops = tuple(retained_audits) + ruling.ops
    if any(isinstance(o, Block) for o in ops):
        ops = tuple(o for o in ops if not isinstance(o, AuditLog))
    return Ruling(ops)


# -- generated laws ------------------------------------------------------------

ASPECTS = ("a:x", "a:y", "b:x", "a:*")
META_KEYS = ASPECTS + ("b:*", "*")
PAYLOAD_PATTERNS = ("m", "n", "m(X)", "n(X)", "m(1)", "m(_)", "n()", "X", "_", "1")
GUARDS = ("X < 3", "X != 1", "clock(T)@CS, T > 20", "k(1)@CS")
# each rule also adds its own k(N), so the ruling shows which rule fired
OPS = {
    "sent": ("forward", 'block("{id}")', "audit; forward", 'audit; block("{id}")'),
    "arrived": ("deliver", 'block("{id}")', "audit; deliver"),
    "adopted": ("audit", 'block("{id}")'),
    "obligationDue": ('block("{id}")', 'forward("b", m(1))', 'deliver(n(2))'),
}
# weighted toward the payload kinds, which the functor index serves
RULE_KINDS = ("sent", "sent", "arrived", "adopted", "obligationDue")
HEADS = {
    "sent": "sent(_, {p}, _)",
    "arrived": "arrived(_, {p}, _)",
    "obligationDue": "obligationDue({p})",
}


@st.composite
def rule_texts(draw, rule_id, mark):
    kind = draw(st.sampled_from(RULE_KINDS))
    if kind == "adopted":
        pattern = draw(st.sampled_from(("_", "X", "cert(_, _, _)", "stack(_)")))
        head = "adopted(%s)" % pattern
    else:
        pattern = draw(st.sampled_from(PAYLOAD_PATTERNS))
        head = HEADS[kind].format(p=pattern)
    guards = [g for g in GUARDS if "X" not in g or "X" in pattern]
    guard = draw(st.sampled_from([None, None] + guards))
    op = draw(st.sampled_from(OPS[kind])).format(id=rule_id)
    return "rule %s aspect %s on %s%s do { add k(%d); %s }" % (
        rule_id, draw(st.sampled_from(ASPECTS)), head,
        "" if guard is None else " when " + guard, mark, op)


def _path(*texts):
    docs = tuple(parse_law(t) for t in texts)
    return LawPath(tuple("h%d" % i for i in range(len(docs))), docs)


@st.composite
def law_paths(draw):
    """A path of one to three laws, built without the publish-time check,
    so deltas may rule on aspects their superiors seal."""
    texts = []
    for level in range(draw(st.sampled_from((1, 2, 3, 3)))):
        lines = ["law l%d" % level]
        if level:
            lines.append("extends l%d" % (level - 1))
        default = draw(st.sampled_from(("block", "pass")) if not level
                       else st.none() | st.sampled_from(("block", "pass")))
        if default:
            lines.append("default " + default)
        lines.append("multi { k }")
        meta = draw(st.lists(st.tuples(st.sampled_from(META_KEYS),
                                       st.sampled_from(META_MODES)), max_size=4))
        if meta:
            lines.append("meta { %s }" % "; ".join("%s %s" % km for km in meta))
        for i in range(draw(st.integers(0, 6))):
            lines.append(draw(rule_texts("r%d_%d" % (level, i), 10 * level + i + 10)))
        texts.append("\n".join(lines) + "\n")
    return _path(*texts)


payloads = st.builds(Term, st.sampled_from(("m", "m", "n", "o")),
                     st.sampled_from(((), (0,), (1,), (2,), (5,), ("s",))))
sends = st.builds(Sent, st.just(AgentName("b")), payloads)
events = st.one_of(
    sends,
    sends,
    st.builds(Arrived, st.just(AgentName("b", "D")), st.just("h"), payloads),
    st.builds(Adopted, st.sampled_from((Term("cert", ("a", "D", "CA")),
                                        Term("stack", ("h",))))),
    st.builds(ObligationDue, payloads),
)
states = st.builds(
    lambda ks, clock: ControlState([Term("name", ("a",))] + [Term("k", (k,)) for k in ks],
                                   frozenset({"k"})).with_overlay([Term("clock", (clock,))]),
    st.lists(st.integers(1, 4), max_size=2, unique=True),
    st.integers(0, 40),
)


def _outcome(derive, commit, path, event, state):
    try:
        ruling = derive(path, event, state)
        after = commit(state, event.kind, ruling)
    except FdsError as exc:
        return "error", type(exc).__name__, str(exc)
    return ruling.canonical_ops(), None if after is None else after.canonical()


ROOT = "law l0\ndefault block\nmulti { k }\n"
DELTA = "law l1\nextends l0\n"
SEND_M = [(Sent(AgentName("b"), Term("m", (1,))), ControlState([Term("name", ("a",))]))]
SEND_N = [(Sent(AgentName("b"), Term("n", (1,))), ControlState([Term("name", ("a",))]))]


@settings(max_examples=400, deadline=None)
@given(law_paths(), st.lists(st.tuples(events, states), min_size=1, max_size=12))
# a variable rule ahead of a functor rule in the same bucket
@example(_path(ROOT + "rule v aspect a:x on sent(_, X, _) do { add k(10); forward }\n"
                      'rule f aspect a:y on sent(_, m(_), _) do { add k(11); block("f") }\n'),
         SEND_M)
# the winner's mode counts its own law's meta: root's open lets the delta override
@example(_path(ROOT + "meta { a:x open }\n"
                      'rule r aspect a:x on sent(_, m(_), _) do { add k(10); block("r") }\n',
               DELTA + "rule d aspect a:y on sent(_, _, _) do { add k(20); forward }\n"),
         SEND_M)
# a forged delta's rule on an aspect the root seals never fires
@example(_path(ROOT + 'rule s aspect a:x on sent(_, m(_), _) do { add k(10); block("s") }\n',
               DELTA + "rule f aspect a:x on sent(_, _, _) do { add k(20); forward }\n"),
         SEND_N)
# the root's first matching meta key decides: a:x stays tighten, not sealed
@example(_path(ROOT + "meta { a:x tighten; a:x sealed }\n"
                      'rule s aspect a:x on sent(_, m(_), _) do { add k(10); forward }\n',
               DELTA + 'rule f aspect a:x on sent(_, _, _) do { add k(20); block("f") }\n'),
         SEND_M)
# a rule on the aspect a:* seals a:* itself, not the aspects it looks like
@example(_path(ROOT + 'rule s aspect a:* on sent(_, _, _) do { add k(10); block("s") }\n',
               DELTA + "rule f aspect a:x on sent(_, m(_), _) do { add k(20); forward }\n"),
         SEND_M)
def test_compiled_path_rules_like_the_per_event_derivation(path, probes):
    for event, state in probes:
        assert (_outcome(derive_ruling, commit, path, event, state)
                == _outcome(reference_ruling, reference.commit, path, event, state)), \
            (event, state)

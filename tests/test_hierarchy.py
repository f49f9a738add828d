import pytest
from hypothesis import example, given, settings, strategies as st

from fds.core import AgentName, Arrived, ControlState, Sent, StateError, Term, commit
from fds.hierarchy import (
    Framework,
    FrameworkError,
    LawPath,
    MetaViolation,
    derive_ruling,
    effective_mode,
)
from fds.lawlang import META_MODES, evaluate_law, parse_law
from fds.library import build_acme_hierarchy

ROOT = """\
law corp
default block
meta {
  open-area open;
  soft-area default-overridable;
  tight-area tighten
}
rule s aspect sealed-area on sent(_, sealed(_), _) do { block("sealed") }
rule o aspect open-area on sent(_, open(_), _) do { block("root-open") }
rule d aspect soft-area on sent(_, soft(_), _) do { audit; forward }
rule t aspect tight-area on sent(_, tight(_), _) do { forward }
"""


def _state():
    return ControlState([Term("name", ("x",))])


def _send(payload):
    return Sent(AgentName("y"), payload)


class TestPublishing:
    def test_root_then_delta(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        delta = fw.publish_delta(root, parse_law(
            "law sub\nextends corp\n"
            "rule o aspect open-area on sent(_, open(_), _) do { forward }\n"))
        assert fw.resolve_path(delta).hashes == (root, delta)

    def test_second_root_rejected(self):
        fw = Framework()
        fw.publish_root(parse_law(ROOT))
        with pytest.raises(FrameworkError):
            fw.publish_root(parse_law("law other\ndefault block\n"))

    def test_sealed_aspect_rejects_subordinate_rules(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        forged = parse_law(
            "law forged\nextends corp\n"
            "rule s aspect sealed-area on sent(_, sealed(_), _) do { forward }\n")
        with pytest.raises(MetaViolation):
            fw.publish_delta(root, forged)

    def test_identical_republish_is_noop(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        doc = parse_law("law sub\nextends corp\n")
        assert fw.publish_delta(root, doc) == fw.publish_delta(root, doc)

    def test_unknown_hash_errors(self):
        fw = Framework()
        with pytest.raises(FrameworkError):
            fw.resolve_path("deadbeef")
        with pytest.raises(FrameworkError):
            fw.get_text("deadbeef")


class TestEffectiveMode:
    def test_ruling_without_meta_seals(self):
        doc = parse_law(ROOT)
        assert effective_mode([doc], "sealed-area") == "sealed"
        assert effective_mode([doc], "open-area") == "open"
        assert effective_mode([doc], "never-mentioned") is None

    def test_most_restrictive_along_path_wins(self):
        top = parse_law("law t\ndefault block\nmeta { x tighten }\n")
        mid = parse_law("law m\nextends t\nmeta { x open }\n")
        assert effective_mode([top, mid], "x") == "tighten"

    def test_a_laws_first_matching_meta_key_decides(self):
        doc = parse_law("law t\ndefault block\nmeta { a:* open; a:x sealed }\n"
                        "rule r aspect a:x on sent(_, _, _) do { forward }\n")
        assert effective_mode([doc], "a:x") == "open"


# meta keys and rule aspects of generated laws; a:* is also a rule aspect,
# which seals a:* itself and none of the aspects the pattern would match
META_KEYS = ("a:x", "a:y", "a:*", "b:x", "*")
ASPECTS = ("a:x", "a:y", "a:*", "b:x")


@st.composite
def law_bodies(draw):
    """The meta section and ``sent`` rules of one law, as text."""
    meta = draw(st.lists(st.tuples(st.sampled_from(META_KEYS), st.sampled_from(META_MODES)),
                         max_size=4))
    lines = ["meta { %s }" % "; ".join("%s %s" % km for km in meta)] if meta else []
    for i, aspect in enumerate(draw(st.lists(st.sampled_from(ASPECTS), max_size=3))):
        lines.append("rule r%d aspect %s on sent(_, _, _) do { forward }" % (i, aspect))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(law_bodies(), law_bodies(), law_bodies())
# the root's first matching key leaves a:x open although a later key seals it
@example(root="meta { a:* open; a:x sealed }\n"
              "rule r0 aspect a:x on sent(_, _, _) do { forward }",
         mid="", leaf="rule r0 aspect a:x on sent(_, _, _) do { forward }")
# a rule on the aspect a:* seals no a:x
@example(root="", mid="rule r0 aspect a:* on sent(_, _, _) do { forward }",
         leaf="rule r0 aspect a:x on sent(_, _, _) do { forward }")
def test_a_published_delta_keeps_every_rule_it_was_admitted_with(root, mid, leaf):
    fw = Framework()
    sup = fw.publish_root(parse_law("law l0\ndefault block\n%s\n" % root))
    for level, body in enumerate((mid, leaf), 1):
        doc = parse_law("law l%d\nextends l%d\n%s\n" % (level, level - 1, body))
        try:
            sup = fw.publish_delta(sup, doc)
        except MetaViolation:
            return
        assert fw.resolve_path(sup).compiled[-1].rules.get("sent", ()) == doc.rules


class TestInitialState:
    def _states(self, *texts):
        """The initial state of agent a in D1 under each law of a chain."""
        fw = Framework()
        leaf = fw.publish_root(parse_law(texts[0]))
        leaves = [leaf]
        for text in texts[1:]:
            leaf = fw.publish_delta(leaf, parse_law(text))
            leaves.append(leaf)
        return [fw.resolve_path(h).initial_state("a", "D1").canonical() for h in leaves]

    def test_a_delta_inits_a_functor_its_root_makes_set_valued(self):
        _, under_delta = self._states("law r\ndefault block\nmulti { q }\n",
                                      "law d\nextends r\ninit { q(1); q(2) }\n")
        assert under_delta == 'division("D1");name("a");q(1);q(2)'

    def test_a_delta_without_init_inherits_every_term_of_a_set_valued_root_init(self):
        under_root, under_delta = self._states(
            "law r\ndefault block\nmulti { q }\ninit { q(1); q(2) }\n", "law d\nextends r\n")
        assert under_delta == under_root == 'division("D1");name("a");q(1);q(2)'

    def test_the_leaf_init_comes_first_then_the_superiors_from_the_root_down(self):
        *_, under_leaf = self._states(
            "law r\ndefault block\ninit { f(1); g(1) }\n",
            "law m\nextends r\ninit { f(2); h(2) }\n",
            "law l\nextends m\ninit { g(3) }\n")
        assert under_leaf == 'division("D1");f(1);g(3);h(2);name("a")'

    def test_a_single_valued_functor_initialised_twice_is_an_error(self):
        with pytest.raises(StateError, match="duplicate-term: functor 'q' is single-valued"):
            self._states("law r\ndefault block\n", "law d\nextends r\ninit { q(1); q(2) }\n")


class TestDeriveRuling:
    def _fw(self, *delta_texts):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        leaf = root
        for text in delta_texts:
            leaf = fw.publish_delta(leaf, parse_law(text))
        return fw, fw.resolve_path(leaf)

    def test_open_aspect_fully_overridable(self):
        _, path = self._fw("law sub\nextends corp\n"
                           "rule o aspect open-area on sent(_, open(_), _) do { forward }\n")
        r = derive_ruling(path, _send(Term("open", (1,))), _state())
        assert r.canonical_ops() == 'forward("y",open(1))'

    def test_tighten_block_is_final(self):
        _, path = self._fw(
            "law sub\nextends corp\n"
            "rule t1 aspect tight-area on sent(_, tight(0), _) do { block(\"no\") }\n"
            "rule t2 aspect tight-area on sent(_, tight(_), _) do { forward }\n")
        assert derive_ruling(path, _send(Term("tight", (0,))), _state()).blocks()
        assert not derive_ruling(path, _send(Term("tight", (1,))), _state()).blocks()

    def test_superior_block_under_tighten_cannot_be_reopened(self):
        top = parse_law("law t\ndefault block\nmeta { x tighten }\n"
                        "rule b aspect x on sent(_, m(_), _) do { block(\"top\") }\n")
        fw = Framework()
        root = fw.publish_root(top)
        leaf = fw.publish_delta(root, parse_law(
            "law s\nextends t\nrule p aspect x on sent(_, m(_), _) do { forward }\n"))
        r = derive_ruling(fw.resolve_path(leaf), _send(Term("m", (1,))), _state())
        assert r.blocks()

    def test_overridden_superior_audit_is_retained(self):
        _, path = self._fw(
            "law sub\nextends corp\n"
            "rule d aspect soft-area on sent(_, soft(_), _) do { forward }\n")
        r = derive_ruling(path, _send(Term("soft", (1,))), _state())
        assert r.canonical_ops() == 'audit;forward("y",soft(1))'

    def test_blocked_ruling_sheds_audits(self):
        _, path = self._fw(
            "law sub\nextends corp\n"
            "rule d aspect soft-area on sent(_, soft(_), _) do { block(\"sub\") }\n")
        r = derive_ruling(path, _send(Term("soft", (1,))), _state())
        assert r.canonical_ops() == 'block("sub")'

    def test_a_blocked_ruling_sheds_its_audits_in_a_single_law_too(self):
        # the acme root audits and blocks an inter-division arrival: the path
        # derivation and the single-law evaluation both shed the audit
        bundle = build_acme_hierarchy()
        path = bundle.framework.resolve_path(bundle.root)
        state = ControlState([Term("name", ("b",)), Term("division", ("D1",))]).with_overlay(
            [Term("peerDivision", ("D2",))])
        event = Arrived(AgentName("a", "D2"), "h", Term("m"))
        derived = derive_ruling(path, event, state).canonical_ops()
        assert evaluate_law(path.docs[0], event, state).canonical_ops() == derived
        assert derived == 'block("interdivision-prohibited")'

    def test_forged_path_rules_on_sealed_aspect_are_ignored(self):
        # runtime defense: even if a forged delta somehow carries a rule on
        # a sealed aspect, consultation skips it and the sealing law rules
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        forged_doc = parse_law(
            "law forged\nextends corp\n"
            "rule s aspect sealed-area on sent(_, sealed(_), _) do { forward }\n")
        path = LawPath((root, "forged-hash"), (fw.docs[root], forged_doc))
        r = derive_ruling(path, _send(Term("sealed", (1,))), _state())
        assert r.canonical_ops() == 'block("sealed")'

    def test_an_overridden_level_commits_no_state(self):
        # the root's hit removes a term that is not there; the delta
        # overrides it, and only the winner's state ops are ever applied
        top = parse_law("law t\ndefault block\nmeta { x default-overridable }\n"
                        "rule r aspect x on sent(_, m(_), _) do { remove absent(1); forward }\n")
        fw = Framework()
        root = fw.publish_root(top)
        leaf = fw.publish_delta(root, parse_law(
            "law s\nextends t\n"
            "rule d aspect x on sent(_, m(_), _) do { add seen(1); block(\"d\") }\n"))
        r = derive_ruling(fw.resolve_path(leaf), _send(Term("m", (1,))), _state())
        assert r.canonical_ops() == 'add seen(1);block("d")'
        assert commit(_state(), "sent", r).canonical() == 'name("x");seen(1)'

    def test_no_match_falls_to_leafmost_default(self):
        _, path = self._fw("law sub\nextends corp\ndefault pass\n")
        r = derive_ruling(path, _send(Term("unmatched", ())), _state())
        assert r.canonical_ops() == 'forward("y",unmatched)'

    def test_empty_delta_changes_nothing(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        leaf = fw.publish_delta(root, parse_law("law sub\nextends corp\n"))
        for payload in (Term("sealed", (1,)), Term("open", (2,)),
                        Term("soft", (3,)), Term("tight", (4,)), Term("other")):
            a = derive_ruling(fw.resolve_path(root), _send(payload), _state())
            b = derive_ruling(fw.resolve_path(leaf), _send(payload), _state())
            assert a.canonical_ops() == b.canonical_ops()


SUB = ("law sub\nextends corp\n"
       "rule o aspect open-area on sent(_, open(_), _) do { forward }\n")


def _tables(path):
    return [(lvl.rules, lvl.by_functor, lvl.modes) for lvl in path.compiled]


class TestCompiledPath:
    def test_candidates_index_payload_functors_in_textual_order(self):
        doc = parse_law(
            "law c\ndefault block\nmeta { x open }\n"
            "rule a aspect x on sent(_, m(_), _) do { forward }\n"
            "rule v aspect x on sent(_, X, _) do { forward }\n"
            "rule b aspect x on sent(_, m, _) do { forward }\n"
            "rule n aspect x on sent(_, n(1), _) do { forward }\n"
            "rule w aspect x on arrived(_, _, _) do { deliver }\n"
            "rule d aspect x on adopted(_) do { audit }\n")
        level = LawPath(("h",), (doc,)).compiled[0]

        def ids(kind, payload):
            return [r.rule_id for r in level.candidates(kind, payload)]

        assert ids("sent", Term("m")) == ["a", "v", "b"]
        assert ids("sent", Term("n", (1,))) == ["v", "n"]
        assert ids("sent", Term("unindexed")) == ["v"]
        assert ids("arrived", Term("m")) == ["w"]
        assert ids("adopted", None) == ["d"]
        assert ids("obligationDue", Term("m")) == []

    def test_rules_sealed_above_are_not_candidates(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        forged = parse_law(
            "law forged\nextends corp\nmeta { open-area tighten }\n"
            "rule s aspect sealed-area on sent(_, sealed(_), _) do { forward }\n"
            "rule o aspect open-area on sent(_, open(_), _) do { forward }\n")
        level = LawPath((root, "forged-hash"), (fw.docs[root], forged)).compiled[1]
        assert [r.rule_id for r in level.rules["sent"]] == ["o"]
        # the winner's mode counts the ruling law's own meta, not only its superiors'
        assert level.modes == {"open-area": "tighten"}


class TestResolvePathMemo:
    def test_one_path_object_per_leaf(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        leaf = fw.publish_delta(root, parse_law(SUB))
        assert fw.resolve_path(leaf) is fw.resolve_path(leaf)
        assert fw.resolve_path(root) is fw.resolve_path(root)
        assert fw.resolve_path(leaf).docs[0] is fw.resolve_path(root).docs[0]

    def test_later_publish_leaves_existing_paths_and_tables(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        leaf = fw.publish_delta(root, parse_law(SUB))
        path = fw.resolve_path(leaf)
        compiled = path.compiled
        tables = _tables(path)
        before = derive_ruling(path, _send(Term("tight", (1,))), _state()).canonical_ops()
        child = fw.publish_delta(leaf, parse_law(
            "law subsub\nextends sub\n"
            "rule t aspect tight-area on sent(_, tight(_), _) do { block(\"deeper\") }\n"))
        fw.publish_delta(root, parse_law("law other\nextends corp\ndefault pass\n"))
        assert fw.resolve_path(leaf) is path
        assert path.hashes == (root, leaf)
        assert path.compiled is compiled and _tables(path) == tables
        assert before == 'forward("y",tight(1))'
        assert derive_ruling(path, _send(Term("tight", (1,))), _state()).canonical_ops() == before
        assert fw.resolve_path(child).hashes == (root, leaf, child)
        assert derive_ruling(fw.resolve_path(child), _send(Term("tight", (1,))),
                             _state()).blocks()

    def test_identical_republish_keeps_the_path(self):
        fw = Framework()
        root = fw.publish_root(parse_law(ROOT))
        leaf = fw.publish_delta(root, parse_law(SUB))
        path = fw.resolve_path(leaf)
        compiled = path.compiled
        assert fw.publish_delta(root, parse_law(SUB)) == leaf
        assert len(fw.docs) == 2
        assert fw.resolve_path(leaf) is path and path.compiled is compiled

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, strategies as st

import reference
from fds.core import (
    AuditLog,
    Block,
    ControlState,
    Deliver,
    Forward,
    ImposeObligation,
    RepealObligation,
    Ruling,
    StateAdd,
    StateError,
    StateRemove,
    StateReplace,
    Term,
    TermSyntaxError,
    commit,
    parse_term,
)


class TestTermSyntax:
    def test_round_trip_simple(self):
        for text in ['changeDelay(50)', 'order("x1",30)', 'cert("a","D1","CA")',
                     'nested(inner(1,"two"),3)', 'neg(-7)', 'flush']:
            assert parse_term(text).canonical() == text

    def test_bare_atom_args_read_as_strings(self):
        t = parse_term("pair(abc, 2)")
        assert t.args == ("abc", 2)
        # canonical form quotes the string, and re-parses identically
        assert parse_term(t.canonical()) == t

    def test_zero_arg_parens_and_bare_top_level_agree(self):
        assert parse_term("flush()") == parse_term("flush") == Term("flush")

    def test_string_escapes(self):
        t = Term("s", ('say "hi"\\now',))
        assert parse_term(t.canonical()) == t

    def test_rejects_garbage(self):
        for text in ["", "(", "f(", 'f("unterminated', "f(1,)", "f(1) trailing"]:
            with pytest.raises(TermSyntaxError):
                parse_term(text)

    @given(st.recursive(
        st.one_of(st.integers(-10**6, 10**6),
                  st.text(st.characters(codec="ascii", categories=("L", "N")),
                          max_size=8)),
        lambda children: st.builds(
            Term,
            st.text(st.sampled_from("abcdefgh"), min_size=1, max_size=6),
            st.lists(children, max_size=3).map(tuple)),
        max_leaves=8).filter(lambda v: isinstance(v, Term)))
    def test_round_trip_property(self, term):
        assert parse_term(term.canonical()) == term


# Terms of any shape the syntax can write: identifier functors, negative
# integers, strings with the characters it quotes or splits on, and nested
# terms of any arity, zero included.
TERM_FUNCTORS = st.from_regex(r"[a-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
TERM_ATOMS = st.one_of(st.integers(-10**6, 10**6),
                       st.text(st.sampled_from('ab ;,()"\\'), max_size=6))
TERMS = st.recursive(
    TERM_ATOMS,
    lambda children: st.builds(Term, TERM_FUNCTORS,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=8).filter(lambda v: isinstance(v, Term))


@dataclass(frozen=True)
class _DataclassTerm:
    """``Term`` as a plain frozen dataclass: the reference for its equality,
    hashing and ``repr``."""

    functor: str
    args: tuple = ()


_DataclassTerm.__qualname__ = "Term"


def _as_dataclass(v):
    if isinstance(v, Term):
        return _DataclassTerm(v.functor, tuple(_as_dataclass(a) for a in v.args))
    return v


def _render(v, nested=False):
    """Reference rendering, independent of any kept text: a zero-arity term
    is bare at the top and keeps its parentheses as an argument."""
    if isinstance(v, Term):
        if not v.args:
            return v.functor + "()" if nested else v.functor
        return "%s(%s)" % (v.functor, ",".join(_render(a, True) for a in v.args))
    if isinstance(v, str):
        return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')
    return str(v)


class TestTermMemo:
    @given(TERMS)
    def test_kept_text_equals_a_fresh_render(self, term):
        first = term.canonical()
        assert term.canonical() is first
        assert first == _render(term) == str(term)
        for a in term.args:
            if isinstance(a, Term):
                assert a.canonical() == _render(a)

    @given(TERMS, TERMS)
    def test_eq_hash_and_repr_are_the_frozen_dataclass_ones(self, t1, t2):
        for a, b in ((t1, t2), (t1, parse_term(t1.canonical())), (t1, _copy(t1))):
            a.canonical()  # a kept text takes no part in any of them
            assert (a == b) == (_as_dataclass(a) == _as_dataclass(b))
            assert (a != b) == (_as_dataclass(a) != _as_dataclass(b))
            assert hash(a) == hash(_as_dataclass(a))
            assert repr(a) == repr(_as_dataclass(a))
        assert t1 == _copy(t1) and hash(t1) == hash(_copy(t1))
        assert t1 != _as_dataclass(t1) and t1 != (t1.functor, t1.args)

    def test_terms_are_immutable(self):
        t = Term("f", (1, Term("g", ("x",))))
        t.canonical()
        for name in ("functor", "args", "_text", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, "z")
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert (t.functor, t.args, t.canonical()) == ("f", (1, Term("g", ("x",))), 'f(1,g("x"))')

    def test_copies_and_pickles_are_equal_terms(self):
        t = Term("f", (1, Term("g", ("x;y",))))
        t.canonical()
        for c in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert c == t and c.canonical() == t.canonical()

    @given(TERMS)
    def test_no_instance_has_a_dict(self, term):
        term.canonical()
        assert not hasattr(term, "__dict__")


def _copy(t: Term) -> Term:
    return Term(t.functor, tuple(_copy(a) if isinstance(a, Term) else a for a in t.args))


class TestControlState:
    def test_a_separator_inside_a_string_is_part_of_it(self):
        st_ = ControlState([Term("q", (0, Term("m", ("a;b", 3)))), Term("z", (";",))],
                           multi=frozenset({"q"}))
        assert st_.canonical() == 'q(0,m("a;b",3));z(";")'

    def test_single_valued_functor_rejects_duplicates(self):
        st_ = ControlState([Term("delay", (5,))])
        with pytest.raises(StateError):
            st_.add(Term("delay", (9,)))

    def test_multi_valued_functor_accumulates(self):
        st_ = ControlState([], multi=frozenset({"q"}))
        st_ = st_.add(Term("q", (0,))).add(Term("q", (1,)))
        assert len(st_.visible("q")) == 2

    def test_replace_requires_exact_old_term(self):
        st_ = ControlState([Term("delay", (5,))])
        with pytest.raises(StateError):
            st_.replace(Term("delay", (6,)), Term("delay", (7,)))
        out = st_.replace(Term("delay", (5,)), Term("delay", (7,)))
        assert list(out.visible("delay")) == [Term("delay", (7,))]

    def test_overlay_shadows_base_and_is_read_only(self):
        st_ = ControlState([Term("clock", (1,))]).with_overlay([Term("clock", (9,))])
        assert list(st_.visible("clock")) == [Term("clock", (9,))]
        with pytest.raises(StateError):
            st_.add(Term("clock", (3,)))
        # overlay never leaks into the persisted canonical form
        assert st_.canonical() == "clock(1)"

    def test_canonical_is_sorted_and_stable(self):
        a = ControlState([Term("b", (1,)), Term("a", (2,))])
        b = ControlState([Term("a", (2,)), Term("b", (1,))])
        assert a.canonical() == b.canonical() == "a(2);b(1)"

    def test_remove_of_overlay_functor_is_read_only(self):
        st_ = ControlState([Term("clock", (1,))]).with_overlay([Term("clock", (9,))])
        for shadowed in (Term("clock", (1,)), Term("clock", (9,))):
            with pytest.raises(StateError, match="read-only term 'clock'"):
                st_.remove(shadowed)
        assert st_.canonical() == "clock(1)"


class ModelState:
    """Reference for ControlState: a plain list, re-sorted on every read."""

    def __init__(self, base, multi, overlay=()):
        self.base, self.multi, self.overlay = list(base), multi, list(overlay)

    @classmethod
    def build(cls, terms, multi):
        st_ = cls([], multi)
        for t in terms:
            st_.base = st_._inserted(t)
        return st_

    def _inserted(self, t):
        if t.functor not in self.multi and any(u.functor == t.functor for u in self.base):
            raise StateError("duplicate-term")
        return self.base if t in self.base else self.base + [t]

    def _writable(self, t):
        if any(u.functor == t.functor for u in self.overlay):
            raise StateError("read-only term")

    def _without(self, t):
        if t not in self.base:
            raise StateError("stale-state-update")
        return [u for u in self.base if u != t]

    def add(self, t):
        self._writable(t)
        return ModelState(self._inserted(t), self.multi, self.overlay)

    def remove(self, t):
        self._writable(t)
        return ModelState(self._without(t), self.multi, self.overlay)

    def replace(self, old, new):
        self._writable(old)
        rest = ModelState(self._without(old), self.multi, self.overlay)
        return ModelState(rest._inserted(new), self.multi, self.overlay)

    def with_overlay(self, terms):
        return ModelState(self.base, self.multi, terms)

    def without_overlay(self):
        return ModelState(self.base, self.multi)

    def terms(self):
        return sorted(self.base, key=lambda t: (t.functor, t.canonical()))

    def visible(self, functor):
        shadow = [t for t in self.overlay if t.functor == functor]
        return shadow or [t for t in self.terms() if t.functor == functor]

    def canonical(self):
        return ";".join(t.canonical() for t in self.terms())


MULTI = frozenset({"q", "r"})
FUNCTORS = ("a", "b", "q", "r", "clock")
# integers up to 12 make canonical (string) order differ from numeric order
model_terms = st.builds(
    Term, st.sampled_from(FUNCTORS),
    st.one_of(st.tuples(st.integers(0, 12)),
              st.tuples(st.integers(0, 12), st.sampled_from(["x", "y"]))))
overlay_terms = st.builds(Term, st.sampled_from(("clock", "peer", "a")),
                          st.tuples(st.integers(0, 3)))


def _outcome(fn):
    """A call's result, or the StateError it raised."""
    try:
        return fn()
    except StateError as exc:
        return exc


class TestControlStateModel:
    def _assert_same(self, real, model):
        assert real.terms() == model.terms()
        assert real.canonical() == model.canonical()
        assert ";".join(t.canonical() for t in real.terms()) == model.canonical()
        for f in FUNCTORS + ("peer",):
            assert list(real.visible(f)) == model.visible(f)

    @given(st.lists(model_terms, max_size=8), st.data())
    def test_matches_list_model_and_versions_never_change(self, initial, data):
        real = _outcome(lambda: ControlState(initial, MULTI))
        model = _outcome(lambda: ModelState.build(initial, MULTI))
        if isinstance(model, StateError):
            assert isinstance(real, StateError)
            assert str(real).startswith(str(model))
            return
        versions = [(real, model, real.canonical())]
        for _ in range(data.draw(st.integers(0, 25))):
            real, model, _ = versions[data.draw(st.integers(0, len(versions) - 1))]
            present = real.terms() + [t for f in ("clock", "peer", "a") for t in real.visible(f)]
            existing = st.sampled_from(present) if present else model_terms
            kind = data.draw(st.sampled_from(
                ("add", "replace", "remove", "with_overlay", "without_overlay")))
            if kind == "add":
                args = (data.draw(st.one_of(existing, model_terms)),)
            elif kind == "replace":
                args = (data.draw(st.one_of(existing, model_terms)), data.draw(model_terms))
            elif kind == "remove":
                args = (data.draw(st.one_of(existing, model_terms)),)
            elif kind == "with_overlay":
                args = (data.draw(st.lists(overlay_terms, min_size=1, max_size=3)),)
            else:
                args = ()
            new_real = _outcome(lambda: getattr(real, kind)(*args))
            new_model = _outcome(lambda: getattr(model, kind)(*args))
            if isinstance(new_model, StateError):
                assert isinstance(new_real, StateError), (kind, args)
                assert str(new_real).startswith(str(new_model)), (kind, args)
                continue
            assert not isinstance(new_real, StateError), (kind, args, new_real)
            self._assert_same(new_real, new_model)
            versions.append((new_real, new_model, new_real.canonical()))
        # deriving new versions never changed an old one
        for real, model, canonical in versions:
            self._assert_same(real, model)
            assert real.canonical() == canonical


# Ops of all nine types over TERMS, with strings that hold the characters
# the text quotes or splits on, the empty one included.
OP_STRINGS = st.text(st.sampled_from('ab ;,()"\\'), max_size=6)
OPS = st.one_of(
    st.builds(Forward, OP_STRINGS, TERMS),
    st.builds(Deliver, TERMS),
    st.builds(StateReplace, TERMS, TERMS),
    st.builds(StateAdd, TERMS),
    st.builds(StateRemove, TERMS),
    st.builds(ImposeObligation, TERMS, st.integers(-10**6, 10**6)),
    st.builds(RepealObligation, TERMS),
    st.just(AuditLog()),
    st.builds(Block, OP_STRINGS),
)


class TestOps:
    def test_op_canonical_forms(self):
        assert Forward("v", Term("m", (1,))).canonical() == 'forward("v",m(1))'
        assert Deliver(Term("m", (1,))).canonical() == "deliver(m(1))"
        assert Block("why").canonical() == 'block("why")'
        assert ImposeObligation(Term("flush"), 7).canonical() == "oblige flush in 7"

    @given(st.lists(OPS, max_size=4))
    def test_every_op_renders_as_the_reference_model(self, ops):
        texts = [reference.op_canonical(o) for o in ops]
        assert [o.canonical() for o in ops] == texts
        assert Ruling(tuple(ops)).canonical_ops() == ";".join(texts)

    @pytest.mark.parametrize("op", [
        Deliver(Term("f", (True,))),
        StateAdd(Term("f", (1, Term("g", (False,))))),
        Forward("v", Term("f", (Term("g"), True))),
    ], ids=["top", "nested", "after-a-zero-arity-term"])
    def test_a_boolean_argument_is_a_term_syntax_error(self, op):
        with pytest.raises(TermSyntaxError, match="boolean"):
            op.canonical()
        with pytest.raises(TermSyntaxError, match="boolean"):
            reference.op_canonical(op)

    def test_commit_runs_state_ops_in_order(self):
        st_ = ControlState([Term("n", (0,))])
        ruling = Ruling((
            StateReplace(Term("n", (0,)), Term("n", (1,))),
            StateAdd(Term("extra", ())),
            StateRemove(Term("extra", ())),
            Forward("x", Term("m")),
        ))
        assert commit(st_, "sent", ruling).canonical() == "n(1)"

    def test_only_a_refused_adoption_commits_nothing(self):
        view = ControlState([Term("n", (0,))]).with_overlay([Term("clock", (3,))])
        blocked = Ruling((Block("no"), StateAdd(Term("m", ()))))
        assert commit(view, "adopted", blocked) is None
        after = commit(view, "sent", blocked)
        assert after.canonical() == "m;n(0)" and not after.visible("clock")
        assert commit(view, "adopted", Ruling((StateAdd(Term("m", ())),))) == after
        with pytest.raises(StateError, match="read-only term"):
            commit(view, "sent", Ruling((StateAdd(Term("clock", (4,))),)))

    def test_a_ruling_with_no_state_op_commits_the_state_its_view_overlays(self):
        base = ControlState([Term("n", (0,))])
        view = base.with_overlay([Term("clock", (3,))])
        for ops in ((), (Forward("x", Term("m")), AuditLog()), (Block("no"),)):
            assert commit(view, "sent", Ruling(ops)) is base
            assert commit(base, "sent", Ruling(ops)) is base
        # a view of a view commits the state under both
        assert commit(view.with_overlay([Term("clock", (4,))]), "sent", Ruling()) is base

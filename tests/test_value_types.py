"""The slotted dataclass value types of ``fds.core`` against frozen-dataclass
twins, and the classification a ``Ruling`` makes of its ops."""

import copy
import pickle
from dataclasses import is_dataclass, make_dataclass
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fds.core import (
    Adopted,
    AgentName,
    Arrived,
    AuditLog,
    Block,
    Deliver,
    ExceptionEvent,
    FdsError,
    Forward,
    ImposeObligation,
    ObligationDue,
    RepealObligation,
    Ruling,
    Sent,
    StateAdd,
    StateRemove,
    StateReplace,
    Term,
)

EVENTS = (Adopted, Sent, Arrived, ObligationDue, ExceptionEvent)
OPS = (Forward, Deliver, StateReplace, StateAdd, StateRemove, ImposeObligation,
       RepealObligation, AuditLog, Block)
TYPES = (AgentName,) + EVENTS + OPS


def _twin_class(cls):
    twin = make_dataclass(cls.__name__, [(f, object) for f in cls.__match_args__], frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: _twin_class(cls) for cls in TYPES}


def _twin(v):
    """``v`` as an instance of its type's frozen-dataclass twin, nested
    values included; terms are their own twins (``test_core`` checks them
    against theirs)."""
    if is_dataclass(v):
        return TWINS[v.__class__](*[_twin(getattr(v, f)) for f in v.__match_args__])
    return v


TERMS = st.builds(Term, st.sampled_from("fgm"),
                  st.lists(st.one_of(st.integers(-3, 3), st.sampled_from("ab")),
                           max_size=2).map(tuple))
NAMES = st.builds(AgentName, st.sampled_from("ab"), st.sampled_from(["", "D1"]))
FIELDS = {
    "name": st.one_of(TERMS, st.sampled_from("ab")),
    "division": st.sampled_from(["", "D1"]),
    "target": st.one_of(NAMES, st.sampled_from("ab")),
    "sender": NAMES,
    "due_in": st.integers(0, 3),
    "reason": st.sampled_from(["", "no-rule", "x"]),
}


def values(cls):
    """Instances of ``cls`` over a few field values, so equal fields recur."""
    return st.builds(cls, *[FIELDS.get(f, TERMS) for f in cls.__match_args__])


ANY_VALUE = st.one_of(*[values(cls) for cls in TYPES])


class TestValueTypes:
    @given(ANY_VALUE, ANY_VALUE)
    def test_eq_hash_and_repr_are_the_frozen_dataclass_ones(self, a, b):
        for x, y in ((a, b), (a, copy.deepcopy(a))):
            assert (x == y) == (_twin(x) == _twin(y))
            assert (x != y) == (_twin(x) != _twin(y))
            assert hash(x) == hash(_twin(x))
            assert repr(x) == repr(_twin(x))
        assert a != _twin(a) and a != tuple(getattr(a, f) for f in a.__match_args__)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_types_with_equal_fields_compare_unequal(self, arity):
        args = (Term("m", (1,)), Term("n"))[:arity]
        same = [cls(*args) for cls in TYPES if len(cls.__match_args__) == arity]
        assert len(same) >= 5
        for a, b in combinations(same, 2):
            assert a != b and not a == b, (a, b)
        assert Deliver(args[0]) != StateAdd(args[0])

    @given(ANY_VALUE)
    def test_values_are_slotted_and_copy_to_equals(self, v):
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.other = 1
        for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert c == v and c.__class__ is v.__class__ and repr(c) == repr(v)

    def test_defaults_and_the_empty_agent_name(self):
        assert AgentName("a") == AgentName("a", "")
        assert AuditLog() == AuditLog() and Block().reason == ""
        with pytest.raises(FdsError):
            AgentName("")


OP_VALUES = st.one_of(*[values(cls) for cls in OPS])
OP_TUPLES = st.lists(OP_VALUES, max_size=6).map(tuple)
# a ruling's twin is over its ops alone: its classification is derived
RULING_TWIN = make_dataclass("Ruling", [("ops", object)], frozen=True)


def _classified(r):
    """``r``'s classification, checked against a plain scan of its ops."""
    ops = r.ops
    assert r.block is next((o for o in ops if isinstance(o, Block)), None)
    assert r.blocks() == any(isinstance(o, Block) for o in ops)
    assert r.audits == any(isinstance(o, AuditLog) for o in ops)
    assert r.obliges == any(isinstance(o, (ImposeObligation, RepealObligation))
                            for o in ops)
    return r.block, r.audits, r.obliges


class TestRulingClassification:
    @given(OP_TUPLES, OP_TUPLES)
    def test_fields_equal_a_plain_scan_of_the_ops(self, ops, others):
        r = Ruling(ops)
        fields = _classified(r)
        assert r.ops is ops
        # copies and pickles keep the classification, and compare, hash and
        # print like a frozen dataclass over ops
        for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert c.__class__ is Ruling and c.ops == ops
            assert _classified(c) == fields
            assert c == r and hash(c) == hash(r) and repr(c) == repr(r)
        twin, other = RULING_TWIN(ops), Ruling(others)
        assert (r == other) == (twin == RULING_TWIN(others))
        assert (r != other) == (twin != RULING_TWIN(others))
        assert hash(r) == hash(twin) and repr(r) == repr(twin)

    def test_eq_repr_and_hash_are_over_ops(self):
        r = Ruling((Block("x"), AuditLog()))
        assert r == Ruling((Block("x"), AuditLog()))
        assert hash(r) == hash(Ruling((Block("x"), AuditLog())))
        assert r != Ruling((Block("y"),))
        assert repr(r) == "Ruling(ops=(Block(reason='x'), AuditLog()))"

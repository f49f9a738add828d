"""Core value types shared by every other module.

Terms, interactive events, ruling operations, per-agent control state and
law identity by hash. Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Union


class FdsError(Exception):
    """Base class for errors raised by the framework runtime."""


class TermSyntaxError(FdsError):
    pass


class StateError(FdsError):
    """A state update referenced a term that is not there (law bug)."""


TermArg = Union[int, str, "Term"]


class Term:
    """A ground functional term, e.g. ``changeDelay(50)`` or ``order("x",30)``.

    Immutable, slotted and without an instance ``__dict__``. ``canonical()``
    renders the text on first use and keeps it, so a term is rendered at
    most once however often it is sorted, recorded or nested in another.
    Equality, hashing and ``repr`` are those of a frozen dataclass over
    ``(functor, args)``; the kept text takes no part in them.
    """

    __slots__ = ("functor", "args", "_text")

    def __init__(self, functor: str, args: tuple = ()):
        _set_functor(self, functor)
        _set_args(self, args)
        _set_text(self, None)

    def canonical(self) -> str:
        text = self._text
        if text is None:
            if self.args:
                text = "%s(%s)" % (self.functor, ",".join(_render_arg(a) for a in self.args))
            else:
                text = self.functor
            _set_text(self, text)
        return text

    def __str__(self) -> str:
        return self.canonical()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.functor, self.args) == (other.functor, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.functor, self.args))

    def __repr__(self):
        return "%s(functor=%r, args=%r)" % (self.__class__.__qualname__, self.functor,
                                            self.args)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ refuses
        return Term, (self.functor, self.args)


# slot setters: the only writes a Term ever sees, from __init__ and the memo
_set_functor = Term.functor.__set__
_set_args = Term.args.__set__
_set_text = Term._text.__set__


def _render_arg(a: TermArg) -> str:
    if isinstance(a, bool):
        raise TermSyntaxError("boolean term arguments are not supported")
    if isinstance(a, int):
        return str(a)
    if isinstance(a, str):
        return '"%s"' % a.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(a, Term):
        return a.canonical()
    raise TermSyntaxError("unsupported term argument: %r" % (a,))


def parse_term(text: str) -> Term:
    """Parse the canonical term syntax. Bare lowercase atoms read as strings."""
    term, pos = _parse_term(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TermSyntaxError("trailing input at %d in %r" % (pos, text))
    return term


def as_parsed(t: Term) -> Term:
    """What ``parse_term(t.canonical())`` returns, without rendering or
    parsing, for a term whose functors are identifiers: a zero-arity term
    nested as an argument reads back as its bare atom, a string. Returns
    ``t`` itself when no argument changes, which is the common case."""
    args = None
    for i, a in enumerate(t.args):
        if isinstance(a, Term):
            b = as_parsed(a) if a.args else a.functor
            if b is not a:
                if args is None:
                    args = list(t.args)
                args[i] = b
    return t if args is None else Term(t.functor, tuple(args))


def parse_terms(text: str) -> list:
    """Parse a ``;``-separated list of terms, as ``ControlState.canonical``
    writes a state and the trace an overlay. A ``;`` inside a string
    argument is part of the string. Empty text is the empty list."""
    terms, pos = [], _skip_ws(text, 0)
    if pos == len(text):
        return terms
    while True:
        term, pos = _parse_term(text, pos)
        terms.append(term)
        pos = _skip_ws(text, pos)
        if pos == len(text):
            return terms
        if text[pos] != ";":
            raise TermSyntaxError("expected ';' at %d in %r" % (pos, text))
        pos += 1


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in " \t":
        i += 1
    return i


def _parse_term(s: str, i: int):
    i = _skip_ws(s, i)
    j = i
    while j < len(s) and (s[j].isalnum() or s[j] == "_"):
        j += 1
    if j == i or not (s[i].isalpha() or s[i] == "_"):
        raise TermSyntaxError("expected functor at %d in %r" % (i, s))
    functor = s[i:j]
    j = _skip_ws(s, j)
    if j >= len(s) or s[j] != "(":
        return Term(functor), j
    args = []
    j += 1
    j = _skip_ws(s, j)
    if j < len(s) and s[j] == ")":
        return Term(functor, ()), j + 1
    while True:
        arg, j = _parse_arg(s, j)
        args.append(arg)
        j = _skip_ws(s, j)
        if j >= len(s):
            raise TermSyntaxError("unterminated term in %r" % s)
        if s[j] == ",":
            j += 1
            continue
        if s[j] == ")":
            return Term(functor, tuple(args)), j + 1
        raise TermSyntaxError("unexpected %r at %d in %r" % (s[j], j, s))


def _parse_arg(s: str, i: int):
    i = _skip_ws(s, i)
    if i >= len(s):
        raise TermSyntaxError("unexpected end of input in %r" % s)
    c = s[i]
    if c == '"':
        return _parse_string(s, i)
    if c.isdigit() or (c == "-" and i + 1 < len(s) and s[i + 1].isdigit()):
        j = i + 1
        while j < len(s) and s[j].isdigit():
            j += 1
        return int(s[i:j]), j
    if not (c.isalpha() or c == "_"):
        raise TermSyntaxError("unexpected %r at %d in %r" % (c, i, s))
    j = i
    while j < len(s) and (s[j].isalnum() or s[j] == "_"):
        j += 1
    k = _skip_ws(s, j)
    if k < len(s) and s[k] == "(":
        return _parse_term(s, i)
    # bare atom: reads as a string
    return s[i:j], j


def _parse_string(s: str, i: int):
    assert s[i] == '"'
    out = []
    j = i + 1
    while j < len(s):
        c = s[j]
        if c == "\\":
            if j + 1 >= len(s):
                break
            out.append(s[j + 1])
            j += 2
            continue
        if c == '"':
            return "".join(out), j + 1
        out.append(c)
        j += 1
    raise TermSyntaxError("unterminated string in %r" % s)


# ---------------------------------------------------------------------------
# agents and law identity


@dataclass(frozen=True)
class AgentName:
    name: str
    division: str = ""

    def __post_init__(self):
        if not self.name:
            raise FdsError("agent name must be non-empty")


def hash_law(canonical_text: str) -> str:
    """One-way digest identifying a law by its canonical text."""
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# interactive events


@dataclass(frozen=True)
class Adopted:
    cert: Term  # cert(name, division, issuer)

    kind = "adopted"


@dataclass(frozen=True)
class Sent:
    target: AgentName
    payload: Term

    kind = "sent"


@dataclass(frozen=True)
class Arrived:
    sender: AgentName
    sender_law: str
    payload: Term

    kind = "arrived"


@dataclass(frozen=True)
class ObligationDue:
    name: Term

    kind = "obligationDue"


@dataclass(frozen=True)
class ExceptionEvent:
    reason: str

    kind = "exception"


Event = Union[Adopted, Sent, Arrived, ObligationDue, ExceptionEvent]


# ---------------------------------------------------------------------------
# ruling operations


@dataclass(frozen=True)
class Forward:
    target: str
    payload: Term

    op = "forward"


@dataclass(frozen=True)
class Deliver:
    payload: Term
    certified_sender: Optional[str] = None

    op = "deliver"


@dataclass(frozen=True)
class StateReplace:
    old: Term
    new: Term

    op = "replace"


@dataclass(frozen=True)
class StateAdd:
    term: Term

    op = "add"


@dataclass(frozen=True)
class StateRemove:
    term: Term

    op = "remove"


@dataclass(frozen=True)
class ImposeObligation:
    name: Term
    due_in: int

    op = "oblige"


@dataclass(frozen=True)
class RepealObligation:
    name: Term

    op = "repeal"


@dataclass(frozen=True)
class AuditLog:
    record: Optional[Term] = None

    op = "audit"


@dataclass(frozen=True)
class Block:
    reason: str = ""

    op = "block"


Operation = Union[
    Forward,
    Deliver,
    StateReplace,
    StateAdd,
    StateRemove,
    ImposeObligation,
    RepealObligation,
    AuditLog,
    Block,
]


def op_canonical(op: Operation) -> str:
    if isinstance(op, Forward):
        return "forward(%s,%s)" % (_render_arg(op.target), op.payload.canonical())
    if isinstance(op, Deliver):
        return "deliver(%s)" % op.payload.canonical()
    if isinstance(op, StateReplace):
        return "replace %s <- %s" % (op.old.canonical(), op.new.canonical())
    if isinstance(op, StateAdd):
        return "add %s" % op.term.canonical()
    if isinstance(op, StateRemove):
        return "remove %s" % op.term.canonical()
    if isinstance(op, ImposeObligation):
        return "oblige %s in %d" % (op.name.canonical(), op.due_in)
    if isinstance(op, RepealObligation):
        return "repeal %s" % op.name.canonical()
    if isinstance(op, AuditLog):
        return "audit" if op.record is None else "audit %s" % op.record.canonical()
    if isinstance(op, Block):
        return "block(%s)" % _render_arg(op.reason)
    raise FdsError("unknown operation %r" % (op,))


# ---------------------------------------------------------------------------
# control state


class ControlState:
    """The per-agent term set maintained by a controller.

    A functor is single-valued unless the governing law declares it
    set-valued. Overlay terms (``clock``, peer identification) are injected
    per event, shadow the base state, and are never written back.

    A state is a persistent value: no update changes it, and versions share
    everything an update does not touch. ``_terms`` maps each functor to a
    tuple of its base terms in ``Term.canonical`` order; ``_overlay`` maps
    each overlay functor to its injected terms. Neither is ever mutated.

    - ``add``, ``replace`` and ``remove`` copy the functor dict and rebuild
      only the bucket they touch, inserting at the sorted position.
    - ``with_overlay`` and ``without_overlay`` share the base dict and
      change only the overlay.
    - Building a state from an iterable sorts each bucket once.
    - ``canonical()`` is computed at most once per state, by joining the
      terms' kept texts, and versions that differ only in their overlay
      share it. Buckets sort and bisect on the same kept texts.
    """

    __slots__ = ("_terms", "multi", "_overlay", "_canonical")

    def __init__(self, terms: Iterable[Term] = (), multi: frozenset = frozenset(),
                 overlay: Iterable[Term] = ()):
        buckets = {}
        for t in terms:
            bucket = buckets.setdefault(t.functor, [])
            if bucket and t.functor not in multi:
                raise StateError("duplicate-term: functor %r is single-valued" % t.functor)
            bucket.append(t)
        self.multi = multi
        # dict.fromkeys drops repeats of a set-valued term, keeping the first
        self._terms = {f: tuple(sorted(dict.fromkeys(b), key=Term.canonical))
                       for f, b in buckets.items()}
        self._overlay = _group(overlay)
        self._canonical = None

    def _version(self, terms: dict, overlay: dict, canonical=None) -> "ControlState":
        """A new state over the given (shared, never mutated) dicts."""
        st = ControlState.__new__(ControlState)
        st.multi = self.multi
        st._terms = terms
        st._overlay = overlay
        st._canonical = canonical
        return st

    def terms(self):
        """Base (persisted) terms in canonical order."""
        out = []
        for f in sorted(self._terms):
            out.extend(self._terms[f])
        return out

    def visible(self, functor: str):
        """Visible terms for a functor, overlay shadowing base, without a copy."""
        if functor in self._overlay:
            return self._overlay[functor]
        return self._terms.get(functor, ())

    def lookup(self, functor: str):
        """Visible terms for a functor as a new list."""
        return list(self.visible(functor))

    def with_overlay(self, terms: Iterable[Term]) -> "ControlState":
        return self._version(self._terms, _group(terms), self._canonical)

    def without_overlay(self) -> "ControlState":
        if not self._overlay:
            return self
        return self._version(self._terms, {}, self._canonical)

    def replace(self, old: Term, new: Term) -> "ControlState":
        self._check_writable(old)
        terms = dict(self._terms)
        _drop(terms, old)
        self._put(terms, new)
        return self._version(terms, self._overlay)

    def add(self, term: Term) -> "ControlState":
        self._check_writable(term)
        terms = dict(self._terms)
        self._put(terms, term)
        return self._version(terms, self._overlay)

    def remove(self, term: Term) -> "ControlState":
        self._check_writable(term)
        terms = dict(self._terms)
        _drop(terms, term)
        return self._version(terms, self._overlay)

    def _check_writable(self, t: Term):
        if t.functor in self._overlay:
            raise StateError("read-only term %r" % t.functor)

    def _put(self, terms: dict, t: Term):
        """Insert ``t`` into its bucket of ``terms`` (a private copy)."""
        bucket = terms.get(t.functor, ())
        if bucket and t.functor not in self.multi:
            raise StateError("duplicate-term: functor %r is single-valued" % t.functor)
        if t not in bucket:
            # after any equal keys, as appending and then sorting stably would
            i = bisect_right(bucket, t.canonical(), key=Term.canonical)
            terms[t.functor] = bucket[:i] + (t,) + bucket[i:]

    def canonical(self) -> str:
        if self._canonical is None:
            self._canonical = ";".join([t.canonical() for t in self.terms()])
        return self._canonical

    def __eq__(self, other):
        return isinstance(other, ControlState) and self.canonical() == other.canonical()

    def __repr__(self):
        return "ControlState{%s}" % self.canonical()


def _group(terms: Iterable[Term]) -> dict:
    """Overlay terms by functor, in the order given."""
    out = {}
    for t in terms:
        out.setdefault(t.functor, []).append(t)
    return out


def _drop(terms: dict, t: Term):
    """Remove ``t`` from its bucket of ``terms`` (a private copy)."""
    bucket = terms.get(t.functor, ())
    try:
        i = bucket.index(t)
    except ValueError:
        raise StateError("stale-state-update: %s not in state" % t.canonical()) from None
    rest = bucket[:i] + bucket[i + 1:]
    if rest:
        terms[t.functor] = rest
    else:
        del terms[t.functor]


@dataclass(frozen=True)
class Ruling:
    """The law's decision for one event: new state plus ordered operations."""

    new_state: ControlState
    ops: tuple = ()

    def blocks(self) -> bool:
        return any(isinstance(o, Block) for o in self.ops)

    def canonical_ops(self) -> str:
        return ";".join(op_canonical(o) for o in self.ops)


def apply_ruling(state: ControlState, ruling: Ruling) -> ControlState:
    """Apply the state-update operations of a ruling, in order.

    Interactive operations (forward, deliver, block, ...) are ignored here;
    they are the controller's business.
    """
    st = state
    for op in ruling.ops:
        if isinstance(op, StateReplace):
            st = st.replace(op.old, op.new)
        elif isinstance(op, StateAdd):
            st = st.add(op.term)
        elif isinstance(op, StateRemove):
            st = st.remove(op.term)
    return st

"""Core value types shared by every other module.

Terms, interactive events, ruling operations, per-agent control state and
law identity by hash. Everything here is side-effect free, and no value is
changed once built: terms and states refuse or never make a write, and the
other value types, slotted dataclasses declared with ``value``, are written
only by their ``__init__``.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass, field
from functools import partial
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
    A zero-arity term renders bare at the top (``flush``) and with its
    parentheses as an argument (``f(a())``), so ``parse_term`` reads every
    term's text back as that term. Equality, hashing and ``repr`` are those
    of a frozen dataclass over ``(functor, args)``; the kept text takes no
    part in them.
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
                text = "%s(%s)" % (self.functor, ",".join(map(_render_arg, self.args)))
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
    cls = a.__class__
    if cls is Term:
        # nested, a zero-arity term keeps its parentheses: a bare atom reads
        # as a string
        return a.canonical() if a.args else a.functor + "()"
    if cls is int:
        return str(a)
    if cls is str:
        return quote(a)
    raise TermSyntaxError("boolean term arguments are not supported" if cls is bool
                          else "unsupported term argument: %r" % (a,))


# ---------------------------------------------------------------------------
# the lexical grammar of term text and law text

# a backslash in a string stands for the one character after it
_ESCAPE = r"\\."

# The tokens of term text and of law text, each with the blanks before it.
# ``bad`` is any other character, so every text is a run of tokens and blanks.
TOKEN = re.compile(r"""
    [ \t\r\n]*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
      | (?P<string>"(?:[^"\\]|%s)*")
      | (?P<op><-|<=|>=|==|!=|[<>+\-*@:(){},;])
      | (?P<comment>\#[^\n]*)
      | (?P<bad>[^ \t\r\n])
    )
""" % _ESCAPE, re.VERBOSE | re.DOTALL)

_scan = TOKEN.match
_unescape = re.compile(_ESCAPE, re.DOTALL).sub


def quote(s: str) -> str:
    """A string as a string token."""
    if "\\" in s or '"' in s:
        s = s.replace("\\", "\\\\").replace('"', '\\"')
    return '"%s"' % s


def unquote(token: str) -> str:
    """The string a string token stands for."""
    body = token[1:-1]
    return _unescape(lambda m: m[0][1], body) if "\\" in body else body


def parse_term(text: str) -> Term:
    """Parse the canonical term syntax. A bare identifier nested as an
    argument reads as a string."""
    term, m = _read_term(text, _scan(text))
    if m is not None:
        raise _unexpected(text, m)
    return term


def parse_terms(text: str) -> list:
    """Parse a ``;``-separated list of terms, as ``ControlState.canonical``
    writes a state and the trace an overlay. A ``;`` inside a string
    argument is part of the string. Empty text is the empty list."""
    m = _scan(text)
    if m is None:
        return []
    terms = []
    while True:
        term, m = _read_term(text, m)
        terms.append(term)
        if m is None:
            return terms
        if m["op"] != ";":
            raise _unexpected(text, m)
        m = _scan(text, m.end())


def _unexpected(text: str, m) -> TermSyntaxError:
    if m is None:
        return TermSyntaxError("unexpected end of input in %r" % text)
    kind = m.lastgroup
    what = "unterminated string" if m[kind] == '"' else "unexpected %r" % m[kind]
    return TermSyntaxError("%s at %d in %r" % (what, m.start(kind), text))


def _read_term(text: str, m):
    """The term whose functor is the token ``m``, and the token after it."""
    functor = None if m is None else m["ident"]
    if functor is None:
        raise _unexpected(text, m)
    pos = m.end()
    # no blank between a functor and its "("
    if text[pos:pos + 1] != "(":
        return Term(functor), _scan(text, pos)
    m = _scan(text, pos + 1)
    if m is not None and m["op"] == ")":
        return Term(functor), _scan(text, m.end())
    args = []
    while True:
        arg, m = _read_arg(text, m)
        args.append(arg)
        p = None if m is None else m["op"]
        if p == ")":
            return Term(functor, tuple(args)), _scan(text, m.end())
        if p != ",":
            raise _unexpected(text, m)
        m = _scan(text, m.end())


def _read_arg(text: str, m):
    """The argument that starts at the token ``m``, and the token after it."""
    kind = None if m is None else m.lastgroup
    if kind == "number":
        return _integer(text, m), _scan(text, m.end())
    if kind == "string":
        return unquote(m["string"]), _scan(text, m.end())
    if kind == "ident":
        if text[m.end():m.end() + 1] == "(":
            return _read_term(text, m)
        return m["ident"], _scan(text, m.end())
    if kind == "op" and m["op"] == "-":
        # the minus sign of a negative integer, directly before its digits
        n = _scan(text, m.end())
        if n is not None and n.lastgroup == "number" and n.start("number") == m.end():
            return -_integer(text, n), _scan(text, n.end())
    raise _unexpected(text, m)


def _integer(text: str, m) -> int:
    """The integer of the number token ``m``."""
    try:
        return int(m["number"])
    except ValueError:  # more digits than ``int`` converts
        raise TermSyntaxError("integer of %d digits at %d in %r"
                              % (len(m["number"]), m.start("number"), text)) from None


# ---------------------------------------------------------------------------
# value types: agent names and law identity


# Every value type but ``Term`` is a slotted dataclass: equality, hashing and
# ``repr`` are a frozen dataclass's, per type, so values of two types never
# compare equal. It is not frozen, because a frozen dataclass writes each
# field through ``object.__setattr__``; ``unsafe_hash`` is sound because
# nothing assigns a field after ``__init__``.
value = partial(dataclass, slots=True, unsafe_hash=True)


@value(init=False)
class AgentName:
    name: str
    division: str

    def __init__(self, name: str, division: str = ""):
        if not name:
            raise FdsError("agent name must be non-empty")
        self.name = name
        self.division = division


def hash_law(canonical_text: str) -> str:
    """One-way digest identifying a law by its canonical text."""
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# interactive events


@value
class Adopted:
    cert: Term  # cert(name, division, issuer)
    kind = "adopted"


@value
class Sent:
    target: AgentName
    payload: Term
    kind = "sent"


@value
class Arrived:
    sender: AgentName
    sender_law: str
    payload: Term
    kind = "arrived"


@value
class ObligationDue:
    name: Term
    kind = "obligationDue"


@value
class ExceptionEvent:
    reason: str
    kind = "exception"


Event = Union[Adopted, Sent, Arrived, ObligationDue, ExceptionEvent]


# ---------------------------------------------------------------------------
# ruling operations
#
# The nine op types serve twice. In a ruling their fields hold values; in a
# parsed rule (``lawlang.GroundRule.ops``) they hold the law's expressions,
# with None for a bare ``forward``'s target and payload or a bare
# ``deliver``'s payload, and ``""`` for a bare ``block``'s reason.


@value
class Forward:
    target: str
    payload: Term


@value
class Deliver:
    payload: Term


@value
class StateReplace:
    old: Term
    new: Term


@value
class StateAdd:
    term: Term


@value
class StateRemove:
    term: Term


@value
class ImposeObligation:
    name: Term
    due_in: int


@value
class RepealObligation:
    name: Term


@value
class AuditLog:
    pass


@value
class Block:
    reason: str = ""


# each op type's own ``canonical()``: its text in a ruling record's ``ops``
Forward.canonical = lambda op: "forward(%s,%s)" % (quote(op.target), op.payload.canonical())
Deliver.canonical = lambda op: "deliver(%s)" % op.payload.canonical()
StateReplace.canonical = lambda op: "replace %s <- %s" % (op.old.canonical(), op.new.canonical())
StateAdd.canonical = lambda op: "add " + op.term.canonical()
StateRemove.canonical = lambda op: "remove " + op.term.canonical()
ImposeObligation.canonical = lambda op: "oblige %s in %d" % (op.name.canonical(), op.due_in)
RepealObligation.canonical = lambda op: "repeal " + op.name.canonical()
AuditLog.canonical = lambda op: "audit"
Block.canonical = lambda op: "block(%s)" % quote(op.reason)


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
    - ``overlaid`` shares the base dict and an overlay map, as
      ``controller.Overlays`` builds it once, and keeps the base state in
      ``_base``, for ``commit``. ``with_overlay`` groups overlay terms into
      such a map, and ``without_overlay`` drops the overlay.
    - Building a state from an iterable sorts each bucket once.
    - ``canonical()`` is computed at most once per state, by joining the
      terms' kept texts, and versions that differ only in their overlay
      share it. Buckets sort and bisect on the same kept texts.
    """

    __slots__ = ("_terms", "multi", "_overlay", "_canonical", "_base")

    def __init__(self, terms: Iterable[Term] = (), multi: frozenset = frozenset()):
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
        self._overlay = {}
        self._canonical = None
        self._base = None

    def _version(self, terms: dict, overlay: dict, canonical=None, base=None) -> "ControlState":
        """A new state over the given (shared, never mutated) dicts."""
        st = ControlState.__new__(ControlState)
        st.multi = self.multi
        st._terms = terms
        st._overlay = overlay
        st._canonical = canonical
        st._base = base
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

    def overlaid(self, overlay: dict) -> "ControlState":
        """This state seen with ``overlay`` (each overlay functor to its
        terms) in place of any overlay it has."""
        return self._version(self._terms, overlay, self._canonical,
                             self._base if self._overlay else self)

    def with_overlay(self, terms: Iterable[Term]) -> "ControlState":
        overlay = {}
        for t in terms:
            overlay.setdefault(t.functor, []).append(t)
        return self.overlaid(overlay)

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


@value(init=False)
class Ruling:
    """The law's decision for one event: its ordered operations.

    Classified once, when built: ``block`` is its first ``Block`` op or
    None, ``audits`` whether an op is an ``AuditLog``, and ``obliges``
    whether an op imposes or repeals an obligation, so no caller scans
    ``ops`` for them. A ruling holds no state: ``commit`` applies its
    state ops to the chain's state. Equality, hashing and ``repr`` are
    over ``ops`` alone.
    """

    ops: tuple
    block: Optional[Block] = field(init=False, repr=False, compare=False)
    audits: bool = field(init=False, repr=False, compare=False)
    obliges: bool = field(init=False, repr=False, compare=False)

    def __init__(self, ops: tuple = ()):
        self.ops = ops
        self.block = None
        self.audits = self.obliges = False
        for o in ops:
            cls = o.__class__
            if cls is Block:
                if self.block is None:
                    self.block = o
            elif cls is AuditLog:
                self.audits = True
            elif cls is ImposeObligation or cls is RepealObligation:
                self.obliges = True

    def blocks(self) -> bool:
        return self.block is not None

    def canonical_ops(self) -> str:
        return ";".join([o.canonical() for o in self.ops])


def commit(view: ControlState, kind: str, ruling: Ruling):
    """The commit rule: the base state a chain moves to after ``ruling`` on
    an event of ``kind``, ruled in ``view`` (its state with the event's
    overlay). A ruling that blocks an ``adopted`` event commits nothing
    (None): the adoption is refused. Any other, blocked or not, commits its
    state ops, applied in order in ``view``, so writing an overlay term is a
    ``read-only term`` error. A ruling with no state op commits the very
    state ``view`` overlays, so it builds no state. Its other ops are the
    controller's business.
    """
    if ruling.block is not None and kind == "adopted":
        return None
    st = view
    for op in ruling.ops:
        cls = op.__class__
        if cls is StateReplace:
            st = st.replace(op.old, op.new)
        elif cls is StateAdd:
            st = st.add(op.term)
        elif cls is StateRemove:
            st = st.remove(op.term)
    if st is view and view._base is not None:
        return view._base
    return st._version(st._terms, {}, st._canonical) if st._overlay else st

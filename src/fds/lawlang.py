"""Parser, compiler and evaluator for the declarative law language.

A law is a list of event-condition-action rules over an agent's control
state. Rules are tried in textual order; the first rule whose pattern
unifies with the event and whose guard holds supplies the ruling. A law
also carries a default directive for unmatched send/arrive events, an
initial control state, set-valued functor declarations, and the meta
permissions that circumscribe subordinate laws.

Law text is read with the tokens of term text, ``core.TOKEN``: the same
identifiers, unsigned integers, strings with their escapes and
punctuation, plus ``#`` comments. Tokens are ``(kind, value, pos)``
tuples; line and column are computed from ``pos`` only for an error.

Parsing yields a syntax tree per rule. The first time a rule is tried it
is compiled, once, into three closures (``CompiledRule``): a pattern
matcher specialised to the pattern's shape, a guard whose state queries
and comparisons pass on to the rest of the conjunction, and an ops
builder whose constant parts are built ahead of time. Events run only the
closures; nothing walks the tree after compilation (Feeley & Lapalme,
"Using closures for code generation", 1987).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    Adopted,
    Arrived,
    AuditLog,
    Block,
    ControlState,
    Deliver,
    Event,
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
    TOKEN,
    Term,
    commit,
    quote,
    unquote,
    value,
)


class LawSyntaxError(FdsError):
    def __init__(self, msg, line=None, col=None):
        loc = "" if line is None else " at line %d, col %d" % (line, col)
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class GuardError(FdsError):
    """A guard or template referenced something unresolvable (law bug)."""


EVENT_KINDS = {
    "adopted": 1,
    "sent": 3,
    "arrived": 3,
    "obligationDue": 1,
    "exception": 1,
}

# the header sections, in the order a law must write them
_SECTIONS = ("default", "multi", "init", "meta")

META_MODES = ("sealed", "tighten", "default-overridable", "open")

# restrictiveness ranking, most restrictive first
MODE_RANK = {"sealed": 3, "tighten": 2, "default-overridable": 1, "open": 0}


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Var:
    name: str


class _Wildcard:
    def __repr__(self):
        return "_"


WILDCARD = _Wildcard()


@dataclass(frozen=True)
class PTerm:
    """A term pattern/template; args may hold variables or expressions."""

    functor: str
    args: tuple = ()


@dataclass(frozen=True)
class BinExpr:
    op: str  # '+' or '-'
    left: object
    right: object


@dataclass(frozen=True)
class FunctorOf:
    var: Var


@dataclass(frozen=True)
class StateQuery:
    pattern: PTerm


@dataclass(frozen=True)
class Comparison:
    op: str  # == != < <= > >=
    left: object
    right: object


GuardAtom = object  # StateQuery | Comparison


@dataclass(frozen=True)
class GroundRule:
    rule_id: str
    aspect: str
    event_kind: str
    pattern: tuple  # arg patterns, arity fixed by event kind
    guard: tuple  # guard atoms
    ops: tuple  # core ops whose fields hold law expressions (see core's ruling operations)

    @cached_property
    def compiled(self) -> "CompiledRule":
        """The rule's closures, compiled on first use and kept."""
        return CompiledRule(self)


@dataclass
class LawDoc:
    name: str
    kind: str  # 'root' | 'delta'
    superior: Optional[str]
    default: Optional[str]  # 'block' | 'pass' | None (inherit)
    multi: frozenset
    init: tuple  # ground Terms
    meta: tuple  # (aspect, mode) pairs, declared order
    rules: tuple  # GroundRules, textual order

    def canonical(self) -> str:
        return serialize_law(self)

    def meta_mode(self, aspect: str) -> Optional[str]:
        """Explicit meta mode for an aspect, honoring '*' suffix patterns."""
        for key, mode in self.meta:
            if aspect_matches(key, aspect):
                return mode
        return None

    def initial_state(self) -> ControlState:
        return ControlState(self.init, self.multi)


def aspect_matches(pattern: str, aspect: str) -> bool:
    if pattern.endswith("*"):
        return aspect.startswith(pattern[:-1])
    return pattern == aspect


# ---------------------------------------------------------------------------
# tokenizer


def _tokenize(text: str):
    """The ``(kind, value, pos)`` of each token of ``core.TOKEN`` in the law
    text, comments left out: kind is ident, number, string or op."""
    toks = []
    for m in TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise LawSyntaxError("unexpected character %r" % m[kind],
                                 *_line_col(text, m.start(kind)))
        if kind != "comment":
            toks.append((kind, m[kind], m.start(kind)))
    return toks


def _line_col(text: str, pos: int):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Cursor:
    def __init__(self, toks, text):
        self.toks = toks
        self.text = text
        self.i = 0

    def peek(self):
        """The next ``(kind, value, pos)``, or None at the end."""
        return self.toks[self.i] if self.i < len(self.toks) else None

    def at(self, value: str) -> bool:
        t = self.peek()
        return t is not None and t[1] == value

    def next(self):
        t = self.peek()
        if t is None:
            raise LawSyntaxError("unexpected end of law text")
        self.i += 1
        return t

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.i += 1
            return True
        return False

    def expect(self, value: str):
        t = self.peek()
        if t is None or t[1] != value:
            got = "end of text" if t is None else repr(t[1])
            self.err("expected %r, got %s" % (value, got), t)
        self.i += 1
        return t

    def err(self, msg, tok=None):
        """Raise ``msg`` at ``tok``, by default the next token."""
        t = self.peek() if tok is None else tok
        raise LawSyntaxError(msg, *(_line_col(self.text, t[2]) if t else (None, None)))

    def word(self) -> str:
        """A maximal run of adjacent tokens (no intervening whitespace).

        Used for law names, hashes, and aspect keys, which may contain
        '-', ':' and '*' (e.g. ``send:rc``, ``interdivision-send``, ``send:*``).
        """
        t = self.next()
        if t[0] not in ("ident", "number") and t[1] != "*":
            self.err("expected a word", t)
        parts = [t[1]]
        end = t[2] + len(t[1])
        while True:
            nxt = self.peek()
            if nxt is None or nxt[2] != end:
                break
            if nxt[0] in ("ident", "number") or nxt[1] in ("-", ":", "*"):
                parts.append(nxt[1])
                end = nxt[2] + len(nxt[1])
                self.i += 1
            else:
                break
        return "".join(parts)


# ---------------------------------------------------------------------------
# parser


def parse_law(text: str) -> LawDoc:
    cur = _Cursor(_tokenize(text), text)
    cur.expect("law")
    name = cur.word()
    superior = None
    if cur.accept("extends"):
        superior = cur.word()
    default = None
    if cur.accept("default"):
        t = cur.next()
        if t[1] not in ("block", "pass"):
            cur.err("default must be 'block' or 'pass'", t)
        default = t[1]
    multi = []
    if cur.accept("multi"):
        cur.expect("{")
        while not cur.accept("}"):
            t = cur.next()
            if t[0] != "ident":
                cur.err("expected functor name", t)
            multi.append(t[1])
            if not cur.at("}"):
                cur.expect(";")
    init = []
    if cur.accept("init"):
        cur.expect("{")
        while not cur.accept("}"):
            pt = _parse_pterm(cur)
            init.append(_ground(pt, cur))
            if not cur.at("}"):
                cur.expect(";")
    meta = []
    if cur.accept("meta"):
        cur.expect("{")
        while not cur.accept("}"):
            key = cur.word()
            mode = cur.word()
            if mode not in META_MODES:
                cur.err("unknown meta mode %r" % mode)
            meta.append((key, mode))
            if not cur.at("}"):
                cur.expect(";")
    rules = []
    while cur.accept("rule"):
        rules.append(_parse_rule(cur))
    t = cur.peek()
    if t is not None and t[1] in _SECTIONS:
        cur.err("%r section out of place: the header sections come before the rules, "
                "in the order %s" % (t[1], ", ".join(_SECTIONS)))
    if t is not None:
        cur.err("unexpected %r" % t[1])
    kind = "root" if superior is None else "delta"
    if kind == "root" and default is None:
        raise LawSyntaxError("root law must declare a default directive")
    doc = LawDoc(
        name=name,
        kind=kind,
        superior=superior,
        default=default,
        multi=frozenset(multi),
        init=tuple(init),
        meta=tuple(meta),
        rules=tuple(rules),
    )
    for rule in doc.rules:
        _check_rule(rule)
    return doc


def _parse_rule(cur: _Cursor) -> GroundRule:
    rule_id = cur.word()
    cur.expect("aspect")
    aspect = cur.word()
    cur.expect("on")
    kind_tok = cur.next()
    kind = kind_tok[1]
    if kind not in EVENT_KINDS:
        cur.err("unknown event kind %r" % kind, kind_tok)
    cur.expect("(")
    pattern = []
    if not cur.at(")"):
        while True:
            pattern.append(_parse_pattern_arg(cur))
            if not cur.accept(","):
                break
    cur.expect(")")
    if len(pattern) != EVENT_KINDS[kind]:
        cur.err("event %s takes %d pattern arguments, got %d"
                % (kind, EVENT_KINDS[kind], len(pattern)), kind_tok)
    guard = []
    if cur.accept("when"):
        while True:
            guard.append(_parse_guard_atom(cur))
            if not cur.accept(","):
                break
    cur.expect("do")
    cur.expect("{")
    ops = []
    while not cur.accept("}"):
        ops.append(_parse_op(cur))
        if not cur.at("}"):
            cur.expect(";")
    return GroundRule(rule_id, aspect, kind, tuple(pattern), tuple(guard), tuple(ops))


def _parse_pattern_arg(cur: _Cursor):
    if cur.peek() is None:
        cur.err("unexpected end of pattern")
    if cur.accept("_"):
        return WILDCARD
    node = _parse_expr(cur)
    _reject_arith(node, cur)
    return node


def _reject_arith(node, cur):
    if isinstance(node, (BinExpr, FunctorOf)):
        cur.err("arithmetic is not allowed in match patterns")
    if isinstance(node, PTerm):
        for a in node.args:
            _reject_arith(a, cur)


def _parse_guard_atom(cur: _Cursor):
    mark = cur.i
    # a term followed by @ is a state query, <pterm> @ CS; anything else is
    # read again as a comparison
    try:
        pt = _parse_pterm(cur)
    except LawSyntaxError:
        pt = None
    if pt is not None and cur.accept("@"):
        cs = cur.next()
        if cs[1] != "CS":
            cur.err("state query must end in @CS", cs)
        # a query pattern is matched against state terms, like an event pattern
        _reject_arith(pt, cur)
        return StateQuery(pt)
    cur.i = mark
    left = _parse_expr(cur)
    t = cur.next()
    if t[1] not in ("==", "!=", "<", "<=", ">", ">="):
        cur.err("expected comparison operator", t)
    right = _parse_expr(cur)
    return Comparison(t[1], left, right)


def _parse_expr(cur: _Cursor):
    node = _parse_primary(cur)
    while True:
        t = cur.peek()
        if t is not None and t[1] in ("+", "-"):
            cur.next()
            right = _parse_primary(cur)
            node = BinExpr(t[1], node, right)
        else:
            return node


def _parse_primary(cur: _Cursor):
    t = cur.peek()
    if t is None:
        cur.err("unexpected end of expression")
    kind, value, _ = t
    if value == "(":
        cur.next()
        node = _parse_expr(cur)
        cur.expect(")")
        return node
    if kind == "number":
        return _integer(cur, cur.next())
    if value == "-":
        cur.next()
        n = cur.next()
        if n[0] != "number":
            cur.err("expected number after unary minus", n)
        return -_integer(cur, n)
    if kind == "string":
        cur.next()
        return unquote(value)
    if kind == "ident":
        if value == "functor":
            nxt = cur.toks[cur.i + 1] if cur.i + 1 < len(cur.toks) else None
            if nxt is not None and nxt[1] == "(":
                cur.next()
                cur.expect("(")
                v = cur.next()
                if not _is_var_name(v[1]):
                    cur.err("functor() takes a variable", v)
                cur.expect(")")
                return FunctorOf(Var(v[1]))
        if _is_var_name(value):
            cur.next()
            return Var(value)
        return _parse_pterm_or_atom(cur)
    cur.err("unexpected %r in expression" % value)


def _integer(cur: _Cursor, t) -> int:
    """The integer of the number token ``t``."""
    try:
        return int(t[1])
    except ValueError:  # more digits than ``int`` converts
        cur.err("integer of %d digits" % len(t[1]), t)


def _is_var_name(name: str) -> bool:
    return bool(name) and (name[0].isupper())


def _parse_pterm_or_atom(cur: _Cursor):
    t = cur.next()
    kind, functor, pos = t
    if kind != "ident":
        cur.err("expected term or atom", t)
    nxt = cur.peek()
    # no blank between a functor and its "(", as in core.parse_term
    if nxt is not None and nxt[1] == "(" and nxt[2] == pos + len(functor):
        args = []
        cur.next()
        if not cur.at(")"):
            while True:
                if cur.accept("_"):
                    args.append(WILDCARD)
                else:
                    args.append(_parse_expr(cur))
                if not cur.accept(","):
                    break
        cur.expect(")")
        return PTerm(functor, tuple(args))
    # bare lowercase atom: a string literal
    return functor


def _parse_pterm(cur: _Cursor) -> PTerm:
    node = _parse_pterm_or_atom(cur)
    if isinstance(node, str):
        return PTerm(node, ())
    if isinstance(node, PTerm):
        return node
    cur.err("expected a term")


def _parse_op(cur: _Cursor):
    t = cur.next()
    kw = t[1]
    if kw == "forward":
        if cur.at("("):
            cur.next()
            target = _parse_expr(cur)
            cur.expect(",")
            payload = _parse_expr(cur)
            cur.expect(")")
            return Forward(target, payload)
        return Forward(None, None)
    if kw == "deliver":
        if cur.at("("):
            cur.next()
            payload = _parse_expr(cur)
            cur.expect(")")
            return Deliver(payload)
        return Deliver(None)
    if kw == "replace":
        old = _parse_pterm(cur)
        cur.expect("<-")
        new = _parse_pterm(cur)
        return StateReplace(old, new)
    if kw == "add":
        return StateAdd(_parse_pterm(cur))
    if kw == "remove":
        return StateRemove(_parse_pterm(cur))
    if kw == "oblige":
        name = _parse_pterm(cur)
        cur.expect("in")
        due = _parse_expr(cur)
        return ImposeObligation(name, due)
    if kw == "repeal":
        return RepealObligation(_parse_pterm(cur))
    if kw == "audit":
        return AuditLog()
    if kw == "block":
        if cur.at("("):
            cur.next()
            s = cur.next()
            if s[0] != "string":
                cur.err("block reason must be a string", s)
            cur.expect(")")
            return Block(unquote(s[1]))
        return Block()
    cur.err("unknown operation %r" % kw, t)


def _ground(pt: PTerm, cur) -> Term:
    args = []
    for a in pt.args:
        if isinstance(a, PTerm):
            args.append(_ground(a, cur))
        elif isinstance(a, (int, str)):
            args.append(a)
        else:
            cur.err("init terms must be ground")
    return Term(pt.functor, tuple(args))


# ---------------------------------------------------------------------------
# static checks


def _check_rule(rule: GroundRule):
    # patterns hold no arithmetic (``_reject_arith``): matching binds all their variables
    bound = {v for a in rule.pattern for v in _expr_vars(a)}
    for atom in rule.guard:
        if isinstance(atom, StateQuery):
            bound.update(_expr_vars(atom.pattern))
        else:
            for side in (atom.left, atom.right):
                for v in _expr_vars(side):
                    if v not in bound:
                        raise LawSyntaxError(
                            "unbound variable %s in guard of rule %s" % (v, rule.rule_id)
                        )
    for op in rule.ops:
        for v in _op_vars(op):
            if v not in bound:
                raise LawSyntaxError(
                    "unbound variable %s in operations of rule %s" % (v, rule.rule_id)
                )
    for op in rule.ops:
        if isinstance(op, (Forward, Deliver)):
            word, kind, arg = ("forward", "sent", "target") if isinstance(op, Forward) \
                else ("deliver", "arrived", "payload")
            if rule.event_kind not in (kind, "obligationDue"):
                raise LawSyntaxError("%s is only valid for %s/obligationDue rules (rule %s)"
                                     % (word, kind, rule.rule_id))
            if rule.event_kind == "obligationDue" and getattr(op, arg) is None:
                raise LawSyntaxError("%s in an obligationDue rule needs explicit %s (rule %s)"
                                     % (word, arg, rule.rule_id))


def _expr_vars(node):
    cls = node.__class__
    if cls is Var:
        yield node.name
    elif cls is PTerm:
        for a in node.args:
            yield from _expr_vars(a)
    elif cls is FunctorOf:
        yield node.var.name
    elif cls is BinExpr:
        yield from _expr_vars(node.left)
        yield from _expr_vars(node.right)


def _op_vars(op):
    for f in op.__match_args__:
        yield from _expr_vars(getattr(op, f))


# ---------------------------------------------------------------------------
# canonical serialization


def serialize_law(doc: LawDoc) -> str:
    lines = ["law %s" % doc.name]
    if doc.superior is not None:
        lines.append("extends %s" % doc.superior)
    if doc.default is not None:
        lines.append("default %s" % doc.default)
    if doc.multi:
        lines.append("multi { %s }" % "; ".join(sorted(doc.multi)))
    if doc.init:
        lines.append("init { %s }" % "; ".join(t.canonical() for t in doc.init))
    if doc.meta:
        lines.append("meta { %s }" % "; ".join("%s %s" % km for km in doc.meta))
    for r in doc.rules:
        lines.append(_render_rule(r))
    return "\n".join(lines) + "\n"


def _render_rule(r: GroundRule) -> str:
    head = "rule %s aspect %s on %s(%s)" % (
        r.rule_id,
        r.aspect,
        r.event_kind,
        ",".join(_render_node(a) for a in r.pattern),
    )
    if r.guard:
        head += " when " + ", ".join(_render_atom(a) for a in r.guard)
    body = "; ".join(_render_op(o) for o in r.ops)
    return "%s do { %s }" % (head, body)


def _render_node(node) -> str:
    if node is WILDCARD:
        return "_"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, int):
        return str(node)
    if isinstance(node, str):
        return quote(node)
    if isinstance(node, PTerm):
        # zero-argument term patterns keep their parentheses so they do not
        # re-read as bare string atoms
        return "%s(%s)" % (node.functor, ",".join(_render_node(a) for a in node.args))
    if isinstance(node, BinExpr):
        return "(%s %s %s)" % (_render_node(node.left), node.op, _render_node(node.right))
    if isinstance(node, FunctorOf):
        return "functor(%s)" % node.var.name
    raise FdsError("cannot render %r" % (node,))


def _render_atom(atom) -> str:
    if isinstance(atom, StateQuery):
        return "%s@CS" % _render_node(atom.pattern)
    return "%s %s %s" % (_render_node(atom.left), atom.op, _render_node(atom.right))


def _render_op(op) -> str:
    if isinstance(op, Forward):
        if op.target is None:
            return "forward"
        return "forward(%s, %s)" % (_render_node(op.target), _render_node(op.payload))
    if isinstance(op, Deliver):
        if op.payload is None:
            return "deliver"
        return "deliver(%s)" % _render_node(op.payload)
    if isinstance(op, StateReplace):
        return "replace %s <- %s" % (_render_node(op.old), _render_node(op.new))
    if isinstance(op, StateAdd):
        return "add %s" % _render_node(op.term)
    if isinstance(op, StateRemove):
        return "remove %s" % _render_node(op.term)
    if isinstance(op, ImposeObligation):
        return "oblige %s in %s" % (_render_node(op.name), _render_node(op.due_in))
    if isinstance(op, RepealObligation):
        return "repeal %s" % _render_node(op.name)
    if isinstance(op, AuditLog):
        return "audit"
    if isinstance(op, Block):
        if op.reason:
            return "block(%s)" % quote(op.reason)
        return "block"
    raise FdsError("cannot render op %r" % (op,))


# ---------------------------------------------------------------------------
# rules compiled to closures


def event_args(event: Event, state: ControlState):
    """Positional view of an event as seen by rule patterns."""
    if isinstance(event, Adopted):
        return "adopted", (event.cert,)
    if isinstance(event, Sent):
        return "sent", (_self_name(state), event.payload, event.target.name)
    if isinstance(event, Arrived):
        return "arrived", (event.sender.name, event.payload, _self_name(state))
    if isinstance(event, ObligationDue):
        return "obligationDue", (event.name,)
    return "exception", (event.reason,)


def _self_name(state: ControlState) -> str:
    for t in state.visible("name"):
        if t.args and isinstance(t.args[0], str):
            return t.args[0]
    return ""


class CompiledRule:
    """A rule as three closures, built once from its syntax tree.

    Each variable of the rule owns a slot in a list, numbered in the order
    matching first meets it, so whether an occurrence binds or compares is
    decided here rather than per event.

    - ``match(args)`` unifies the pattern with an event's positional args
      and returns a fresh slot list, or None.
    - ``guard(slots, state)`` fills the guard's slots in place and returns
      whether it holds; an empty guard always holds. State queries
      backtrack over candidate terms in canonical order, so a later
      comparison can reject one candidate and the query tries the next;
      the first complete solution wins.
    - ``build(slots, event)`` returns the ruling's operations. Sub-terms
      without variables, audit ops and block ops are built once, here.

    A part of a guard or template that references something unresolvable (an
    unbound variable, ``_`` where a value is needed) compiles to a closure
    that raises ``GuardError`` when evaluation reaches it, so a law error
    surfaces at the same point, with the same message, as it would if the
    tree were read per event.
    """

    __slots__ = ("match", "guard", "build")

    def __init__(self, rule: "GroundRule"):
        slots = {}  # variable name -> slot index
        pattern = _compile_args(rule.pattern, slots)
        self.guard = _compile_guard(rule.guard, slots)
        self.build = _compile_ops(rule.ops, slots)
        n = len(slots)

        def match(args):
            b = [None] * n
            return b if pattern(args, b) else None

        self.match = match


def _raiser(msg: str):
    def fail(*_):
        raise GuardError(msg)

    return fail


def _compile_node(p, slots):
    """Matcher ``m(value, b) -> bool`` for one pattern node that is neither
    ``_`` nor a variable's first occurrence; a later occurrence compares
    with the variable's slot."""
    if isinstance(p, Var):
        i = slots[p.name]
        return lambda v, b: b[i] == v
    if isinstance(p, str):
        def atom(v, b):
            # a bare atom matches both the string and the zero-argument term
            if isinstance(v, Term):
                return not v.args and v.functor == p
            return p == v

        return atom
    if isinstance(p, int):
        return lambda v, b: p == v
    if isinstance(p, PTerm):
        functor, n = p.functor, len(p.args)
        args = _compile_args(p.args, slots)
        return lambda v, b: (isinstance(v, Term) and v.functor == functor
                             and len(v.args) == n and args(v.args, b))
    return _raiser("invalid pattern node %r" % (p,))


def _compile_args(nodes, slots):
    """Matcher ``m(values, b) -> bool`` for a tuple of pattern nodes.

    A variable met here for the first time gets the next slot and is bound
    before the other nodes are tried, left to right. Binding cannot fail,
    and any later occurrence of the variable lies to its right or inside a
    node tried after it, so the outcome is that of a left-to-right match.
    """
    binds, steps = [], []
    for j, p in enumerate(nodes):
        if isinstance(p, Var) and p.name not in slots:
            binds.append((j, slots.setdefault(p.name, len(slots))))
        elif p is not WILDCARD:
            steps.append((j, _compile_node(p, slots)))

    def match_all(a, b):
        for j, i in binds:
            b[i] = a[j]
        for j, m in steps:
            if not m(a[j], b):
                return False
        return True

    return match_all


def _compile_guard(atoms, slots):
    """``g(b, state) -> bool`` for a guard conjunction, each atom passing
    on to the rest."""
    if not atoms:
        return lambda b, state: True
    atom = atoms[0]
    if isinstance(atom, StateQuery):
        pat = atom.pattern
        functor, n = pat.functor, len(pat.args)
        args = _compile_args(pat.args, slots)
        rest = _compile_guard(atoms[1:], slots)

        def query(b, state):
            for cand in state.visible(functor):
                a = cand.args
                if len(a) == n and args(a, b) and rest(b, state):
                    return True
            return False

        return query
    test = _compile_comparison(atom, slots)
    rest = _compile_guard(atoms[1:], slots)
    return lambda b, state: test(b) and rest(b, state)


_AUDIT = AuditLog()
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_comparison(cmp: Comparison, slots):
    """``t(b) -> bool``, the operator chosen here rather than per event."""
    op = cmp.op
    left = _compile_expr(cmp.left, slots)
    right = _compile_expr(cmp.right, slots)
    if op == "==":
        return lambda b: left(b) == right(b)
    if op == "!=":
        return lambda b: left(b) != right(b)
    order = _ORDERINGS[op]

    def ordered(b):
        lv = left(b)
        rv = right(b)
        if not isinstance(lv, int) or not isinstance(rv, int):
            raise GuardError("ordering comparison on non-integers: %r %s %r" % (lv, op, rv))
        return order(lv, rv)

    return ordered


def _folded(fn, node):
    """``fn``, the closure compiled for ``node``, or, when the node reads no
    variable and evaluates without error, a closure over its one value."""
    if next(_expr_vars(node), None) is not None:
        return fn
    try:
        value = fn(None)
    except GuardError:
        return fn  # raises for every event, when the ruling reaches it
    return lambda _: value


def _compile_expr(node, slots):
    """``e(b) -> value`` for a guard or template expression."""
    if isinstance(node, (int, str)):
        return lambda b: node
    if isinstance(node, Var):
        i = slots.get(node.name)
        if i is None:
            return _raiser("unbound variable %s" % node.name)
        return operator.itemgetter(i)
    if isinstance(node, FunctorOf):
        i = slots.get(node.var.name)

        def functor_of(b):
            v = None if i is None else b[i]
            if not isinstance(v, Term):
                raise GuardError("functor() of a non-term value %r" % (v,))
            return v.functor

        return functor_of
    if isinstance(node, BinExpr):
        left = _compile_expr(node.left, slots)
        right = _compile_expr(node.right, slots)
        plus = node.op == "+"

        def arith(b):
            lv = left(b)
            rv = right(b)
            if not isinstance(lv, int) or not isinstance(rv, int):
                raise GuardError("arithmetic on non-integers")
            return lv + rv if plus else lv - rv

        return _folded(arith, node)
    if isinstance(node, PTerm):
        return _compile_term(node, slots)
    return _raiser("cannot evaluate %r" % (node,))


def _compile_term(pt: PTerm, slots):
    """``e(b) -> Term`` for a term template; a ground one is built once."""
    functor = pt.functor
    args = [_compile_expr(a, slots) for a in pt.args]

    def term(b):
        return Term(functor, tuple([a(b) for a in args]))

    return _folded(term, pt)


def _compile_op(t, slots):
    """``o(b, event) -> operation`` for one op template."""
    if isinstance(t, Forward):
        if t.target is None:
            return lambda b, event: Forward(event.target.name, event.payload)
        target = _compile_expr(t.target, slots)
        payload = _compile_expr(t.payload, slots)

        def forward(b, event):
            to = target(b)
            if not isinstance(to, str):
                raise GuardError("forward target must be an agent name string")
            msg = payload(b)
            if not isinstance(msg, Term):
                raise GuardError("forward payload must be a term")
            return Forward(to, msg)

        return forward
    if isinstance(t, Deliver):
        if t.payload is None:
            return lambda b, event: Deliver(event.payload)
        payload = _compile_expr(t.payload, slots)

        def deliver(b, event):
            msg = payload(b)
            if not isinstance(msg, Term):
                raise GuardError("deliver payload must be a term")
            return Deliver(msg)

        return deliver
    if isinstance(t, StateReplace):
        old = _compile_term(t.old, slots)
        new = _compile_term(t.new, slots)
        return lambda b, event: StateReplace(old(b), new(b))
    if isinstance(t, StateAdd):
        term = _compile_term(t.term, slots)
        return lambda b, event: StateAdd(term(b))
    if isinstance(t, StateRemove):
        term = _compile_term(t.term, slots)
        return lambda b, event: StateRemove(term(b))
    if isinstance(t, ImposeObligation):
        due_in = _compile_expr(t.due_in, slots)
        name = _compile_term(t.name, slots)

        def oblige(b, event):
            due = due_in(b)
            if not isinstance(due, int) or due < 0:
                raise GuardError("obligation due-in must be a non-negative integer")
            return ImposeObligation(name(b), due)

        return oblige
    if isinstance(t, RepealObligation):
        name = _compile_term(t.name, slots)
        return lambda b, event: RepealObligation(name(b))
    if isinstance(t, AuditLog):
        return lambda b, event: _AUDIT
    if isinstance(t, Block):
        block = Block(t.reason or "blocked-by-law")
        return lambda b, event: block
    return _raiser("unknown op template %r" % (t,))


def _compile_ops(templates, slots):
    """``build(b, event) -> ops``, one closure per op template in order."""
    ops = [_compile_op(t, slots) for t in templates]
    return lambda b, event: tuple([op(b, event) for op in ops])


def match_pattern(crule: CompiledRule, args: tuple):
    """Unify a compiled rule's pattern with an event's positional args:
    the rule's binding slots, or None on mismatch."""
    return crule.match(args)


def eval_guard(crule: CompiledRule, b: list, state: ControlState):
    """Run a compiled rule's guard over the slots ``match_pattern`` bound:
    the completed slots, or None when the guard fails."""
    return b if crule.guard(b, state) else None


def first_match(doc: LawDoc, event: Event, state: ControlState, rules=None, args=None):
    """First rule of ``doc`` that fires for the event, with its ruling.

    Returns (rule, Ruling) or None. Each rule is tried through its
    ``CompiledRule``, built on first use and kept on the rule, so no event
    walks a rule's syntax tree. A compiled law path passes ``rules``, the
    candidates of the event's kind in textual order, together with the
    event's ``event_args`` view as ``args``; without them every rule of
    ``doc`` on the event's kind is tried.
    """
    if rules is None:
        kind, args = event_args(event, state)
        rules = [r for r in doc.rules if r.event_kind == kind]
    for rule in rules:
        crule = rule.compiled
        b = match_pattern(crule, args)
        if b is None:
            continue
        b = eval_guard(crule, b, state)
        if b is None:
            continue
        return rule, Ruling(crule.build(b, event))
    return None


def default_ruling(default: str, event: Event) -> Ruling:
    """The ruling mandated by a law's default directive for an unmatched event.

    The directive only constrains send/arrive events; adoption, obligations
    and exceptions default to an empty permit.
    """
    if isinstance(event, Sent):
        if default == "block":
            return Ruling((Block("no-rule"),))
        return Ruling((Forward(event.target.name, event.payload),))
    if isinstance(event, Arrived):
        if default == "block":
            return Ruling((Block("no-rule"),))
        return Ruling((Deliver(event.payload),))
    return Ruling(())


def in_force(ruling: Ruling, retained=()) -> Ruling:
    """The ruling that takes effect: a blocked one sheds its audit ops (the
    audit trail records messages that flowed), any other is preceded by the
    audits ``retained`` from the superior rulings it overrode."""
    if ruling.block is not None and ruling.audits:
        return Ruling(tuple(o for o in ruling.ops if not isinstance(o, AuditLog)))
    if ruling.block is None and retained:
        return Ruling(tuple(retained) + ruling.ops)
    return ruling


@value(init=False)
class Evaluation(Ruling):
    """A ruling and the state it commits, as ``evaluate_law`` returns it."""

    new_state: ControlState

    def __init__(self, ops: tuple, new_state):
        # not super(): its cell holds the class that dataclass replaced
        Ruling.__init__(self, ops)
        self.new_state = new_state


def evaluate_law(doc: LawDoc, event: Event, state: ControlState) -> Evaluation:
    """Formula-style total evaluation of a single law: one ruling, always,
    and the state it commits."""
    hit = first_match(doc, event, state)
    ruling = default_ruling(doc.default or "block", event) if hit is None else in_force(hit[1])
    return Evaluation(ruling.ops, commit(state, event.kind, ruling))

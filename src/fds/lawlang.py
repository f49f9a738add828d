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
is compiled, once, into three Python functions generated as source text,
as ``dataclasses`` builds its methods (``CompiledRule``): a pattern
matcher, a guard whose state queries are nested loops, and an ops builder
whose constant parts are built ahead of time. No event walks the tree.
This replaced a tree of closures per rule (Feeley & Lapalme, "Using
closures for code generation", 1987). ``parse_law`` is a bounded memo
keyed by the exact text, so each law is parsed, checked and compiled once
per process (Michie, "Memo functions and machine learning", 1968).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
        """The rule's generated functions, compiled on first use and kept."""
        return CompiledRule(self)


@dataclass(frozen=True)
class LawDoc:
    name: str
    kind: str  # 'root' | 'delta'
    superior: Optional[str]
    default: Optional[str]  # 'block' | 'pass' | None (inherit)
    multi: frozenset
    init: tuple  # ground Terms
    meta: tuple  # (aspect, mode) pairs, declared order
    rules: tuple  # GroundRules, textual order

    @cached_property
    def _canonical(self) -> str:
        return serialize_law(self)

    def canonical(self) -> str:
        return self._canonical

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


PARSE_MEMO_SIZE = 128  # distinct law texts whose docs stay memoised


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_law(text: str) -> LawDoc:
    """The law ``text`` names, parsed and checked once per process: one text
    is one law (its hash names it), so the same text gives the same frozen
    doc, whose rules keep the code they compile. A failing text raises anew."""
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


# each op's law text, over its fields' law expressions in order
_OP_TEXT = {Forward: "forward(%s, %s)", Deliver: "deliver(%s)", StateReplace: "replace %s <- %s",
            StateAdd: "add %s", StateRemove: "remove %s", ImposeObligation: "oblige %s in %s",
            RepealObligation: "repeal %s", AuditLog: "audit", Block: "block(%s)"}


def _render_op(op) -> str:
    text = _OP_TEXT.get(op.__class__)
    if text is None:
        raise FdsError("cannot render op %r" % (op,))
    if op in (Forward(None, None), Deliver(None), Block()):  # written bare
        return text[:text.index("(")]
    return text % tuple(_render_node(getattr(op, f)) for f in op.__match_args__)


# ---------------------------------------------------------------------------
# rules compiled to Python source


def event_args(event: Event, state: ControlState):
    """Positional view of an event as seen by rule patterns."""
    cls = event.__class__
    if cls is Sent:
        return "sent", (_self_name(state), event.payload, event.target.name)
    if cls is Arrived:
        return "arrived", (event.sender.name, event.payload, _self_name(state))
    if cls is Adopted:
        return "adopted", (event.cert,)
    if cls is ObligationDue:
        return "obligationDue", (event.name,)
    return "exception", (event.reason,)


def _self_name(state: ControlState) -> str:
    for t in state.visible("name"):
        # the class test spares the isinstance call for a plain str
        if t.args and (t.args[0].__class__ is str or isinstance(t.args[0], str)):
            return t.args[0]
    return ""


class CompiledRule:
    """A rule as three Python functions, generated (``rule_source``) and
    compiled once, in place of a tree of closures (Feeley & Lapalme, 1987).
    Each variable owns a slot in a list, numbered in the order matching
    first meets it.

    - ``match(args)`` unifies the pattern with an event's positional args
      and returns a fresh slot list, or None.
    - ``guard(slots, state)`` fills the guard's slots in place and returns
      whether it holds. State queries backtrack over candidate terms in
      canonical order; the first complete solution wins.
    - ``build(slots, event)`` returns the ruling's operations.

    A law error (an unbound variable, ``_`` where a value is needed, an
    ill-typed value) raises ``GuardError`` at the same point, with the same
    message, as if the tree were read per event.
    """

    __slots__ = ("match", "guard", "build")

    def __init__(self, rule: "GroundRule"):
        source, namespace = rule_source(rule)
        exec(compile(source, "<law rule>", "exec"), namespace)
        self.match, self.guard, self.build = (namespace[f] for f in self.__slots__)


_AUDIT = AuditLog()

# each op type's fields in the order they are evaluated, with the class each
# value must have (None: any) and the error if it has not
_OP_FIELDS = {
    Forward: (("target", str, "forward target must be an agent name string"),
              ("payload", Term, "forward payload must be a term")),
    Deliver: (("payload", Term, "deliver payload must be a term"),),
    ImposeObligation: (("due_in", int, "obligation due-in must be a non-negative integer"),
                       ("name", None, None)),
    **{cls: tuple((f, None, None) for f in cls.__match_args__)
       for cls in (StateReplace, StateAdd, StateRemove, RepealObligation)},
}

# the names generated code reads besides its constants and locals
_RUNTIME = {cls.__name__: cls for cls in (Term, GuardError, *_OP_FIELDS)}

# the Python text of each comparison operator
_COMPARE = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

# query loops nested in one generated function; CPython allows 20 nested blocks
_NEST = 15

# what is known of a value computed per event: nothing, or that it is a term
_VARIES, _A_TERM = object(), object()


class _Raises(Exception):
    """Evaluation raises here on every event: what follows never runs."""


def rule_source(rule: "GroundRule"):
    """The source of a rule's ``match``, ``guard`` and ``build``, and the
    namespace it runs in. Identifiers are generated, and every constant
    (functors, atoms, strings, integers, terms, ops, error messages) is a
    name bound in the namespace: no law text is spliced into source."""
    src = _Source()
    src.begin("def match(args):", "return None")
    src.match_args("args", rule.pattern)
    match, bound = src.lines, len(src.slots)
    src.guard(rule.guard, bound)
    src.build(rule.ops)
    # the slot list's length is known once the guard has numbered its slots
    src.lines = match + ["    return [%s]" % ", ".join(
        ["s%d" % i for i in range(bound)] + ["None"] * (len(src.slots) - bound))]
    src.end(0)
    return "\n".join(src.functions), src.namespace


class _Source:
    """The generated functions of one rule, written a line at a time.

    An expression is generated as ``(text, value)``: the source of its
    value, which has no side effect, and the value itself if it is the same
    on every event, else ``_A_TERM`` for a term built per event or
    ``_VARIES``. Its checks are written before it, in evaluation order.
    """

    def __init__(self):
        self.namespace = dict(_RUNTIME)
        self.slots = {}  # variable name -> slot index
        self.names = 0  # constants and temporaries named so far
        self.functions = []  # the finished functions' source

    def begin(self, head: str, fail: str):
        """Start a function; ``fail`` is the statement a failed test runs."""
        self.lines, self.depth, self.fail, self.used = [head], 1, fail, set()

    def end(self, loaded: int):
        """Finish the function, reading from ``b`` each slot below ``loaded``
        that it uses."""
        loads = ["    s%d = b[%d]" % (i, i) for i in sorted(self.used) if i < loaded]
        self.functions.append("\n".join(self.lines[:1] + loads + self.lines[1:]) + "\n")

    def line(self, text: str):
        self.lines.append("    " * self.depth + text)

    def const(self, value) -> str:
        self.names += 1
        self.namespace["c%d" % self.names] = value
        return "c%d" % self.names

    def temp(self) -> str:
        self.names += 1
        return "t%d" % self.names

    def slot(self, i: int) -> str:
        self.used.add(i)
        return "s%d" % i

    def raises(self, msg: str, detail: str = "") -> str:
        """The statement that raises ``GuardError(msg % (detail))``."""
        return "raise GuardError(%s%s)" % (self.const(msg), detail and " % (" + detail + ")")

    def always(self, msg: str, detail: str = ""):
        """Raise on every evaluation that reaches here; write nothing after."""
        self.line(self.raises(msg, detail))
        raise _Raises

    def check(self, parts, kind, msg: str, detail: str = ""):
        """Raise unless each ``(text, value)`` of ``parts`` is a ``kind``:
        tested per event for a value that varies, here for the others."""
        tests = []
        for text, value in parts:
            if value is _VARIES:
                tests.append("isinstance(%s, %s)" % (text, kind.__name__))
            elif not (kind is Term if value is _A_TERM else isinstance(value, kind)):
                self.always(msg, detail)
        if tests:
            self.line("if not (%s): %s" % (" and ".join(tests), self.raises(msg, detail)))

    def match_args(self, seq: str, nodes):
        """Match the tuple ``seq`` with pattern ``nodes``: unpack it, binding
        each variable met here first, then test the other nodes left to
        right. A variable's later occurrences are all tried after it binds."""
        targets, outer, self.lines = [], self.lines, []
        for p in nodes:
            if p is WILDCARD:
                targets.append("_")
            elif p.__class__ is Var and p.name not in self.slots:
                self.slots[p.name] = len(self.slots)
                targets.append("s%d" % self.slots[p.name])
            else:
                targets.append(self.temp())
                self.node(targets[-1], p)
        tests, self.lines = self.lines, outer
        if any(t != "_" for t in targets):
            self.line("%s, = %s" % (", ".join(targets), seq))
        self.lines += tests

    def node(self, v: str, p):
        """Test the value ``v`` against a pattern node that is neither ``_``
        nor a variable's first occurrence."""
        if p.__class__ is Var:
            self.line("if not (%s == %s): %s" % (self.slot(self.slots[p.name]), v, self.fail))
        elif isinstance(p, str):
            # a bare atom matches both the string and the zero-argument term
            c = self.const(p)
            self.line("if ((%s.args or not (%s.functor == %s)) if isinstance(%s, Term) "
                      "else not (%s == %s)): %s" % (v, v, c, v, c, v, self.fail))
        elif isinstance(p, int):
            self.line("if not (%s == %s): %s" % (self.const(p), v, self.fail))
        elif p.__class__ is PTerm:
            self.line("if not (isinstance(%s, Term) and %s.functor == %s and len(%s.args) == %d): "
                      "%s" % (v, v, self.const(p.functor), v, len(p.args), self.fail))
            self.match_args(v + ".args", p.args)
        else:
            self.line(self.raises("invalid pattern node %r" % (p,)))

    def guard(self, atoms, bound: int):
        """``guard(b, state)``, given the slots below ``bound`` that matching
        fills. The rest of the conjunction runs inside each query's loop, so
        a failed test moves on to the innermost query's next candidate. Past
        ``_NEST`` loops the rest is a function called from the innermost."""
        self.begin("def guard(b, state):", "return False")
        for atom in atoms:
            if atom.__class__ is not StateQuery:
                try:
                    self.compare(atom)
                except _Raises:
                    pass  # the rest never runs, but numbers its slots
                continue
            if self.depth > _NEST:  # each loop one level deeper
                call = "g%d(%s)" % (len(self.functions), ", ".join(
                    ["b", "state"] + ["s%d" % i for i in range(bound, len(self.slots))]))
                self.line("if %s: return True" % call)
                self.lines.append("    return False")
                self.end(bound)
                self.begin("def %s:" % call, "continue")
            pat, q = atom.pattern, self.temp()
            self.line("for %s in state.visible(%s):" % (q, self.const(pat.functor)))
            self.depth += 1
            self.fail = "continue"
            self.line("if len(%s.args) != %d: continue" % (q, len(pat.args)))
            self.match_args(q + ".args", pat.args)
        for i in range(bound, len(self.slots)):
            self.line("b[%d] = s%d" % (i, i))
        self.line("return True")
        self.lines.append("    return False")
        self.end(bound)

    def compare(self, cmp: Comparison):
        (left, lv), (right, rv) = self.expr(cmp.left), self.expr(cmp.right)
        op = _COMPARE[cmp.op]
        if op not in ("==", "!="):
            self.check([(left, lv), (right, rv)], int, "ordering comparison on non-integers: "
                       "%%r %s %%r" % op, left + ", " + right)
        self.line("if not (%s %s %s): %s" % (left, op, right, self.fail))

    def expr(self, node):
        """A guard or template expression; a sub-term or sum without
        variables that evaluates without error is a constant, built once."""
        if isinstance(node, (int, str)):
            return self.const(node), node
        cls = node.__class__
        if cls is Var or cls is FunctorOf:
            i = self.slots.get(node.name if cls is Var else node.var.name)
            if i is None:
                self.always("unbound variable %s" % node.name if cls is Var
                            else "functor() of a non-term value None")
            if cls is Var:
                return self.slot(i), _VARIES
            self.check([(self.slot(i), _VARIES)], Term, "functor() of a non-term value %r",
                       "s%d," % i)
            return "s%d.functor" % i, _VARIES
        if cls is BinExpr:
            (left, lv), (right, rv) = self.expr(node.left), self.expr(node.right)
            if isinstance(lv, int) and isinstance(rv, int):
                value = lv + rv if node.op == "+" else lv - rv
                return self.const(value), value
            self.check([(left, lv), (right, rv)], int, "arithmetic on non-integers")
            t = self.temp()
            self.line("%s = %s %s %s" % (t, left, "+" if node.op == "+" else "-", right))
            return t, _VARIES
        if cls is PTerm:
            args = [self.expr(a) for a in node.args]
            if all(value is not _VARIES and value is not _A_TERM for _, value in args):
                value = Term(node.functor, tuple(value for _, value in args))
                return self.const(value), value
            return "Term(%s, (%s))" % (self.const(node.functor),
                                       "".join(text + ", " for text, _ in args)), _A_TERM
        self.always("cannot evaluate %r" % (node,))

    def build(self, templates):
        """``build(b, event)``: each op's checks in order, then the ops."""
        self.begin("def build(b, event):", "")
        try:
            ops = [self.op(t) for t in templates]
            self.line("return (%s)" % "".join(op + ", " for op in ops))
        except _Raises:
            pass
        self.end(len(self.slots))

    def op(self, t) -> str:
        cls = t.__class__
        if cls is AuditLog:
            return self.const(_AUDIT)
        if cls is Block:
            return self.const(Block(t.reason or "blocked-by-law"))
        if cls is Forward and t.target is None:
            return "Forward(event.target.name, event.payload)"
        if cls is Deliver and t.payload is None:
            return "Deliver(event.payload)"
        if cls not in _OP_FIELDS:
            self.always("unknown op template %r" % (t,))
        made = {}
        for field, kind, msg in _OP_FIELDS[cls]:
            text, value = made[field] = self.expr(getattr(t, field))
            if kind is not None:
                self.check([(text, value)], kind, msg)
            if field == "due_in" and value is _VARIES:
                self.line("if %s < 0: %s" % (text, self.raises(msg)))
            elif field == "due_in" and value < 0:
                self.always(msg)
        return "%s(%s)" % (cls.__name__, ", ".join(made[f][0] for f in cls.__match_args__))


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

"""Reference models: a tree-walking interpreter for law rules, and the two
scanners that read term text and law text before they shared one grammar.

``fds.lawlang`` compiles each rule once into closures. This module keeps
the interpreter those closures replaced, as the model they are tested
against: it reads the rule's syntax tree afresh for every event, binds
variables in a dict by name, and copies the bindings for every candidate a
state query tries. It shares only data types, ``event_args`` and the law
parser with ``src/fds``; ``commit`` applies a ruling's state ops by its own
loop.

``parse_term``/``parse_terms`` below scan term text one character at a
time, and ``tokenize_law`` reads law text into ``Token`` objects with their
line and column; ``tests/test_term_grammar.py`` compares ``fds.core``'s one
scanner with them.

``op_canonical`` renders a ruling op, and ``term_canonical`` a term, by one
chain of ``isinstance`` tests, as ``fds.core`` did before each op type and
argument class rendered itself; ``tests/test_core.py`` compares them.
"""

import re
from dataclasses import dataclass

from fds.core import (
    Arrived,
    AuditLog,
    Block,
    Deliver,
    Forward,
    ImposeObligation,
    RepealObligation,
    Ruling,
    Sent,
    StateAdd,
    StateRemove,
    StateReplace,
    Term,
    TermSyntaxError,
)
from fds.lawlang import (
    WILDCARD,
    BinExpr,
    FunctorOf,
    GuardError,
    LawSyntaxError,
    PTerm,
    StateQuery,
    Var,
    event_args,
)


def match_pattern(pattern: tuple, args: tuple, bindings=None):
    """Unify a rule's pattern with positional event args.

    Returns the (possibly extended) bindings dict, or None on mismatch.
    """
    b = dict(bindings or {})
    for p, v in zip(pattern, args):
        if not _match_node(p, v, b):
            return None
    return b


def _match_node(p, v, b) -> bool:
    if p is WILDCARD:
        return True
    if isinstance(p, Var):
        if p.name in b:
            return b[p.name] == v
        b[p.name] = v
        return True
    if isinstance(p, str):
        # a bare atom matches both the string and the zero-argument term
        if isinstance(v, Term):
            return not v.args and v.functor == p
        return p == v
    if isinstance(p, int):
        return p == v
    if isinstance(p, PTerm):
        if not isinstance(v, Term) or v.functor != p.functor or len(v.args) != len(p.args):
            return False
        return all(_match_node(pa, va, b) for pa, va in zip(p.args, v.args))
    raise GuardError("invalid pattern node %r" % (p,))


def eval_guard(guard: tuple, bindings: dict, state):
    """Evaluate a guard conjunction. Returns extended bindings or None.

    State queries backtrack over candidate terms (in canonical order), so a
    later comparison can reject one candidate and the query will try the
    next; the first complete solution wins, deterministically.
    """
    return _guard_from(guard, 0, dict(bindings), state)


def _guard_from(guard: tuple, i: int, b: dict, state):
    if i == len(guard):
        return b
    atom = guard[i]
    if isinstance(atom, StateQuery):
        pat = atom.pattern
        for cand in state.visible(pat.functor):
            if len(cand.args) != len(pat.args):
                continue
            trial = dict(b)
            if all(_match_node(p, v, trial) for p, v in zip(pat.args, cand.args)):
                out = _guard_from(guard, i + 1, trial, state)
                if out is not None:
                    return out
        return None
    if not _eval_comparison(atom, b):
        return None
    return _guard_from(guard, i + 1, b, state)


def _eval_comparison(cmp, b: dict) -> bool:
    left = eval_expr(cmp.left, b)
    right = eval_expr(cmp.right, b)
    if cmp.op == "==":
        return left == right
    if cmp.op == "!=":
        return left != right
    if not isinstance(left, int) or not isinstance(right, int):
        raise GuardError("ordering comparison on non-integers: %r %s %r" % (left, cmp.op, right))
    if cmp.op == "<":
        return left < right
    if cmp.op == "<=":
        return left <= right
    if cmp.op == ">":
        return left > right
    return left >= right


def eval_expr(node, b: dict):
    if isinstance(node, int) or isinstance(node, str):
        return node
    if isinstance(node, Var):
        if node.name not in b:
            raise GuardError("unbound variable %s" % node.name)
        return b[node.name]
    if isinstance(node, FunctorOf):
        v = b.get(node.var.name)
        if not isinstance(v, Term):
            raise GuardError("functor() of a non-term value %r" % (v,))
        return v.functor
    if isinstance(node, BinExpr):
        left = eval_expr(node.left, b)
        right = eval_expr(node.right, b)
        if not isinstance(left, int) or not isinstance(right, int):
            raise GuardError("arithmetic on non-integers")
        return left + right if node.op == "+" else left - right
    if isinstance(node, PTerm):
        return instantiate_term(node, b)
    raise GuardError("cannot evaluate %r" % (node,))


def instantiate_term(pt: PTerm, b: dict) -> Term:
    return Term(pt.functor, tuple(eval_expr(a, b) for a in pt.args))


def instantiate_ops(rule, b: dict, event):
    ops = []
    for t in rule.ops:
        if isinstance(t, Forward):
            if t.target is None:
                assert isinstance(event, Sent)
                ops.append(Forward(event.target.name, event.payload))
            else:
                target = eval_expr(t.target, b)
                if not isinstance(target, str):
                    raise GuardError("forward target must be an agent name string")
                payload = eval_expr(t.payload, b)
                if not isinstance(payload, Term):
                    raise GuardError("forward payload must be a term")
                ops.append(Forward(target, payload))
        elif isinstance(t, Deliver):
            if t.payload is None:
                assert isinstance(event, Arrived)
                ops.append(Deliver(event.payload))
            else:
                payload = eval_expr(t.payload, b)
                if not isinstance(payload, Term):
                    raise GuardError("deliver payload must be a term")
                ops.append(Deliver(payload))
        elif isinstance(t, StateReplace):
            ops.append(StateReplace(instantiate_term(t.old, b), instantiate_term(t.new, b)))
        elif isinstance(t, StateAdd):
            ops.append(StateAdd(instantiate_term(t.term, b)))
        elif isinstance(t, StateRemove):
            ops.append(StateRemove(instantiate_term(t.term, b)))
        elif isinstance(t, ImposeObligation):
            due = eval_expr(t.due_in, b)
            if not isinstance(due, int) or due < 0:
                raise GuardError("obligation due-in must be a non-negative integer")
            ops.append(ImposeObligation(instantiate_term(t.name, b), due))
        elif isinstance(t, RepealObligation):
            ops.append(RepealObligation(instantiate_term(t.name, b)))
        elif isinstance(t, AuditLog):
            ops.append(AuditLog())
        elif isinstance(t, Block):
            ops.append(Block(t.reason or "blocked-by-law"))
        else:
            raise GuardError("unknown op template %r" % (t,))
    return tuple(ops)


def first_match(doc, event, state, rules=None):
    """First of ``rules`` (by default every rule of ``doc`` on the event's
    kind) that fires for the event, as (rule, Ruling), or None."""
    kind, args = event_args(event, state)
    if rules is None:
        rules = [r for r in doc.rules if r.event_kind == kind]
    for rule in rules:
        b = match_pattern(rule.pattern, args)
        if b is None:
            continue
        b = eval_guard(rule.guard, b, state)
        if b is None:
            continue
        return rule, Ruling(instantiate_ops(rule, b, event))
    return None


def commit(state, kind, ruling):
    """The base state a chain moves to after ``ruling`` on an event of
    ``kind``, ruled in ``state``: None if it blocks an adoption, else its
    state ops applied one at a time, in order."""
    if kind == "adopted" and any(isinstance(o, Block) for o in ruling.ops):
        return None
    for op in ruling.ops:
        if isinstance(op, StateReplace):
            state = state.replace(op.old, op.new)
        elif isinstance(op, StateAdd):
            state = state.add(op.term)
        elif isinstance(op, StateRemove):
            state = state.remove(op.term)
    return state.without_overlay()


# ---------------------------------------------------------------------------
# op and term text, by isinstance tests


def op_canonical(op) -> str:
    if isinstance(op, Forward):
        return "forward(%s,%s)" % (render_arg(op.target), term_canonical(op.payload))
    if isinstance(op, Deliver):
        return "deliver(%s)" % term_canonical(op.payload)
    if isinstance(op, StateReplace):
        return "replace %s <- %s" % (term_canonical(op.old), term_canonical(op.new))
    if isinstance(op, StateAdd):
        return "add %s" % term_canonical(op.term)
    if isinstance(op, StateRemove):
        return "remove %s" % term_canonical(op.term)
    if isinstance(op, ImposeObligation):
        return "oblige %s in %d" % (term_canonical(op.name), op.due_in)
    if isinstance(op, RepealObligation):
        return "repeal %s" % term_canonical(op.name)
    if isinstance(op, AuditLog):
        return "audit"
    if isinstance(op, Block):
        return "block(%s)" % render_arg(op.reason)
    raise ValueError("unknown operation %r" % (op,))


def term_canonical(t: Term) -> str:
    if t.args:
        return "%s(%s)" % (t.functor, ",".join(render_arg(a) for a in t.args))
    return t.functor


def render_arg(a) -> str:
    if isinstance(a, bool):
        raise TermSyntaxError("boolean term arguments are not supported")
    if isinstance(a, int):
        return str(a)
    if isinstance(a, str):
        return quote(a)
    if isinstance(a, Term):
        # nested, a zero-arity term keeps its parentheses
        return term_canonical(a) if a.args else a.functor + "()"
    raise TermSyntaxError("unsupported term argument: %r" % (a,))


def quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# term text, one character at a time


def parse_term(text: str) -> Term:
    """Parse the canonical term syntax. Bare lowercase atoms read as strings."""
    term, pos = _parse_term(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TermSyntaxError("trailing input at %d in %r" % (pos, text))
    return term


def parse_terms(text: str) -> list:
    """Parse a ``;``-separated list of terms. Empty text is the empty list."""
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
# law text, into tokens that carry their line and column

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><-|<=|>=|==|!=|[<>+\-*@:(){},;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # string | number | ident | op
    value: str
    line: int
    col: int
    pos: int


def tokenize_law(text: str):
    toks = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LawSyntaxError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, value, line, col, pos))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return toks

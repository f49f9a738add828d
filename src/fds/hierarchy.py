"""Conformance hierarchy of laws.

A framework is a tree of laws: one root plus deltas. Conformance is
inherent in the structure: the effective ruling for an agent is derived by
consulting the laws on its root-to-leaf path top-down, with each law's
meta permissions bounding how far a subordinate's advice may deviate.

Meta modes, from most to least restrictive:

* ``sealed`` -- the superior's ruling is final; subordinate rules on the
  aspect are rejected at publish time and ignored at runtime.
* ``tighten`` -- a subordinate may add preconditions or turn a permit into
  a block, but a superior's block is final.
* ``default-overridable`` -- the superior's ruling is merely the fallback;
  the deepest matching subordinate rule replaces it.
* ``open`` -- the subordinate may redefine the aspect outright.

In each law the first meta key that matches an aspect decides its mode;
a law with no matching key that rules on exactly that aspect seals it (a
provision is irreversible unless deviation is explicitly permitted), and
along a path the most restrictive law wins. ``effective_mode`` is the one
sealing rule, so publishing and evaluation agree: ``publish_delta``
rejects, and a compiled path drops, each rule it finds sealed above.
Audit operations of an overridden superior ruling are retained, and a
blocked ruling sheds its audit operations (``lawlang.in_force``): the
audit trail records messages that actually flowed.

A path is compiled once, on first use, from its own documents: per level,
the rules not sealed above it, indexed by event kind and, for ``sent`` and
``arrived``, by payload functor, each aspect's mode precomputed. The
framework hands out one path per leaf, so every agent and every replayed
ruling under a leaf share one compiled form. An agent adopted under a path
starts from one state built under the path's multi set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from .core import AuditLog, ControlState, Event, FdsError, Ruling, Term, hash_law
from .lawlang import (
    MODE_RANK,
    WILDCARD,
    LawDoc,
    PTerm,
    Var,
    default_ruling,
    event_args,
    first_match,
    in_force,
)


class FrameworkError(FdsError):
    pass


class MetaViolation(FrameworkError):
    pass


@dataclass(frozen=True)
class LawPath:
    """Root-to-leaf slice of the framework, with resolved documents."""

    hashes: tuple  # LawHash strings, root first
    docs: tuple  # LawDoc per hash

    @property
    def leaf(self) -> str:
        return self.hashes[-1]

    @cached_property
    def multi(self) -> frozenset:
        """Set-valued functors declared anywhere on the path."""
        return frozenset().union(*(doc.multi for doc in self.docs))

    @cached_property
    def default(self) -> str:
        """Leafmost default directive; a path that declares none blocks."""
        for doc in reversed(self.docs):
            if doc.default is not None:
                return doc.default
        return "block"

    @cached_property
    def compiled(self) -> tuple:
        """One ``CompiledLevel`` per law, root first, built on first use."""
        return tuple(CompiledLevel.build(self.docs, level)
                     for level in range(len(self.docs)))

    def initial_state(self, name: str, division: str) -> ControlState:
        """Control state of an agent adopted under this path, built once
        under the path's multi set: the leaf's init, then each superior's
        from the root down, a functor no earlier law initialises taking
        all of that superior's init terms, then the identity terms the
        controller supplies."""
        terms = list(self.docs[-1].init)
        for doc in self.docs[:-1]:
            taken = {t.functor for t in terms}
            terms.extend(t for t in doc.init if t.functor not in taken)
        terms += [Term("name", (name,)), Term("division", (division,))]
        return ControlState(terms, self.multi)


PAYLOAD_KINDS = ("sent", "arrived")  # event kinds whose args[1] is the payload


def _payload_key(rule):
    """Functor a rule's payload pattern can match, or None for any.

    A bare atom ``p`` also matches the term ``p()``, so it keys on ``p``;
    an integer matches no term and keys on itself, which no functor equals.
    """
    p = rule.pattern[1]
    if isinstance(p, PTerm):
        return p.functor
    if p is WILDCARD or isinstance(p, Var):
        return None
    return p


@dataclass(frozen=True)
class CompiledLevel:
    """One law of a compiled path.

    ``rules`` maps an event kind to the law's rules on it that no superior
    seals, in textual order. For each payload kind, ``by_functor`` narrows
    that list: each functor some rule keys on maps to the rules a payload
    with that functor can match, and ``None`` to the rules any functor can
    match (variables and ``_``). ``modes`` maps each aspect to the room a
    winning rule on it leaves deeper laws.
    """

    doc: LawDoc
    rules: dict
    by_functor: dict
    modes: dict

    @classmethod
    def build(cls, docs, level: int) -> "CompiledLevel":
        doc = docs[level]
        live = [r for r in doc.rules
                if effective_mode(docs[:level], r.aspect) != "sealed"]
        modes = {r.aspect: effective_mode(docs[: level + 1], r.aspect) or "sealed"
                 for r in live}
        rules, by_functor = {}, {}
        for r in live:
            rules.setdefault(r.event_kind, []).append(r)
        for kind in PAYLOAD_KINDS:
            keyed = [(_payload_key(r), r) for r in rules.get(kind, ())]
            if keyed:
                by_functor[kind] = {
                    f: tuple(r for k, r in keyed if k is None or k == f)
                    for f in {None}.union(k for k, _ in keyed)}
        return cls(doc, {k: tuple(v) for k, v in rules.items()}, by_functor, modes)

    def candidates(self, kind: str, payload) -> tuple:
        """Rules of this law that may fire for an event of ``kind``."""
        index = self.by_functor.get(kind)
        if index is not None and isinstance(payload, Term):
            bucket = index.get(payload.functor)
            return index[None] if bucket is None else bucket
        return self.rules.get(kind, ())


class Framework:
    """Append-only tree of published laws, keyed by hash."""

    def __init__(self):
        self.root: Optional[str] = None
        self.docs: Dict[str, LawDoc] = {}
        self.texts: Dict[str, str] = {}
        self.parent: Dict[str, Optional[str]] = {}
        self._paths: Dict[str, LawPath] = {}  # leaf -> path; safe, append-only

    def publish_root(self, doc: LawDoc) -> str:
        if self.root is not None:
            raise FrameworkError("already-rooted")
        if doc.kind != "root":
            raise FrameworkError("root-cannot-extend")
        text = doc.canonical()
        h = hash_law(text)
        self.root = h
        self.docs[h] = doc
        self.texts[h] = text
        self.parent[h] = None
        return h

    def publish_delta(self, superior: str, doc: LawDoc) -> str:
        if superior not in self.docs:
            raise FrameworkError("unknown superior %s" % superior)
        if doc.kind != "delta":
            raise FrameworkError("delta-must-extend")
        if doc.superior is not None and doc.superior != superior and doc.superior != self.docs[superior].name:
            raise FrameworkError("delta names a different superior")
        superiors = self.resolve_path(superior).docs
        for rule in doc.rules:
            if effective_mode(superiors, rule.aspect) == "sealed":
                raise MetaViolation("meta-violation: aspect %r is sealed above (rule %s)"
                                    % (rule.aspect, rule.rule_id))
        text = doc.canonical()
        h = hash_law(text)
        if h in self.docs:
            return h  # identical republish is a no-op
        self.docs[h] = doc
        self.texts[h] = text
        self.parent[h] = superior
        return h

    def get_text(self, h: str) -> str:
        if h not in self.texts:
            raise FrameworkError("unknown law hash %s" % h)
        return self.texts[h]

    def resolve_path(self, leaf: str) -> LawPath:
        """The one path of a leaf (later publishes never change it)."""
        path = self._paths.get(leaf)
        if path is not None:
            return path
        if leaf not in self.docs:
            raise FrameworkError("unknown law hash %s" % leaf)
        hashes = []
        cur: Optional[str] = leaf
        while cur is not None:
            hashes.append(cur)
            cur = self.parent[cur]
        hashes.reverse()
        path = self._paths[leaf] = LawPath(tuple(hashes),
                                           tuple(self.docs[h] for h in hashes))
        return path


@dataclass(frozen=True)
class Bundle:
    """A published framework plus the caller's short names for its laws.

    ``by_name`` maps each ref the laws were published under to its hash;
    the refs double as attributes (``bundle.d1``).
    """

    framework: Framework
    by_name: Dict[str, str]

    def law(self, ref: str) -> str:
        """Resolve a short ref, or a published hash, to a law hash."""
        if ref in self.by_name:
            return self.by_name[ref]
        if ref in self.framework.docs:
            return ref
        raise KeyError("unknown-law: %s" % ref)

    def __getattr__(self, name: str) -> str:
        try:
            return self.__dict__["by_name"][name]
        except KeyError:
            raise AttributeError(name) from None


def publish_laws(docs_by_ref: Dict[str, LawDoc]) -> Bundle:
    """Publish laws into a fresh framework: roots first, then each delta
    once its superior (named by doc name or by hash) is published."""
    fw = Framework()
    by_name: Dict[str, str] = {}
    by_doc_name: Dict[str, str] = {}
    pending = {}
    for ref, doc in docs_by_ref.items():
        if doc.kind == "root":
            by_name[ref] = by_doc_name[doc.name] = fw.publish_root(doc)
        else:
            pending[ref] = doc
    progress = True
    while pending and progress:
        progress = False
        for ref, doc in list(pending.items()):
            sup = by_doc_name.get(doc.superior, doc.superior)
            if sup in fw.docs:
                by_name[ref] = by_doc_name[doc.name] = fw.publish_delta(sup, doc)
                del pending[ref]
                progress = True
    if pending:
        raise FrameworkError("unresolved superiors: %s"
                             % [d.name for d in pending.values()])
    return Bundle(fw, by_name)


def effective_mode(superiors, aspect: str) -> Optional[str]:
    """Deviation room left for laws below ``superiors`` on an aspect.

    In each law the first meta key that matches the aspect decides; a law
    with no matching key that rules on exactly that aspect seals it. The
    most restrictive law wins. This is the one sealing rule: a rule on an
    aspect its superiors leave ``sealed`` is rejected by ``publish_delta``
    and dropped by ``CompiledLevel.build``.
    """
    mode = None
    for doc in superiors:
        declared = doc.meta_mode(aspect)
        if declared is None and any(r.aspect == aspect for r in doc.rules):
            declared = "sealed"
        if declared is not None and (mode is None or MODE_RANK[declared] > MODE_RANK[mode]):
            mode = declared
    return mode


def derive_ruling(path: LawPath, event: Event, state: ControlState,
                  view: Optional[tuple] = None) -> Ruling:
    """Effective ruling for one event under a root-to-leaf law path.

    ``view`` is the event's ``event_args(event, state)``, for a caller that
    has computed it already; it is computed here when absent. The winning
    level's ruling is returned itself unless audits must be added to it or
    shed from it. No level's state ops are applied: ``core.commit`` does so.
    """
    kind, args = view or event_args(event, state)
    payload = args[1] if kind in PAYLOAD_KINDS else None
    winner = None  # the ruling in force so far
    winner_mode = None  # room left for deeper laws to deviate from winner
    retained_audits = []
    for level in path.compiled:
        hit = first_match(level.doc, event, state,
                          rules=level.candidates(kind, payload), args=args)
        if hit is None:
            continue
        rule, ruling = hit
        if winner is not None:
            if winner_mode == "tighten" and winner.block is not None:
                break  # a block under tighten is final
            if winner.audits:
                retained_audits.extend(o for o in winner.ops if isinstance(o, AuditLog))
        winner = ruling
        winner_mode = level.modes[rule.aspect]
        if winner_mode == "sealed":
            break
    if winner is None:
        return default_ruling(path.default, event)
    return in_force(winner, retained_audits)

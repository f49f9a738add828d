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

A law that rules on an aspect without granting a meta permission for it
seals that aspect (a provision is irreversible unless deviation is
explicitly permitted). Audit operations of an overridden superior ruling
are retained, and a ruling that ends up blocked sheds its audit
operations: the audit trail records messages that actually flowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .core import AuditLog, Block, ControlState, Event, FdsError, Ruling, hash_law
from .lawlang import MODE_RANK, LawDoc, default_ruling, first_match


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


class Framework:
    """Append-only tree of published laws, keyed by hash."""

    def __init__(self):
        self.root: Optional[str] = None
        self.docs: Dict[str, LawDoc] = {}
        self.texts: Dict[str, str] = {}
        self.parent: Dict[str, Optional[str]] = {}

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
        sup_path = self.resolve_path(superior)
        for rule in doc.rules:
            mode = effective_mode(sup_path.docs, rule.aspect)
            if mode == "sealed":
                raise MetaViolation(
                    "meta-violation: aspect %r is sealed above (rule %s)"
                    % (rule.aspect, rule.rule_id)
                )
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
        if leaf not in self.docs:
            raise FrameworkError("unknown law hash %s" % leaf)
        hashes = []
        cur: Optional[str] = leaf
        while cur is not None:
            hashes.append(cur)
            cur = self.parent[cur]
        hashes.reverse()
        return LawPath(tuple(hashes), tuple(self.docs[h] for h in hashes))

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        pa = self.resolve_path(a).hashes
        pb = self.resolve_path(b).hashes
        lca = pa[0]
        for x, y in zip(pa, pb):
            if x != y:
                break
            lca = x
        return lca


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

    Most restrictive declaration along the path wins. A law that rules on
    the aspect without a meta permission seals it.
    """
    mode = None
    for doc in superiors:
        declared = doc.meta_mode(aspect)
        if declared is None and any(r.aspect == aspect for r in doc.rules):
            declared = "sealed"
        if declared is not None:
            if mode is None or MODE_RANK[declared] > MODE_RANK[mode]:
                mode = declared
    return mode


def _sealed_aspects(superiors):
    """Aspect patterns sealed by any of the given laws (for runtime skip)."""
    sealed = []
    for doc in superiors:
        for key, mode in doc.meta:
            if mode == "sealed":
                sealed.append(key)
        for r in doc.rules:
            if doc.meta_mode(r.aspect) is None:
                sealed.append(r.aspect)
    return sealed


def derive_ruling(path: LawPath, event: Event, state: ControlState) -> Ruling:
    """Effective ruling for one event under a root-to-leaf law path."""
    winner = None  # (level, rule, ruling)
    winner_mode = None  # room left for deeper laws to deviate from winner
    retained_audits = []
    for level, doc in enumerate(path.docs):
        skip = _sealed_aspects(path.docs[:level]) if level else ()
        hit = first_match(doc, event, state, skip_aspects=skip)
        if hit is None:
            continue
        rule, ruling = hit
        if winner is None:
            pass
        elif winner_mode == "sealed":
            break
        elif winner_mode == "tighten" and winner[2].blocks():
            break  # a block under tighten is final
        else:
            retained_audits.extend(o for o in winner[2].ops if isinstance(o, AuditLog))
        winner = (level, rule, ruling)
        winner_mode = effective_mode(path.docs[: level + 1], rule.aspect) or "sealed"
        if winner_mode == "sealed":
            break
    if winner is None:
        default = _effective_default(path)
        return default_ruling(default, event, state)
    ruling = winner[2]
    ops = tuple(retained_audits) + ruling.ops
    if any(isinstance(o, Block) for o in ops):
        ops = tuple(o for o in ops if not isinstance(o, AuditLog))
    return Ruling(ruling.new_state, ops)


def _effective_default(path: LawPath) -> str:
    for doc in reversed(path.docs):
        if doc.default is not None:
            return doc.default
    return "block"

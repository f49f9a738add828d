"""Controllers: the trusted middleware that mediates every regulated event.

A controller pool hosts one logical controller per adopted agent. Each
agent runs under one or more law chains (a native chain plus optional
crosscutting overlays). Outbound messages are evaluated native chain
first; what that chain forwards is re-submitted to the next chain, and
only the survivors reach the wire. Inbound traffic runs the last
(crosscutting) chain first and then the others in order, so a
crosscutting law sees arrivals before the native law does. The pool records
into its net's trace and actors; its obligations are scheduler entries. Its
``agents`` is the only agent directory: a message to no adopted agent is
dead-lettered when sent, one whose target quit in flight when it arrives
(``_arrive``).

Every ruling goes through one mediation step, ``ControllerPool._mediate``:
it derives the ruling of one ``Chain`` on one event, computes the state it
commits by the one commit rule, ``core.commit`` (which replay applies
too), records the fields ``ruling_fields`` gives (which replay checks),
and then commits that state and the ruling's obligation ops. A stacked
chain joins its agent only once its opening ruling admits it. Sends,
arrivals and due obligations pass through the chains, and out of the last
one, by one chain walk, ``ControllerPool._walk``.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from .core import (
    Adopted,
    AgentName,
    Arrived,
    ControlState,
    Deliver,
    Event,
    FdsError,
    Forward,
    ImposeObligation,
    ObligationDue,
    RepealObligation,
    Sent,
    Term,
    commit,
)
from .hierarchy import Framework, LawPath, derive_ruling
from .lawlang import event_args
from .transport import SimNet

CA_KEY = b"acme-test-ca-key"
CA_NAME = "AcmeCA"


class AdoptionError(FdsError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Toy name certificate: binds a name and division to an issuer."""

    subject: str
    division: str
    issuer: str
    signature: str

    def to_term(self) -> Term:
        return Term("cert", (self.subject, self.division, self.issuer))


def _sig(key: bytes, subject: str, division: str, issuer: str) -> str:
    h = hashlib.sha256()
    h.update(key)
    h.update(subject.encode("utf-8"))
    h.update(division.encode("utf-8"))
    h.update(issuer.encode("utf-8"))
    return h.hexdigest()


def issue_certificate(subject: str, division: str, issuer: str = CA_NAME,
                      key: bytes = CA_KEY) -> Certificate:
    return Certificate(subject, division, issuer, _sig(key, subject, division, issuer))


def verify_certificate(cert: Certificate, key: bytes = CA_KEY) -> bool:
    return cert.signature == _sig(key, cert.subject, cert.division, cert.issuer)


@dataclass
class Chain:
    """One law chain of an agent: its index among the agent's chains, its
    law path, the state it committed, and its obligation validity map
    beside the scheduler's heap (an entry fires only if it matches)."""

    idx: int
    path: LawPath
    state: ControlState
    obligations: Dict[str, Tuple[int, int]] = field(default_factory=dict)  # canon -> (due, seq)


@dataclass
class AgentRecord:
    name: str
    division: str
    actor: object
    chains: List[Chain]


@dataclass
class Overlay:
    """The overlay of one ruling: the map of each functor to its terms that
    a view shares, and the text its ruling record keeps."""

    groups: Dict[str, tuple]
    text: str


def _overlay(*terms: Term) -> Overlay:
    """The overlay of ``terms``, each of its own functor."""
    return Overlay({t.functor: (t,) for t in terms}, ";".join([t.canonical() for t in terms]))


class Overlays:
    """The overlay rule: the terms the framework, not the law, supplies to
    a ruling. A ruling on no message sees the clock; one on a message also
    sees its peer's name, division and native law, and whether that law is
    the chain's own. The controller and replay both build overlays here.
    Each part is built once, with its map and its text: the clock part once
    per clock value, the four peer terms once per (peer, division, law,
    same). An overlay on a message joins the two parts.
    """

    __slots__ = ("_now", "_clock", "_peers")

    def __init__(self):
        self._now = None
        self._peers: Dict[tuple, Overlay] = {}

    def base(self, now: int) -> Overlay:
        """The overlay of a ruling at ``now`` on no message."""
        if now != self._now:
            self._now, self._clock = now, _overlay(Term("clock", (now,)))
        return self._clock

    def peer(self, now: int, law: str, name: str, division: str, peer_law: str) -> Overlay:
        """The overlay of a ruling at ``now`` of a chain under ``law`` on a
        message whose peer is ``name`` of ``division`` under ``peer_law``."""
        same = 1 if peer_law == law else 0
        key = (name, division, peer_law, same)
        part = self._peers.get(key)
        if part is None:
            part = self._peers[key] = _overlay(
                Term("peerName", (name,)), Term("peerDivision", (division,)),
                Term("peerLaw", (peer_law,)), Term("peerSameLaw", (same,)))
        clock = self.base(now)
        return Overlay({**clock.groups, **part.groups}, clock.text + ";" + part.text)


def ruling_fields(view, overlay: Overlay, ruling) -> dict:
    """The fields of a ruling record that follow from the event ``view``
    (as ``event_args`` gave it), the ``overlay`` and the derived ``ruling``,
    terms by their text. The controller records them and replay checks
    each, so a field added here is recorded and checked alike."""
    kind, args = view
    return {"event": kind, "eventArgs": [a.canonical() if a.__class__ is Term else a
                                         for a in args],
            "overlay": overlay.text, "ops": ruling.canonical_ops(),
            "blocked": ruling.block is not None}


class ControllerPool:
    """All simulated controllers, sharing one framework, net and clock."""

    def __init__(self, framework: Framework, net: SimNet):
        self.framework = framework
        self.net = net
        self.trace = net.trace
        self.agents: Dict[str, AgentRecord] = {}
        self._audit_seq = 0
        self.metrics: List[Tuple[str, int]] = []  # (leaf law, wall time ns) per ruling
        self._oblig_seq = 0
        self.overlays = Overlays()

    @property
    def now(self) -> int:
        return self.net.scheduler.now

    # -- adoption ----------------------------------------------------------

    def adopt(self, actor, cert: Certificate, law: str) -> AgentRecord:
        """Admit an actor under a law, opening its native chain."""
        if not verify_certificate(cert):
            raise AdoptionError("auth-failed")
        name = cert.subject
        if name in self.agents:
            raise AdoptionError("name-taken: %s" % name)
        path = self.framework.resolve_path(law)
        # identity terms come from the controller, not from law operations
        native = Chain(0, path, path.initial_state(name, cert.division))
        rec = AgentRecord(name, cert.division, actor, [native])
        if self._mediate(rec, native, Adopted(cert.to_term()),
                         self.overlays.base(self.now))[0].blocks():
            raise AdoptionError("adoption-refused: %s" % name)
        # only an admitted actor is bound to the pool
        actor.bind(self, name)
        self.agents[name] = rec
        self.net.actors[name] = actor
        self.trace.add("adopt", {"agent": name, "division": cert.division,
                                 "laws": [c.path.leaf for c in rec.chains]})
        return rec

    def stack_adopt(self, name: str, second: str) -> AgentRecord:
        """Put an already-adopted agent under an additional (crosscutting) law.

        Both the native chain and the new chain rule on the stacking event;
        either side blocking refuses the whole operation, and the new chain
        joins the agent only once its own ruling admits it.
        """
        rec = self.agents.get(name)
        if rec is None:
            raise AdoptionError("unknown-agent: %s" % name)
        path = self.framework.resolve_path(second)
        chain = Chain(len(rec.chains), path, path.initial_state(name, rec.division))
        native = rec.chains[0]
        for ruled, other in ((native, chain), (chain, native)):
            if self._mediate(rec, ruled, Adopted(Term("stack", (other.path.leaf,))),
                             self.overlays.base(self.now))[0].blocks():
                raise AdoptionError("stack-refused: %s" % name)
        rec.chains.append(chain)
        self.trace.add("stack-adopt", {"agent": name, "law": path.leaf})
        return rec

    def quit(self, name: str):
        if name not in self.agents:
            raise FdsError("unknown-agent: %s" % name)
        del self.agents[name]
        self.trace.add("quit", {"agent": name})

    # -- outbound ----------------------------------------------------------

    def send(self, sender: str, target: str, payload: Term) -> bool:
        """Submit a send attempt; returns True iff anything hit the wire."""
        rec = self.agents.get(sender)
        if rec is None:
            raise FdsError("unknown agent %s" % sender)
        sent_any, audited, reason = self._walk(rec, rec.chains, self._sent(target, payload))
        if audited and sent_any:
            self._audit_record(rec.name, rec.division, rec.chains[0].path.leaf, target, payload)
        if not sent_any and reason is not None:
            rec.actor.on_blocked(target, payload, reason)
        return sent_any

    def _sent(self, target: str, payload: Term):
        """The sent event of a message to ``target``, and its peer for the overlay."""
        peer = self.agents.get(target)
        division, law = (peer.division, peer.chains[0].path.leaf) if peer else ("", "")
        return Sent(AgentName(target, division), payload), (target, division, law)

    # -- inbound -----------------------------------------------------------

    def _arrive(self, envelope: dict, payload: Term):
        """Rule on the arrival of ``payload`` under its ``envelope`` record."""
        name = envelope["target"]
        rec = self.agents.get(name)
        if rec is None:
            self.trace.add("dead-letter", {"sender": envelope["sender"], "target": name,
                                           "payload": envelope["payload"],
                                           "envelope": envelope["seq"]})
            return
        peer = (envelope["sender"], envelope["senderDivision"], envelope["senderLaw"])
        arrived = Arrived(AgentName(*peer[:2]), peer[2], payload)
        chains = rec.chains
        # crosscutting overlays inspect arrivals before the native law
        passed, audited, _ = self._walk(rec, chains[-1:] + chains[:-1], (arrived, peer),
                                        envelope["seq"])
        if audited and passed:
            self._audit_record(*peer, name, payload)

    # -- obligations and time ----------------------------------------------

    def tick(self, entry):
        """Fire the obligation ``(rec, chain, canon, term, key)`` unless its agent
        quit or its chain's map no longer holds its ``key``, ``(due, seq)``."""
        rec, chain, canon, term, key = entry
        if self.agents.get(rec.name) is not rec or chain.obligations.get(canon) != key:
            return
        del chain.obligations[canon]
        self._walk(rec, (chain,), (ObligationDue(term), None))

    # -- internals ---------------------------------------------------------

    def _walk(self, rec: AgentRecord, order, first, envelope: Optional[int] = None):
        """Mediate a message or due obligation through ``order``; act on what passes.

        ``first`` is the event submitted to the first chain and the peer
        ``(name, division, law)`` of its overlay, or None for the base
        overlay. A ``Forward`` submits the message it sends to the next
        chain; past the last it goes on the wire, or to a dead letter if its
        target is not adopted. A ``Deliver`` submits its arrival from the same
        sender; past the last it reaches the actor under a ``deliver`` record,
        from the peer citing ``envelope`` or, with none, from the agent citing
        its ruling. Returns whether anything passed, whether any ruling
        audited, and the reason of the last block.
        """
        now, overlays = self.now, self.overlays
        work = [(0, first)]
        out, seqs, audited, reason = [], [], False, None
        # the loop also reaches what it appends to ``work``
        for pos, (event, peer) in work:
            chain = order[pos]
            overlay = overlays.peer(now, chain.path.leaf, *peer) if peer \
                else overlays.base(now)
            ruling, seq = self._mediate(rec, chain, event, overlay, envelope)
            seqs.append(seq)
            audited = audited or ruling.audits
            if ruling.block is not None:
                reason = ruling.block.reason
                continue
            for op in ruling.ops:
                cls = op.__class__
                if cls is not Forward and cls is not Deliver:
                    continue
                if pos + 1 == len(order):
                    out.append((chain, op, seq))
                elif cls is Forward:
                    work.append((pos + 1, self._sent(op.target, op.payload)))
                else:
                    work.append((pos + 1, (Arrived(event.sender, event.sender_law, op.payload),
                                           peer)))
        passed = False
        for chain, op, seq in out:
            if op.__class__ is Deliver:
                sender, cites = (first[1][0], {"envelope": envelope}) if envelope is not None \
                    else (rec.name, {"ruling": seq})
                self.trace.add("deliver", {"agent": rec.name, "sender": sender,
                                           "payload": op.payload.canonical(), **cites})
                rec.actor.on_deliver(sender, op.payload)
            elif op.target in self.agents:
                self.net.send({"sender": rec.name, "senderDivision": rec.division,
                               "senderLaw": chain.path.leaf, "target": op.target,
                               "payload": op.payload.canonical(), "kind": "lgi-message",
                               "fromRulings": seqs[:]}, op.payload, self._arrive)
            else:
                # drawing no latency, so later envelopes keep their delivery times
                self.trace.add("dead-letter", {"sender": rec.name, "target": op.target,
                                               "payload": op.payload.canonical()})
                continue
            passed = True
        return passed, audited, reason

    def _mediate(self, rec: AgentRecord, chain: Chain, event: Event, overlay: Overlay,
                 envelope: Optional[int] = None):
        """Derive ``chain``'s ruling on ``event``, record it and commit it.

        The ruling is derived in one view of the chain's state and the
        ``overlay``'s map. ``commit`` gives the state to commit before the
        ruling is recorded, as one dict, so a law error in its state ops
        leaves no ruling record; a refused adoption commits neither state
        nor obligation ops. No record holds a state: replay opens a chain in
        its law path's ``initial_state``, as ``adopt`` and ``stack_adopt``
        do, and derives every later state from the recorded rulings.
        Returns the ruling and the seq of its trace record.
        """
        path = chain.path
        leaf = path.leaf
        state = chain.state.overlaid(overlay.groups)
        t0 = _time.perf_counter_ns()
        view = event_args(event, state)
        ruling = derive_ruling(path, event, state, view)
        after = commit(state, view[0], ruling)
        self.metrics.append((leaf, _time.perf_counter_ns() - t0))
        record = {"agent": rec.name, "chain": chain.idx, "law": leaf,
                  **ruling_fields(view, overlay, ruling)}
        if envelope is not None:
            record["envelope"] = envelope
        seq = self.trace.add("ruling", record)
        if after is None:
            return ruling, seq
        chain.state = after
        if not ruling.obliges:
            return ruling, seq
        table, scheduler = chain.obligations, self.net.scheduler
        for op in ruling.ops:
            if op.__class__ is ImposeObligation:
                self._oblig_seq += 1
                canon = op.name.canonical()
                key = table[canon] = (scheduler.now + op.due_in, self._oblig_seq)
                scheduler.oblige(key[0], partial(self.tick, (rec, chain, canon, op.name, key)))
            elif op.__class__ is RepealObligation:
                table.pop(op.name.canonical(), None)
        return ruling, seq

    def _audit_record(self, sender: str, division: str, law: str, target: str,
                      payload: Term):
        self.trace.add("audit", {"auditSeq": self._audit_seq, "senderName": sender,
                                 "senderDivision": division, "senderLaw": law,
                                 "target": target, "payloadFunctor": payload.functor})
        self._audit_seq += 1

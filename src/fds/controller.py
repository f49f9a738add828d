"""Controllers: the trusted middleware that mediates every regulated event.

A controller pool hosts one logical controller per adopted agent. Each
agent runs under one or more law chains (a native chain plus optional
crosscutting overlays). Outbound messages are evaluated native chain
first; what that chain forwards is re-submitted to the next chain, and
only the survivors reach the wire. Inbound traffic runs the last
(crosscutting) chain first and then the others in order, so a
crosscutting law sees arrivals before the native law does. The pool also
keeps the obligation clock and the audit sink.

Every ruling goes through one mediation step, ``ControllerPool._mediate``:
it derives the ruling of one chain on one event, records it in the trace,
and commits it. It alone knows the commit rule: a ruling that blocks an
``adopted`` event commits nothing, since the adoption is refused; every
other ruling, blocked or not, commits its new state and its obligation
ops. Sends and arrivals pass through the chains by one chain walk,
``ControllerPool._walk``.
"""

from __future__ import annotations

import hashlib
import heapq
import time as _time
from dataclasses import dataclass, field
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
)
from .hierarchy import Framework, LawPath, derive_ruling
from .lawlang import event_args
from .transport import Envelope, SimNet, Trace, make_envelope

CA_KEY = b"acme-test-ca-key"
CA_NAME = "AcmeCA"


def _noop():
    pass


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
class AgentRecord:
    name: str
    division: str
    actor: object
    chains: List[LawPath]
    states: List[ControlState]
    # per chain: obligation name canonical -> (due time, imposition seq), the
    # validity map beside the pool's heap: a popped entry fires only if it matches
    obligations: List[Dict[str, Tuple[int, int]]] = field(default_factory=list)


class Overlays:
    """The overlay rule: the terms the framework, not the law, supplies to
    a ruling. A ruling on no message sees the clock; one on a message also
    sees its peer's name, division and native law, and whether that law is
    the chain's own. The controller and replay both build overlays here.
    Terms are built once and keep their text: one clock term per clock
    value, four peer terms per (peer, division, law, same).
    """

    __slots__ = ("_clock", "_peers")

    def __init__(self):
        self._clock = Term("clock", (0,))
        self._peers: Dict[tuple, Tuple[Term, ...]] = {}

    def base(self, now: int) -> Tuple[Term, ...]:
        """The overlay of a ruling at ``now`` on no message."""
        clock = self._clock
        if clock.args[0] != now:
            clock = self._clock = Term("clock", (now,))
        return (clock,)

    def peer(self, now: int, law: str, name: str, division: str,
             peer_law: str) -> Tuple[Term, ...]:
        """The overlay of a ruling at ``now`` of a chain under ``law`` on a
        message whose peer is ``name`` of ``division`` under ``peer_law``."""
        same = 1 if peer_law == law else 0
        key = (name, division, peer_law, same)
        terms = self._peers.get(key)
        if terms is None:
            terms = self._peers[key] = (
                Term("peerName", (name,)),
                Term("peerDivision", (division,)),
                Term("peerLaw", (peer_law,)),
                Term("peerSameLaw", (same,)),
            )
        return self.base(now) + terms

    @staticmethod
    def text(overlay) -> str:
        """An overlay as the trace records it."""
        return ";".join([t.canonical() for t in overlay])


class ControllerPool:
    """All simulated controllers, sharing one framework, net and clock."""

    def __init__(self, framework: Framework, net: SimNet, trace: Trace):
        self.framework = framework
        self.net = net
        self.trace = trace
        self.agents: Dict[str, AgentRecord] = {}
        self.audit: List[dict] = []
        self.metrics: List[Tuple[str, int]] = []  # (leaf law, wall time ns) per ruling
        self._obligations: List[tuple] = []  # heap: (due, seq, rec, idx, canon, term)
        self._oblig_seq = 0
        self.overlays = Overlays()
        net.scheduler.add_ticker(self.tick)

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
        rec = AgentRecord(name, cert.division, actor, [path],
                          [path.initial_state(name, cert.division)], [{}])
        if self._mediate(rec, 0, Adopted(cert.to_term()), self.overlays.base(self.now),
                         opens=True)[0].blocks():
            raise AdoptionError("adoption-refused: %s" % name)
        # only an admitted actor is bound to the pool
        bind = getattr(actor, "bind", None)
        if bind is not None:
            bind(self, name)
        self.agents[name] = rec
        self.net.register(name, self._make_inbox(name))
        self.net.register_actor(name, actor)
        self.trace.add("adopt", agent=name, division=cert.division,
                       laws=[p.leaf for p in rec.chains])
        return rec

    def stack_adopt(self, name: str, second: str) -> AgentRecord:
        """Put an already-adopted agent under an additional (crosscutting) law.

        Both the native chain and the new chain rule on the stacking event;
        either side blocking refuses the whole operation.
        """
        rec = self.agents.get(name)
        if rec is None:
            raise AdoptionError("unknown-agent: %s" % name)
        path = self.framework.resolve_path(second)
        st = path.initial_state(name, rec.division)
        native = Adopted(Term("stack", (path.leaf,)))
        if self._mediate(rec, 0, native, self.overlays.base(self.now))[0].blocks():
            raise AdoptionError("stack-refused: %s" % name)
        rec.chains.append(path)
        rec.states.append(st)
        rec.obligations.append({})
        event = Adopted(Term("stack", (rec.chains[0].leaf,)))
        if self._mediate(rec, len(rec.chains) - 1, event, self.overlays.base(self.now),
                         opens=True)[0].blocks():
            rec.chains.pop()
            rec.states.pop()
            rec.obligations.pop()
            raise AdoptionError("stack-refused: %s" % name)
        self.trace.add("stack-adopt", agent=name, law=path.leaf)
        return rec

    def quit(self, name: str):
        if name not in self.agents:
            raise FdsError("unknown-agent: %s" % name)
        self.net.unregister(name)
        del self.agents[name]
        self.trace.add("quit", agent=name)

    # -- outbound ----------------------------------------------------------

    def send(self, sender: str, target: str, payload: Term) -> bool:
        """Submit a send attempt; returns True iff anything hit the wire."""
        rec = self.agents.get(sender)
        if rec is None:
            raise FdsError("unknown agent %s" % sender)
        out, seqs, audited, reason = self._walk(
            rec, range(len(rec.chains)), self._sent(target, payload), Forward,
            lambda op: self._sent(op.target, op.payload))
        sent_any = False
        for idx, op in out:
            if self._emit(rec, idx, op, seqs) is not None:
                sent_any = True
        if audited and sent_any:
            self._audit_record(rec.name, rec.division, rec.chains[0].leaf, target, payload)
        if not sent_any and reason is not None:
            notify = getattr(rec.actor, "on_blocked", None)
            if notify is not None:
                notify(target, payload, reason)
        return sent_any

    def _sent(self, target: str, payload: Term):
        """The sent event of a message to ``target``, and its peer for the overlay."""
        peer = self.agents.get(target)
        division, law = (peer.division, peer.chains[0].leaf) if peer else ("", "")
        return Sent(AgentName(target, division), payload), (target, division, law)

    def _emit(self, rec: AgentRecord, idx: int, op: Forward, rulings):
        env = make_envelope("lgi-message", rec.name, rec.division,
                            rec.chains[idx].hashes, op.target, op.payload, self.now)
        return self.net.send(env, from_rulings=rulings)

    # -- inbound -----------------------------------------------------------

    def _make_inbox(self, name: str):
        def inbox(env: Envelope, env_seq: int):
            self._arrive(name, env, env_seq)

        return inbox

    def _arrive(self, name: str, env: Envelope, env_seq: int):
        rec = self.agents.get(name)
        if rec is None:
            self.trace.add("dead-letter", sender=env.sender_name, target=name,
                           payload=env.payload, envelope=env_seq)
            return
        sender = AgentName(env.sender_name, env.sender_division)
        peer = (env.sender_name, env.sender_division, env.sender_law)
        last = len(rec.chains) - 1
        payload = env.payload_term()
        # crosscutting overlays inspect arrivals before the native law
        out, _, audited, _ = self._walk(
            rec, [last, *range(last)], (Arrived(sender, env.sender_law, payload), peer),
            Deliver, lambda op: (Arrived(sender, env.sender_law, op.payload), peer), env_seq)
        for _, op in out:
            self.trace.add("deliver", agent=name, sender=env.sender_name,
                           payload=op.payload.canonical(), envelope=env_seq)
            rec.actor.on_deliver(env.sender_name, op.payload)
        if audited and out:
            self._audit_record(env.sender_name, env.sender_division, env.sender_law,
                               name, payload)

    # -- obligations and time ----------------------------------------------

    def tick(self, now: int):
        # pop the due set before firing: what these impose waits for the next advance
        heap, due = self._obligations, []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap))
        for when, seq, rec, idx, canon, term in due:
            if (self.agents.get(rec.name) is not rec
                    or rec.obligations[idx].get(canon) != (when, seq)):
                continue  # agent quit, or obligation repealed or re-imposed
            del rec.obligations[idx][canon]
            ruling, rseq = self._mediate(rec, idx, ObligationDue(term),
                                         self.overlays.base(self.now))
            if ruling.block is not None:
                continue
            for op in ruling.ops:
                if isinstance(op, Forward):
                    self._emit(rec, idx, op, [rseq])
                elif isinstance(op, Deliver):
                    rec.actor.on_deliver(rec.name, op.payload)

    # -- internals ---------------------------------------------------------

    def _walk(self, rec: AgentRecord, order, first, passes, relay,
              envelope: Optional[int] = None):
        """Mediate one message through ``rec``'s chains in ``order``.

        ``first`` is the event the message submits to the first chain and
        the peer ``(name, division, law)`` of its overlay. A chain passes
        the message on by ops of type ``passes`` (``Forward`` or
        ``Deliver``); ``relay(op)`` gives the event and peer such an op
        submits to the next chain. Returns the ops the last chain passes
        on, each with the index of that chain, the ruling seqs, whether any
        ruling audited, and the reason of the last block.
        """
        work = [(0, first)]
        out, seqs, audited, reason = [], [], False, None
        while work:
            pos, (event, peer) = work.pop(0)
            idx = order[pos]
            overlay = self.overlays.peer(self.now, rec.chains[idx].leaf, *peer)
            ruling, seq = self._mediate(rec, idx, event, overlay, envelope)
            seqs.append(seq)
            audited = audited or ruling.audits
            if ruling.block is not None:
                reason = ruling.block.reason
                continue
            for o in ruling.ops:
                if isinstance(o, passes):
                    if pos + 1 < len(order):
                        work.append((pos + 1, relay(o)))
                    else:
                        out.append((idx, o))
        return out, seqs, audited, reason

    def _mediate(self, rec: AgentRecord, idx: int, event: Event, overlay,
                 envelope: Optional[int] = None, opens: bool = False):
        """Derive chain ``idx``'s ruling on ``event``, record it and commit it.

        A ruling that blocks an ``adopted`` event commits nothing; any other
        commits its new state and its obligation ops. Only the ruling that
        ``opens`` the chain records the state it starts from; replay derives
        every later state from it and the recorded ops. Returns the ruling
        and the seq of its trace record.
        """
        path = rec.chains[idx]
        before = rec.states[idx]
        state = before.with_overlay(overlay)
        t0 = _time.perf_counter_ns()
        kind, args = view = event_args(event, state)
        ruling = derive_ruling(path, event, state, view)
        self.metrics.append((path.leaf, _time.perf_counter_ns() - t0))
        blocked = ruling.block is not None
        seq = self.trace.add(
            "ruling",
            agent=rec.name,
            chain=idx,
            law=path.leaf,
            event=kind,
            eventArgs=[a.canonical() if isinstance(a, Term) else a for a in args],
            overlay=Overlays.text(overlay),
            ops=ruling.canonical_ops(),
            blocked=blocked,
            **({"envelope": envelope} if envelope is not None else {}),
            **({"stateBefore": before.canonical()} if opens else {}),
        )
        if blocked and kind == "adopted":
            return ruling, seq
        rec.states[idx] = ruling.new_state
        if not ruling.obliges:
            return ruling, seq
        table = rec.obligations[idx]
        for op in ruling.ops:
            if isinstance(op, ImposeObligation):
                self._oblig_seq += 1
                due, canon = self.now + op.due_in, op.name.canonical()
                table[canon] = (due, self._oblig_seq)
                heapq.heappush(self._obligations,
                               (due, self._oblig_seq, rec, idx, canon, op.name))
                # wake the scheduler so the obligation fires on time even
                # when no other traffic advances the clock past its due point
                self.net.scheduler.schedule(due, _noop)
            elif isinstance(op, RepealObligation):
                table.pop(op.name.canonical(), None)
        return ruling, seq

    def _audit_record(self, sender: str, division: str, law: str, target: str,
                      payload: Term):
        entry = {"senderName": sender, "senderDivision": division, "senderLaw": law,
                 "target": target, "payloadFunctor": payload.functor}
        self.trace.add("audit", auditSeq=len(self.audit), **entry)
        self.audit.append(dict(entry, seq=len(self.audit), time=self.now))

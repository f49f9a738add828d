"""Controllers: the trusted middleware that mediates every regulated event.

A controller pool hosts one logical controller per adopted agent. Each
agent runs under one or more law chains (a native chain plus optional
crosscutting overlays). Outbound messages are evaluated native chain
first; what that chain forwards is re-submitted to the next chain, and
only the survivors reach the wire. Inbound traffic runs the chains in the
opposite order, so a crosscutting law sees arrivals before the native law
does. The pool also keeps the obligation clock and the audit sink.
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
    AuditLog,
    Block,
    ControlState,
    Deliver,
    Event,
    ExceptionEvent,
    FdsError,
    Forward,
    ImposeObligation,
    ObligationDue,
    RepealObligation,
    Ruling,
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
        # overlay terms are built once and keep their rendered text: one
        # clock term per clock value, four peer terms per (peer, division,
        # law, same)
        self._clock = Term("clock", (net.scheduler.now,))
        self._peer_terms: Dict[tuple, Tuple[Term, ...]] = {}
        net.scheduler.add_ticker(self.tick)

    @property
    def now(self) -> int:
        return self.net.scheduler.now

    # -- adoption ----------------------------------------------------------

    def adopt(self, actor, cert: Certificate, law: str, stack=()) -> AgentRecord:
        """Admit an actor under a law (plus optional crosscutting laws)."""
        if not verify_certificate(cert):
            raise AdoptionError("auth-failed")
        name = cert.subject
        if name in self.agents:
            raise AdoptionError("name-taken: %s" % name)
        bind = getattr(actor, "bind", None)
        if bind is not None:
            bind(self, name)
        chains = [self.framework.resolve_path(law)]
        for extra in stack:
            chains.append(self.framework.resolve_path(extra))
        # identity terms come from the controller, not from law operations
        states = [path.initial_state(name, cert.division) for path in chains]
        rec = AgentRecord(name, cert.division, actor, chains, states,
                          [dict() for _ in chains])
        for idx, path in enumerate(rec.chains):
            event = Adopted(cert.to_term())
            ruling, _ = self._rule(rec, idx, event, overlay=self._base_overlay())
            if ruling.blocks():
                raise AdoptionError("adoption-refused: %s" % name)
            rec.states[idx] = ruling.new_state
            self._side_effects(rec, idx, ruling, event)
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
        native_event = Adopted(Term("stack", (path.leaf,)))
        ruling, _ = self._rule(rec, 0, native_event, overlay=self._base_overlay())
        if ruling.blocks():
            raise AdoptionError("stack-refused: %s" % name)
        rec.states[0] = ruling.new_state
        self._side_effects(rec, 0, ruling, native_event)
        rec.chains.append(path)
        rec.states.append(st)
        rec.obligations.append({})
        idx = len(rec.chains) - 1
        event = Adopted(Term("stack", (rec.chains[0].leaf,)))
        ruling, _ = self._rule(rec, idx, event, overlay=self._base_overlay())
        if ruling.blocks():
            rec.chains.pop()
            rec.states.pop()
            rec.obligations.pop()
            raise AdoptionError("stack-refused: %s" % name)
        rec.states[idx] = ruling.new_state
        self._side_effects(rec, idx, ruling, event)
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
        work = [(0, Sent(self._peer(target), payload))]
        ruling_seqs: List[int] = []
        out: List[Tuple[int, Forward]] = []  # (chain idx of final stage, op)
        audited = False
        blocked_reason = None
        while work:
            idx, event = work.pop(0)
            ruling, seq = self._rule(rec, idx, event,
                                     overlay=self._peer_overlay(event.target.name,
                                                                rec.chains[idx].leaf))
            ruling_seqs.append(seq)
            rec.states[idx] = ruling.new_state
            self._side_effects(rec, idx, ruling, event)
            audited = audited or any(isinstance(o, AuditLog) for o in ruling.ops)
            if ruling.blocks():
                blocked_reason = next(o.reason for o in ruling.ops if isinstance(o, Block))
                continue
            for op in ruling.ops:
                if isinstance(op, Forward):
                    if idx + 1 < len(rec.chains):
                        work.append((idx + 1, Sent(self._peer(op.target), op.payload)))
                    else:
                        out.append((idx, op))
        sent_any = False
        for idx, op in out:
            env = make_envelope(
                "lgi-message", rec.name, rec.division,
                rec.chains[idx].hashes, op.target, op.payload, self.now,
            )
            if self.net.send(env, from_rulings=ruling_seqs) is not None:
                sent_any = True
        if audited and sent_any:
            self._audit_record("send", rec, target, payload)
        if not sent_any and blocked_reason is not None:
            notify = getattr(rec.actor, "on_blocked", None)
            if notify is not None:
                notify(target, payload, blocked_reason)
        return sent_any

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
        order = list(range(len(rec.chains)))
        # crosscutting overlays inspect arrivals before the native law
        first = order[-1:] + order[:-1] if len(order) > 1 else order
        payload = env.payload_term()
        work = [(first[0], Arrived(sender, env.sender_law, payload))]
        audited = False
        delivered = []
        while work:
            idx, event = work.pop(0)
            same = 1 if env.sender_law == rec.chains[idx].leaf else 0
            overlay = self._peer_overlay(env.sender_name, rec.chains[idx].leaf,
                                         division=env.sender_division,
                                         law=env.sender_law, same=same)
            ruling, _ = self._rule(rec, idx, event, overlay=overlay, envelope=env_seq)
            rec.states[idx] = ruling.new_state
            self._side_effects(rec, idx, ruling, event)
            audited = audited or any(isinstance(o, AuditLog) for o in ruling.ops)
            if ruling.blocks():
                continue
            nxt = first.index(idx) + 1
            for op in ruling.ops:
                if isinstance(op, Deliver):
                    if nxt < len(first):
                        work.append((first[nxt], Arrived(sender, env.sender_law, op.payload)))
                    else:
                        delivered.append(op.payload)
        for term in delivered:
            self.trace.add("deliver", agent=name, sender=env.sender_name,
                           payload=term.canonical(), envelope=env_seq)
            rec.actor.on_deliver(env.sender_name, term)
        if audited and delivered:
            self._audit_record("arrive", rec, env.sender_name, payload,
                               peer_division=env.sender_division,
                               peer_law=env.sender_law)

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
            event = ObligationDue(term)
            ruling, rseq = self._rule(rec, idx, event, overlay=self._base_overlay())
            rec.states[idx] = ruling.new_state
            self._side_effects(rec, idx, ruling, event)
            if ruling.blocks():
                continue
            for op in ruling.ops:
                if isinstance(op, Forward):
                    env = make_envelope("lgi-message", rec.name, rec.division,
                                        rec.chains[idx].hashes, op.target, op.payload,
                                        self.now)
                    self.net.send(env, from_rulings=[rseq])
                elif isinstance(op, Deliver):
                    rec.actor.on_deliver(rec.name, op.payload)

    def raise_exception(self, name: str, reason: str):
        rec = self.agents.get(name)
        if rec is None:
            return
        for idx in range(len(rec.chains)):
            event = ExceptionEvent(reason)
            ruling, _ = self._rule(rec, idx, event, overlay=self._base_overlay())
            rec.states[idx] = ruling.new_state
            self._side_effects(rec, idx, ruling, event)

    # -- internals ---------------------------------------------------------

    def _peer(self, target: str) -> AgentName:
        peer = self.agents.get(target)
        if peer is None:
            return AgentName(target)
        return AgentName(target, peer.division)

    def _peer_overlay(self, peer: str, own_leaf: str, division=None, law=None,
                      same=None):
        if division is None or law is None:
            rec = self.agents.get(peer)
            division = rec.division if rec else ""
            law = rec.chains[0].leaf if rec else ""
            if same is None:
                same = 1 if law == own_leaf else 0
        key = (peer, division, law, same)
        terms = self._peer_terms.get(key)
        if terms is None:
            terms = self._peer_terms[key] = (
                Term("peerName", (peer,)),
                Term("peerDivision", (division,)),
                Term("peerLaw", (law,)),
                Term("peerSameLaw", (same,)),
            )
        return [*self._base_overlay(), *terms]

    def _base_overlay(self):
        if self._clock.args[0] != self.now:
            self._clock = Term("clock", (self.now,))
        return [self._clock]

    def _rule(self, rec: AgentRecord, idx: int, event: Event, overlay,
              envelope: Optional[int] = None):
        path = rec.chains[idx]
        state = rec.states[idx].with_overlay(overlay)
        t0 = _time.perf_counter_ns()
        kind, args = view = event_args(event, state)
        ruling = derive_ruling(path, event, state, view)
        self.metrics.append((path.leaf, _time.perf_counter_ns() - t0))
        seq = self.trace.add(
            "ruling",
            agent=rec.name,
            chain=idx,
            law=path.leaf,
            event=kind,
            eventArgs=[a.canonical() if isinstance(a, Term) else a for a in args],
            overlay=";".join(t.canonical() for t in overlay),
            stateBefore=rec.states[idx].canonical(),
            stateAfter=ruling.new_state.canonical(),
            ops=ruling.canonical_ops(),
            blocked=ruling.blocks(),
            **({"envelope": envelope} if envelope is not None else {}),
        )
        return ruling, seq

    def _side_effects(self, rec: AgentRecord, idx: int, ruling: Ruling, event: Event):
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

    def _audit_record(self, direction: str, rec: AgentRecord, peer: str,
                      payload: Term, peer_division: Optional[str] = None,
                      peer_law: str = ""):
        if peer_division is None:
            other = self.agents.get(peer)
            peer_division = other.division if other else ""
        if direction == "send":
            entry = {
                "senderName": rec.name, "senderDivision": rec.division,
                "senderLaw": rec.chains[0].leaf,
                "target": peer, "payloadFunctor": payload.functor,
            }
        else:
            entry = {
                "senderName": peer, "senderDivision": peer_division,
                "senderLaw": peer_law,
                "target": rec.name, "payloadFunctor": payload.functor,
            }
        entry["seq"] = len(self.audit)
        entry["time"] = self.now
        self.audit.append(entry)
        self.trace.add("audit", auditSeq=entry["seq"],
                       **{k: v for k, v in entry.items() if k not in ("time", "seq")})

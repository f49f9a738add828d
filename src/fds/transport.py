"""Envelopes, the trace, and the simulated message carrier.

Envelopes travel over a deterministic simulated network driven by a
logical-time scheduler. A rogue side channel delivers payloads
actor-to-actor, bypassing all mediation, unless the simulated firewall is
switched on.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import FdsError, Term, Value, parse_term

ENVELOPE_VERSION = 1

ENVELOPE_KINDS = ("lgi-message",)


class CodecError(FdsError):
    pass


class Envelope(Value):
    """One message on the wire.

    ``payload`` is the canonical term text, which the trace records. An
    envelope built by ``make_envelope`` from a ``Term`` also carries the
    sender's term itself in ``term``, which equals ``parse_term(payload)``;
    it is kept beside the fields, so equality, hashing and ``repr`` ignore
    it. ``payload_term()`` returns the carried term and parses only an
    envelope built from text.
    """

    _fields = ("version", "kind", "sender_name", "sender_division", "sender_law",
               "sender_path", "target", "payload", "sent_at")
    __slots__ = _fields + ("term",)

    def __init__(self, version: int, kind: str, sender_name: str, sender_division: str,
                 sender_law: str, sender_path: tuple, target: str, payload: str,
                 sent_at: int, term: Optional[Term] = None):
        self.version = version
        self.kind = kind
        self.sender_name = sender_name
        self.sender_division = sender_division
        self.sender_law = sender_law
        self.sender_path = sender_path
        self.target = target
        self.payload = payload  # canonical term text
        self.sent_at = sent_at
        self.term = term

    def payload_term(self) -> Term:
        if self.term is not None:
            return self.term
        return parse_term(self.payload)


def make_envelope(kind, sender_name, sender_division, sender_path, target, payload,
                  sent_at) -> Envelope:
    if kind not in ENVELOPE_KINDS:
        raise CodecError("unknown envelope kind %r" % kind)
    path = tuple(sender_path)
    if not path:
        raise CodecError("sender path must be non-empty")
    return Envelope(
        version=ENVELOPE_VERSION,
        kind=kind,
        sender_name=sender_name,
        sender_division=sender_division,
        sender_law=path[-1],
        sender_path=path,
        target=target,
        payload=payload if isinstance(payload, str) else payload.canonical(),
        sent_at=sent_at,
        term=None if isinstance(payload, str) else payload,
    )


# ---------------------------------------------------------------------------
# trace recording


class Trace:
    """Append-only run record; the replayable source of truth for a run."""

    def __init__(self, now_fn: Callable[[], int] = lambda: 0):
        self.records: List[dict] = []
        self.now_fn = now_fn

    def add(self, rectype: str, **fields) -> int:
        seq = len(self.records)
        rec = {"seq": seq, "time": self.now_fn(), "type": rectype}
        rec.update(fields)
        self.records.append(rec)
        return seq

    def of_type(self, rectype: str) -> List[dict]:
        return [r for r in self.records if r["type"] == rectype]


# ---------------------------------------------------------------------------
# deterministic scheduler and simulated network


class Scheduler:
    """Logical-time event loop. Ties break by scheduling order."""

    def __init__(self, start: int = 0):
        self.now = start
        self._heap: list = []
        self._seq = 0
        self._tickers: List[Callable[[int], None]] = []

    def schedule(self, time: int, fn: Callable[[], None]):
        if time < self.now:
            time = self.now
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def add_ticker(self, fn: Callable[[int], None]):
        """Called whenever logical time advances (before due items run)."""
        self._tickers.append(fn)

    def run(self, until: Optional[int] = None):
        while self._heap:
            time, _, fn = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if time > self.now:
                self.now = time
                for t in self._tickers:
                    t(self.now)
            fn()
        if until is not None and until > self.now:
            self.now = until
            for t in self._tickers:
                t(self.now)


@dataclass
class SimNetConfig:
    seed: int = 0
    latency: Tuple[int, int] = (1, 1)
    delivery_order: str = "fifo-per-pair"  # or "random-seeded"
    firewall: bool = False


class SimNet:
    """Seeded, reproducible message carrier for simulation runs."""

    def __init__(self, scheduler: Scheduler, config: SimNetConfig, trace: Trace):
        self.scheduler = scheduler
        self.config = config
        self.trace = trace
        self.rng = random.Random(config.seed)
        self._targets: Dict[str, Callable[[Envelope, int], None]] = {}
        self._actors: Dict[str, object] = {}
        self._last_pair: Dict[Tuple[str, str], int] = {}

    def register(self, name: str, deliver: Callable[[Envelope, int], None]):
        self._targets[name] = deliver

    def unregister(self, name: str):
        self._targets.pop(name, None)

    def register_actor(self, name: str, actor):
        self._actors[name] = actor

    def send(self, env: Envelope, from_rulings=()) -> Optional[int]:
        if env.target not in self._targets:
            self.trace.add(
                "dead-letter", sender=env.sender_name, target=env.target, payload=env.payload
            )
            return None
        lo, hi = self.config.latency
        lat = self.rng.randint(lo, hi) if hi > lo else lo
        at = max(env.sent_at + lat, self.scheduler.now)
        if self.config.delivery_order == "fifo-per-pair":
            key = (env.sender_name, env.target)
            at = max(at, self._last_pair.get(key, 0))
            self._last_pair[key] = at
        seq = self.trace.add(
            "envelope",
            sender=env.sender_name,
            senderDivision=env.sender_division,
            senderLaw=env.sender_law,
            target=env.target,
            payload=env.payload,
            kind=env.kind,
            deliverAt=at,
            fromRulings=list(from_rulings),
        )
        deliver = self._targets[env.target]
        self.scheduler.schedule(at, lambda: deliver(env, seq))
        return seq

    def rogue_send(self, from_actor: str, to_actor: str, payload: Term):
        """Direct actor-to-actor delivery, bypassing every controller."""
        if self.config.firewall:
            self.trace.add(
                "rogue-blocked", sender=from_actor, target=to_actor, payload=payload.canonical()
            )
            return False
        self.trace.add(
            "rogue", sender=from_actor, target=to_actor, payload=payload.canonical()
        )
        actor = self._actors.get(to_actor)
        if actor is not None:
            receive = getattr(actor, "receive_rogue", None)
            if receive is not None:
                receive(from_actor, payload)
        return True


"""Envelopes, the trace, and the simulated message carrier.

The net only carries: the controller pool decides what goes on the wire
and hands ``SimNet.send`` the callback that receives it, on a
deterministic logical-time scheduler. A rogue side channel delivers
payloads actor-to-actor, bypassing all mediation, unless the simulated
firewall is switched on.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import Term, value


@value
class Envelope:
    """One message on the wire: its sender's name, division and native law,
    its target's name, and the payload term the receiver rules on. The
    trace records the payload's canonical text."""

    sender_name: str
    sender_division: str
    sender_law: str
    target: str
    payload: Term


# ---------------------------------------------------------------------------
# trace recording


class Trace:
    """Append-only run record; the replayable source of truth for a run."""

    def __init__(self, now_fn: Callable[[], int]):
        self.records: List[dict] = []
        self.now_fn = now_fn

    def add(self, rectype: str, fields: dict) -> int:
        """Append the record ``fields`` its caller built; returns its seq."""
        seq = fields["seq"] = len(self.records)
        fields["time"] = self.now_fn()
        fields["type"] = rectype
        self.records.append(fields)
        return seq

    def of_type(self, rectype: str) -> List[dict]:
        return [r for r in self.records if r["type"] == rectype]


# ---------------------------------------------------------------------------
# deterministic scheduler and simulated network


class Scheduler:
    """Logical-time event loop, the one queue of timed work. Its heap holds
    ``(time, rank, seq, fn)``: obligations (rank 0) run first among the items
    of their time, ties break by scheduling order. One due by ``now`` waits
    for the next advance, so ``on obligationDue(x) do { oblige x in 0 }``
    cannot hold the clock still; ``run(until)`` fires the waiting ones at
    ``until`` as it stops, but not what they schedule there."""

    def __init__(self):
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self._waiting: List[tuple] = []  # (due, seq, fn): due by now, fire at the next advance

    def schedule(self, time: int, fn: Callable[[], None]):
        if time < self.now:
            time = self.now
        heapq.heappush(self._heap, (time, 1, self._seq, fn))
        self._seq += 1

    def oblige(self, due: int, fn: Callable[[], None]):
        """Fire ``fn`` as an obligation due at ``due``."""
        if due > self.now:
            heapq.heappush(self._heap, (due, 0, self._seq, fn))
        else:
            self._waiting.append((due, self._seq, fn))
        self._seq += 1

    def _advance(self, time: int):
        self.now = time
        if self._waiting:
            waiting, self._waiting = sorted(self._waiting), []
            for _, _, fn in waiting:
                fn()

    def run(self, until: Optional[int] = None):
        heap = self._heap
        while heap:
            time, _, _, fn = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if time > self.now:
                self._advance(time)
            fn()
        if until is not None and until > self.now:
            self._advance(until)


@dataclass
class SimNetConfig:
    seed: int = 0
    latency: Tuple[int, int] = (1, 1)  # 0 <= lo <= hi, checked by run_scenario
    delivery_order: str = "fifo-per-pair"  # or "random-seeded"
    firewall: bool = False


class SimNet:
    """Seeded, reproducible message carrier for simulation runs."""

    def __init__(self, scheduler: Scheduler, config: SimNetConfig, trace: Trace):
        self.scheduler = scheduler
        self.config = config
        self.trace = trace
        self.rng = random.Random(config.seed)
        self._actors: Dict[str, object] = {}
        self._last_pair: Dict[Tuple[str, str], int] = {}

    def register_actor(self, name: str, actor):
        self._actors[name] = actor

    def send(self, env: Envelope, receive: Callable[[Envelope, int], None],
             from_rulings=()) -> int:
        """Record ``env`` and schedule ``receive(env, seq)``; returns ``seq``."""
        lo, hi = self.config.latency
        lat = self.rng.randint(lo, hi) if hi > lo else lo
        at = self.scheduler.now + lat
        if self.config.delivery_order == "fifo-per-pair":
            key = (env.sender_name, env.target)
            at = max(at, self._last_pair.get(key, 0))
            self._last_pair[key] = at
        seq = self.trace.add("envelope", {
            "sender": env.sender_name, "senderDivision": env.sender_division,
            "senderLaw": env.sender_law, "target": env.target,
            "payload": env.payload.canonical(), "kind": "lgi-message", "deliverAt": at,
            "fromRulings": list(from_rulings)})
        self.scheduler.schedule(at, lambda: receive(env, seq))
        return seq

    def rogue_send(self, from_actor: str, to_actor: str, payload: Term):
        """Direct actor-to-actor delivery, bypassing every controller."""
        record = {"sender": from_actor, "target": to_actor, "payload": payload.canonical()}
        if self.config.firewall:
            self.trace.add("rogue-blocked", record)
            return False
        self.trace.add("rogue", record)
        actor = self._actors.get(to_actor)
        if actor is not None:
            receive = getattr(actor, "receive_rogue", None)
            if receive is not None:
                receive(from_actor, payload)
        return True


"""The trace, the scheduler and the simulated message carrier.

The net only carries: the controller pool decides what goes on the wire,
builds its ``envelope`` record (the sender's name, division and native
law, the target and the payload's canonical text) and hands
``SimNet.send`` that record, the payload ``Term`` the receiver rules on
and the callback that receives both, on a deterministic logical-time
scheduler. A rogue side channel delivers payloads actor-to-actor,
bypassing all mediation, unless the simulated firewall is switched on.
"""

from __future__ import annotations

import gc
import heapq
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .core import Term


# ---------------------------------------------------------------------------
# trace recording


class Trace:
    """Append-only run record on its scheduler's clock; the replayable source of truth."""

    def __init__(self, scheduler: Scheduler):
        self.records: List[dict] = []
        self.scheduler = scheduler

    def add(self, rectype: str, fields: dict) -> int:
        """Append the record ``fields`` its caller built; returns its seq."""
        seq = fields["seq"] = len(self.records)
        fields["time"] = self.scheduler.now
        fields["type"] = rectype
        self.records.append(fields)
        return seq

    def of_type(self, rectype: str) -> List[dict]:
        return [r for r in self.records if r["type"] == rectype]


# ---------------------------------------------------------------------------
# deterministic scheduler and simulated network


@contextmanager
def collector_paused():
    """Hold the cyclic collector off for the block, then restore it as it was."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Scheduler:
    """Logical-time event loop, the one queue of timed work. Its heap holds
    ``(time, rank, seq, fn)``: obligations (rank 0) run first among the items
    of their time, ties break by scheduling order. One due by ``now`` waits
    for the next advance, so ``on obligationDue(x) do { oblige x in 0 }``
    cannot hold the clock still; ``run(until)`` fires the waiting ones at
    ``until`` as it stops, but not what they schedule there. ``run()`` with
    no ``until`` advances the clock by one while only waiting ones are left,
    so a law that re-imposes ``oblige x in 0`` on each firing keeps it going,
    as a periodic obligation does. ``run`` holds the cyclic collector off:
    reference counting frees every temporary the loop makes (pinned by
    ``tests/test_collector.py``), so a collection would free nothing."""

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
        with collector_paused():
            while heap or (until is None and self._waiting):
                if not heap:  # only obligations waiting for an advance are left
                    self._advance(self.now + 1)
                    continue
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
    """Seeded, reproducible message carrier for simulation runs; it owns the
    run's one trace and ``actors``, each actor ever admitted, by name."""

    def __init__(self, scheduler: Scheduler, config: SimNetConfig):
        self.scheduler = scheduler
        self.config = config
        self.trace = Trace(scheduler)
        self.rng = random.Random(config.seed)
        self.actors: Dict[str, object] = {}
        self._last_pair: Dict[Tuple[str, str], int] = {}

    def send(self, envelope: dict, payload: Term,
             receive: Callable[[dict, Term], None]) -> int:
        """Stamp the ``envelope`` record's ``deliverAt``, record that very
        dict and schedule ``receive(envelope, payload)``; returns its seq."""
        lo, hi = self.config.latency
        at = self.scheduler.now + (self.rng.randint(lo, hi) if hi > lo else lo)
        if self.config.delivery_order == "fifo-per-pair":
            key = (envelope["sender"], envelope["target"])
            at = max(at, self._last_pair.get(key, 0))
            self._last_pair[key] = at
        envelope["deliverAt"] = at
        seq = self.trace.add("envelope", envelope)
        self.scheduler.schedule(at, partial(receive, envelope, payload))
        return seq

    def rogue_send(self, from_actor: str, to_actor: str, payload: Term):
        """Direct actor-to-actor delivery, bypassing every controller."""
        record = {"sender": from_actor, "target": to_actor, "payload": payload.canonical()}
        if self.config.firewall:
            self.trace.add("rogue-blocked", record)
            return False
        self.trace.add("rogue", record)
        actor = self.actors.get(to_actor)
        if actor is not None:
            actor.receive_rogue(from_actor, payload)
        return True


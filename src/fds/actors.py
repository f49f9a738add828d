"""Scripted actor behaviors used by scenarios.

Actors are deliberately dumb: every interesting decision lives in the
laws. An actor sees only what its controller delivers (plus anything that
sneaks in over the rogue channel, which it records separately).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import Term


class BaseActor:
    """Records deliveries, rogue receipts and blocked-send notices."""

    def __init__(self):
        self.pool = None
        self.name = ""
        self.deliveries: List[Tuple[int, str, Term]] = []
        self.rogue_received: List[Tuple[str, Term]] = []
        self.blocked: List[Tuple[str, Term, str]] = []

    def bind(self, pool, name: str):
        self.pool = pool
        self.name = name

    @property
    def now(self) -> int:
        return self.pool.net.scheduler.now

    def on_deliver(self, sender: str, payload: Term):
        self.deliveries.append((self.now, sender, payload))

    def receive_rogue(self, sender: str, payload: Term):
        self.rogue_received.append((sender, payload))

    def on_blocked(self, target: str, payload: Term, reason: str):
        self.blocked.append((target, payload, reason))


class SinkActor(BaseActor):
    """Accepts everything, initiates nothing."""


class EchoActor(BaseActor):
    """Answers every delivery with echo(payload), once (no echo of echoes)."""

    def on_deliver(self, sender: str, payload: Term):
        super().on_deliver(sender, payload)
        if payload.functor != "echo":
            self.pool.send(self.name, sender, Term("echo", (payload,)))


class RingMemberActor(BaseActor):
    """Holds a delivered token for a fixed time, then asks to pass it on."""

    def __init__(self, hold: int = 5):
        if type(hold) is not int or hold < 0:
            raise ValueError("hold must be a non-negative integer, not %r" % (hold,))
        super().__init__()
        self.hold = hold

    def on_deliver(self, sender: str, payload: Term):
        super().on_deliver(sender, payload)
        if payload.functor in ("token", "seedToken"):
            sched = self.pool.net.scheduler
            sched.schedule(sched.now + self.hold, self._pass)

    def _pass(self):
        if self.name in self.pool.agents:
            self.pool.send(self.name, "ring", Term("pass", ()))


class ProberActor(BaseActor):
    """Collects law texts and paths served by the law-server and computes
    the lowest common ancestor of any two fetched paths."""

    def __init__(self):
        super().__init__()
        self.texts: Dict[str, str] = {}
        self.paths: Dict[str, tuple] = {}

    def on_deliver(self, sender: str, payload: Term):
        super().on_deliver(sender, payload)
        if payload.functor == "lawText" and len(payload.args) == 2:
            self.texts[payload.args[0]] = payload.args[1]
        elif payload.functor == "lawPath" and len(payload.args) == 2:
            path = payload.args[1]
            if isinstance(path, Term) and path.functor == "path":
                self.paths[payload.args[0]] = tuple(path.args)

    def lca(self, a: str, b: str) -> Optional[str]:
        pa = self.paths.get(a)
        pb = self.paths.get(b)
        if pa is None or pb is None:
            return None
        best = None
        for x, y in zip(pa, pb):
            if x != y:
                break
            best = x
        return best

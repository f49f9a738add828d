"""Envelope codec, trace, and the simulated message carrier.

Envelopes travel over a deterministic simulated network driven by a
logical-time scheduler; ``write_frame``/``read_frame`` carry the same
encoded envelopes over any stream socket as length-prefixed frames. A
rogue side channel delivers payloads actor-to-actor, bypassing all
mediation, unless the simulated firewall is switched on.
"""

from __future__ import annotations

import heapq
import json
import random
import socket
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .core import FdsError, Term, parse_term

ENVELOPE_VERSION = 1

ENVELOPE_KINDS = ("lgi-message",)


class CodecError(FdsError):
    pass


@dataclass(frozen=True)
class Envelope:
    """One message on the wire.

    ``payload`` is the canonical term text, which the codec writes. An
    envelope built by ``make_envelope`` from a ``Term`` also carries the
    sender's term itself in ``term``, which equals ``parse_term(payload)``;
    equality, hashing, ``repr`` and the codec ignore it. ``payload_term()``
    returns the carried term and parses only an envelope that has none,
    such as a decoded one.
    """

    version: int
    kind: str
    sender_name: str
    sender_division: str
    sender_law: str
    sender_path: tuple
    target: str
    payload: str  # canonical term text
    sent_at: int
    term: Optional[Term] = field(default=None, compare=False, repr=False)

    def payload_term(self) -> Term:
        if self.term is not None:
            return self.term
        return parse_term(self.payload)


_FIELDS = (
    ("kind", "kind"),
    ("payload", "payload"),
    ("senderDivision", "sender_division"),
    ("senderLaw", "sender_law"),
    ("senderName", "sender_name"),
    ("senderPath", "sender_path"),
    ("sentAt", "sent_at"),
    ("target", "target"),
    ("version", "version"),
)


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


def encode_envelope(e: Envelope) -> bytes:
    lines = []
    for wire, attr in _FIELDS:
        v = getattr(e, attr)
        if isinstance(v, tuple):
            v = list(v)
        lines.append("%s=%s" % (wire, json.dumps(v, separators=(",", ":"))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def decode_envelope(data: bytes) -> Envelope:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("malformed: not utf-8") from exc
    fields = {}
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise CodecError("malformed line %r" % line)
        key, _, raw = line.partition("=")
        try:
            fields[key] = json.loads(raw)
        except ValueError as exc:
            raise CodecError("malformed value for %r" % key) from exc
    expected = {wire for wire, _ in _FIELDS}
    if set(fields) != expected:
        raise CodecError("malformed: fields %s" % sorted(set(fields) ^ expected))
    if fields["version"] != ENVELOPE_VERSION:
        raise CodecError("version mismatch: %r" % fields["version"])
    if fields["kind"] not in ENVELOPE_KINDS:
        raise CodecError("unknown kind %r" % fields["kind"])
    path = tuple(fields["senderPath"])
    if not path or fields["senderLaw"] != path[-1]:
        raise CodecError("inconsistent-envelope: senderLaw is not the path tail")
    return Envelope(
        version=fields["version"],
        kind=fields["kind"],
        sender_name=fields["senderName"],
        sender_division=fields["senderDivision"],
        sender_law=fields["senderLaw"],
        sender_path=path,
        target=fields["target"],
        payload=fields["payload"],
        sent_at=fields["sentAt"],
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


# ---------------------------------------------------------------------------
# stream framing: 4-byte big-endian length prefix + UTF-8 envelope text

_LEN = struct.Struct(">I")


def write_frame(sock: socket.socket, data: bytes):
    sock.sendall(_LEN.pack(len(data)) + data)


def read_frame(sock: socket.socket) -> Optional[bytes]:
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (n,) = _LEN.unpack(header)
    body = _read_exact(sock, n)
    if body is None:
        raise CodecError("malformed: truncated frame")
    return body


def _read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise CodecError("malformed: truncated frame")
            return None
        buf += chunk
    return buf

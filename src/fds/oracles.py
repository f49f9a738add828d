"""Independent oracles used by tests and harness assertions.

Each oracle reimplements the expected behavior from scratch over plain
dicts and trace records — none of them consult the rule evaluator — so an
evaluator bug cannot hide behind itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import Block, Deliver, Forward, StateReplace, Term, parse_term


# ---------------------------------------------------------------------------
# brute-force simulator of the four-rule client/server rate-control law


class CCOracle:
    """Hand-rolled decision procedure for the strict-spacing law."""

    def __init__(self, server: str = "s", delay: int = 100, last_call: int = 0):
        self.server = server
        self.delay = delay
        self.last_call = last_call

    def step(self, kind: str, clock: int, self_name: str, peer: str,
             payload: Term) -> str:
        """Canonical op string expected for one event."""
        ops: list = []
        if kind == "sent":
            if self_name == self.server:
                ops = [Forward(peer, payload)]
            elif peer == self.server:
                if clock > self.last_call + self.delay:
                    ops = [
                        StateReplace(Term("lastCall", (self.last_call,)),
                                     Term("lastCall", (clock,))),
                        Forward(peer, payload),
                    ]
                    self.last_call = clock
                else:
                    ops = [Block("no-rule")]
            else:
                ops = [Block("no-rule")]
        elif kind == "arrived":
            if payload.functor == "changeDelay" and len(payload.args) == 1:
                ops = [
                    StateReplace(Term("delay", (self.delay,)),
                                 Term("delay", (payload.args[0],))),
                    Deliver(Term("memo", (payload,))),
                ]
                self.delay = payload.args[0]
            else:
                ops = [Deliver(payload)]
        else:
            raise ValueError("unsupported event kind %r" % kind)
        return ";".join([o.canonical() for o in ops])


# ---------------------------------------------------------------------------
# reference simulator for the drop/buffer rate-control laws


@dataclass
class _SenderState:
    delay: int
    last_call: int
    queue: List[Tuple[str, str]] = field(default_factory=list)  # (msg, tag)
    flush_at: Optional[int] = None


class RateControlReference:
    """Replays send attempts and delay changes; predicts forward times.

    Input actions, time-ordered: ("send", t, sender, payload_text) and
    ("delay", t, agent, new_delay). Output: list of (time, sender,
    payload_text) in forwarding order.
    """

    def __init__(self, variant: str, initial_delay: int, server: str = "v"):
        if variant not in ("drop", "buffer"):
            raise ValueError("unknown variant %r" % variant)
        self.variant = variant
        self.initial_delay = initial_delay
        self.server = server

    def run(self, actions) -> List[Tuple[int, str, str]]:
        states: Dict[str, _SenderState] = {}
        out: List[Tuple[int, str, str]] = []

        def state_of(agent):
            if agent not in states:
                states[agent] = _SenderState(self.initial_delay,
                                             -(self.initial_delay + 1))
            return states[agent]

        def run_flushes(agent, upto):
            st = states[agent]
            while st.flush_at is not None and st.flush_at <= upto:
                t = st.flush_at
                msg, _ = st.queue.pop(0)
                st.last_call = st.last_call + st.delay
                out.append((t, agent, msg))
                st.flush_at = t + st.delay if st.queue else None

        for action in sorted(actions, key=lambda a: a[1]):
            kind, t, agent = action[0], action[1], action[2]
            st = state_of(agent)
            if self.variant == "buffer":
                run_flushes(agent, t)
            if kind == "delay":
                st.delay = action[3]
                continue
            msg = action[3]
            if self.variant == "drop":
                if t > st.last_call + st.delay:
                    st.last_call = t
                    out.append((t, agent, msg))
                continue
            if not st.queue and t > st.last_call + st.delay:
                st.last_call = t
                out.append((t, agent, msg))
            else:
                st.queue.append((msg, ""))
                if st.flush_at is None:
                    st.flush_at = st.last_call + st.delay
        for agent in sorted(states):
            st = states[agent]
            while st.queue:
                run_flushes(agent, st.flush_at)
        out.sort(key=lambda e: e[0])
        return out


def rc_actions_from_trace(records, server: str = "v"):
    """Extract send attempts and delay-change deliveries from a trace."""
    actions = []
    for r in records:
        if r["type"] == "ruling" and r.get("event") == "sent":
            args = r.get("eventArgs", [])
            if len(args) == 3 and args[2] == server and r["agent"] != server:
                actions.append(("send", r["time"], r["agent"], args[1]))
        elif r["type"] == "deliver":
            p = parse_term(r["payload"])
            if p.functor == "memo" and p.args and isinstance(p.args[0], Term) \
                    and p.args[0].functor == "changeDelay":
                actions.append(("delay", r["time"], r["agent"], p.args[0].args[0]))
    return actions


def rc_forwards_from_trace(records, server: str = "v"):
    return [(r["time"], r["sender"], r["payload"]) for r in records
            if r["type"] == "envelope" and r["target"] == server
            and r["kind"] == "lgi-message" and r["sender"] != server]


def rc_spacing_violations(records, server: str = "v"):
    """Pairs of consecutive forwards closer than the delay in force.

    The delay in force per sender is tracked from delay-change deliveries.
    """
    delays: Dict[str, int] = {}
    last: Dict[str, int] = {}
    events = []
    for r in records:
        if r["type"] == "deliver":
            p = parse_term(r["payload"])
            if p.functor == "memo" and p.args and isinstance(p.args[0], Term) \
                    and p.args[0].functor == "changeDelay":
                events.append((r["seq"], "delay", r["agent"], p.args[0].args[0]))
        elif r["type"] == "envelope" and r["target"] == server \
                and r["kind"] == "lgi-message" and r["sender"] != server:
            events.append((r["seq"], "fwd", r["sender"], r["time"]))
    bad = []
    for _, kind, agent, val in sorted(events):
        if kind == "delay":
            delays[agent] = val
        else:
            dt = delays.get(agent, 0)
            if agent in last and val - last[agent] < dt:
                bad.append((agent, last[agent], val, dt))
            last[agent] = val
    return bad


# ---------------------------------------------------------------------------
# budget-control ledger replay


@dataclass
class BudgetLedger:
    grants: Dict[str, int]
    spends: Dict[str, int]
    income: Dict[str, int]
    reports: List[Tuple[str, int, int]]  # (agent, claimed, ledger-at-claim)
    overdrafts: List[str]


def bc_ledger(records) -> BudgetLedger:
    """Replay a run's money flow from envelopes and deliveries alone."""
    grants: Dict[str, int] = {}
    spends: Dict[str, int] = {}
    income: Dict[str, int] = {}
    reports: List[Tuple[str, int, int]] = []
    for r in records:
        if r["type"] == "deliver":
            p = parse_term(r["payload"])
            if p.functor == "grant" and len(p.args) == 1 \
                    and r["sender"] == "budget-office":
                grants[r["agent"]] = grants.get(r["agent"], 0) + p.args[0]
            elif p.functor == "order" and len(p.args) == 2:
                income[r["agent"]] = income.get(r["agent"], 0) + p.args[1]
        elif r["type"] == "envelope" and r["kind"] == "lgi-message":
            p = parse_term(r["payload"])
            if p.functor == "order" and len(p.args) == 2:
                spends[r["sender"]] = spends.get(r["sender"], 0) + p.args[1]
            elif p.functor == "incomeReport" and len(p.args) == 2:
                reports.append((p.args[0], p.args[1], income.get(p.args[0], 0)))
    overdrafts = [a for a in spends if spends[a] > grants.get(a, 0)]
    return BudgetLedger(grants, spends, income, reports, overdrafts)


# ---------------------------------------------------------------------------
# token-ring custody oracle


@dataclass
class RingVerdict:
    ok: bool
    max_count: int
    zero_windows: int
    problems: List[str]
    holds: Dict[str, List[int]]


_TOKEN_PAYLOADS = ("token(1)", "seedToken")  # envelope payloads are canonical text


def ring_token_oracle(records, allowed_losses: int = 0,
                      rotation_window: Optional[int] = None) -> RingVerdict:
    """Track token custody (held + in-flight) across the whole trace."""
    in_flight: Dict[int, str] = {}  # envelope seq -> target
    held = 0
    started = False
    max_count = 0
    zero_since: Optional[int] = None
    zero_windows = 0
    problems: List[str] = []
    holds: Dict[str, List[int]] = {}
    alive: Dict[str, List[List[Optional[int]]]] = {}
    def check(at):
        # custody is checked at the end of each logical instant; a pass
        # ruling and the envelope it emits happen at the same time
        nonlocal max_count, zero_since, zero_windows
        if not started:
            return
        count = held + len(in_flight)
        max_count = max(max_count, count)
        if count > 1:
            problems.append("time %d: token count %d" % (at, count))
        if count == 0 and zero_since is None:
            zero_since = at
            zero_windows += 1
        elif count >= 1 and zero_since is not None:
            zero_since = None

    prev_time = None
    for r in records:
        if prev_time is not None and r["time"] != prev_time:
            check(prev_time)
        prev_time = r["time"]
        t = r["type"]
        if t == "adopt":
            alive.setdefault(r["agent"], []).append([r["time"], None])
        elif t == "quit":
            spans = alive.get(r["agent"])
            if spans and spans[-1][1] is None:
                spans[-1][1] = r["time"]
        elif t == "envelope" and r["payload"] in _TOKEN_PAYLOADS:
            in_flight[r["seq"]] = r["target"]
            started = True
        elif t == "dead-letter" and r.get("envelope") in in_flight:
            del in_flight[r["envelope"]]
        elif t == "ruling":
            if r.get("envelope") in in_flight and "hasToken" in r.get("ops", ""):
                del in_flight[r["envelope"]]
            for op in r.get("ops", "").split(";"):
                if op.startswith("add hasToken("):
                    held += 1
                    holds.setdefault(r["agent"], []).append(r["time"])
                elif op.startswith("remove hasToken("):
                    held -= 1
    if prev_time is not None:
        check(prev_time)
    if held + len(in_flight) != 1:
        problems.append("final token count %d" % (held + len(in_flight)))
    if zero_windows > allowed_losses:
        problems.append("%d loss windows, %d allowed" % (zero_windows, allowed_losses))
    if rotation_window is not None:
        end = records[-1]["time"] if records else 0
        for agent, spans in alive.items():
            if agent == "ringmgr":
                continue
            times = holds.get(agent, [])
            for lo, hi in spans:
                hi = end if hi is None else hi
                if hi - lo < rotation_window:
                    continue
                marks = [lo] + [x for x in times if lo <= x <= hi] + [hi]
                gaps = [b - a for a, b in zip(marks, marks[1:])]
                if max(gaps) > rotation_window:
                    problems.append("%s starved: gap %d > %d"
                                    % (agent, max(gaps), rotation_window))
    return RingVerdict(not problems, max_count, zero_windows, problems, holds)


# ---------------------------------------------------------------------------
# audit / mediation checks


def division_of_agents(records) -> Dict[str, str]:
    return {r["agent"]: r["division"] for r in records if r["type"] == "adopt"}


def interdivision_deliveries(records) -> List[dict]:
    """Delivered envelopes whose endpoints sit in two different divisions."""
    divisions = division_of_agents(records)
    envelopes = {r["seq"]: r for r in records if r["type"] == "envelope"}
    out = []
    for r in records:
        if r["type"] != "deliver":
            continue
        env = envelopes.get(r.get("envelope"))
        if env is None:
            continue
        sd = env["senderDivision"]
        td = divisions.get(r["agent"], "")
        if sd and td and sd != td:
            out.append({"sender": env["sender"], "target": r["agent"],
                        "senderDivision": sd, "targetDivision": td})
    return out


def audit_mismatches(records, audit) -> List[str]:
    expected = sorted((d["sender"], d["target"]) for d in interdivision_deliveries(records))
    got = sorted((a["senderName"], a["target"]) for a in audit)
    if expected == got:
        return []
    return ["expected %r" % (expected,), "audited %r" % (got,)]


def unruled_deliveries(records) -> List[dict]:
    """The deliver records no Deliver ruling accounts for: an arrival's
    needs one on the envelope it cites, a due obligation's cites its own."""
    covered = set()  # ("envelope", seq) and ("ruling", seq) of each delivering ruling
    for r in records:
        if r["type"] == "ruling" and "deliver" in r["ops"]:
            covered.update((("envelope", r.get("envelope")), ("ruling", r["seq"])))
    return [r for r in records if r["type"] == "deliver" and (("envelope", r["envelope"])
            if "envelope" in r else ("ruling", r.get("ruling"))) not in covered]


def mediation_violations(records, firewall: bool) -> List[str]:
    """Delivered payloads must stem from Deliver rulings; rogue flow must
    be absent (firewall on) or flagged and never audited (firewall off)."""
    problems = ["delivery at seq %d lacks a deliver ruling" % r["seq"]
                for r in unruled_deliveries(records)]
    for r in records:
        if r["type"] == "rogue" and firewall:
            problems.append("rogue delivery at seq %d despite firewall" % r["seq"])
        elif r["type"] == "audit" and r.get("senderName") is None:
            problems.append("malformed audit record at seq %d" % r["seq"])
    return problems


def dual_mediation_counts(records) -> List[Tuple[int, int]]:
    """Per delivered envelope: number of rulings that touched it."""
    envelopes = {r["seq"]: r for r in records if r["type"] == "envelope"}
    arrivals: Dict[int, int] = {}
    for r in records:
        if r["type"] == "ruling" and "envelope" in r:
            arrivals[r["envelope"]] = arrivals.get(r["envelope"], 0) + 1
    out = []
    delivered = {r["envelope"] for r in records
                 if r["type"] == "deliver" and "envelope" in r}
    for seq in sorted(delivered):
        env = envelopes[seq]
        out.append((seq, len(env.get("fromRulings", [])) + arrivals.get(seq, 0)))
    return out

"""Seeded scenario generators for the benchmark workloads.

Each generator takes a seed and returns a plain scenario dict in the
format ``fds.harness.run_scenario`` reads; the simulator sees nothing but
that dict. Traffic follows each law's protocol, as the shipped scenarios
do. Traffic that makes a law raise (for example a second ``seedToken()``
to one ring member, which aborts the run with ``duplicate-term``) is left
out on purpose, so every workload yields performance numbers.
"""

from __future__ import annotations

import random

# Sizes are chosen so that each workload gives >= 1000 mediations and one
# repetition (setup, simulation, serialisation, file replay) takes a few
# host seconds on a 2-core machine.
ACME_ORDERS = 1500
ACME_CLIENTS = 16
BUFFER_CLIENTS = 4
BUFFER_BURSTS = 2
BUFFER_DEPTH = 30  # burst length, hence queue depth in the tens
BUFFER_DELAY = 10
BUFFER_LIGHT = 6
BUFFER_LIGHT_PERIOD = 15  # > BUFFER_DELAY: never queued
RING_MEMBERS = 1000
RING_HOPS = 1500
RING_HOLD = 5
RING_CONFIRM_WAIT = 25
RING_CHURN_PERIOD = 400
SWEEP_SENDS = 3000


def _send(at, src, dst, payload):
    return {"action": "send", "at": at, "from": src, "to": dst, "payload": payload}


def _agent(name, law, division="", stack=(), behavior="sink", **params):
    entry = {"name": name, "division": division, "law": law, "behavior": behavior}
    if stack:
        entry["stack"] = list(stack)
    if params:
        entry["params"] = params
    return entry


def acme_stacked(seed: int, orders: int = ACME_ORDERS) -> dict:
    """The corporate hierarchy with the budget-control chain stacked on a
    dozen-plus root clients, scaled up from ``acme-bc.json``."""
    rng = random.Random(seed)
    clients = ["c%d" % i for i in range(1, ACME_CLIENTS + 1)]
    services = ["svc1", "svc2"]
    d1 = ["d1a", "d1b", "d1c"]
    d2 = ["d2a", "d2b", "d2c"]
    cast = [_agent("budget-office", "root", stack=["bc"])]
    cast += [_agent(s, "root", stack=["bc"]) for s in services]
    cast += [_agent(c, "root", stack=["bc"]) for c in clients]
    cast.append(_agent("mgr", "root"))
    cast += [_agent(a, "d1", "D1") for a in d1]
    cast += [_agent(b, "d2", "D2") for b in d2]

    timeline = [_send(2, "budget-office", c, "grant(%d)" % rng.randint(0, 400))
                for c in clients]
    t = 10
    for i in range(orders):
        t += rng.randint(1, 3)
        src, dst = rng.choice(clients), rng.choice(services)
        payload = 'order("i%d",%d)' % (i, rng.randint(1, 40))
        if rng.random() < 0.08:
            timeline.append({"action": "rogue", "at": t, "from": src, "to": dst,
                             "payload": payload})
        else:
            timeline.append(_send(t, src, dst, payload))
        if i % 8 == 0:
            # grants keep about half of the orders affordable
            timeline.append(_send(t, "budget-office", rng.choice(clients),
                                  "grant(%d)" % rng.randint(40, 140)))
        if i % 10 == 5:
            # inter-division notes are audited; intra-division ones are not
            a, b = rng.choice(d1), rng.choice(d2)
            src, dst = (a, b) if rng.random() < 0.5 else (b, a)
            if rng.random() < 0.25:
                dst = rng.choice([x for x in (d1 if src in d1 else d2) if x != src])
            kind = "ping" if rng.random() < 0.3 else "note"
            timeline.append(_send(t, src, dst, "%s(%d)" % (kind, i)))
        if i % 1500 == 750:
            timeline.append(_send(t, "mgr", rng.choice(d1 + d2), 'stop("ping")'))
    end = t + 20
    for who in services + rng.sample(clients, 3):
        timeline.append(_send(end, who, "budget-office", "reportIncome()"))
    return {
        "name": "acme-stacked",
        "seed": seed,
        "net": {"latency": [1, 1], "order": "fifo-per-pair", "firewall": False},
        "laws": {"bundle": "acme"},
        "duration": end + 100,
        "cast": cast,
        "timeline": timeline,
        "assertions": [
            {"name": "bc-ledger", "params": {"requireReports": True}},
            {"name": "bc-rogue-zero"},
            {"name": "audit-complete"},
            {"name": "mediation-complete"},
            {"name": "dual-mediation"},
            {"name": "replay-equiv"},
        ],
    }


def buffer_deep(seed: int) -> dict:
    """The buffering rate-control law with a handful of clients that send
    bursts far faster than the spacing delay, so each controller queues
    tens of ``q(N, M)`` terms, beside a few light clients whose spaced
    sends are forwarded at once.

    Burst length and light-client period are fixed, so the queue depths,
    and with them the cost per ruling, do not depend on the seed; the seed
    moves only start times, pauses and payloads. The light traffic puts
    the median mediation inside the cheap cluster (arrivals at ``v`` and
    unqueued sends) instead of on the edge between it and the queued sends.
    """
    rng = random.Random(seed)
    heavy = ["k%d" % i for i in range(1, BUFFER_CLIENTS + 1)]
    light = ["l%d" % i for i in range(1, BUFFER_LIGHT + 1)]
    cast = [_agent("v", "rc")] + [_agent(k, "rc") for k in heavy + light]
    timeline = []
    end = 0
    for k in heavy:
        t = rng.randint(0, 50)
        for b in range(BUFFER_BURSTS):
            for j in range(BUFFER_DEPTH):
                timeline.append(_send(t + j, k, "v", 'm("%s",%d)' % (k, b * 100 + j)))
            # the next burst starts once this one has drained
            t += BUFFER_DEPTH * BUFFER_DELAY + rng.randint(40, 80)
        end = max(end, t)
    for k in light:
        for i, t in enumerate(range(rng.randint(0, 20), end, BUFFER_LIGHT_PERIOD)):
            timeline.append(_send(t, k, "v", 'm("%s",%d)' % (k, i)))
    params = {"variant": "buffer", "initialDelay": BUFFER_DELAY, "server": "v"}
    return {
        "name": "buffer-deep",
        "seed": seed,
        "net": {"latency": [1, 1], "order": "fifo-per-pair", "firewall": False},
        "laws": {"bundle": "rc", "params": params},
        "duration": end + 100,
        "cast": cast,
        "timeline": timeline,
        "assertions": [
            {"name": "rc-spacing", "params": {"server": "v"}},
            {"name": "rc-reference", "params": params},
            {"name": "mediation-complete"},
            {"name": "dual-mediation"},
            {"name": "replay-equiv"},
        ],
    }


def ring_large(seed: int) -> dict:
    """The token ring with ~1k members configured by ``ringmgr``, scaled
    up from ``ring-churn.json``: one circulating token plus periodic churn
    (splice out, revoke, quit, adopt, splice in). Every other churn removes
    the member that then holds the token, so the predecessor's due
    ``confirm()`` obligation regenerates it."""
    rng = random.Random(seed)
    ring = ["m%d" % i for i in range(1, RING_MEMBERS + 1)]
    member = dict(behavior="ring-member", hold=RING_HOLD)
    cast = [_agent("ringmgr", "ring")] + [_agent(m, "ring", **member) for m in ring]
    timeline = []
    for i, m in enumerate(ring):
        timeline.append(_send(2, "ringmgr", m, 'setNext("%s")' % ring[(i + 1) % RING_MEMBERS]))
        timeline.append(_send(2, "ringmgr", m, 'setPrev("%s")' % ring[i - 1]))
    timeline.append(_send(6, "ringmgr", ring[0], "seedToken()"))
    hop = RING_HOLD + 1  # a hold plus one network tick
    duration = 10 + RING_HOPS * hop
    # Where the token is: it reached ``holder`` at ``arrived``. A pass at
    # time p follows the ring as configured by messages that arrived
    # before p (a pass scheduled earlier runs first within one tick).
    token = {"holder": ring[0], "arrived": 7}

    def advance(last_pass):
        while token["arrived"] + RING_HOLD <= last_pass:
            token["holder"] = ring[(ring.index(token["holder"]) + 1) % len(ring)]
            token["arrived"] += hop

    fresh = RING_MEMBERS
    churns = 0
    for t in range(RING_CHURN_PERIOD, duration - RING_CHURN_PERIOD, RING_CHURN_PERIOD):
        # splice one member out, as ring-churn.json does: the neighbours
        # learn of it at t + 1, the revoke lands at t + 3, it quits at t + 4.
        # A token sent to the leaver before t + 2 arrives by t + 2, so the
        # revoke always finds it and the leaver never quits holding it.
        advance(t + 1)
        holder = ring.index(token["holder"])
        if churns % 2 == 0 and token["arrived"] >= t - 1:
            # the holder cannot pass before the revoke: the token is lost
            # and regenerated at the next member by the predecessor's
            # confirm(), due confirmWait after its pass
            i = holder
            token["holder"] = ring[(i + 1) % len(ring)]
            token["arrived"] += RING_CONFIRM_WAIT
        else:
            i = rng.choice([k for k in range(len(ring)) if k != holder])
        gone, prev, nxt = ring[i], ring[i - 1], ring[(i + 1) % len(ring)]
        timeline.append(_send(t, "ringmgr", prev, 'setNext("%s")' % nxt))
        timeline.append(_send(t, "ringmgr", nxt, 'setPrev("%s")' % prev))
        timeline.append(_send(t + 2, "ringmgr", gone, "revoke()"))
        timeline.append({"action": "quit", "at": t + 4, "agent": gone})
        ring.pop(i)
        # and a new member in at a random point, configured at at + 3
        fresh += 1
        new = "m%d" % fresh
        at = t + RING_CHURN_PERIOD // 2
        advance(at + 3)
        j = rng.randrange(len(ring))
        prev, nxt = ring[j], ring[(j + 1) % len(ring)]
        timeline.append(dict(_agent(new, "ring", **member), action="adopt", at=at))
        timeline.append(_send(at + 2, "ringmgr", new, 'setNext("%s")' % nxt))
        timeline.append(_send(at + 2, "ringmgr", new, 'setPrev("%s")' % prev))
        timeline.append(_send(at + 2, "ringmgr", prev, 'setNext("%s")' % new))
        timeline.append(_send(at + 2, "ringmgr", nxt, 'setPrev("%s")' % new))
        ring.insert(j + 1, new)
        churns += 1
    # a rotation is one hop per member; allow two, plus recovery delays
    window = 2 * (RING_MEMBERS + 1) * hop + 4 * RING_CONFIRM_WAIT
    return {
        "name": "ring-large",
        "seed": seed,
        "net": {"latency": [1, 1], "order": "fifo-per-pair", "firewall": False},
        "laws": {"bundle": "ring", "params": {"confirmWait": RING_CONFIRM_WAIT}},
        "duration": duration,
        "cast": cast,
        "timeline": timeline,
        "assertions": [
            {"name": "ring-safety",
             "params": {"allowedLosses": churns, "rotationWindow": window}},
            {"name": "mediation-complete"},
            {"name": "replay-equiv"},
        ],
    }


def rc_sweep(seed: int, agents: int) -> dict:
    """The dropping rate-control law with ``agents`` clients and
    SWEEP_SENDS random sends to the server: the report mode's agent-count
    sweep."""
    rng = random.Random(seed)
    clients = ["c%d" % i for i in range(agents)]
    cast = [_agent("v", "rc")] + [_agent(c, "rc") for c in clients]
    timeline = []
    t = 10
    for i in range(SWEEP_SENDS):
        t += rng.randint(1, 3)
        c = rng.choice(clients)
        timeline.append(_send(t, c, "v", 'm("%s",%d)' % (c, i)))
    params = {"variant": "drop", "initialDelay": 20, "server": "v"}
    return {
        "name": "rc-sweep-%d" % agents,
        "seed": seed,
        "net": {"latency": [1, 1], "order": "fifo-per-pair", "firewall": False},
        "laws": {"bundle": "rc", "params": params},
        "duration": t + 50,
        "cast": cast,
        "timeline": timeline,
        "assertions": [
            {"name": "rc-spacing", "params": {"server": "v"}},
            {"name": "rc-reference", "params": params},
            {"name": "mediation-complete"},
        ],
    }


WORKLOADS = {
    "acme-stacked": acme_stacked,
    "buffer-deep": buffer_deep,
    "ring-large": ring_large,
}

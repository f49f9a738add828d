"""Shipped laws: the corporate hierarchy, rate control, budget control,
the token ring, and the travel-agent promise law.

Each builder returns law text in canonical form (deterministic, so hashes
are stable across rebuilds): the very text a report records, so a run and
the replay of its report share one ``parse_law`` memo entry per law.
``build_acme_hierarchy`` publishes the whole corporate bundle
into a fresh framework, under the refs root, d1, d2, bc and travel.
"""

from __future__ import annotations

from .hierarchy import Bundle, publish_laws
from .lawlang import parse_law

ROOT_NAME = "acme-root"
DEFAULT_GRACE = 80


def make_acme_root() -> str:
    """Corporate root law.

    Admission requires an AcmeCA certificate. A manager named ``mgr`` can
    order any agent to stop sending messages (all of them, or one payload
    functor). Law maintenance traffic is reserved to ``law-admin``;
    law-query traffic may flow freely to and from ``law-server``. Traffic
    between two different (non-empty) divisions is prohibited by default
    but division laws may override it, in which case every such delivery
    is audited. Everything else within a division is permitted, subject to
    tightening below.
    """
    return """\
law acme-root
default block
multi { blocked }
meta { send:interdivision default-overridable; arrive:interdivision default-overridable; send:intradivision tighten; arrive:intradivision tighten; adopt:entry tighten; sender-id sealed }
rule a1 aspect adopt:entry on adopted(cert(_,_,"AcmeCA")) do {  }
rule a2 aspect adopt:entry on adopted(stack(_)) do {  }
rule a3 aspect adopt:entry on adopted(_) do { block("auth-required") }
rule m1 aspect mgr:stop on sent("mgr",stop(_),_) do { forward }
rule m2 aspect mgr:stop on arrived("mgr",stop(P),_) do { add blocked(P); deliver }
rule m3 aspect mgr:stop on sent(_,_,_) when blocked("all")@CS do { block("stopped-by-mgr") }
rule m4 aspect mgr:stop on sent(_,M,_) when blocked(F)@CS, F == functor(M) do { block("stopped-by-mgr") }
rule w1 aspect law-maintenance on sent("law-admin",publishDelta(_,_),"law-server") do { forward }
rule w2 aspect law-maintenance on sent(_,publishDelta(_,_),_) do { block("law-maintenance-restricted") }
rule w3 aspect law-maintenance on sent(_,publishRoot(_),_) do { block("law-maintenance-restricted") }
rule w4 aspect law-maintenance on arrived("law-admin",publishDelta(_,_),"law-server") do { deliver }
rule w5 aspect law-maintenance on arrived(_,publishDelta(_,_),_) do { block("law-maintenance-restricted") }
rule q1 aspect law-query on sent(_,lawTextRequest(_),"law-server") do { forward }
rule q2 aspect law-query on sent(_,lawPathRequest(_),"law-server") do { forward }
rule q3 aspect law-query on sent("law-server",_,_) do { forward }
rule q4 aspect law-query on arrived(_,lawTextRequest(_),"law-server") do { deliver }
rule q5 aspect law-query on arrived(_,lawPathRequest(_),"law-server") do { deliver }
rule q6 aspect law-query on arrived("law-server",_,_) do { deliver }
rule s1 aspect send:interdivision on sent(_,_,_) when division(D)@CS, peerDivision(P)@CS, D != "", P != "", P != D do { block("interdivision-prohibited") }
rule s2 aspect send:intradivision on sent(_,_,_) do { forward }
rule r1 aspect arrive:interdivision on arrived(_,_,_) when division(D)@CS, peerDivision(P)@CS, D != "", P != "", P != D do { audit; block("interdivision-prohibited") }
rule r2 aspect arrive:intradivision on arrived(_,_,_) do { deliver }
"""


def make_division_law(division: str) -> str:
    """Division law: admits only agents certified for the division, and
    opens the root's inter-division default (audits are retained)."""
    return """\
law acme-{low}
extends acme-root
rule d1 aspect adopt:entry on adopted(cert(_,D,_)) when D != "{div}" do {{ block("adoption-refused") }}
rule d2 aspect send:interdivision on sent(_,_,_) when division(D)@CS, peerDivision(P)@CS, D != "", P != "", P != D do {{ forward }}
rule d3 aspect arrive:interdivision on arrived(_,_,_) when division(D)@CS, peerDivision(P)@CS, D != "", P != "", P != D do {{ deliver }}
""".format(low=division.lower(), div=division)


def make_budget_law() -> str:
    """Budget-control law (crosscutting): grants only from budget-office,
    no overspending, income credited only for orders from fellow members,
    and income reports built from controller state, not actor claims."""
    return """\
law acme-bc
extends acme-root
init { budget(0); income(0) }
rule g1 aspect bc:grant on arrived("budget-office",grant(C),_) when budget(B)@CS do { replace budget(B) <- budget((B + C)); deliver }
rule g2 aspect bc:grant on arrived(_,grant(_),_) do { block("grant-restricted") }
rule g3 aspect bc:grant on sent("budget-office",grant(_),_) do { forward }
rule g4 aspect bc:grant on sent(_,grant(_),_) do { block("grant-restricted") }
rule p1 aspect bc:spend on sent(_,order(_,C),_) when budget(B)@CS, B >= C do { replace budget(B) <- budget((B - C)); forward }
rule p2 aspect bc:spend on sent(_,order(_,_),_) do { block("overspend") }
rule i1 aspect bc:income on arrived(_,order(_,C),_) when peerSameLaw(1)@CS, income(I)@CS do { replace income(I) <- income((I + C)); deliver }
rule i2 aspect bc:income on arrived(_,order(_,_),_) do { block("unbudgeted-order") }
rule t1 aspect bc:report on sent(X,reportIncome(),"budget-office") when income(I)@CS do { forward("budget-office", incomeReport(X,I)) }
"""


def make_cc_law(server: str = "s", initial_delay: int = 100) -> str:
    """The four-rule client-server rate-control law, verbatim semantics:
    the server may send anything; ``changeDelay`` retunes the minimum
    spacing; everything arriving is delivered; a send to the server goes
    through only if strictly more than ``delay`` ticks passed since the
    last one (otherwise the default drops it)."""
    return """\
law cc
default block
init {{ delay({dt}); lastCall(0) }}
rule r1 aspect cc:serve on sent("{srv}",_,_) do {{ forward }}
rule r2 aspect cc:ctl on arrived(_,changeDelay(D),_) when delay(Old)@CS do {{ replace delay(Old) <- delay(D); deliver(memo(changeDelay(D))) }}
rule r3 aspect cc:in on arrived(_,_,_) do {{ deliver }}
rule r4 aspect cc:out on sent(X,M,"{srv}") when clock(T)@CS, lastCall(Tl)@CS, delay(DT)@CS, T > (Tl + DT) do {{ replace lastCall(Tl) <- lastCall(T); forward }}
""".format(srv=server, dt=initial_delay)


def make_rate_control_law(variant: str, initial_delay: int = 0,
                          server: str = "v") -> str:
    """Rate control for traffic to ``server``.

    ``drop`` discards too-fast sends (the strict-spacing law, primed so
    the very first send is admitted). ``buffer`` queues them instead and
    flushes exactly every ``delay`` ticks via an obligation.
    """
    if initial_delay < 0:
        raise ValueError("initial delay must be non-negative")
    primed = -(initial_delay + 1)
    if variant == "drop":
        return """\
law rc-drop
default block
init {{ delay({dt}); lastCall({primed}) }}
rule r1 aspect rc:serve on sent("{srv}",_,_) do {{ forward }}
rule r2 aspect rc:ctl on arrived(_,changeDelay(D),_) when delay(Old)@CS do {{ replace delay(Old) <- delay(D); deliver(memo(changeDelay(D))) }}
rule r3 aspect rc:in on arrived(_,_,_) do {{ deliver }}
rule r4 aspect rc:out on sent(X,M,"{srv}") when clock(T)@CS, lastCall(Tl)@CS, delay(DT)@CS, T > (Tl + DT) do {{ replace lastCall(Tl) <- lastCall(T); forward }}
""".format(srv=server, dt=initial_delay, primed=primed)
    if variant == "buffer":
        return """\
law rc-buffer
default block
multi {{ q }}
init {{ delay({dt}); lastCall({primed}); qHead(0); qTail(0) }}
rule b1 aspect rc:serve on sent("{srv}",_,_) do {{ forward }}
rule b2 aspect rc:ctl on arrived(_,changeDelay(D),_) when delay(Old)@CS do {{ replace delay(Old) <- delay(D); deliver(memo(changeDelay(D))) }}
rule b3 aspect rc:in on arrived(_,_,_) do {{ deliver }}
rule b4 aspect rc:out on sent(X,M,"{srv}") when qHead(H)@CS, qTail(N)@CS, H == N, clock(T)@CS, lastCall(Tl)@CS, delay(DT)@CS, T > (Tl + DT) do {{ replace lastCall(Tl) <- lastCall(T); forward }}
rule b5 aspect rc:out on sent(X,M,"{srv}") when qTail(N)@CS, clock(T)@CS, lastCall(Tl)@CS, delay(DT)@CS do {{ replace qTail(N) <- qTail((N + 1)); add q(N,M); oblige flush() in ((Tl + DT) - T) }}
rule b6 aspect rc:flush on obligationDue(flush()) when qHead(H)@CS, qTail(N)@CS, (H + 1) < N, q(H,M)@CS, lastCall(Tl)@CS, delay(DT)@CS do {{ replace qHead(H) <- qHead((H + 1)); remove q(H,M); replace lastCall(Tl) <- lastCall((Tl + DT)); forward("{srv}", M); oblige flush() in DT }}
rule b7 aspect rc:flush on obligationDue(flush()) when qHead(H)@CS, qTail(N)@CS, (H + 1) == N, q(H,M)@CS, lastCall(Tl)@CS, delay(DT)@CS do {{ replace qHead(H) <- qHead((H + 1)); remove q(H,M); replace lastCall(Tl) <- lastCall((Tl + DT)); forward("{srv}", M) }}
rule b8 aspect rc:flush on obligationDue(flush()) do {{  }}
""".format(srv=server, dt=initial_delay, primed=primed)
    raise ValueError("unknown rate-control variant %r" % variant)


def make_token_ring_law(confirm_wait: int) -> str:
    """Single-token mutual exclusion with reconfiguration.

    Membership and topology are configured by ``ringmgr`` (splice and
    seed messages). Only the current holder may pass; passing notifies
    the previous holder, whose pending timeout is thereby repealed. A
    holder that never passes on leaves its predecessor's timeout armed,
    which regenerates the token at the (already respliced) successor.
    """
    return """\
law token-ring
default block
init {{ confirmWait({w}) }}
rule a1 aspect ring:adopt on adopted(cert(_,_,"AcmeCA")) do {{  }}
rule a2 aspect ring:adopt on adopted(_) do {{ block("auth-required") }}
rule g1 aspect ring:config on sent("ringmgr",setNext(_),_) do {{ forward }}
rule g2 aspect ring:config on sent("ringmgr",setPrev(_),_) do {{ forward }}
rule g3 aspect ring:config on sent("ringmgr",seedToken(),_) do {{ forward }}
rule g4 aspect ring:config on sent("ringmgr",revoke(),_) do {{ forward }}
rule c1 aspect ring:config on arrived("ringmgr",setNext(N),_) when next(Old)@CS do {{ replace next(Old) <- next(N); deliver }}
rule c2 aspect ring:config on arrived("ringmgr",setNext(N),_) do {{ add next(N); deliver }}
rule c3 aspect ring:config on arrived("ringmgr",setPrev(P),_) when prev(Old)@CS do {{ replace prev(Old) <- prev(P); deliver }}
rule c4 aspect ring:config on arrived("ringmgr",setPrev(P),_) do {{ add prev(P); deliver }}
rule c5 aspect ring:config on arrived("ringmgr",seedToken(),_) do {{ add hasToken(1); deliver }}
rule c6 aspect ring:config on arrived("ringmgr",revoke(),_) when hasToken(K)@CS do {{ remove hasToken(K); deliver }}
rule c7 aspect ring:config on arrived("ringmgr",revoke(),_) do {{ deliver }}
rule p1 aspect ring:pass on sent(_,pass(),_) when hasToken(K)@CS, from(S)@CS, next(N)@CS, confirmWait(W)@CS do {{ remove hasToken(K); remove from(S); forward(N, token(1)); forward(S, tokenAck()); oblige confirm() in W }}
rule p2 aspect ring:pass on sent(_,pass(),_) when hasToken(K)@CS, next(N)@CS, confirmWait(W)@CS do {{ remove hasToken(K); forward(N, token(1)); oblige confirm() in W }}
rule p3 aspect ring:pass on sent(_,pass(),_) do {{ block("not-holder") }}
rule t1 aspect ring:recv on arrived(S,token(K),_) do {{ add hasToken(K); add from(S); deliver }}
rule t2 aspect ring:ack on arrived(_,tokenAck(),_) do {{ repeal confirm(); deliver }}
rule t3 aspect ring:regen on obligationDue(confirm()) when next(N)@CS do {{ forward(N, token(1)) }}
""".format(w=confirm_wait)


def make_actor_promise_law(grace: int = DEFAULT_GRACE) -> str:
    """Travel-agent promise law (delta under division D1): granting a
    reservation binds the agent — the ticket cannot be sold to anyone
    else, at any price, until the reservation lapses."""
    if grace <= 0:
        raise ValueError("grace must be positive")
    return """\
law travel-promise
extends acme-d1
multi {{ reserved }}
rule v1 aspect promise:reserve on sent(X,reserveOk(Tk,P),C) do {{ add reserved(Tk,C,P); forward; oblige expire(Tk) in {g} }}
rule v2 aspect promise:sell on sent(_,sell(Tk,P),C) when reserved(Tk,C,P)@CS do {{ remove reserved(Tk,C,P); repeal expire(Tk); forward }}
rule v3 aspect promise:sell on sent(_,sell(Tk,_),_) when reserved(Tk,C2,P2)@CS do {{ block("reserved-for-another") }}
rule v4 aspect promise:sell on sent(_,sell(_,_),_) do {{ forward }}
rule v5 aspect promise:expire on obligationDue(expire(Tk)) when reserved(Tk,C,P)@CS do {{ remove reserved(Tk,C,P) }}
rule v6 aspect promise:expire on obligationDue(expire(_)) do {{  }}
""".format(g=grace)


def build_acme_hierarchy(grace: int = DEFAULT_GRACE) -> Bundle:
    return publish_laws({
        "root": parse_law(make_acme_root()),
        "d1": parse_law(make_division_law("D1")),
        "d2": parse_law(make_division_law("D2")),
        "bc": parse_law(make_budget_law()),
        "travel": parse_law(make_actor_promise_law(grace)),
    })

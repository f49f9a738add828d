"""Scenario loader, deterministic runner, assertion engine and replay.

A scenario is a declarative JSON document: network knobs, a law bundle,
a cast of actors, a timeline of scripted actions, and a list of named
assertions checked over the finished trace. The runner has no
scenario-specific code paths; everything it does is driven by that data.
"""

from __future__ import annotations

import json
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .actors import EchoActor, ProberActor, RingMemberActor, SinkActor
from .controller import AdoptionError, ControllerPool, Overlays, issue_certificate
from .core import (
    Adopted,
    AgentName,
    Arrived,
    ControlState,
    ExceptionEvent,
    FdsError,
    ObligationDue,
    Sent,
    Term,
    hash_law,
    parse_term,
    parse_terms,
)
from .hierarchy import Bundle, Framework, FrameworkError, derive_ruling, publish_laws
from .lawlang import parse_law
from .lawserver import LawServer
from .library import (
    build_acme_hierarchy,
    make_cc_law,
    make_rate_control_law,
    make_token_ring_law,
)
from .oracles import (
    audit_mismatches,
    bc_ledger,
    dual_mediation_counts,
    interdivision_deliveries,
    mediation_violations,
    rc_actions_from_trace,
    rc_forwards_from_trace,
    rc_spacing_violations,
    RateControlReference,
    ring_token_oracle,
)
from .transport import Scheduler, SimNet, SimNetConfig, Trace


class ScenarioError(FdsError):
    pass


BEHAVIORS = {
    "sink": SinkActor,
    "echo": EchoActor,
    "ring-member": RingMemberActor,
    "prober": ProberActor,
}


# ---------------------------------------------------------------------------
# law bundles


def build_bundle(cfg: dict) -> Bundle:
    kind = cfg.get("bundle", "acme")
    params = cfg.get("params", {})
    if kind == "acme":
        return build_acme_hierarchy(params.get("grace", 80))
    if kind == "dir":
        return load_laws_dir(params["dir"])
    if kind == "rc":
        text = make_rate_control_law(params.get("variant", "drop"),
                                     params.get("initialDelay", 0),
                                     params.get("server", "v"))
    elif kind == "cc":
        text = make_cc_law(params.get("server", "s"), params.get("initialDelay", 100))
    elif kind == "ring":
        text = make_token_ring_law(params.get("confirmWait", 40))
    else:
        raise ScenarioError("unknown law bundle %r" % kind)
    return publish_laws({kind: parse_law(text)})


def load_laws_dir(path) -> Bundle:
    """Load a directory of ``.law`` files, published under their law names."""
    docs = [parse_law(p.read_text()) for p in sorted(Path(path).glob("*.law"))]
    docs_by_name = {doc.name: doc for doc in docs}
    if len(docs_by_name) != len(docs):
        raise ScenarioError("duplicate law names in %s" % path)
    try:
        return publish_laws(docs_by_name)
    except FrameworkError as exc:
        raise ScenarioError(str(exc)) from exc


# ---------------------------------------------------------------------------
# run report

TRACE_VERSION = 2  # a ruling records its stateBefore only if it opens a chain


@dataclass
class RunReport:
    scenario: dict
    laws: Dict[str, str]
    records: List[dict]
    audit: List[dict]
    metrics: dict
    verdicts: Dict[str, dict] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    actors: dict = field(default_factory=dict)
    framework: Optional[Framework] = None

    def trace_lines(self) -> List[str]:
        return [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in self.records]

    def ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values())

    def to_json(self) -> str:
        # host latencies stay out of the file: two runs write the same bytes
        return json.dumps(
            {
                "traceVersion": TRACE_VERSION,
                "scenario": self.scenario,
                "laws": self.laws,
                "trace": self.records,
                "audit": self.audit,
                "metrics": {k: v for k, v in self.metrics.items() if k != "laws"},
                "verdicts": self.verdicts,
                "warnings": self.warnings,
            },
            sort_keys=True, indent=1,
        )


def load_scenario(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ScenarioError("no such scenario: %s" % path)
    try:
        scenario = json.loads(p.read_text())
    except ValueError as exc:
        raise ScenarioError("bad scenario %s: %s" % (path, exc)) from exc
    if not isinstance(scenario, dict) or "cast" not in scenario:
        raise ScenarioError("scenario %s: must be an object with a cast" % path)
    return scenario


# ---------------------------------------------------------------------------
# runner


def run_scenario(scenario: dict, seed: Optional[int] = None,
                 firewall: Optional[bool] = None) -> RunReport:
    warnings: List[str] = []
    if seed is None:
        if "seed" not in scenario:
            warnings.append("no seed in scenario; defaulting to 0")
        seed = scenario.get("seed", 0)
    netc = dict(scenario.get("net", {}))
    if firewall is None:
        firewall = bool(netc.get("firewall", False))
    # record the effective knobs so assertions and replay see what ran
    netc["firewall"] = firewall
    scenario = dict(scenario, net=netc, seed=seed)
    scheduler = Scheduler()
    trace = Trace(lambda: scheduler.now)
    cfg = SimNetConfig(
        seed=seed,
        latency=tuple(netc.get("latency", [1, 1])),
        delivery_order=netc.get("order", "fifo-per-pair"),
        firewall=firewall,
    )
    net = SimNet(scheduler, cfg, trace)
    bundle = build_bundle(scenario.get("laws", {"bundle": "acme"}))
    pool = ControllerPool(bundle.framework, net, trace)
    actors: Dict[str, object] = {}

    def resolve(ref: str) -> str:
        try:
            return bundle.law(ref)
        except KeyError as exc:
            raise ScenarioError(str(exc.args[0])) from exc

    def schedule_adoption(entry: dict):
        name = entry["name"]
        law = resolve(entry["law"])
        stack = [resolve(s) for s in entry.get("stack", [])]
        behavior = entry.get("behavior", "sink")
        params = entry.get("params", {})
        if behavior == "law-server":
            actor = LawServer(bundle.framework, name)
        elif behavior in BEHAVIORS:
            actor = BEHAVIORS[behavior](**params)
        else:
            raise ScenarioError("unknown behavior %r" % behavior)
        actors[name] = actor

        def do_adopt():
            cert = issue_certificate(name, entry.get("division", ""))
            pool.adopt(actor, cert, law)
            for extra in stack:
                pool.stack_adopt(name, extra)

        scheduler.schedule(entry.get("at", 0), do_adopt)

    for entry in scenario.get("cast", []):
        schedule_adoption(entry)

    def guarded(fn):
        def run():
            try:
                fn()
            except (FdsError, AdoptionError) as exc:
                trace.add("action-error", error=str(exc))

        return run

    # payloads may reference published laws symbolically: {law:d1} -> hash
    law_ref = re.compile(r"\{law:([\w-]+)\}")

    def sub_laws(text: str) -> str:
        return law_ref.sub(lambda m: resolve(m.group(1)), text)

    def compile_action(item: dict):
        action = item.get("action", "send")
        if action == "send":
            payload = parse_term(sub_laws(item["payload"]))
            scheduler.schedule(
                item["at"],
                guarded(lambda: pool.send(item["from"], item["to"], payload)),
            )
        elif action == "send-every":
            start = item.get("start", 0)
            period = item["period"]
            until = item["until"]
            for i, t in enumerate(range(start, until, period)):
                payload = parse_term(item["payload"].format(i=i))
                scheduler.schedule(
                    t,
                    guarded(lambda p=payload: pool.send(item["from"], item["to"], p)),
                )
        elif action == "rogue":
            payload = parse_term(sub_laws(item["payload"]))
            scheduler.schedule(
                item["at"],
                guarded(lambda: net.rogue_send(item["from"], item["to"], payload)),
            )
        elif action == "quit":
            scheduler.schedule(item["at"], guarded(lambda: pool.quit(item["agent"])))
        elif action == "stack-adopt":
            law = resolve(item["law"])
            scheduler.schedule(
                item["at"], guarded(lambda: pool.stack_adopt(item["agent"], law))
            )
        elif action == "adopt":
            schedule_adoption(item)
        elif action == "random-traffic":
            _compile_random_traffic(item, seed, scheduler, pool, net, guarded)
        else:
            raise ScenarioError("unknown timeline action %r" % action)

    for item in scenario.get("timeline", []):
        compile_action(item)

    scheduler.run(until=scenario.get("duration"))

    report = RunReport(
        scenario=scenario,
        laws=dict(bundle.framework.texts),
        records=trace.records,
        audit=pool.audit,
        metrics=metrics_summary(pool.metrics, trace.records),
        warnings=warnings,
        actors=actors,
        framework=bundle.framework,
    )
    for spec in scenario.get("assertions", []):
        name, params = (spec, {}) if isinstance(spec, str) else (spec["name"], spec.get("params", {}))
        report.verdicts[name] = check_assertion(name, report, params)
    return report


def _compile_random_traffic(item, seed, scheduler, pool, net, guarded):
    rng = random.Random(seed * 1000003 + item.get("seedOffset", 0))
    t = item.get("start", 0)
    senders = item["senders"]
    targets = item["targets"]
    lo, hi = item.get("gap", [1, 3])
    cost_lo, cost_hi = item.get("costRange", [1, 40])
    rogue_prob = item.get("rogueProb", 0.0)
    for i in range(item["count"]):
        t += rng.randint(lo, hi)
        sender = rng.choice(senders)
        target = rng.choice(targets)
        payload = Term("order", ("i%d" % i, rng.randint(cost_lo, cost_hi)))
        if rng.random() < rogue_prob:
            scheduler.schedule(
                t, guarded(lambda s=sender, g=target, p=payload: net.rogue_send(s, g, p))
            )
        else:
            scheduler.schedule(
                t, guarded(lambda s=sender, g=target, p=payload: pool.send(s, g, p))
            )


# ---------------------------------------------------------------------------
# metrics


def metrics_summary(samples: List[Tuple[str, int]], records) -> dict:
    """Per-law evaluation latency and run-wide counters."""
    per_law: Dict[str, List[int]] = {}
    for law, ns in samples:
        per_law.setdefault(law, []).append(ns)
    laws = {}
    for law, vals in per_law.items():
        vals.sort()
        laws[law] = {
            "count": len(vals),
            "median_us": statistics.median(vals) / 1000.0,
            "p95_us": vals[min(len(vals) - 1, int(len(vals) * 0.95))] / 1000.0,
        }
    rulings = [r for r in records if r["type"] == "ruling"]
    return {
        "laws": laws,
        "events": len(rulings),
        "blocked": sum(1 for r in rulings if r["blocked"]),
        "envelopes": sum(1 for r in records if r["type"] == "envelope"),
        "deliveries": sum(1 for r in records if r["type"] == "deliver"),
    }


# ---------------------------------------------------------------------------
# assertions


def check_assertion(name: str, report: RunReport, params: dict) -> dict:
    if name not in ASSERTIONS:
        raise ScenarioError("unknown assertion %r" % name)
    ok, detail = ASSERTIONS[name](report, params)
    return {"ok": bool(ok), "detail": detail}


def _a_rc_spacing(report, params):
    bad = rc_spacing_violations(report.records, params.get("server", "v"))
    return not bad, "violations: %r" % bad[:5] if bad else "spacing respected"


def _a_rc_reference(report, params):
    server = params.get("server", "v")
    ref = RateControlReference(params.get("variant", "drop"),
                               params.get("initialDelay", 0), server)
    predicted = ref.run(rc_actions_from_trace(report.records, server))
    actual = rc_forwards_from_trace(report.records, server)
    ok = sorted(predicted) == sorted(actual)
    return ok, ("%d forwards match reference" % len(actual)) if ok else \
        "predicted %d, actual %d" % (len(predicted), len(actual))


def _a_bc_ledger(report, params):
    ledger = bc_ledger(report.records)
    problems = ["overdraft by %s" % a for a in ledger.overdrafts]
    problems += ["%s claimed %d, ledger %d" % (a, c, t)
                 for a, c, t in ledger.reports if c != t]
    if params.get("requireReports") and not ledger.reports:
        problems.append("no income reports seen")
    ok = not problems
    return ok, problems or "spends within grants; %d reports exact" % len(ledger.reports)


def _a_bc_rogue(report, params):
    rogues = [r for r in report.records
              if r["type"] in ("rogue", "rogue-blocked")]
    if not rogues:
        return False, "no rogue attempts in this run"
    # rogue payloads bypass the controllers, so none may show up as a
    # mediated delivery; every deliver record must cite a real envelope
    unmediated = [r for r in report.records
                  if r["type"] == "deliver" and "envelope" not in r]
    if unmediated:
        return False, "deliveries without an envelope: %r" % unmediated[:3]
    return True, "%d rogue attempts stayed outside the mediated flow" % len(rogues)


def _a_audit(report, params):
    inter = interdivision_deliveries(report.records)
    if len(inter) != len(report.audit):
        return False, "%d inter-division deliveries, %d audit records" % (
            len(inter), len(report.audit))
    mism = audit_mismatches(report.records, report.audit)
    return not mism, mism or "%d deliveries == %d audit records" % (
        len(inter), len(report.audit))


def _a_mediation(report, params):
    fw = bool(report.scenario.get("net", {}).get("firewall", False))
    problems = mediation_violations(report.records, fw)
    return not problems, problems or "all deliveries ruled; rogue policy upheld"


def _a_dual(report, params):
    stacked = {r["agent"] for r in report.records if r["type"] == "stack-adopt"}
    envelopes = {r["seq"]: r for r in report.records if r["type"] == "envelope"}
    bad = []
    for seq, count in dual_mediation_counts(report.records):
        env = envelopes[seq]
        expected = (2 if env["sender"] in stacked else 1) + \
                   (2 if env["target"] in stacked else 1)
        if count != expected:
            bad.append((seq, count, expected))
    return not bad, bad[:5] or "every delivery mediated on both sides"


def _a_ring(report, params):
    verdict = ring_token_oracle(report.records,
                                params.get("allowedLosses", 0),
                                params.get("rotationWindow"))
    return verdict.ok, verdict.problems[:5] or \
        "token count never above 1 (max %d), %d loss windows" % (
            verdict.max_count, verdict.zero_windows)


def _a_law_fetch(report, params):
    fetched = []
    for r in report.records:
        if r["type"] != "deliver":
            continue
        p = parse_term(r["payload"])
        if p.functor == "lawText" and len(p.args) == 2:
            fetched.append(hash_law(p.args[1]) == p.args[0])
    ok = bool(fetched) and all(fetched)
    return ok, "%d law texts fetched, all hash-consistent" % len(fetched) \
        if ok else "fetched=%d consistent=%s" % (len(fetched), fetched)


def _a_replay(report, params):
    ok, problems = replay_report(report)
    return ok, problems[:3] or "all rulings re-derived exactly"


ASSERTIONS: Dict[str, Callable] = {
    "rc-spacing": _a_rc_spacing,
    "rc-reference": _a_rc_reference,
    "bc-ledger": _a_bc_ledger,
    "bc-rogue-zero": _a_bc_rogue,
    "audit-complete": _a_audit,
    "mediation-complete": _a_mediation,
    "dual-mediation": _a_dual,
    "ring-safety": _a_ring,
    "law-fetch": _a_law_fetch,
    "replay-equiv": _a_replay,
}


# ---------------------------------------------------------------------------
# offline replay


def rebuild_framework(laws: Dict[str, str]) -> Framework:
    """Republish a report's laws, checking each text hashes to its key."""
    bundle = publish_laws({h: parse_law(t) for h, t in laws.items()})
    for h, got in bundle.by_name.items():
        if got != h:
            raise FdsError("law text does not hash to %s" % h)
    return bundle.framework


# the number of eventArgs a ruling on each event kind records
EVENT_ARITY = {"sent": 3, "arrived": 3, "adopted": 1, "obligationDue": 1, "exception": 1}


def replay_report(report: RunReport) -> Tuple[bool, List[str]]:
    """Re-derive every recorded ruling offline from the trace alone.

    Each agent's open chains map (chain, law) to the state replay derived
    for them. A chain opens with the ``stateBefore`` of its opening ruling,
    advances by the controller's commit rule (a blocked ``adopted`` ruling
    commits nothing) and closes at its agent's ``quit``. Each ruling's
    overlay and event are built by the controller's rule (``Overlays``)
    from the ruling's ``time`` and its peer: a send's target as its latest
    ``adopt`` record gives it, or the sender of the envelope an arrival
    cites.

    Replay reports, and does not raise on, a ruling whose ops or overlay
    differ from its record, an opening ruling of an open chain, any other
    ruling of a closed one, an arrival that cites no envelope before it or
    another sender, a ruling it cannot derive, and a record it cannot read.
    """
    fw = report.framework or rebuild_framework(report.laws)
    problems: List[str] = []
    open_chains: Dict[str, Dict[tuple, ControlState]] = {}
    natives: Dict[str, Tuple[str, str]] = {}  # agent -> (division, native law)
    envelopes: Dict[int, dict] = {}  # seq -> envelope record
    overlays = Overlays()
    # one-entry memo: the rulings of one message on its chains follow each
    # other and share its payload text
    payload_text, payload = None, None
    for i, rec in enumerate(report.records):
        try:
            kind = rec["type"]
            if kind != "ruling":
                if kind == "envelope":
                    envelopes[rec["seq"]] = rec
                elif kind == "adopt":
                    natives[rec["agent"]] = (rec["division"], rec["laws"][0])
                elif kind == "quit":
                    open_chains.pop(rec["agent"], None)
                    natives.pop(rec["agent"], None)
                continue
            seq, event, args = rec["seq"], rec["event"], rec["eventArgs"]
            chains = open_chains.setdefault(rec["agent"], {})
            key = (rec["chain"], rec["law"])
            opens = "stateBefore" in rec
            if opens == (key in chains):
                problems.append("seq %s: chain %s of %s is %s" % (
                    seq, rec["chain"], rec["agent"], "open" if opens else "closed"))
                continue
            if EVENT_ARITY.get(event) != len(args):
                raise FdsError("%r event with %d eventArgs" % (event, len(args)))
            path = fw.resolve_path(rec["law"])
            state = ControlState(parse_terms(rec["stateBefore"]), path.multi) if opens \
                else chains[key]
            if event == "sent" or event == "arrived":
                if args[1] != payload_text:
                    payload, payload_text = parse_term(args[1]), args[1]
                name, division, law = peer = _peer(rec, args, natives, envelopes)
                happened = Sent(AgentName(name, division), payload) if event == "sent" \
                    else Arrived(AgentName(name, division), law, payload)
                overlay = overlays.peer(rec["time"], rec["law"], *peer)
            else:
                happened = _other_event(event, args[0])
                overlay = overlays.base(rec["time"])
            text = Overlays.text(overlay)
            if text != rec["overlay"]:
                problems.append("seq %s: overlay %r != %r" % (seq, text, rec["overlay"]))
            ruling = derive_ruling(path, happened, state.with_overlay(overlay))
            if ruling.canonical_ops() != rec["ops"]:
                problems.append("seq %s: ops %r != %r"
                                % (seq, ruling.canonical_ops(), rec["ops"]))
            if ruling.block is None or event != "adopted":
                chains[key] = ruling.new_state
        except FdsError as exc:
            problems.append("seq %s: %s" % (seq, exc))
        except (LookupError, TypeError) as exc:
            problems.append("record %d: unreadable (%s: %s)" % (i, type(exc).__name__, exc))
    return not problems, problems


def _peer(rec: dict, args: list, natives: dict, envelopes: dict) -> Tuple[str, str, str]:
    """The peer (name, division, native law) of a ruling on a message: a
    send's target as last adopted, or the sender of the cited envelope."""
    if rec["event"] == "sent":
        return (args[2], *natives.get(args[2], ("", "")))
    env = envelopes.get(rec.get("envelope"))
    if env is None:
        raise FdsError("arrival cites no envelope before it (%r)" % (rec.get("envelope"),))
    if args[0] != env["sender"]:
        raise FdsError("sender %r is not envelope %s's %r"
                       % (args[0], env["seq"], env["sender"]))
    return env["sender"], env["senderDivision"], env["senderLaw"]


def _other_event(kind: str, arg: str):
    """The event of a ruling on no message, from its one recorded argument."""
    if kind == "adopted":
        return Adopted(parse_term(arg))
    if kind == "obligationDue":
        return ObligationDue(parse_term(arg))
    return ExceptionEvent(arg)


def replay_report_file(path) -> Tuple[bool, List[str]]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return False, ["cannot read a report from %s: %s" % (path, exc)]
    if not isinstance(data, dict):
        return False, ["a report is a JSON object, not %s" % type(data).__name__]
    if data.get("traceVersion") != TRACE_VERSION:
        return False, ["trace version %r is not %d" % (data.get("traceVersion"),
                                                       TRACE_VERSION)]
    laws = data.get("laws")
    if not isinstance(laws, dict) or not all(isinstance(t, str) for t in laws.values()):
        return False, ["report has no laws object of law texts"]
    if not isinstance(data.get("trace"), list):
        return False, ["report has no trace list"]
    return replay_report(RunReport(data.get("scenario", {}), laws, data["trace"],
                                   data.get("audit", []), data.get("metrics", {})))

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
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .actors import EchoActor, ProberActor, RingMemberActor, SinkActor
from .controller import ControllerPool, Overlays, issue_certificate, ruling_fields
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
    commit,
    hash_law,
    parse_term,
    parse_terms,
)
from .hierarchy import Bundle, Framework, FrameworkError, derive_ruling, publish_laws
from .lawlang import EVENT_KINDS, event_args, parse_law
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
    unruled_deliveries,
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
    if not docs:
        raise ScenarioError("no .law files in %s" % path)
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

# how a trace record is written, the same for ``trace_lines``, the report
# file and the golden digests: compact, keys sorted, by the C encoder
RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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

    def trace_lines(self) -> List[str]:
        encode = RECORD_ENCODER.encode
        return [encode(r) for r in self.records]

    def ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values())

    def to_json(self) -> str:
        """The report file: compact JSON with sorted keys, the trace one
        record per line, each line as ``trace_lines`` renders it."""
        # host latencies stay out of the file: two runs write the same bytes
        parts = {
            "traceVersion": TRACE_VERSION,
            "scenario": self.scenario,
            "laws": self.laws,
            "audit": self.audit,
            "metrics": {k: v for k, v in self.metrics.items() if k != "laws"},
            "verdicts": self.verdicts,
            "warnings": self.warnings,
        }
        encode = RECORD_ENCODER.encode
        # one list of pieces joined once: no intermediate copy of the trace
        pieces = ["{"]
        for key in sorted(["trace", *parts]):
            pieces.append(encode(key) + ":")
            if key != "trace":
                pieces.append(encode(parts[key]))
            else:
                pieces.append("[\n")
                for record in self.records:
                    pieces += (encode(record), ",\n")
                if self.records:
                    pieces[-1] = "\n"
                pieces.append("]")
            pieces.append(",")
        pieces[-1] = "}"
        return "".join(pieces)


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
    if type(netc.get("firewall", False)) is not bool:
        raise ScenarioError("net firewall must be true or false, not %r" % (netc["firewall"],))
    if firewall is None:
        firewall = netc.get("firewall", False)
    # record the effective knobs so assertions and replay see what ran
    netc["firewall"] = firewall
    scenario = dict(scenario, net=netc, seed=seed)
    latency, order = netc.get("latency", [1, 1]), netc.get("order", "fifo-per-pair")
    if not (_range(latency) and latency[0] >= 0):
        raise ScenarioError("net latency must be two integers lo, hi with 0 <= lo <= hi, "
                            "not %r" % (latency,))
    if order not in ("fifo-per-pair", "random-seeded"):
        raise ScenarioError("net order must be fifo-per-pair or random-seeded, not %r" % (order,))
    scheduler = Scheduler()
    trace = Trace(lambda: scheduler.now)
    cfg = SimNetConfig(seed=seed, latency=tuple(latency), delivery_order=order,
                       firewall=firewall)
    net = SimNet(scheduler, cfg, trace)
    bundle = build_bundle(scenario.get("laws", {"bundle": "acme"}))
    pool = ControllerPool(bundle.framework, net, trace)
    actors: Dict[str, object] = {}

    def resolve(ref: str) -> str:
        try:
            return bundle.law(ref)
        except KeyError as exc:
            raise ScenarioError(str(exc.args[0])) from exc

    def guarded(fn, action: str, agent: str):
        """``fn`` as a scheduled action whose refusal is recorded, not raised."""
        def run():
            try:
                fn()
            except FdsError as exc:
                trace.add("action-error", {"action": action, "agent": agent, "error": str(exc)})

        return run

    def schedule_adoption(entry: dict):
        name, law = _need(entry, "name", "law")
        law = resolve(law)
        stack = [resolve(s) for s in entry.get("stack", [])]
        behavior = entry.get("behavior", "sink")
        params = entry.get("params", {})
        if behavior == "law-server":
            actor = LawServer(bundle.framework, name)
        elif behavior in BEHAVIORS:
            actor = BEHAVIORS[behavior](**params)
        else:
            raise ScenarioError("unknown behavior %r" % behavior)

        def do_adopt():
            cert = issue_certificate(name, entry.get("division", ""))
            pool.adopt(actor, cert, law)
            actors[name] = actor  # only an admitted actor joins the run
            for extra in stack:
                pool.stack_adopt(name, extra)

        scheduler.schedule(entry.get("at", 0), guarded(do_adopt, "adopt", name))

    for entry in scenario.get("cast", []):
        schedule_adoption(_checked(entry))

    # payloads may reference published laws symbolically: {law:d1} -> hash
    law_ref = re.compile(r"\{law:([\w-]+)\}")

    def sub_laws(text: str) -> str:
        return law_ref.sub(lambda m: resolve(m.group(1)), text)

    # every key an action needs is read here, so a malformed item fails
    # before the run starts
    def compile_action(item: dict):
        action = item.get("action", "send")
        if action in ("send", "rogue"):
            at, src, dst, text = _need(item, "at", "from", "to", "payload")
            submit = pool.send if action == "send" else net.rogue_send
            scheduler.schedule(
                at, guarded(partial(submit, src, dst, parse_term(sub_laws(text))), action, src))
        elif action == "send-every":
            period, until, src, dst, text = _need(item, "period", "until", "from", "to",
                                                  "payload")
            if period <= 0:
                raise ScenarioError("send-every period must be a positive integer, not %r"
                                    % (period,))
            for i, t in enumerate(range(item.get("start", 0), until, period)):
                try:
                    formatted = text.format(i=i)
                except (LookupError, ValueError, AttributeError, TypeError) as exc:
                    raise ScenarioError("%s has a payload that does not format with i=%d: %r"
                                        % (RECORD_ENCODER.encode(item), i, exc)) from None
                payload = parse_term(formatted)
                scheduler.schedule(t, guarded(partial(pool.send, src, dst, payload), action, src))
        elif action == "quit":
            at, agent = _need(item, "at", "agent")
            scheduler.schedule(at, guarded(partial(pool.quit, agent), action, agent))
        elif action == "stack-adopt":
            at, agent, law = _need(item, "at", "agent", "law")
            law = resolve(law)
            scheduler.schedule(at, guarded(partial(pool.stack_adopt, agent, law), action, agent))
        elif action == "adopt":
            schedule_adoption(item)
        elif action == "random-traffic":
            _compile_random_traffic(item, seed, scheduler, pool, net, guarded)
        else:
            raise ScenarioError("unknown timeline action %r" % action)

    for item in scenario.get("timeline", []):
        compile_action(_checked(item))

    scheduler.run(until=scenario.get("duration"))

    report = RunReport(
        scenario=scenario,
        laws={h: doc.canonical() for h, doc in bundle.framework.docs.items()},
        records=trace.records,
        audit=pool.audit,
        metrics=metrics_summary(pool.metrics, trace.records),
        warnings=warnings,
        actors=actors,
    )
    for spec in scenario.get("assertions", []):
        name, params = (spec, {}) if isinstance(spec, str) else (spec["name"], spec.get("params", {}))
        report.verdicts[name] = check_assertion(name, report, params)
    return report


def _range(v) -> bool:  # two integers lo, hi with lo <= hi
    return (isinstance(v, (list, tuple)) and len(v) == 2
            and type(v[0]) is type(v[1]) is int and v[0] <= v[1])


def _strings(v) -> bool:
    return type(v) is list and all(type(s) is str for s in v)


# the type of each key of a cast entry or timeline item that has one
_KEY_TYPES = {**dict.fromkeys(("at", "start", "until", "period", "count", "seedOffset"), int),
              **dict.fromkeys(("from", "to", "payload", "agent", "name", "law", "division",
                               "behavior"), str), "params": dict}
_TYPE_NAMES = {int: "integer", str: "string", dict: "object"}
# the kind and the test of each other key that has one: an agent list is a
# non-empty list of strings
_KEY_TESTS = {"rogueProb": ("number", lambda v: type(v) in (int, float)),
              "gap": ("range", _range), "costRange": ("range", _range),
              "stack": ("string-list", _strings),
              **dict.fromkeys(("senders", "targets"), ("agent-list", lambda v: v and _strings(v)))}


def _checked(item) -> dict:
    """A cast entry or timeline item: an object whose keys have their
    ``_KEY_TYPES`` and pass their ``_KEY_TESTS``."""
    if not isinstance(item, dict):
        raise ScenarioError("%s is not an object" % RECORD_ENCODER.encode(item))
    for key in item:
        if key in _KEY_TYPES and type(item[key]) is not _KEY_TYPES[key]:
            kind = _TYPE_NAMES[_KEY_TYPES[key]]
        elif key in _KEY_TESTS and not _KEY_TESTS[key][1](item[key]):
            kind = _KEY_TESTS[key][0]
        else:
            continue
        raise ScenarioError("%s has a non-%s %r" % (RECORD_ENCODER.encode(item), kind, key))
    return item


def _need(item: dict, *keys) -> tuple:
    """The values of two or more ``keys`` in a cast entry or timeline item,
    which must have them all."""
    try:
        return itemgetter(*keys)(item)
    except KeyError as exc:
        raise ScenarioError("%s has no %r" % (RECORD_ENCODER.encode(item), exc.args[0])) \
            from None


def _compile_random_traffic(item, seed, scheduler, pool, net, guarded):
    senders, targets, count = _need(item, "senders", "targets", "count")
    rng = random.Random(seed * 1000003 + item.get("seedOffset", 0))
    t = item.get("start", 0)
    lo, hi = item.get("gap", [1, 3])
    cost_lo, cost_hi = item.get("costRange", [1, 40])
    rogue_prob = item.get("rogueProb", 0.0)
    for i in range(count):
        t += rng.randint(lo, hi)
        sender = rng.choice(senders)
        target = rng.choice(targets)
        payload = Term("order", ("i%d" % i, rng.randint(cost_lo, cost_hi)))
        submit = net.rogue_send if rng.random() < rogue_prob else pool.send
        scheduler.schedule(t, guarded(partial(submit, sender, target, payload),
                                      "random-traffic", sender))


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
    # mediated delivery; every deliver record must stem from a deliver ruling
    unmediated = unruled_deliveries(report.records)
    if unmediated:
        return False, "deliveries without a deliver ruling: %r" % unmediated[:3]
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


def replay_report(report: RunReport) -> Tuple[bool, List[str]]:
    """Re-derive every recorded ruling offline from the trace alone.

    Each agent's open chains map (chain, law) to the state replay derived
    for them. A chain opens with the ``stateBefore`` of its opening ruling,
    advances by the controller's commit rule, ``core.commit`` (a refused
    adoption commits nothing), and closes at its agent's ``quit``. Each
    ruling's overlay and event are built by the controller's rule (``Overlays``)
    from the ruling's ``time`` and its peer: a send's target as its latest
    ``adopt`` record gives it, or the sender of the envelope an arrival
    cites. An arrival whose payload text is the one its send's rulings
    parsed takes their term.

    Every field the controller's ``ruling_fields`` derives from a ruling is
    compared with its record, one loop over them all, each difference
    reported as ``seq N: <field> <derived> != <recorded>``. Replay also
    reports, and does not raise on, an opening ruling of an open chain, any
    other ruling of a closed one, an arrival that cites no envelope before
    it or another sender, a ruling it cannot derive, a record it cannot
    read, and a law text that does not parse or hash to its key.
    """
    try:
        fw = rebuild_framework(report.laws)
    except FdsError as exc:
        return False, ["laws: %s" % exc]
    problems: List[str] = []
    open_chains: Dict[str, Dict[tuple, ControlState]] = {}
    natives: Dict[str, Tuple[str, str]] = {}  # agent -> (division, native law)
    envelopes: Dict[int, dict] = {}  # seq -> envelope record
    # (envelope seq, payload text) -> the payload term its send's rulings parsed
    carried: Dict[Tuple[int, str], Term] = {}
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
                    carried[rec["seq"], payload_text] = payload
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
            if EVENT_KINDS.get(event) != len(args):
                raise FdsError("%r event with %d eventArgs" % (event, len(args)))
            path = fw.resolve_path(rec["law"])
            state = ControlState(parse_terms(rec["stateBefore"]), path.multi) if opens \
                else chains[key]
            if event == "sent" or event == "arrived":
                if args[1] != payload_text:
                    payload_text = args[1]
                    payload = carried.pop((rec.get("envelope"), payload_text), None) \
                        or parse_term(payload_text)
                name, division, law = _peer(rec, args, natives, envelopes)
                happened = Sent(AgentName(name, division), payload) if event == "sent" \
                    else Arrived(AgentName(name, division), law, payload)
                overlay = overlays.peer(rec["time"], rec["law"], name, division, law)
            else:
                happened = _other_event(event, args[0])
                overlay = overlays.base(rec["time"])
            view = state.overlaid(overlay.groups)
            seen = event_args(happened, view)
            ruling = derive_ruling(path, happened, view, seen)
            fields = ruling_fields(seen, overlay, ruling)
            # one test of all fields; only a ruling that fails it names each that differs
            if not fields.items() <= rec.items():
                problems += ["seq %s: %s %r != %r" % (seq, attr, derived, rec[attr])
                             for attr, derived in fields.items() if derived != rec[attr]]
            after = commit(view, event, ruling)
            if after is not None:
                chains[key] = after
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

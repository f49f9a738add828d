"""Instrumentation installed from outside the program: timers and spans.

``Patches`` swaps a function or method for a wrapper and puts the original
back afterwards. A module-level function is replaced under every name that
refers to it in any ``fds`` module, so a call is caught whichever module
looks it up (``derive_ruling``, for example, is looked up in both
``fds.controller`` and ``fds.harness``).

``Timers`` is all an untraced run installs: a clock around
``Scheduler.run`` and around the outermost mediation entry points.

``Tracer`` records one span per call of each layer's entry points (name,
start, end, parent span, repetition id, phase) in memory, plus counters at
the same boundaries. Leaves whose cost is close to that of a clock read
(``Term.canonical``, ``ControlState.lookup``, ``aspect_matches``,
``match_pattern``, ``eval_guard``, ``LawDoc.meta_mode``) are counted, never
timed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

from fds import controller, core, harness, hierarchy, lawlang, transport

# Host speed. A host that shares its CPUs with other jobs (such as the
# 2-vCPU VM this benchmark was defined on) drifts in speed by up to 1.8x
# within tens of seconds. Each timed segment is therefore bracketed by a
# fixed, stdlib-only calibration workload, and its host time is divided by
# the slowdown that calibration saw (its time over CAL_REF_S). The
# calibration touches no fds code, so a change to the program moves the
# scaled times by the same factor as it moves raw ones.
CAL_REF_S = 0.005  # median calibration_work time on the defining machine


def calibration_work():
    """Tuples, dict buckets, string keys, sorting and JSON: the kind of
    work the simulator's inner loops do, with no fds code."""
    buckets = {}
    for i in range(6000):
        key = "f%d" % (i % 97)
        buckets.setdefault(key, []).append((key, i, "a%d" % (i * 7 % 1009)))
    rows = [sorted(v, key=lambda t: t[2])[:5] for _, v in sorted(buckets.items())]
    return len(json.loads(json.dumps(rows)))


def slowdown():
    """Current host slowdown against CAL_REF_S (median of five runs)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CAL_REF_S


def fds_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fds" or name.startswith("fds."))]


class Patches:
    """Installed wrappers, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        """Replace ``module.name`` everywhere it is bound in ``fds``.

        ``make(original, module_name)`` builds the wrapper for each module,
        so a wrapper can tell which module made the call.
        """
        original = getattr(module, name)
        for mod in fds_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, make(original, mod.__name__))

    def method(self, cls, name, make):
        original = cls.__dict__[name]
        self._set(cls, name, make(original, cls.__name__))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class StopAtRun(Exception):
    """Raised in place of ``Scheduler.run`` when only set-up is timed."""


class Timers:
    """The clocks of an untraced run.

    ``run_start``/``run_end`` bracket ``Scheduler.run``; ``mediation_ns``
    gets one sample per outermost ``ControllerPool.send`` call or envelope
    arrival (``ControllerPool._arrive``).
    """

    def __init__(self):
        self.run_start = self.run_end = 0.0
        self.abort_time = None
        self.stop_at_run = False
        self.mediation_ns = []
        self._depth = 0

    def install(self, patches: Patches):
        patches.method(transport.Scheduler, "run", self._wrap_run)
        patches.method(controller.ControllerPool, "send", self._wrap_mediation)
        patches.method(controller.ControllerPool, "_arrive", self._wrap_mediation)

    def _wrap_run(self, fn, _owner):
        timers = self

        @wraps(fn)
        def run(sched, *args, **kwargs):
            timers.run_start = time.perf_counter()
            if timers.stop_at_run:
                raise StopAtRun()
            try:
                return fn(sched, *args, **kwargs)
            except BaseException:
                timers.abort_time = sched.now
                raise
            finally:
                timers.run_end = time.perf_counter()

        return run

    def _wrap_mediation(self, fn, _owner):
        timers = self
        samples = self.mediation_ns
        clock = time.perf_counter_ns

        @wraps(fn)
        def mediate(*args, **kwargs):
            if timers._depth:
                return fn(*args, **kwargs)
            timers._depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - t0)
                timers._depth = 0

        return mediate


# span record fields
NAME, START, END, PARENT, RUN, PHASE = range(6)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    Calls are sequential, so children never overlap and their durations
    sum to the part of the parent's interval they cover.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


class Tracer:
    """Spans and counters at the entry points of each layer."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = "setup"
        self.run_id = 0
        self._stack = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_exit=None):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter_ns

        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer.phase, name] += 1
            rec = [name, clock(), 0, stack[-1] if stack else -1,
                   tracer.run_id, tracer.phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, out)
            return out

        return wrapper

    def span(self, name, on_exit=None):
        return lambda fn, _owner: self._span(name, fn, on_exit)

    def count(self, key, hit_key=None):
        """Count calls (and, with ``hit_key``, results that are not None)."""
        counts, tracer = self.counts, self

        def make(fn, _owner):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                counts[tracer.phase, key] += 1
                out = fn(*args, **kwargs)
                if hit_key is not None and out is not None:
                    counts[tracer.phase, hit_key] += 1
                return out

            return wrapper

        return make

    def install(self, patches: Patches):
        counts, tracer = self.counts, self

        def bump(key, n=1):
            counts[tracer.phase, key] += n

        # controller
        pool = controller.ControllerPool
        patches.method(pool, "send", self.span("controller.send"))
        patches.method(pool, "_arrive", self.span("controller.arrive"))
        for name in ("adopt", "stack_adopt", "quit"):
            patches.method(pool, name, self.span("controller.adopt"))

        def tick(fn, _owner):
            timed = self._span("controller.tick", fn)

            @wraps(fn)
            def wrapper(pool_self, now):
                before = counts[tracer.phase, "hierarchy.derive_ruling"]
                bump("tick.agents", len(pool_self.agents))
                out = timed(pool_self, now)
                if counts[tracer.phase, "hierarchy.derive_ruling"] != before:
                    bump("tick.useful")
                return out

            return wrapper

        patches.method(pool, "tick", tick)

        # hierarchy
        def derive(fn, _owner):
            timed = self._span("hierarchy.derive_ruling", fn)

            @wraps(fn)
            def wrapper(*args, **kwargs):
                before = counts[tracer.phase, "first_match.hit"]
                out = timed(*args, **kwargs)
                hits = counts[tracer.phase, "first_match.hit"] - before
                bump("discarded_hits", max(hits - 1, 0))
                return out

            return wrapper

        patches.function(hierarchy, "derive_ruling", derive)
        patches.method(hierarchy.Framework, "resolve_path", self.count("resolve_path"))
        for name in ("publish_root", "publish_delta"):
            patches.method(hierarchy.Framework, name, self.span("hierarchy.publish"))

        # lawlang
        def first_match_exit(_args, out):
            if out is not None:
                bump("first_match.hit")

        patches.function(lawlang, "first_match",
                         self.span("lawlang.first_match", first_match_exit))
        patches.function(lawlang, "parse_law", self.span("lawlang.parse_law"))
        patches.function(lawlang, "aspect_matches", self.count("aspect_matches"))
        patches.function(lawlang, "match_pattern", self.count("match_pattern"))
        patches.function(lawlang, "eval_guard", self.count("eval_guard", "eval_guard.hit"))
        patches.method(lawlang.LawDoc, "meta_mode", self.count("meta_mode"))

        # core
        def state_init_exit(args, _out):
            bump("state.terms", sum(len(b) for b in args[0]._terms.values()))

        state = core.ControlState
        patches.method(state, "__init__", self.span("core.state.init", state_init_exit))
        for name in ("add", "replace", "remove", "with_overlay", "without_overlay",
                     "canonical"):
            patches.method(state, name, self.span("core.state." + name))

        def parse_term(fn, module_name):
            key = "parse_term@" + module_name

            return self._span("core.parse_term", fn, lambda _args, _out: bump(key))

        patches.function(core, "parse_term", parse_term)

        # transport
        patches.method(transport.Trace, "add", self.span("transport.trace_add"))
        patches.method(transport.SimNet, "send", self.span("transport.simnet_send"))
        patches.method(transport.SimNet, "rogue_send", self.span("transport.rogue_send"))

        def run(fn, _owner):
            timed = self._span("transport.scheduler", fn)

            @wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.phase = "sim"
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer.phase = "setup"

            return wrapper

        def schedule(fn, _owner):
            @wraps(fn)
            def wrapper(sched, at, item):
                def counted():
                    counts[tracer.phase, "scheduler.items"] += 1
                    item()

                return fn(sched, at, counted)

            return wrapper

        patches.method(transport.Scheduler, "run", run)
        patches.method(transport.Scheduler, "schedule", schedule)

        # harness (the oracles run inside check_assertion)
        patches.function(harness, "run_scenario", self.span("harness.run_scenario"))
        patches.function(harness, "build_bundle", self.span("harness.build_bundle"))
        patches.function(harness, "check_assertion", self.span("oracles.check"))
        patches.function(harness, "replay_report", self.span("harness.replay"))
        patches.function(harness, "replay_report_file", self.span("harness.replay_file"))
        patches.function(harness, "rebuild_framework",
                         self.span("harness.rebuild_framework"))

    # -- analysis ------------------------------------------------------------

    def rep_summary(self):
        """Totals for the spans recorded since the last ``flush``: self and
        inclusive ns by span name, sim-phase self ns by name, sim-phase
        derive_ruling durations and the timeline compile time."""
        spans = self.spans
        selfs = self_times(spans)
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        sim_self_ns = defaultdict(int)
        derive_ns = []
        compile_s = None
        bundle_end = None
        for s, own in zip(spans, selfs):
            name = s[NAME]
            self_ns[name] += own
            incl_ns[name] += s[END] - s[START]
            if s[PHASE] == "sim":
                sim_self_ns[name] += own
                if name == "hierarchy.derive_ruling":
                    derive_ns.append(s[END] - s[START])
            if name == "harness.build_bundle":
                bundle_end = s[END]
            elif name == "transport.scheduler" and bundle_end is not None:
                compile_s = (s[START] - bundle_end) / 1e9
        return {"self_ns": self_ns, "incl_ns": incl_ns, "sim_self_ns": sim_self_ns,
                "derive_ns": derive_ns, "compile_s": compile_s}

    def flush(self, out):
        """Write the recorded spans to ``out``, one tab-separated line each
        (parent is an index among the spans of the same repetition), then
        start afresh for the next repetition."""
        for s in self.spans:
            out.write("%s\t%d\t%d\t%d\t%d\t%s\n" % tuple(s))
        self.spans.clear()
        self.counts.clear()


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_p50"):
        return "us"
    if name.endswith(("_ratio", "_per_tick")):
        return "ratio"
    return "count"


def layer_metrics(summary, counts, rulings):
    """Per-layer metrics of one traced repetition.

    ``counts`` maps (phase, key) to a count for this repetition alone.
    """
    sec = lambda name: summary["self_ns"].get(name, 0) / 1e9
    incl = lambda name: summary["incl_ns"].get(name, 0) / 1e9
    sim = lambda key: counts.get(("sim", key), 0)
    ratio = lambda a, b: a / b if b else 0.0
    derive = sim("hierarchy.derive_ruling")
    state_s = sum(v for k, v in summary["self_ns"].items()
                  if k.startswith("core.state.")) / 1e9
    return {
        "controller.send.self_s": sec("controller.send"),
        "controller.arrive.self_s": sec("controller.arrive"),
        "controller.tick.self_s": sec("controller.tick"),
        "controller.tick.agents_scanned_per_ruling": ratio(sim("tick.agents"), rulings),
        "controller.oblig_fired_per_tick": ratio(sim("tick.useful"), sim("controller.tick")),
        "hierarchy.derive_ruling.self_s": sec("hierarchy.derive_ruling"),
        "hierarchy.derive_ruling.us_p50":
            statistics.median(summary["derive_ns"]) / 1e3 if summary["derive_ns"] else 0.0,
        "hierarchy.levels_per_ruling": ratio(sim("lawlang.first_match"), derive),
        "hierarchy.discarded_hits_per_ruling": ratio(sim("discarded_hits"), derive),
        "hierarchy.resolve_path_per_replayed_ruling":
            ratio(counts.get(("replay", "resolve_path"), 0), rulings),
        "lawlang.first_match.self_s": sec("lawlang.first_match"),
        "lawlang.aspect_checks_per_ruling": ratio(sim("aspect_matches"), derive),
        "lawlang.meta_lookups_per_ruling": ratio(sim("meta_mode"), derive),
        "lawlang.rules_tried_per_ruling": ratio(sim("match_pattern"), derive),
        "lawlang.guard_hit_ratio": ratio(sim("eval_guard.hit"), sim("eval_guard")),
        "lawlang.parse_law.self_s": sec("lawlang.parse_law"),
        "core.state.self_s": state_s,
        "core.state.copies_per_ruling": ratio(sim("core.state.init"), rulings),
        "core.state.terms_per_copy": ratio(sim("state.terms"), sim("core.state.init")),
        "core.parse_term.self_s": sec("core.parse_term"),
        "core.parse_term.sim_calls_per_ruling": ratio(sim("core.parse_term"), rulings),
        "core.parse_term.replay_calls_per_ruling":
            ratio(counts.get(("replay", "core.parse_term"), 0), rulings),
        "transport.trace_add.self_s": sec("transport.trace_add"),
        "transport.records_per_ruling": ratio(sim("transport.trace_add"), rulings),
        "transport.scheduler.self_s": sec("transport.scheduler"),
        "transport.scheduler.items_per_ruling": ratio(sim("scheduler.items"), rulings),
        "transport.simnet_send.self_s": sec("transport.simnet_send"),
        "transport.payload_parses_per_arrival":
            ratio(sim("parse_term@fds.transport"), sim("controller.arrive")),
        "harness.replay.self_s": sec("harness.replay"),
        "harness.rebuild_framework_s": incl("harness.rebuild_framework"),
        "harness.replay.load_s": incl("harness.replay_file") - incl("harness.replay"),
        "harness.compile_s": summary["compile_s"] or 0.0,
        "oracles.check_s": incl("oracles.check"),
    }

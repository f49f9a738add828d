"""fds benchmark: seeded workloads, end-to-end metrics and a traced layer split.

Gated run (one workload):

    python3 bench/run.py --workload acme-stacked --seed 1 --seconds 30 --trace 0

generates the workload from the seed and repeats it for ``--seconds`` host
seconds. One repetition runs the scenario through
``fds.harness.run_scenario`` with its assertions split out, checks every
assertion, serialises the report (``RunReport.to_json``) and replays it
from the file with ``replay_report_file``, as ``fds replay`` does. Every
repetition of one (workload, seed) must give identical ``sim.*`` counts
and trace digest. The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. The exit code is 0 only if every check
passed.

Ungated report (six shipped scenarios plus the agent-count sweep):

    python3 bench/run.py --report [--out bench/out/report.json]

All times are host times, divided by the host slowdown a fixed calibration
measured around them (``layers.slowdown``); the simulated timeline is fixed
in logical time, so host speed never changes the offered load.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPS = 2
SETUP_REPS = 15


def _import_program():
    """Import ``fds`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fds" / "__init__.py").is_file():
        sys.exit("bench: no program to measure: %s/fds is missing" % SRC)
    sys.path.insert(0, str(SRC))
    import fds

    if Path(fds.__file__).resolve().parent != (SRC / "fds").resolve():
        sys.exit("bench: imported fds from %s, not from %s" % (fds.__file__, SRC))


# ---------------------------------------------------------------------------
# one repetition


def action_times(scenario):
    """Logical time of each timeline action; the generators emit only
    single, timed actions."""
    return [item["at"] for item in scenario["timeline"]]


def sim_counts(report):
    records = report.records
    rulings = [r for r in records if r["type"] == "ruling"]
    kinds = {}
    for r in records:
        kinds[r["type"]] = kinds.get(r["type"], 0) + 1
    return {
        "sim.rulings": len(rulings),
        "sim.blocked": sum(1 for r in rulings if r["blocked"]),
        "sim.envelopes": kinds.get("envelope", 0),
        "sim.deliveries": kinds.get("deliver", 0),
        "sim.audit_records": len(report.audit),
        "sim.obligations_fired": sum(1 for r in rulings if r["event"] == "obligationDue"),
        "sim.dead_letters": kinds.get("dead-letter", 0),
    }


def trace_digest(report):
    h = hashlib.sha256()
    for line in report.trace_lines():
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    h.update(json.dumps(report.audit, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


class Rep:
    """Measurements and checks of one repetition.

    Times are host seconds divided by the host slowdown measured around
    them (see ``layers.slowdown``); ``raw_*`` keep the unscaled ones.
    """

    def __init__(self):
        self.setup_s = self.sim_s = self.replay_s = 0.0
        self.raw_sim_s = self.raw_replay_s = 0.0
        self.slow = []  # host slowdown at each calibration point
        self.sim_slow = 1.0  # the one that scales set-up and simulation times
        self.raw_mediation_us = []
        self.rulings = self.trace_bytes = 0
        self.attempted = self.failed = 0
        self.counts = {}
        self.digest = ""
        self.problems = []


def run_once(scenario, timers, report_path, tracer=None):
    """Set up, simulate, check, serialise and replay one scenario."""
    from fds import core, harness
    from layers import slowdown

    rep = Rep()
    times = action_times(scenario)
    rep.attempted = len(times)
    assertions = scenario.get("assertions", [])
    timers.mediation_ns.clear()
    timers.abort_time = None
    gc.collect()
    rep.slow.append(slowdown())
    t0 = time.perf_counter()
    try:
        report = harness.run_scenario(dict(scenario, assertions=[]))
    except core.FdsError as exc:
        # the run aborted: every action not yet run has failed
        at = timers.abort_time if timers.abort_time is not None else 0
        rep.failed = sum(1 for t in times if t >= at)
        rep.problems.append("run aborted at time %s: %s" % (at, exc))
        return rep
    rep.slow.append(slowdown())
    rep.sim_slow = (rep.slow[0] + rep.slow[1]) / 2
    rep.setup_s = (timers.run_start - t0) / rep.sim_slow
    rep.raw_sim_s = timers.run_end - timers.run_start
    rep.sim_s = rep.raw_sim_s / rep.sim_slow
    rep.raw_mediation_us = [ns / 1e3 for ns in timers.mediation_ns]
    rep.counts = sim_counts(report)
    rep.rulings = rep.counts["sim.rulings"]
    rep.digest = trace_digest(report)
    rep.failed = sum(1 for r in report.records if r["type"] == "action-error")

    if tracer is not None:
        tracer.phase = "check"
    for spec in assertions:
        name, params = (spec, {}) if isinstance(spec, str) else \
            (spec["name"], spec.get("params", {}))
        if name == "replay-equiv":
            continue  # checked below, from the serialised file
        verdict = harness.check_assertion(name, report, params)
        if not verdict["ok"]:
            rep.problems.append("assertion %s failed: %s" % (name, verdict["detail"]))

    if tracer is not None:
        tracer.phase = "serialise"
    text = report.to_json()
    rep.trace_bytes = len(text)
    report_path.write_text(text)
    del report, text
    gc.collect()

    rep.slow.append(slowdown())
    if tracer is not None:
        tracer.phase = "replay"
    t0 = time.perf_counter()
    ok, problems = harness.replay_report_file(report_path)
    rep.raw_replay_s = time.perf_counter() - t0
    rep.slow.append(slowdown())
    rep.replay_s = rep.raw_replay_s / ((rep.slow[2] + rep.slow[3]) / 2)
    if tracer is not None:
        tracer.phase = "setup"
    if not ok:
        rep.problems.append("file replay failed: %s" % problems[:3])
    return rep


def time_setup(scenario, timers):
    """Host seconds from the scenario dict to the start of Scheduler.run."""
    from fds import harness
    from layers import StopAtRun, slowdown

    gc.collect()
    before = slowdown()
    timers.stop_at_run = True
    t0 = time.perf_counter()
    try:
        harness.run_scenario(dict(scenario, assertions=[]))
    except StopAtRun:
        pass
    finally:
        timers.stop_at_run = False
    raw = timers.run_start - t0
    return raw / ((before + slowdown()) / 2)


def check_same(reps, problems):
    """Every repetition of one (workload, seed) must simulate the same run."""
    first = next((r for r in reps if r.digest), None)
    for i, r in enumerate(reps):
        problems += ["rep %d: %s" % (i, p) for p in r.problems]
        if first is not None and r.digest and \
                (r.counts != first.counts or r.digest != first.digest):
            problems.append("rep %d: sim counts or trace digest differ from rep 0" % i)


# ---------------------------------------------------------------------------
# gated modes


def percentile(sorted_vals, q):
    return sorted_vals[min(len(sorted_vals) - 1, int(len(sorted_vals) * q))]


def mediation_percentiles(reps, scaled=True):
    """Median over repetitions of each one's p50 and p99 mediation time.

    Scaled, a repetition's p50 is divided by its slowdown and its p99 by
    the square root of it: the slowest mediations follow the host's speed
    swings only about half as much as the bulk of the work does (see
    NOTES.md), so full scaling would add noise to the tail.
    """
    p50, p99 = [], []
    for r in reps:
        samples = sorted(r.raw_mediation_us)
        slow = r.sim_slow if scaled else 1.0
        p50.append(percentile(samples, 0.5) / slow)
        p99.append(percentile(samples, 0.99) / math.sqrt(slow))
    return statistics.median(p50), statistics.median(p99)


def slow_note(reps):
    from layers import CAL_REF_S

    slow = [x for r in reps for x in r.slow]
    return "host slowdown (calibration time / %g s): median %.3f, range %.3f-%.3f" % (
        CAL_REF_S, statistics.median(slow), min(slow), max(slow))


def end_to_end(workload, seed, seconds):
    from layers import Patches, Timers
    from workloads import WORKLOADS

    scenario = WORKLOADS[workload](seed)
    report_path = OUT / ("%s-%d.json" % (workload, seed))
    timers = Timers()
    reps = []
    with Patches() as patches:
        timers.install(patches)
        setups = [time_setup(scenario, timers) for _ in range(SETUP_REPS)]
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            reps.append(run_once(scenario, timers, report_path))
            if reps[-1].problems:
                break
        elapsed = time.perf_counter() - start
    problems = []
    check_same(reps, problems)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if problems:
        return problems, attempted, failed, {}, []

    rulings = reps[0].rulings
    setups += [r.setup_s for r in reps]
    p50, p99 = mediation_percentiles(reps)
    samples = sum(len(r.raw_mediation_us) for r in reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "rulings_per_s": (statistics.median(r.rulings / r.sim_s for r in reps), "1/s",
                          len(reps)),
        "mediation_us_p50": (p50, "us", samples),
        "mediation_us_p99": (p99, "us", samples),
        "replay_rulings_per_s": (statistics.median(r.rulings / r.replay_s for r in reps),
                                 "1/s", len(reps)),
        "trace_bytes_per_ruling": (statistics.median(r.trace_bytes for r in reps) / rulings,
                                   "B", len(reps)),
        # the repetitions run one after another and free what they built,
        # so the process peak is the peak of one repetition
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        len(reps)),
    }
    notes = ["%d repetitions of %d rulings in %.1f s" % (len(reps), rulings, elapsed),
             "ops_failed_ratio %g ratio (n=%d actions, %d failed)"
             % (failed / attempted if attempted else 0.0, attempted, failed),
             slow_note(reps),
             "unscaled: rulings_per_s %.6g, replay_rulings_per_s %.6g, "
             "mediation_us_p50 %.6g, mediation_us_p99 %.6g"
             % ((statistics.median(r.rulings / r.raw_sim_s for r in reps),
                 statistics.median(r.rulings / r.raw_replay_s for r in reps))
                + mediation_percentiles(reps, scaled=False))]
    notes += ["%s %d" % kv for kv in sorted(reps[0].counts.items())]
    notes.append("trace.sha256 %s" % reps[0].digest)
    return problems, attempted, failed, metrics, notes


def traced(workload, seed, seconds):
    from layers import Patches, Timers, Tracer, layer_metrics, unit_of
    from workloads import WORKLOADS

    scenario = WORKLOADS[workload](seed)
    report_path = OUT / ("%s-%d-traced.json" % (workload, seed))
    timers = Timers()
    reps, untraced = [], []
    # the untraced repetitions before and after count against --seconds too
    start = time.perf_counter()
    with Patches() as patches:
        timers.install(patches)
        untraced.append(run_once(scenario, timers, report_path))
    tracer = Tracer()
    per_rep = []
    sim_shares = []  # per repetition: span name -> share of simulation time
    spans_path = OUT / ("%s-%d-spans.tsv.gz" % (workload, seed))
    with Patches() as patches, gzip.open(spans_path, "wt", compresslevel=1) as spans_out:
        spans_out.write("name\tstart_ns\tend_ns\tparent\trun\tphase\n")
        timers.install(patches)
        tracer.install(patches)
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            tracer.run_id = len(reps)
            rep = run_once(scenario, timers, report_path, tracer)
            reps.append(rep)
            if rep.problems:
                break
            summary = tracer.rep_summary()
            values = layer_metrics(summary, dict(tracer.counts), rep.rulings)
            slow = statistics.mean(rep.slow)
            for name in values:
                if unit_of(name) in ("s", "us"):
                    values[name] /= slow
            values["trace.sim_s"] = rep.sim_s
            per_rep.append(values)
            sim_shares.append({name: ns / 1e9 / rep.raw_sim_s
                               for name, ns in summary["sim_self_ns"].items()})
            tracer.flush(spans_out)
    with Patches() as patches:
        timers.install(patches)
        untraced.append(run_once(scenario, timers, report_path))
    problems = []
    check_same(untraced + reps, problems)
    attempted = sum(r.attempted for r in untraced + reps)
    failed = sum(r.failed for r in untraced + reps)
    if problems:
        return problems, attempted, failed, {}, []

    metrics = {}
    for name in per_rep[0]:
        if name == "trace.sim_s":
            continue
        metrics[name] = (statistics.median(v[name] for v in per_rep), unit_of(name),
                         len(per_rep))
    traced_sim = statistics.median(v["trace.sim_s"] for v in per_rep)
    metrics["trace.overhead_ratio"] = (
        traced_sim / statistics.median(r.sim_s for r in untraced), "ratio", len(per_rep))
    notes = ["%d traced repetitions of %d rulings; spans in %s"
             % (len(reps), reps[0].rulings, OUT.name)]
    notes += layer_shares(sim_shares)
    return problems, attempted, failed, metrics, notes


# Share of traced simulation time by layer: self time of the layer's spans
# inside Scheduler.run. Everything not in a wrapped call lands on its
# nearest wrapped caller (e.g. ControllerPool._rule on send/arrive/tick).
LAYERS = {
    "controller (send, arrive, adopt)": ("controller.send", "controller.arrive",
                                         "controller.adopt"),
    "controller.tick": ("controller.tick",),
    "hierarchy + lawlang": ("hierarchy.", "lawlang."),
    "core.state": ("core.state.",),
    "core.parse_term": ("core.parse_term",),
    "transport (trace, net, scheduler)": ("transport.",),
}


def layer_shares(sim_shares):
    lines = ["self-time share of simulation (median over traced repetitions):"]
    shares = {}
    for layer, prefixes in LAYERS.items():
        shares[layer] = statistics.median(
            sum(v for name, v in rep.items() if name.startswith(prefixes))
            for rep in sim_shares)
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append("  %-36s %5.1f %%" % (layer, 100 * share))
    lines.append("largest share: %s" % max(shares, key=shares.get))
    return lines


# ---------------------------------------------------------------------------
# ungated report


SHIPPED = ("acme-basic", "acme-bc", "cc-demo", "rc-buffer", "rc-drop", "ring-churn")
SWEEP = (10, 100, 1000, 4000, 10000)


def report_mode(out_path):
    """Reproduce the ROADMAP baseline table and the agent-count sweep."""
    from fds import controller, harness
    from layers import CAL_REF_S, Patches, Timers, slowdown
    from workloads import rc_sweep

    timers = Timers()
    tick_ns = []

    def wrap_tick(fn, _owner):
        def tick(*args):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                tick_ns.append(time.perf_counter_ns() - t0)

        return tick

    result = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
              "slowdown_before": slowdown(), "scenarios": {}, "sweep": {}}
    with Patches() as patches:
        timers.install(patches)
        patches.method(controller.ControllerPool, "tick", wrap_tick)
        print("%-11s %8s %9s %10s %8s %10s %8s %8s" % (
            "scenario", "rulings", "sim s", "us/ruling", "derive", "replay s",
            "records", "MB"))
        for name in SHIPPED:
            scenario = harness.load_scenario(SRC / "fds" / "scenarios" / (name + ".json"))
            best = None
            for _ in range(3):
                gc.collect()
                report = harness.run_scenario(dict(scenario, assertions=[]))
                sim_s = timers.run_end - timers.run_start
                rulings = report.metrics["events"]
                derive_s = sum(v["median_us"] * v["count"]
                               for v in report.metrics["laws"].values()) / 1e6
                t0 = time.perf_counter()
                ok, _ = harness.replay_report(report)
                replay_s = time.perf_counter() - t0
                row = {"rulings": rulings, "sim_s": sim_s,
                       "us_per_ruling": sim_s / rulings * 1e6,
                       "derive_share": derive_s / sim_s, "replay_s": replay_s,
                       "replay_ok": ok, "records": len(report.records),
                       "trace_mb": len(report.to_json()) / 1e6}
                if best is None or row["sim_s"] < best["sim_s"]:
                    best = row
            result["scenarios"][name] = best
            print("%-11s %8d %9.3f %10.1f %7.0f%% %10.3f %8d %8.1f" % (
                name, best["rulings"], best["sim_s"], best["us_per_ruling"],
                100 * best["derive_share"], best["replay_s"], best["records"],
                best["trace_mb"]))
        print("\nagent-count sweep: rc-drop law, 3000 random sends")
        print("%8s %8s %10s %10s" % ("agents", "rulings", "us/ruling", "tick"))
        for agents in SWEEP:
            gc.collect()
            tick_ns.clear()
            report = harness.run_scenario(rc_sweep(1, agents))
            sim_s = timers.run_end - timers.run_start
            rulings = report.metrics["events"]
            row = {"rulings": rulings, "us_per_ruling": sim_s / rulings * 1e6,
                   "tick_share": sum(tick_ns) / 1e9 / sim_s,
                   "verdicts_ok": report.ok()}
            result["sweep"][agents] = row
            print("%8d %8d %10.1f %9.0f%%" % (agents, rulings, row["us_per_ruling"],
                                              100 * row["tick_share"]))
    result["slowdown_after"] = slowdown()
    print("\nhost slowdown (calibration time / %g s): %.3f before, %.3f after; times "
          "above are unscaled" % (CAL_REF_S, result["slowdown_before"],
                                   result["slowdown_after"]))
    if out_path:
        Path(out_path).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="ungated: shipped scenarios and the agent-count sweep")
    parser.add_argument("--out", help="with --report: also write the results as JSON")
    args = parser.parse_args(argv)

    _import_program()
    OUT.mkdir(exist_ok=True)
    if args.report:
        return report_mode(args.out)
    if args.workload is None:
        parser.error("--workload is required")

    mode = traced if args.trace else end_to_end
    problems, attempted, failed, metrics, notes = mode(args.workload, args.seed,
                                                       args.seconds)
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in notes:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print("%s %.6g %s (n=%d)" % (name, value, unit, n))
    for p in problems:
        print("FAIL %s" % p)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: run scenarios, check law directories, replay traces."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import FdsError
from .harness import (
    ScenarioError,
    load_laws_dir,
    load_scenario,
    replay_report_file,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fds",
                                     description="framed distributed system simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and check its assertions")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--laws-dir", default=None,
                     help="load laws from a directory of .law files")
    run.add_argument("--trace-out", default=None, help="write the run report here")
    run.add_argument("--metrics-out", default=None, help="write metrics JSON here")
    run.add_argument("--firewall", choices=("on", "off"), default=None,
                     help="override the scenario's rogue-channel firewall")

    laws = sub.add_parser("laws", help="law tooling")
    laws_sub = laws.add_subparsers(dest="laws_command", required=True)
    check = laws_sub.add_parser("check", help="parse and publish a law directory")
    check.add_argument("dir")

    replay = sub.add_parser("replay", help="re-derive every ruling in a saved report")
    replay.add_argument("trace", help="report file written by run --trace-out")
    return parser


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.laws_dir:
        scenario = dict(scenario, laws={"bundle": "dir", "params": {"dir": args.laws_dir}})
    firewall = None if args.firewall is None else (args.firewall == "on")
    report = run_scenario(scenario, seed=args.seed, firewall=firewall)
    for w in report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    failures = 0
    for name, verdict in report.verdicts.items():
        status = "PASS" if verdict["ok"] else "FAIL"
        print("%s %s: %s" % (status, name, verdict["detail"]))
        failures += 0 if verdict["ok"] else 1
    if args.trace_out:
        Path(args.trace_out).write_text(report.to_json())
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(report.metrics, indent=1,
                                                     sort_keys=True))
    if not report.verdicts:
        print("note: scenario declares no assertions", file=sys.stderr)
    return 1 if failures else 0


def cmd_laws_check(args) -> int:
    try:
        bundle = load_laws_dir(args.dir)
    except FdsError as exc:
        print("FAIL %s" % exc)
        return 1
    for name in sorted(bundle.by_name):
        print("ok %s %s" % (bundle.by_name[name], name))
    return 0


def cmd_replay(args) -> int:
    ok, problems = replay_report_file(args.trace)
    if ok:
        print("PASS replay: all rulings re-derived exactly")
        return 0
    for p in problems[:10]:
        print("FAIL replay: %s" % p)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "laws":
            return cmd_laws_check(args)
        return cmd_replay(args)
    except (ScenarioError, FdsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

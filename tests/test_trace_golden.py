"""Golden digests of every shipped scenario's trace and audit log.

A run is deterministic in its scenario and seed, so the exact bytes of the
trace (``RunReport.trace_lines``) and of the audit log are pinned here. A
refactor or optimisation must leave them unchanged.
"""

import hashlib
import json
import pathlib

import pytest

from fds.harness import load_scenario, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "src" / "fds" / "scenarios"

# scenario -> (sha256 of the trace lines, sha256 of the audit lines)
GOLDEN = {
    "acme-basic.json": (
        "01e1189e8d3c84088c926afa2c3b52e1d34b3d040ce2ec8967356dd8270484be",
        "4754021748495dd54a0e2ce00636cf10c82bbb109d5a1df887628b94c4401f09"),
    "acme-bc.json": (
        "c80e10fa7a6585ecc6cd0a6a4af0ba0f8cd4304ba63de235bccbd5d56cd39d10",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cc-demo.json": (
        "7ba2ea3f4677a1b753a714b0fa54c3384c985cb61bf2ae13248b07ded17c77aa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-buffer.json": (
        "012e53b2a8d9f5e3809eb3bd5cf5f02a2b335195065b6c8d4fbc08587754da0a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-drop.json": (
        "17afb09c3b6772ee7fa7af43a7b23442392c75c7063685c60a3b48c59c9c8f9d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ring-churn.json": (
        "2c79fd88c9efb8ee1617052a3ae1737f7af7b38dc553bbfcdc6a6f315b558e2b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

HINT = ("the %s of %s changed. If the format change is deliberate, bump the "
        "trace version and update these digests in the same change.")


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_and_audit_are_byte_identical(name):
    report = run_scenario(load_scenario(SCENARIOS / name))
    trace, audit = GOLDEN[name]
    assert _digest(report.trace_lines()) == trace, HINT % ("trace", name)
    audit_lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
                   for r in report.audit]
    assert _digest(audit_lines) == audit, HINT % ("audit log", name)

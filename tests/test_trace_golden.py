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

# scenario -> (sha256 of the trace lines, sha256 of the audit lines), at trace
# version 2 (``harness.TRACE_VERSION``)
GOLDEN = {
    "acme-basic.json": (
        "ee6595d9fe3b5d0e9727ea92e8e8582fa40a57a3c046ef6bfee4dd7149795416",
        "4754021748495dd54a0e2ce00636cf10c82bbb109d5a1df887628b94c4401f09"),
    "acme-bc.json": (
        "8d235f4f16e3e1856ab8d73bb4cc62da7a6519dcdda6af029c1765b3a1f9c1ff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cc-demo.json": (
        "bbabec3abd343b266837a9c3fb2f5cf790a764bff6e28bc350eb7ac455c24725",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-buffer.json": (
        "59cc3e3baf16e3f7dcbc5af6e485052fb84757704c9ada65afe9dd4080852484",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-drop.json": (
        "09911b4f05874518c7a02b466a59cdf62474008c8ccb240d83e9cfa9b950f5cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ring-churn.json": (
        "f2ff337414a9e69d16705f3b79da71e845dd817872746b23a497d1b9971c4312",
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

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
# version 3 (``harness.TRACE_VERSION``)
GOLDEN = {
    "acme-basic.json": (
        "325d73874caff09be92935d879392c1f6c562d7a9dee3494f80b8ab915634724",
        "4754021748495dd54a0e2ce00636cf10c82bbb109d5a1df887628b94c4401f09"),
    "acme-bc.json": (
        "7a5fac378d2a9afcce61d55bb0265cead20d5b96b422f483375f2a7aeec3bdfc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cc-demo.json": (
        "82c59f0441a9e566b146cd5afd0d2c1aa4870f2715c8ba3dab5f613b093113c7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-buffer.json": (
        "5467bf356f1baab97c42c03038c6795b9d712203072d6a6e815db6b0a9acebd9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rc-drop.json": (
        "77126b9bd1403cdc2e4ad438c23f45a204631eb73c29d28dd73f146e7434a14a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ring-churn.json": (
        "9ae7c9a10c986c9de7582b8b8c66637f0681ceb22122252743e9666293e6405d",
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

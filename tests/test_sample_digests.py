"""Pinned digests of the 24 sample scenarios (every level, workload and
reservation setting), each taken over the clean run and over every run in
which the k-th zone allocation or the k-th zone reservation fails.

A refactor of the workflow engine must leave every digest unchanged. The
digests are kept in `data/sample_digests.json`; to print them afresh, run
`PYTHONPATH=src python tests/test_sample_digests.py`."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sample_catalog as sc
from conftest import transitions
from corpus import Logging
from nsscale.inventory import InventoryError, ResourceZone
from nsscale.scenario import scenario_from_dict
from nsscale.trace import canonical_json, trace_lines

DIGESTS = Path(__file__).parent / "data" / "sample_digests.json"
SRC = Path(__file__).parent.parent / "src"

WORKLOADS = {"escalation": sc.escalation_workload, "jump": sc.jump_workload,
             "scale-in": sc.scale_in_workload}

# name -> (owner of the patched attribute, the exception its k-th call raises)
FAULTS = {
    "allocate": (ResourceZone, lambda args: InventoryError("injected fault")),
    "reserve": (ResourceZone, lambda args: InventoryError("injected fault")),
}


def sample_scenarios() -> dict:
    return {"%s/%s/%s" % (level, workload,
                          "reserve" if reservation else "direct"):
            sc.sample_scenario(workload=WORKLOADS[workload](), ns_il=level,
                               options={"reservation_enabled": reservation})
            for level in sc.LEVELS for workload in sorted(WORKLOADS)
            for reservation in (True, False)}


def run_outputs(scenario: dict, fault: str = "", k: int = 0) -> tuple:
    """One run of `scenario` in which the k-th call of `fault` raises; the
    faults are installed after construction, so set-up is never hit.
    Returns the run's canonical outputs and the calls made to each fault
    target."""
    sim = Logging(scenario_from_dict(scenario))
    calls = dict.fromkeys(FAULTS, 0)
    saved = []
    for name, (owner, error) in FAULTS.items():
        def wrapper(*args, _name=name, _real=getattr(owner, name),
                    _error=error, **kwargs):
            calls[_name] += 1
            if _name == fault and calls[_name] == k:
                raise _error(args)
            return _real(*args, **kwargs)
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)
    try:
        result = sim.run()
    finally:
        for owner, name, real in saved:
            setattr(owner, name, real)
    outputs = canonical_json({
        "trace": trace_lines(result.trace),
        "final_state": result.final_state,
        "operations": [[op.op_id, op.kind, op.phase, op.failed_step, op.error,
                        op.step_log] for op in result.operations],
        "transitions": transitions(sim),
        "failure_reason": result.failure_reason,
    })
    return outputs, calls


def scenario_digest(scenario: dict) -> str:
    outputs, calls = run_outputs(scenario)
    digest = hashlib.sha256(outputs.encode())
    for fault in FAULTS:
        for k in range(1, calls[fault] + 1):
            digest.update(b"\n" + run_outputs(scenario, fault, k)[0].encode())
    return digest.hexdigest()


def sample_digests() -> dict:
    return {name: scenario_digest(scenario)
            for name, scenario in sample_scenarios().items()}


def test_sample_digests_are_pinned():
    assert sample_digests() == json.loads(DIGESTS.read_text())


def digests_without_asserts(**env) -> dict:
    """The digests this module prints when run under `python -O`, with
    `env` added to its environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-O", __file__], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_sample_digests_hold_without_asserts():
    # Under -O every `assert` is stripped; no rollback or conservation
    # behaviour may depend on one.
    assert digests_without_asserts() == json.loads(DIGESTS.read_text())


def test_sample_digests_hold_under_another_hash_seed():
    # No output may depend on the order of a set or on a hash, such as
    # that of a memo's key.
    assert digests_without_asserts(PYTHONHASHSEED="12345") == \
        json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    print(json.dumps(sample_digests(), indent=1, sort_keys=True))

"""The benchmark's pinned seed-1 digests, checked in the test suite.

`perfbench/digests.json` pins the digest of every workload's seed-1 pass:
the engine's CSV bytes, OGF's window stats and invariant-check counts.
Comparing one untimed pass with it catches any change to those outputs
across commits, which a comparison of two runs of one commit cannot.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
PINNED_SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed1_pass_matches_pinned_digest(workload):
    ops = workloads.WORKLOADS[workload](PINNED_SEED)
    outputs = [op.check(op.run()) for op in ops]
    assert workloads.digest(outputs) == PINNED[workload]

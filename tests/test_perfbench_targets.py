"""The benchmark's traced repetition wraps functions by name; every one of
them must still exist, or only that repetition would break."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # harness imports spans
    spec = importlib.util.spec_from_file_location(
        "perfbench_harness", PERFBENCH / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)    # for dataclasses
    spec.loader.exec_module(harness)
    targets = harness.trace_targets()
    assert targets
    missing = [t.name for t in targets if not hasattr(t.owner, t.attr)]
    assert missing == []

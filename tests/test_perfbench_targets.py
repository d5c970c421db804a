"""What the benchmark reads of tapc must still exist: the functions its
traced repetition wraps by name, and the report, stats and program fields
its metrics come from. A rename would otherwise break only the benchmark."""

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

from tapc import cli, dfg
from tapc.model import make_synthetic_network
from tapc.program import ApGeometry
from tapc.scheduler import emit_program, plan_conv_layer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # harness imports spans
    spec = importlib.util.spec_from_file_location(
        "perfbench_harness", PERFBENCH / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)    # for dataclasses
    spec.loader.exec_module(harness)
    return harness


def test_every_trace_target_exists(harness):
    targets = harness.trace_targets()
    assert targets
    missing = [t.name for t in targets if not hasattr(t.owner, t.attr)]
    assert missing == []


def _positive(values: dict):
    return {k: v for k, v in values.items()
            if type(v) not in (int, float) or not v > 0}


@pytest.mark.parametrize("command", ["compile", "run"])
def test_the_fields_the_benchmark_reads_are_positive(command, harness,
                                                     tmp_path):
    wl = harness.Workload(f"tiny-{command}", command, 2, 4, 0.5, 4, (4, 4))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(wl.argv(1, str(tmp_path))) == 0
    values = harness._modelled_and_size(wl, tmp_path)
    if not wl.simulates:    # nothing is simulated, so nothing is modelled
        for metric in harness.MODELLED:
            assert values.pop(metric.name) == 0
    assert _positive(values) == {}
    assert set(values) >= {"program_bytes", "macro_ops"}


def test_the_compile_counters_the_benchmark_reads_are_positive(harness):
    net = make_synthetic_network(2, 4, 0.5, bits=4, seed=1)
    prog = emit_program(net, 4, 4, ApGeometry())
    assert _positive(harness._emit_counts(prog)) == {}
    count = {t.name: t.count for t in harness.trace_targets()}
    layer = net.layers[0]
    planned = plan_conv_layer(layer.weights, layer.shape_for(4, 4), 4,
                              ApGeometry(), "unroll_cse")
    assert _positive(count["scheduler.plan_conv_layer"](planned)) == {}


def test_a_traced_compile_calls_every_compile_stage(harness, tmp_path):
    # a stage the scheduler stops calling by its traced name would read as
    # zero seconds in the benchmark, not fail it
    wl = harness.Workload("tiny-compile", "compile", 2, 4, 0.5, 4, (4, 4))
    tracer = harness.Tracer()
    with tracer.installed(harness.trace_targets()), \
            contextlib.redirect_stdout(io.StringIO()):
        assert tracer.call("cli.main", cli.main,
                           (wl.argv(1, str(tmp_path)),), {}) == 0
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("scheduler.plan_conv_layer", "scheduler.allocate_columns",
                 "lowering.lower_layer", "scheduler.ApProgram.dumps"):
        assert calls.get(name, 0) >= 1, name


def test_the_graph_check_reports_a_narrow_annotation(harness, monkeypatch):
    # compile-wide's correctness verdict rests on this check returning its
    # problems as strings, one per failing layer and channel, not raising
    wl = harness.Workload("tiny-compile", "compile", 2, 4, 0.5, 4, (4, 4))
    net, _ = wl.network(3)
    assert harness.check_cse_graphs(wl, net, 3) == []
    annotate = dfg.annotate_bitwidths
    monkeypatch.setattr(dfg, "annotate_bitwidths",
                        lambda g, bits: annotate(g, bits - 1))
    problems = harness.check_cse_graphs(wl, net, 3)
    assert problems
    for problem in problems:
        assert re.fullmatch(r"layer \d+ channel \d+: node \d+ \(\w+\) "
                            r"value -?\d+ outside \[-?\d+, -?\d+\]", problem)

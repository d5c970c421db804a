"""Self-test of the benchmark harness on tiny networks.

    python3 -m pytest perfbench -q

It checks that every metric named in BENCHMARK.json is printed with its unit
and lands in the result line, and that a perturbed simulator trace counts as
a failed repetition.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

import tapc.sim  # noqa: E402

TINY = {
    "run": harness.Workload("tiny-run", "run", 2, 4, 0.5, 4, (4, 4)),
    "compile": harness.Workload("tiny-compile", "compile", 2, 4, 0.5, 4, (4, 4)),
}
OUT_ROOT = run.OUT_ROOT / "selftest"


def _bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    bench = _bench()
    for key, metrics in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == \
            [(m.name, m.unit, m.better) for m in metrics]
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("command", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(command, trace, capsys):
    outcome = harness.run_workload(TINY[command], seed=1, seconds=0,
                                   trace=trace, out_root=OUT_ROOT)
    run.print_single(outcome, trace)
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    section = _bench()["per_layer" if trace else "end_to_end"]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= harness.MIN_REPS
    assert set(line["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^{re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$",
                         out, re.M), m["name"]
    env = json.loads(out.splitlines()[0].removeprefix("env: "))
    assert env["seed"] == 1 and env["reps"] >= harness.MIN_REPS


def test_perturbed_trace_counts_toward_fail_rate(monkeypatch):
    real_run = tapc.sim.run

    def perturbed(program, ifm):
        result = real_run(program, ifm)
        result.trace[-1].data[0, 0, 0] ^= 1
        return result

    monkeypatch.setattr(tapc.sim, "run", perturbed)
    outcome = harness.run_workload(TINY["run"], seed=1, seconds=0,
                                   trace=False, out_root=OUT_ROOT)
    assert outcome.failed == outcome.attempted >= harness.MIN_REPS
    assert outcome.values["fail_rate"] == 1.0
    assert not outcome.correct
    assert "diverges from reference_inference" in outcome.problems[0]

"""Workloads, repetitions, correctness checks and metrics of the tapc benchmark.

A repetition is one in-process `tapc run` or `tapc compile` through
`tapc.cli.main`, from network generation to the last artifact written. Only
that call is timed; every repetition is then checked outside the timed
region. The simulated trace must match `reference_inference`, and the
artifact bytes must match those of the first repetition. After the timed
repetitions, an optional traced repetition wraps the public functions of each
module (see `trace_targets`) to give per-module calls and self time.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tapc.cli  # noqa: E402
from tapc import dfg, isa, lowering, metrics, scheduler, sim  # noqa: E402
from tapc.model import (make_synthetic_input, make_synthetic_network,  # noqa: E402
                        reference_inference)

from spans import Target, Tracer, patched  # noqa: E402

MIN_REPS = 3          # a median needs at least three timed repetitions
SETUP_PROBES = 7      # fresh processes timed for setup_s; the median is kept
GRAPH_PATCHES = 4     # seeded patches per CSE graph in the compile check


@dataclass(frozen=True)
class Workload:
    """One seeded synthetic network and the tapc command applied to it."""

    name: str
    command: str          # "run" compiles and simulates, "compile" stops at emission
    layers: int
    channels: int
    sparsity: float
    bits: int
    hw: tuple[int, int]
    cols: int = 256

    @property
    def spec(self) -> str:
        return f"{self.layers}x{self.channels}x{self.sparsity:g}"

    @property
    def simulates(self) -> bool:
        return self.command == "run"

    def argv(self, seed: int, out_dir: str) -> list[str]:
        return [self.command, "--synthetic", self.spec, "--bits", str(self.bits),
                "--input-hw", f"{self.hw[0]}x{self.hw[1]}",
                "--cols", str(self.cols), "--seed", str(seed),
                "--out-dir", out_dir]

    def network(self, seed: int):
        """The network and input `tapc.cli` generates for these flags."""
        net = make_synthetic_network(self.layers, self.channels, self.sparsity,
                                     bits=self.bits, seed=seed)
        return net, make_synthetic_input(net, *self.hw, seed=seed)


# Why each workload is on the ladder is in README.md.
WORKLOADS = {w.name: w for w in (
    # simulator core: sim.run_macro is ~95% of simulate, compile <4% of wall
    Workload("sim-dense", "run", 4, 32, 0.85, 4, (16, 16)),
    # compile only: two output tiles after the tile-doubling retry, CSE-heavy
    Workload("compile-wide", "compile", 4, 64, 0.7, 4, (16, 16), cols=96),
    # 3 row groups (last one partial) x 2 channel groups, 8-bit operands
    Workload("sim-tiled", "run", 3, 16, 0.85, 8, (24, 24)),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"


# Metrics of the result line with --trace 0. Each is non-zero on every
# workload, so a relative bound on it means something.
END_TO_END = (
    Metric("setup_s", "s"),
    Metric("wall_s", "s"),
    Metric("peak_rss_mb", "MB"),
    Metric("program_bytes", "bytes"),
    Metric("macro_ops", "count"),
)

# Modelled machine cost from stats.json. It is 0 on compile-wide, which
# simulates nothing, so it sits with the per-layer metrics.
MODELLED = (
    Metric("model_cycles", "cycles"),
    Metric("model_energy_pj", "pJ"),
    Metric("max_col_writes", "count"),
)

# Metrics of the result line with --trace 1.
PER_LAYER = (
    Metric("lowering.lower_layer_s", "s"),
    Metric("lowering.ops_unroll", "count"),
    Metric("dfg.build_dfg_s", "s"),
    Metric("dfg.cse_s", "s"),
    Metric("dfg.cse_calls", "count"),
    Metric("dfg.cse_calls_per_system", "ratio"),
    Metric("dfg.ops_cse", "count"),
    Metric("scheduler.emit_program_s", "s"),
    Metric("scheduler.plan_conv_layer_s", "s"),
    Metric("scheduler.allocate_columns_s", "s"),
    Metric("scheduler.allocate_columns_calls", "count"),
    Metric("scheduler.plan_keep_ratio", "ratio", "higher"),
    Metric("scheduler.dumps_s", "s"),
    Metric("scheduler.aps", "count"),
    Metric("isa.standard_catalog_s", "s"),
    Metric("isa.expand_macro_s", "s"),
    Metric("isa.expand_macro_calls", "count"),
    Metric("isa.micro_ops", "count"),
    Metric("sim.run_s", "s"),
    Metric("sim.execute_micro_ops_s", "s"),
    Metric("sim.run_macro_calls", "count"),
    Metric("sim.other_s", "s"),
    Metric("sim.events", "count"),
    Metric("sim.ns_per_event", "ns"),
    Metric("sim.export_events_s", "s"),
    Metric("metrics.account_s", "s"),
    Metric("metrics.report_s", "s"),
    Metric("cli.self_s", "s"),
    Metric("trace.overhead_s", "s"),
) + MODELLED

# Shown beside the end-to-end metrics in the tables. The result line carries
# failures as attempted/failed instead, because fail_rate is 0 when all is well.
TABLE_EXTRA = (Metric("fail_rate", "ratio"),) + MODELLED


def _emit_counts(program) -> dict:
    rows = [r for r in program.report_rows if r["kind"] == "conv"]
    return {"lowering.ops_unroll": sum(r["ops_unroll"] for r in rows),
            "dfg.ops_cse": sum(r["ops_cse"] for r in rows),
            "scheduler.aps": max((r["aps"] for r in rows), default=0)}


def trace_targets() -> list[Target]:
    """Public functions wrapped in the traced repetition, each at the name
    its caller looks up (`scheduler` binds `lower_layer` by name, `cli`
    binds `emit_program`, the rest are reached through their module)."""
    return [
        Target("scheduler.emit_program", tapc.cli, "emit_program", _emit_counts),
        Target("isa.standard_catalog", isa, "standard_catalog"),
        Target("scheduler.plan_conv_layer", scheduler, "plan_conv_layer",
               lambda r: {"scheduler.plans_kept":
                          sum(len(t.plans) for t in r[0])}),
        Target("lowering.lower_layer", scheduler, "lower_layer",
               lambda r: {"lowering.systems": len(r)}),
        Target("dfg.build_dfg", dfg, "build_dfg"),
        Target("dfg.eliminate_common_subexpressions", dfg,
               "eliminate_common_subexpressions"),
        Target("scheduler.allocate_columns", scheduler, "allocate_columns"),
        Target("scheduler.ApProgram.dumps", scheduler.ApProgram, "dumps"),
        Target("sim.run", sim, "run", lambda r: {"sim.events": len(r.events)}),
        Target("sim.run_macro", sim, "run_macro"),
        Target("isa.expand_macro", isa, "expand_macro",
               lambda ops: {"isa.micro_ops": len(ops)}),
        Target("sim.execute_micro_ops", sim, "execute_micro_ops"),
        Target("sim.export_events", sim, "export_events"),
        Target("metrics.account", metrics, "account"),
        Target("metrics.format_report", metrics, "format_report"),
        Target("metrics.to_csv", metrics, "to_csv"),
        Target("metrics.Stats.dumps", metrics.Stats, "dumps"),
    ]


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer values from a traced repetition.

    `sim.run_s` and `scheduler.emit_program_s` are inclusive stage times;
    every other `_s` value is self time (children's spans excluded).
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    systems = counts.get("lowering.systems", 0)
    allocations = calls("scheduler.allocate_columns")
    events = counts.get("sim.events", 0)
    cse_calls = calls("dfg.eliminate_common_subexpressions")
    return {
        "lowering.lower_layer_s": self_s("lowering.lower_layer"),
        "lowering.ops_unroll": counts.get("lowering.ops_unroll", 0),
        "dfg.build_dfg_s": self_s("dfg.build_dfg"),
        "dfg.cse_s": self_s("dfg.eliminate_common_subexpressions"),
        "dfg.cse_calls": cse_calls,
        "dfg.cse_calls_per_system": cse_calls / systems if systems else 0.0,
        "dfg.ops_cse": counts.get("dfg.ops_cse", 0),
        "scheduler.emit_program_s": total_s("scheduler.emit_program"),
        "scheduler.plan_conv_layer_s": self_s("scheduler.plan_conv_layer"),
        "scheduler.allocate_columns_s": self_s("scheduler.allocate_columns"),
        "scheduler.allocate_columns_calls": allocations,
        "scheduler.plan_keep_ratio": (counts.get("scheduler.plans_kept", 0)
                                      / allocations if allocations else 0.0),
        "scheduler.dumps_s": self_s("scheduler.ApProgram.dumps"),
        "scheduler.aps": counts.get("scheduler.aps", 0),
        "isa.standard_catalog_s": self_s("isa.standard_catalog"),
        "isa.expand_macro_s": self_s("isa.expand_macro"),
        "isa.expand_macro_calls": calls("isa.expand_macro"),
        "isa.micro_ops": counts.get("isa.micro_ops", 0),
        "sim.run_s": total_s("sim.run"),
        "sim.execute_micro_ops_s": self_s("sim.execute_micro_ops"),
        "sim.run_macro_calls": calls("sim.run_macro"),
        "sim.other_s": self_s("sim.run"),
        "sim.events": events,
        "sim.ns_per_event": 1e9 * total_s("sim.run") / events if events else 0.0,
        "sim.export_events_s": self_s("sim.export_events"),
        "metrics.account_s": self_s("metrics.account"),
        "metrics.report_s": (self_s("metrics.format_report")
                             + self_s("metrics.to_csv")
                             + self_s("metrics.Stats.dumps")),
        "cli.self_s": self_s("cli.main"),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


class RepCheck:
    """Judges each repetition once its timed region has ended."""

    def __init__(self, want):
        self.want = want              # reference trace, None for compile
        self.digests: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self._result = None

    def capturing(self):
        """Keep the simulator's result of the running repetition for the
        divergence check; one extra call per repetition."""
        if self.want is None:
            return nullcontext()

        def wrap(run):
            def capture(*args, **kwargs):
                self._result = run(*args, **kwargs)
                return self._result
            return capture
        return patched(sim, "run", wrap)

    def judge(self, out_dir: Path, code: int | None, error: str | None):
        self.attempted += 1
        result, self._result = self._result, None
        problem = error
        if problem is None and code != 0:
            problem = f"tapc exited with {code}"
        if problem is None and self.want is not None:
            div = (sim.first_divergence(result.trace, self.want)
                   if result is not None else "no simulator result")
            if div is not None:
                problem = f"trace diverges from reference_inference at {div}"
        if problem is None:
            digests = artifact_digests(out_dir)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                changed = sorted(k for k in digests.keys() | self.digests.keys()
                                 if digests.get(k) != self.digests.get(k))
                problem = f"artifact bytes differ from the first repetition: {changed}"
        if problem is not None:
            self.failures.append(problem)


def check_cse_graphs(wl: Workload, net, seed: int) -> list[str]:
    """Evaluate every channel's CSE graph, range-checked, on seeded patches
    and compare with the ternary matrix product. Every layer of a synthetic
    network takes `wl.bits`-bit inputs."""
    rng = np.random.default_rng(seed)
    h, w = wl.hw
    problems = []
    for idx, layer in enumerate(net.layers):
        shape = layer.shape_for(h, w)
        for system in lowering.lower_layer(layer.weights, shape):
            g = dfg.annotate_bitwidths(dfg.eliminate_common_subexpressions(
                dfg.build_dfg(system)), wl.bits)
            for _ in range(GRAPH_PATCHES):
                patch = rng.integers(0, 1 << wl.bits, size=g.n_slots)
                try:
                    got = dfg.dfg_evaluate(g, patch, check_ranges=True)
                except AssertionError as exc:
                    problems.append(f"layer {idx} channel {system.channel}: {exc}")
                    break
                if not np.array_equal(got, system.matrix @ patch):
                    problems.append(f"layer {idx} channel {system.channel}: "
                                    f"graph differs from matrix @ patch")
                    break
        h, w = shape.h_out, shape.w_out
    return problems


# ---------------------------------------------------------------------------
# setup, repetitions, environment
# ---------------------------------------------------------------------------

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tapc.cli
from tapc.model import make_synthetic_input, make_synthetic_network
net = make_synthetic_network({layers}, {channels}, {sparsity!r}, bits={bits}, seed={seed})
make_synthetic_input(net, {h}, {w}, seed={seed})
print(time.perf_counter() - t0)
"""


def setup_seconds(wl: Workload, seed: int) -> float:
    """Imports plus network and input generation, timed in a fresh process."""
    code = _SETUP_PROBE.format(src=str(SRC), layers=wl.layers,
                               channels=wl.channels, sparsity=wl.sparsity,
                               bits=wl.bits, seed=seed, h=wl.hw[0], w=wl.hw[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _repetition(wl: Workload, seed: int, out_dir: Path, check: RepCheck,
                tracer: Tracer | None = None) -> float:
    """One timed `tapc` command into a fresh out_dir, judged afterwards."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = wl.argv(seed, str(out_dir))
    gc.collect()
    code = error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                code = tapc.cli.main(argv)
            else:
                code = tracer.call("cli.main", tapc.cli.main, (argv,), {})
    except Exception:  # a failed repetition is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if error is not None:
        print(error, file=sys.stderr)
    check.judge(out_dir, code, error)
    return wall


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "tapc").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(wl: Workload, seed: int, reps: int, traced: bool) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": wl.name,
        "argv": wl.argv(seed, "<out>"),
        "seed": seed,
        "reps": reps,
        "traced_reps": int(traced),
        "setup_probes": SETUP_PROBES,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    workload: str
    values: dict
    attempted: int        # repetitions, the traced one included
    failed: int           # repetitions that failed a check
    problems: list[str]   # every failed check, per-run checks included
    env: dict
    walls: list[float]    # seconds of each timed repetition, in order
    spans: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def _modelled_and_size(wl: Workload, out_dir: Path) -> dict:
    values = {"program_bytes": (out_dir / "program.json").stat().st_size,
              "model_cycles": 0, "model_energy_pj": 0.0, "max_col_writes": 0}
    if wl.simulates:
        stats = json.loads((out_dir / "stats.json").read_text())
        values.update(macro_ops=stats["adds"] + stats["subs"],
                      model_cycles=stats["total_cycles"],
                      model_energy_pj=sum(stats["energy_pj"].values()),
                      max_col_writes=stats["max_col_writes"])
    else:
        report = json.loads((out_dir / "compile_report.json").read_text())
        values["macro_ops"] = sum(r["macro_adds"] + r["macro_subs"]
                                  for r in report["layers"])
    return values


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_root: Path) -> Outcome:
    """Set up, repeat the command for `seconds` (at least MIN_REPS times),
    check every repetition, then optionally trace one more."""
    setups = [setup_seconds(wl, seed) for _ in range(SETUP_PROBES)]
    net, ifm = wl.network(seed)
    check = RepCheck(reference_inference(net, ifm) if wl.simulates else None)
    out_dir = out_root / f"work-{wl.name}-{os.getpid()}"
    walls: list[float] = []
    tracer = Tracer() if trace else None
    try:
        with check.capturing():
            while len(walls) < MIN_REPS or sum(walls) < seconds:
                walls.append(_repetition(wl, seed, out_dir, check))
            # before the traced repetition and the graph check allocate more
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(walls),
                      "peak_rss_mb": peak_rss_mb}
            values.update(_modelled_and_size(wl, out_dir))
            if tracer is not None:
                with tracer.installed(trace_targets()):
                    traced_wall = _repetition(wl, seed, out_dir, check, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    values["fail_rate"] = len(check.failures) / check.attempted
    problems = list(check.failures)
    if not wl.simulates:
        problems.extend(check_cse_graphs(wl, net, seed))
    spans = {}
    if tracer is not None:
        spans = tracer.summary()
        values.update(layer_metrics(spans, tracer.counts))
        values["trace.overhead_s"] = traced_wall - values["wall_s"]
        out_root.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_root / f"{wl.name}-seed{seed}.spans.json")
    return Outcome(wl.name, values, check.attempted, len(check.failures),
                   problems, environment(wl, seed, len(walls), trace), walls,
                   spans)

"""Run the tapc benchmark.

    python3 perfbench/run.py [--seed N] [--seconds S]
        Every workload, each in a fresh process, one after the other, with a
        traced repetition. Prints one row of end-to-end metrics per workload,
        then the traced run's per-layer metrics.

    python3 perfbench/run.py --workload sim-dense --seed 0 --seconds 20 --trace 0
        One workload in this process. The last line printed is the result,
        {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
        metrics with --trace 0 and the per-layer metrics with --trace 1.

Each run also writes its full result (environment stamp, every metric, span
summary) and the traced repetition's spans under .perfbench/ at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread per numpy call: the load then fits a two-core machine and the
# peak RSS of a run belongs to its one workload.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench"
DEFAULT_SECONDS = 30


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_single(outcome, trace: bool):
    """Environment stamp and metric table, then the result line last."""
    import harness
    print("env: " + json.dumps(outcome.env, sort_keys=True))
    shown = harness.END_TO_END + harness.TABLE_EXTRA
    if trace:
        shown += tuple(m for m in harness.PER_LAYER if m not in shown)
    for m in shown:
        print(f"{m.name:<34} {_fmt(outcome.values[m.name]):>16} {m.unit}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    chosen = harness.PER_LAYER if trace else harness.END_TO_END
    print(json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": outcome.values[m.name], "unit": m.unit}
                    for m in chosen}}))


def result_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}.json"


def save(outcome, seed: int, trace: bool):
    OUT_ROOT.mkdir(exist_ok=True)
    doc = {"workload": outcome.workload, "env": outcome.env,
           "correct": outcome.correct, "attempted": outcome.attempted,
           "failed": outcome.failed, "problems": outcome.problems,
           "values": outcome.values, "walls_s": outcome.walls,
           "spans": outcome.spans}
    result_path(outcome.workload, seed, trace).write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")


def suite(seed: int, seconds: int) -> int:
    """Each workload in its own fresh process, one at a time, then tables."""
    import harness
    results = {}
    for name in harness.WORKLOADS:
        path = result_path(name, seed, True)
        path.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=900)
        if not path.is_file():
            print(f"{name}: benchmark process exited {done.returncode} "
                  f"without a result\n{done.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(path.read_text())
        for problem in results[name]["problems"]:
            print(f"{name}: FAILED: {problem}", file=sys.stderr)

    first = next(iter(results.values()))["env"]
    print(f"seed {seed}, {seconds} s per workload; python {first['python']}, "
          f"numpy {first['numpy']}, nproc {first['nproc']}, "
          f"commit {first['git_commit'] or 'unknown'}, "
          f"src sha256 {first['src_sha256'][:12]}")
    cols = harness.END_TO_END + harness.TABLE_EXTRA
    heads = [f"{m.name} [{m.unit}]" for m in cols]
    print(f"{'workload':<13} {'reps':>4} " + " ".join(f"{h:>22}" for h in heads))
    for name, r in results.items():
        cells = [_fmt(r["values"][m.name]) for m in cols]
        print(f"{name:<13} {r['env']['reps']:>4} "
              + " ".join(f"{c:>22}" for c in cells))
    print()
    print(f"{'per-layer metric (traced run)':<34} {'unit':<6} "
          + " ".join(f"{n:>14}" for n in results))
    for m in harness.PER_LAYER:
        print(f"{m.name:<34} {m.unit:<6} " + " ".join(
            f"{_fmt(r['values'][m.name]):>14}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run only this workload, in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tapc" / "__init__.py").is_file():
        print(f"error: no tapc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    if args.workload is None:
        return suite(args.seed, args.seconds)
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    outcome = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                   args.seconds, trace, OUT_ROOT)
    save(outcome, args.seed, trace)
    print_single(outcome, trace)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

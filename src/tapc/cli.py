"""Command line front end.

One command per process, no daemon state: compile and run read their inputs,
write their artifacts into --out-dir and exit. Exit codes are part of the
contract: 0 success, 2 verification mismatch, 3 capacity exceeded, 4 bad
input format or usage (argparse's own exit 2 is mapped to 4), 1 anything
else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import isa, metrics, sim
from .errors import CapacityError, FormatError, LutDerivationError, TapcError
from .model import (FeatureMap, LayerShape, QuantSpec, load_feature_map,
                    load_network, make_synthetic_network, random_feature_map,
                    reference_inference, save_feature_map)
from .program import ApGeometry, ApProgram, Tile, schedule
from .scheduler import emit_program

_OPT_MAP = {"unroll": "unroll", "unroll+cse": "unroll_cse"}


def _add_geometry_flags(p):
    p.add_argument("--rows", type=int, default=256)
    p.add_argument("--cols", type=int, default=256)
    p.add_argument("--domains", type=int, default=64)
    p.add_argument("--aps-per-tile", type=int, default=4)
    p.add_argument("--tiles-per-bank", type=int, default=4)
    p.add_argument("--banks", type=int, default=4)


def _add_energy_flags(p):
    p.add_argument("--cycle-ps", type=float, default=100.0)
    p.add_argument("--search-fj", type=float, default=3.0)
    p.add_argument("--write-fj", type=float, default=3.0)
    p.add_argument("--move-pj", type=float, default=1.0)


def _add_model_flags(p):
    p.add_argument("--model", help="network manifest (JSON)")
    p.add_argument("--weights", help="packed ternary weight blob")
    p.add_argument("--synthetic", metavar="LxCxS",
                   help="generate a network: layers x channels x sparsity, "
                        "e.g. 3x16x0.85")
    p.add_argument("--bits", type=int, default=4,
                   help="activation bits for --synthetic")


def _seed(text) -> int:
    """argparse type of --seed: the generators take no negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _geometry(args) -> ApGeometry:
    return ApGeometry(rows=args.rows, columns=args.cols,
                      domains_per_track=args.domains,
                      aps_per_tile=args.aps_per_tile,
                      tiles_per_bank=args.tiles_per_bank, banks=args.banks)


def _energy_model(args) -> metrics.EnergyModel:
    return metrics.EnergyModel(search_fj_per_bit=args.search_fj,
                               write_fj_per_bit=args.write_fj,
                               move_pj_per_bit=args.move_pj,
                               cycle_ns=args.cycle_ps / 1000.0)


def _check_synthetic_aps(args, geo: ApGeometry, n_layers: int,
                         channels: int):
    """Raise CapacityError, naming the layer, if a synthetic layer needs
    more APs than `geo` has. It runs before any weight is drawn, so it
    schedules each layer on one row group and on the fewest output tiles it
    can take, those whose slots and fixed columns leave one accumulator
    column per output channel; compiling checks the full count."""
    if channels < 1:
        return              # make_synthetic_network rejects the spec
    QuantSpec(args.bits)    # rejects a bad width before it sizes a group
    per_tile = max(1, geo.columns - Tile(0, 0, 0, 0, 9).columns_used)
    # layer 0 reads make_synthetic_network's 3 input channels; every later
    # layer has the shape of layer 1
    for idx, c_in in enumerate((3, channels)[:n_layers]):
        try:
            schedule(LayerShape(c_in, channels, 3, 3, 1, 1, 1, 1), args.bits,
                     geo, -(-channels // per_tile))
        except CapacityError as exc:
            raise CapacityError(f"layer {idx}: {exc}") from exc


def _load_net(args, geo: ApGeometry):
    """The network of --synthetic, or of --model and --weights. A synthetic
    one is checked against the geometry `geo` it will run on."""
    if args.synthetic:
        try:
            l, c, s = args.synthetic.split("x")
            spec = int(l), int(c), float(s)
        except ValueError as exc:
            raise FormatError(f"bad --synthetic spec {args.synthetic!r}: "
                              f"expected LxCxS") from exc
        _check_synthetic_aps(args, geo, *spec[:2])
        return make_synthetic_network(*spec, bits=args.bits, seed=args.seed)
    if not args.model or not args.weights:
        raise FormatError("need --model and --weights, or --synthetic")
    return load_network(args.model, args.weights)


def _parse_hw(text) -> tuple[int, int]:
    try:
        h, w = (int(t) for t in text.split("x"))
        return h, w
    except ValueError as exc:
        raise FormatError(f"bad size {text!r}: expected HxW") from exc


def _compile_for_input(args, net) -> tuple[ApProgram, FeatureMap]:
    """`net` compiled for the extents of --input or --input-hw, and its
    input, drawn only after compiling succeeded."""
    ifm = load_feature_map(args.input) if args.input else None
    h, w = ifm.shape[1:] if ifm is not None else _parse_hw(args.input_hw)
    prog = emit_program(net, h, w, _geometry(args), _OPT_MAP[args.opt])
    if ifm is None:
        ifm = _program_input(args, prog)
    return prog, ifm


def _program_input(args, program) -> FeatureMap:
    if args.input:
        return load_feature_map(args.input)
    return random_feature_map(program.in_c, program.in_h, program.in_w,
                              program.in_bits, args.seed)


def _out_path(args, name) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    geo = _geometry(args)
    net = _load_net(args, geo)
    h, w = _parse_hw(args.input_hw)
    prog = emit_program(net, h, w, geo, _OPT_MAP[args.opt])
    prog.save(_out_path(args, "program.json"))
    report = {"network": net.name, "opt": prog.opt,
              "layers": prog.report_rows, "lut_notes": prog.lut_notes}
    _write(_out_path(args, "compile_report.json"),
           json.dumps(report, sort_keys=True, indent=1) + "\n")
    for note in prog.lut_notes:
        print(f"lut: {note}")
    for row in prog.report_rows:
        if row["kind"] != "conv":
            continue
        print(f"layer {row['layer']}: ops unroll={row['ops_unroll']} "
              f"cse={row['ops_cse']} (emitting {row['macro_adds'] + row['macro_subs']} "
              f"macros on {row['aps']} APs, {row['columns_used']} columns)")
    print(f"wrote {_out_path(args, 'program.json')}")
    return 0


def cmd_run(args) -> int:
    model = _energy_model(args)
    if args.program:
        prog = ApProgram.load(args.program)
        ifm = _program_input(args, prog)
    else:
        prog, ifm = _compile_for_input(args, _load_net(args, _geometry(args)))
        prog.save(_out_path(args, "program.json"))
    result = sim.run(prog, ifm)
    stats = metrics.account(prog, result, model)
    report = metrics.format_report(stats)
    _write(_out_path(args, "stats.json"), stats.dumps())
    _write(_out_path(args, "report.txt"), report)
    _write(_out_path(args, "report.csv"), metrics.to_csv(stats))
    _write(_out_path(args, "events.csv"), sim.export_events(result.events))
    last = result.trace[-1]
    if last.bits <= 8:
        save_feature_map(last, _out_path(args, "output.tfm"))
    print(report, end="")
    return 0


def cmd_verify(args) -> int:
    if args.program:
        prog = ApProgram.load(args.program)
        net = _load_net(args, prog.geometry)
        ifm = _program_input(args, prog)
    else:
        net = _load_net(args, _geometry(args))
        prog, ifm = _compile_for_input(args, net)
    want = reference_inference(net, ifm)
    got = sim.run(prog, ifm).trace
    div = sim.first_divergence(got, want)
    if div is None:
        print(f"PASS: {len(want)} layers bit-exact against the host reference")
        return 0
    layer, c, y, x = div
    print(f"FAIL: first divergence at layer {layer}, channel {c}, "
          f"y={y}, x={x}")
    return 2


def cmd_lut(args) -> int:
    if args.action == "check":
        catalog, repairs = isa.standard_catalog()
        repaired = {(r.op_kind, r.addressing): r for r in repairs}
        for key, table in sorted(isa.builtin_luts().items()):
            if args.op and table.op_kind != args.op:
                continue
            if args.mode and table.addressing != args.mode:
                continue
            print(isa.format_lut(table), end="")
            repair = repaired.get(key)
            if repair is None:
                print(f"ok: {table.name} exact on all 8 states, "
                      f"{table.pass_count} passes")
            else:
                print(f"BROKEN: {table.name} fails on "
                      f"{len(repair.counterexamples)} states; repair touches "
                      f"keys {[k for k, _old, _new in repair.divergent_keys]}")
                print("repaired table:")
                print(isa.format_lut(catalog[(*key, False)]), end="")
            print()
        return 0
    # derive
    try:
        table = isa.derive_lut(args.op, args.mode, negated=args.negated)
    except LutDerivationError as exc:
        print(f"infeasible: {exc}")
        return 0
    print(isa.format_lut(table), end="")
    check = isa.validate_lut(table)
    print(f"{'ok' if check.ok else 'BROKEN'}: {table.name}, "
          f"{table.pass_count} passes")
    return 0


def cmd_report(args) -> int:
    stats = metrics.Stats.load(args.stats)
    baseline = metrics.Stats.load(args.baseline) if args.baseline else None
    text = metrics.format_report(stats, baseline)
    print(text, end="")
    if args.out_dir:
        _write(_out_path(args, "report.txt"), text)
        _write(_out_path(args, "report.csv"), metrics.to_csv(stats))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tapc",
        description="compile and simulate ternary CNNs on in-memory "
                    "search/write arrays")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a network into an AP program")
    _add_model_flags(p)
    _add_geometry_flags(p)
    p.add_argument("--opt", choices=sorted(_OPT_MAP), default="unroll+cse")
    p.add_argument("--input-hw", default="16x16", metavar="HxW")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a program on the simulator")
    _add_model_flags(p)
    _add_geometry_flags(p)
    _add_energy_flags(p)
    p.add_argument("--program", help="compiled program (skips compilation)")
    p.add_argument("--input", help="input feature map (.tfm)")
    p.add_argument("--input-hw", default="16x16", metavar="HxW")
    p.add_argument("--opt", choices=sorted(_OPT_MAP), default="unroll+cse")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify",
                       help="check the simulator against the host reference")
    _add_model_flags(p)
    _add_geometry_flags(p)
    p.add_argument("--program", help="use this program instead of compiling")
    p.add_argument("--input", help="input feature map (.tfm)")
    p.add_argument("--input-hw", default="16x16", metavar="HxW")
    p.add_argument("--opt", choices=sorted(_OPT_MAP), default="unroll+cse")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lut", help="inspect or derive pass tables")
    p.add_argument("action", choices=("check", "derive"))
    p.add_argument("--op", choices=(isa.ADD, isa.SUB))
    p.add_argument("--mode", choices=(isa.IN_PLACE, isa.OUT_OF_PLACE))
    p.add_argument("--negated", action="store_true")
    p.set_defaults(func=cmd_lut)

    p = sub.add_parser("report", help="render stats into text/CSV reports")
    p.add_argument("--stats", required=True)
    p.add_argument("--baseline")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help, 2 on misuse
        return 4 if exc.code else 0
    if getattr(args, "command", None) == "lut" and args.action == "derive":
        if not args.op or not args.mode:
            print("lut derive needs --op and --mode", file=sys.stderr)
            return 4
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format: {exc}", file=sys.stderr)
        return 4
    except TapcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

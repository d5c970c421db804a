"""Placement, column allocation and program emission.

A conv layer lands on the accelerator as a grid of APs:

  row groups     : output positions, up to `rows` per AP
  channel groups : input channels stacked along the nanowires, up to
                   floor(domains / activation_bits) per AP
  output tiles   : contiguous output-channel ranges, split only when the
                   column budget of a single AP overflows

Each AP runs the per-channel DFGs for its channel group back to back,
folding every channel's row values into fixed accumulator columns, then a
binary tree of move+add steps merges the channel groups. Requantize and
the im2col writeback to the next layer happen in the controller.

Column budget per AP: patch slots, a shared pool of value columns (graph
coloring over storage live ranges), one accumulator column per local
output channel, one carry, one always-zero column and one move scratch.

Width planning: destinations of in-place ops must be stored at the op
width, so definition widths are widened backward along in-place chains;
all other reads sign-extend for free by clamping at their MSB.

The result is the typed program of `tapc.program`, which holds only the
decisions made here: the tiles and the item streams, one item list per
channel, whose items name the columns they read and write. It also owns
the encoding, the loader and everything derived from the decisions, among
them each conv layer's `Schedule` (its row and channel groups, AP count,
adder tree and epochs) and how each item reads its operands.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .lowering import LinearSystem, lower_layer, unrolled_op_count
from .model import QuantSpec, TernaryNetwork, _input_bits
from .program import (OPT_LEVELS, AddLayer, ApGeometry, ApProgram, ConvLayer,
                      MacroItem, PoolLayer, Tile, macro_counts, schedule)


# ---------------------------------------------------------------------------
# per-channel planning: addressing, storages, coloring, widths
# ---------------------------------------------------------------------------

@dataclass
class _Storage:
    """One physical column's worth of value lifetime (an in-place chain)."""

    sid: int
    birth: int
    death: int
    width: int
    color: int = -1


@dataclass
class ChannelPlan:
    """Everything needed to emit one channel's macros on one tile."""

    graph: dfglib.DataFlowGraph
    storages: list[_Storage]
    n_colors: int
    macros: list[dict]       # skeletons with ("in", slot) / ("val", sid) operands
    folds: list[tuple]       # (row, operand desc or None, sign)


def allocate_columns(g: dfglib.DataFlowGraph) -> ChannelPlan:
    """Decide addressing, allocate value copies in one walk, color them.

    Values used k times are defined into k columns by one tagged write and
    each consumer burns its own copy; in-place results are only staged over
    an operand copy that dies at that op (inputs never qualify: their tail
    domains belong to other channels, and subtraction additionally pins the
    minuend as the destination). Copies for NC-row safety must come from
    pre-cleared columns, hence multi-use definitions are out-of-place.

    After addressing and the backward widening, one walk over the ops in
    step order allocates: each operand read takes its value's next copy and
    ends that storage's live range at the current step; an out-of-place op
    then opens one storage per use, while an in-place op keeps the b copy it
    just read. The folds read the same way, one step per output row after
    the last op, so every storage is dead again before the next channel
    reuses the pool.

    Coloring is greedy largest-degree-first on the interval graph of the
    live ranges, in (-degree, sid) order: each degree comes from the sorted
    births and deaths, and each storage takes the first color none of whose
    storages so far shares a step with it, found from one bitmask of
    occupied steps per color.
    """
    op_nodes = [n for n in g.nodes if n.kind in (dfglib.ADD, dfglib.SUB)]
    is_value = {n.id: n.kind in (dfglib.ADD, dfglib.SUB) for n in g.nodes}

    addressing: dict[int, str] = {}
    b_is_lhs: dict[int, bool] = {}
    for n in op_nodes:
        k_res = max(n.use_count, 1)
        v_lhs, v_rhs = is_value[n.lhs], is_value[n.rhs]
        if k_res == 1 and (v_lhs or (n.kind == dfglib.ADD and v_rhs)):
            addressing[n.id] = isa.IN_PLACE
            b_is_lhs[n.id] = v_lhs
        else:
            addressing[n.id] = isa.OUT_OF_PLACE
            b_is_lhs[n.id] = True

    # widen definitions so every in-place destination is stored at op width
    req = {n.id: n.width for n in op_nodes}
    for n in reversed(op_nodes):
        if addressing[n.id] == isa.IN_PLACE:
            b_op = n.lhs if b_is_lhs[n.id] else n.rhs
            if is_value[b_op]:
                req[b_op] = max(req[b_op], req[n.id])

    storages: list[_Storage] = []
    copies: dict[int, Iterator[int]] = {}   # value node -> its unread copies

    def use(node_id, t):
        """Operand descriptor of the next read of `node_id`, at step `t`."""
        node = g.nodes[node_id]
        if node.kind == dfglib.ZERO:
            return None
        if node.kind == dfglib.INPUT:
            return ["in", node.slot]
        sid = next(copies[node_id])
        storages[sid].death = t
        return ["val", sid]

    macros: list[dict] = []
    for t, n in enumerate(op_nodes):
        lhs_d, rhs_d = use(n.lhs, t), use(n.rhs, t)
        b_d, a_d = (lhs_d, rhs_d) if b_is_lhs[n.id] else (rhs_d, lhs_d)
        if addressing[n.id] == isa.IN_PLACE:
            dest = [b_d[1]]
        else:
            dest = list(range(len(storages),
                              len(storages) + max(n.use_count, 1)))
            storages.extend(_Storage(sid, t, t, req[n.id]) for sid in dest)
        copies[n.id] = iter(dest)
        macros.append({
            "node": n.id, "op": n.kind, "mode": addressing[n.id],
            "m": storages[dest[0]].width, "a": a_d, "b": b_d, "dest": dest,
        })
    folds = [(r, use(node_id, len(op_nodes) + r), sign)
             for r, (node_id, sign) in enumerate(g.row_tags())]

    # a storage's neighbors are the others born by its death, less those
    # dead before its birth
    births = sorted(s.birth for s in storages)
    deaths = sorted(s.death for s in storages)
    degree = [bisect_right(births, s.death) - bisect_left(deaths, s.birth) - 1
              for s in storages]
    occupied: list[int] = []    # color -> bitmask of the steps it holds
    for i in sorted(range(len(storages)), key=lambda i: (-degree[i], i)):
        s = storages[i]
        span = ((2 << (s.death - s.birth)) - 1) << s.birth
        c = 0
        while c < len(occupied) and occupied[c] & span:
            c += 1
        if c == len(occupied):
            occupied.append(0)
        occupied[c] |= span
        s.color = c
    return ChannelPlan(g, storages, len(occupied), macros, folds)


# ---------------------------------------------------------------------------
# layer planning
# ---------------------------------------------------------------------------

def _acc_interval(systems: list[LinearSystem], c_lo: int, c_hi: int,
                  in_bits: int) -> tuple[int, int]:
    """Value interval of the full cross-channel sum for a tile's rows.

    One uniform accumulator width per tile (the widest row) keeps the
    accumulator columns interchangeable across rows and tree levels.
    """
    top = (1 << in_bits) - 1
    neg = np.zeros(c_hi - c_lo, dtype=np.int64)
    pos = np.zeros(c_hi - c_lo, dtype=np.int64)
    for sys in systems:
        m = sys.matrix[c_lo:c_hi]
        neg += np.count_nonzero(m == -1, axis=1)
        pos += np.count_nonzero(m == 1, axis=1)
    return int(-top * neg.max(initial=0)), int(top * pos.max(initial=0))


@dataclass(frozen=True)
class _TilePlan(Tile):
    plans: dict[int, ChannelPlan]   # channel -> plan


def plan_conv_layer(weights, shape, in_bits: int, geometry: ApGeometry,
                    opt: str) -> tuple[list[_TilePlan], list[LinearSystem]]:
    """Split the layer into output tiles until every AP fits its columns.

    Each attempt halves the tile size. A tile fits exactly when its widest
    channel's colors fit the columns its slots, accumulators, carry, zero
    and scratch leave, so a tile stops allocating at its first channel over
    that budget, and the attempt stops at its first tile that does not fit.
    Only a one-channel tile allocates every channel, so that the
    CapacityError names the widest.

    Each channel's row terms are taken once and sliced per tile, and a
    tile builds each channel's graph, with CSE under unroll_cse, as it
    allocates it."""
    systems = lower_layer(weights, shape)
    n_slots = shape.f_h * shape.f_w
    cse = opt == "unroll_cse"
    terms = [dfglib.row_terms(sys.matrix) for sys in systems]

    n_tiles = 1
    while True:
        tile_size = -(-shape.c_out // n_tiles)
        tiles: list[_TilePlan] = []
        for c_lo in range(0, shape.c_out, tile_size):
            c_hi = min(c_lo + tile_size, shape.c_out)
            # value columns the tile's slots and fixed columns leave
            budget = (geometry.columns
                      - Tile(c_lo, c_hi, 0, 0, n_slots).columns_used)
            plans = {}
            for sys, rows in zip(systems, terms):
                g = dfglib.graph_from_terms(sys.channel, n_slots,
                                            rows[c_lo:c_hi], cse)
                plans[sys.channel] = plan = allocate_columns(
                    dfglib.annotate_bitwidths(g, in_bits))
                if plan.n_colors > budget and tile_size > 1:
                    break
            n_value = max((p.n_colors for p in plans.values()), default=0)
            lo, hi = _acc_interval(systems, c_lo, c_hi, in_bits)
            tile = _TilePlan(c_lo, c_hi, lo, hi, n_slots + n_value, plans)
            if tile.columns_used > geometry.columns:
                break
            tiles.append(tile)
        else:   # every tile fits
            return tiles, systems
        if tile_size == 1:
            raise CapacityError(
                f"single output channel needs {tile.columns_used} columns, "
                f"geometry has {geometry.columns}")
        n_tiles *= 2


# ---------------------------------------------------------------------------
# program emission
# ---------------------------------------------------------------------------

_NO_OPS_ROW = {**dict.fromkeys(
    ("ops_unroll", "ops_cse", "macro_adds", "macro_subs", "aps", "row_groups",
     "channel_groups", "out_tiles", "acc_width", "columns_used"), 0),
    "utilization": 0.0}


def emit_program(net: TernaryNetwork, h: int, w: int, geometry: ApGeometry,
                 opt: str = "unroll_cse") -> ApProgram:
    """Compile the whole network into a deterministic, serializable program.
    A conv whose `c_in` differs from its input, or an add over operands of
    different shapes, is a FormatError."""
    if opt not in OPT_LEVELS:
        raise FormatError(f"opt level must be one of {OPT_LEVELS}")
    repairs = isa.standard_catalog()[1]
    in_c = net.layers[0].c_in
    layers = []
    report_rows = []
    cur_bits = _input_bits(net)
    out_shapes: list[tuple[int, int, int]] = []
    cur = (in_c, h, w)
    for idx, layer in enumerate(net.layers):
        cur_c, cur_h, cur_w = cur
        if layer.kind == "pool":
            if cur_h % 2 or cur_w % 2:
                raise FormatError(f"layer {idx}: pool needs even input extents")
            layers.append(PoolLayer())
            report_rows.append({"layer": idx, "kind": "pool", **_NO_OPS_ROW})
            cur = (cur_c, cur_h // 2, cur_w // 2)
        elif layer.kind == "add":
            skip = layer.skip_from if layer.skip_from is not None else idx - 2
            other = (in_c, h, w) if skip == -1 else out_shapes[skip]
            if other != cur:
                raise FormatError(f"layer {idx}: add operands differ "
                                  f"{cur} vs {other}")
            layers.append(AddLayer(skip_from=skip, **_requant(layer.quant)))
            report_rows.append({"layer": idx, "kind": "add", **_NO_OPS_ROW})
            cur_bits = layer.quant.activation_bits
        else:
            if layer.c_in != cur_c:
                raise FormatError(f"layer {idx}: conv expects {layer.c_in} "
                                  f"input channels, gets {cur_c}")
            shape = layer.shape_for(cur_h, cur_w)
            lp, row = _emit_conv(idx, layer, shape, cur_bits, geometry, opt)
            layers.append(lp)
            report_rows.append(row)
            cur = (shape.c_out, shape.h_out, shape.w_out)
            cur_bits = layer.quant.activation_bits
        out_shapes.append(cur)

    prog = ApProgram(name=net.name, opt=opt, in_bits=_input_bits(net),
                     in_c=in_c, in_h=h, in_w=w, geometry=geometry,
                     layers=layers)
    prog.report_rows = report_rows
    prog.lut_notes = [r.describe() for r in repairs]
    return prog


def _requant(quant: QuantSpec) -> dict:
    """A layer's QuantSpec as the program's requantization fields."""
    return {"out_bits": quant.activation_bits,
            "multiplier": quant.requant_multiplier,
            "shift": quant.requant_shift, "act_kind": quant.activation_kind}


def _stream(tile: _TilePlan, group: list[int],
            value0: int) -> list[list[MacroItem]]:
    """Items of the APs holding `group`'s channels for `tile`, one list per
    channel: its DFG macros over the value pool from `value0`, then its
    folds into the accumulators. Every row group runs the same stream."""
    acc_w = tile.acc_width

    def col(desc, plan):
        if desc[0] == "in":
            return desc[1]
        return value0 + plan.storages[desc[1]].color

    channels = []
    # the first fold into each accumulator runs out of place over the zero
    # column: its per-bit pre-clear initializes the column, so reused arrays
    # never leak a stale accumulator
    seeded: set[int] = set()
    for ch in group:
        plan = tile.plans[ch]
        items = []
        for mk in plan.macros:
            dest = ()
            if mk["mode"] == isa.OUT_OF_PLACE:
                dest = tuple(value0 + plan.storages[s].color
                             for s in mk["dest"])
            items.append(MacroItem(mk["op"], mk["m"], col(mk["a"], plan),
                                   col(mk["b"], plan), dest))
        for r, desc, sign in plan.folds:
            if desc is None:
                continue
            op = isa.ADD if sign > 0 else isa.SUB
            if r in seeded:
                items.append(MacroItem(op, acc_w, col(desc, plan),
                                       tile.acc0 + r, ()))
            else:
                items.append(MacroItem(op, acc_w, col(desc, plan), tile.zero,
                                       (tile.acc0 + r,)))
                seeded.add(r)
        channels.append(items)
    # accumulators no channel folds into are seeded at the end
    channels[-1] += [MacroItem(isa.ADD, acc_w, tile.zero, tile.zero,
                               (tile.acc0 + r,))
                     for r in range(tile.c_hi - tile.c_lo) if r not in seeded]
    return channels


def _emit_conv(idx, layer, shape, in_bits, geometry, opt):
    try:
        tiles, systems = plan_conv_layer(layer.weights, shape, in_bits,
                                         geometry, opt)
        sched = schedule(shape, in_bits, geometry, len(tiles))
        lp = ConvLayer(**vars(shape), in_bits=in_bits, **_requant(layer.quant),
                       tiles=[Tile(*(getattr(t, f.name) for f in fields(Tile)))
                              for t in tiles],
                       streams=[[_stream(t, group, shape.f_h * shape.f_w)
                                 for group in sched.channel_groups]
                                for t in tiles])
        # every value lies along one track, one bit per domain; each stream
        # writes its tile's accumulators at their width
        widest = max(item.m for row in lp.streams for channels in row
                     for items in channels for item in items)
        if widest > geometry.domains_per_track:
            raise CapacityError(f"{widest}-bit value exceeds "
                                f"{geometry.domains_per_track} domains per track")
    except CapacityError as exc:
        raise CapacityError(f"layer {idx}: {exc}") from exc
    adds, subs = macro_counts(lp, sched)
    row = {"layer": idx, "kind": "conv",
           "ops_unroll": unrolled_op_count(systems),
           "ops_cse": sum(p.graph.op_count
                          for t in tiles for p in t.plans.values()),
           "macro_adds": adds, "macro_subs": subs, "aps": sched.aps,
           "row_groups": len(sched.rows_used),
           "channel_groups": len(sched.channel_groups),
           "out_tiles": len(tiles),
           "acc_width": max(t.acc_width for t in tiles),
           "columns_used": max(t.columns_used for t in tiles),
           "utilization": sched.utilization}
    return lp, row

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
them the placement, the capacity rule, the adder tree and how each item
reads its operands.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .lowering import LinearSystem, lower_layer, unrolled_op_count
from .model import QuantSpec, TernaryNetwork, _input_bits
from .program import (OPT_LEVELS, AddLayer, ApGeometry, ApProgram, ConvLayer,
                      MacroItem, PoolLayer, Tile, fit_layer, macro_counts,
                      place_layer)


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
    reuses the pool. Coloring is greedy largest-degree-first on the
    interference graph.
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

    # interference coloring, quadratic in the storage count: on a 4x64x0.7
    # network over 96 columns this pair loop is the largest compile cost
    n_st = len(storages)
    adj = [set() for _ in range(n_st)]
    for i in range(n_st):
        for j in range(i + 1, n_st):
            a, b = storages[i], storages[j]
            if a.birth <= b.death and b.birth <= a.death:
                adj[i].add(j)
                adj[j].add(i)
    order = sorted(range(n_st), key=lambda i: (-len(adj[i]), i))
    for i in order:
        used = {storages[j].color for j in adj[i]}
        c = 0
        while c in used:
            c += 1
        storages[i].color = c
    n_colors = 1 + max((s.color for s in storages), default=-1)
    return ChannelPlan(g, storages, n_colors, macros, folds)


# ---------------------------------------------------------------------------
# layer planning
# ---------------------------------------------------------------------------

def _build_graph(system: LinearSystem, opt: str, in_bits: int) -> dfglib.DataFlowGraph:
    g = dfglib.build_dfg(system)
    if opt == "unroll_cse":
        g = dfglib.eliminate_common_subexpressions(g)
    return dfglib.annotate_bitwidths(g, in_bits)


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


def _slice_system(sys: LinearSystem, c_lo: int, c_hi: int) -> LinearSystem:
    return LinearSystem(sys.channel, sys.matrix[c_lo:c_hi], sys.patch)


@dataclass(frozen=True)
class _TilePlan(Tile):
    plans: dict[int, ChannelPlan]   # channel -> plan


def plan_conv_layer(weights, shape, in_bits: int, geometry: ApGeometry,
                    opt: str) -> tuple[list[_TilePlan], list[LinearSystem], int]:
    """Split the layer into output tiles until every AP fits its columns.

    Also returns the layer's op count after CSE over whole channels. The
    first attempt's single tile spans every output channel, so under
    unroll_cse its graphs are those; under unroll CSE runs once per channel
    for the count alone."""
    systems = lower_layer(weights, shape)
    n_slots = shape.f_h * shape.f_w
    ops_cse = None
    n_tiles = 1
    while True:
        tile_size = -(-shape.c_out // n_tiles)
        tiles: list[_TilePlan] = []
        for c_lo in range(0, shape.c_out, tile_size):
            c_hi = min(c_lo + tile_size, shape.c_out)
            plans = {}
            for sys in systems:
                plans[sys.channel] = allocate_columns(_build_graph(
                    _slice_system(sys, c_lo, c_hi), opt, in_bits))
            if ops_cse is None:     # the first attempt's single tile
                graphs = [p.graph for p in plans.values()]
                if opt != "unroll_cse":
                    graphs = [dfglib.eliminate_common_subexpressions(g)
                              for g in graphs]
                ops_cse = sum(g.op_count for g in graphs)
            n_value = max((p.n_colors for p in plans.values()), default=0)
            lo, hi = _acc_interval(systems, c_lo, c_hi, in_bits)
            tile = _TilePlan(c_lo, c_hi, lo, hi, n_slots, n_value, plans)
            if tile.columns_used > geometry.columns:
                break
            tiles.append(tile)
        else:   # every tile fits
            return tiles, systems, ops_cse
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
    catalog, repairs = isa.standard_catalog()
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
                     luts=[t for _key, t in sorted(catalog.items())
                           if not t.negated],
                     layers=layers)
    prog.report_rows = report_rows
    prog.lut_notes = [r.describe() for r in repairs]
    return prog


def _requant(quant: QuantSpec) -> dict:
    """A layer's QuantSpec as the program's requantization fields."""
    return {"out_bits": quant.activation_bits,
            "multiplier": quant.requant_multiplier,
            "shift": quant.requant_shift, "act_kind": quant.activation_kind}


def _stream(tile: _TilePlan, group: list[int]) -> list[list[MacroItem]]:
    """Items of the APs holding `group`'s channels for `tile`, one list per
    channel: its DFG macros, then its folds into the accumulators. Every row
    group runs the same stream."""
    acc_w = tile.acc_width

    def col(desc, plan):
        if desc[0] == "in":
            return desc[1]
        return tile.value0 + plan.storages[desc[1]].color

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
                dest = tuple(tile.value0 + plan.storages[s].color
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
        groups = place_layer(shape, in_bits, geometry)["channel_groups"]
        tiles, systems, ops_cse = plan_conv_layer(layer.weights, shape,
                                                  in_bits, geometry, opt)
        lp = ConvLayer(**vars(shape), in_bits=in_bits, **_requant(layer.quant),
                       tiles=[Tile(*(getattr(t, f.name) for f in fields(Tile)))
                              for t in tiles],
                       streams=[[_stream(t, group) for group in groups]
                                for t in tiles])
        placed = fit_layer(lp, geometry)
    except CapacityError as exc:
        raise CapacityError(f"layer {idx}: {exc}") from exc
    adds, subs = macro_counts(lp, geometry)
    row_groups = placed["row_groups"]
    row = {"layer": idx, "kind": "conv",
           "ops_unroll": unrolled_op_count(systems), "ops_cse": ops_cse,
           "macro_adds": adds, "macro_subs": subs,
           "aps": row_groups * len(tiles) * len(groups),
           "row_groups": row_groups, "channel_groups": len(groups),
           "out_tiles": len(tiles),
           "acc_width": max(t.acc_width for t in tiles),
           "columns_used": max(t.columns_used for t in tiles),
           "utilization": placed["positions"] / (row_groups * geometry.rows)}
    return lp, row

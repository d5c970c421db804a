"""Placement, column allocation and program emission.

A conv layer lands on the accelerator as a grid of APs:

  row groups     : output positions, up to `rows` per AP
  channel groups : input channels stacked along the nanowires, up to
                   floor(domains / activation_bits) per AP
  output tiles   : contiguous output-channel ranges, split only when the
                   column budget of a single AP overflows

Each AP runs the per-channel add/sub chains for its channel group back to
back, folding every channel's row values into fixed accumulator columns,
then a binary tree of move+add steps merges the channel groups. Requantize
and the im2col writeback to the next layer happen in the controller.

Column budget per AP, in column order: patch slots (slot k is column k), a
shared pool of value columns from column n_slots (color c is column
n_slots + c, colors from interval coloring of storage live ranges), one
accumulator column per local output channel, one carry, one always-zero
column and one move scratch.

Each (channel, tile) is planned in one flat pass over the parallel lists of
`dfg.number_nodes`, numbered from the tile's slice of the channel's row
bitsets, whose intervals come with the nodes: one backward walk
decides addressing and widths, one forward sweep allocates copies and live
ranges, and the coloring then turns the sweep's operands into columns.
The plan keeps the finished macro items and the op count, no graph.

Width planning: destinations of in-place ops must be stored at the op
width, so definition widths are widened backward along in-place chains, in
the same walk that decides the addressing; all other reads sign-extend for
free by clamping at their MSB.

The result is the typed program of `tapc.program`, which holds only the
decisions made here: the tiles and the item streams, each a table of
integer columns whose items name the columns they read and write. It also
owns the encoding, the loader and everything derived from the decisions,
among them each conv layer's `Schedule` (its row and channel groups, AP
count, adder tree and epochs) and how each item reads its operands.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .lowering import LinearSystem, lower_layer, unrolled_op_count
from .model import QuantSpec, TernaryNetwork, _input_bits
from .program import (OPS, OPT_LEVELS, AddLayer, ApGeometry, ApProgram,
                      ConvLayer, PoolLayer, Stream, Tile, macro_counts,
                      schedule)


# ---------------------------------------------------------------------------
# per-channel planning: addressing, widths, copies, coloring
# ---------------------------------------------------------------------------

class ChannelPlan(NamedTuple):
    """Everything needed to emit one channel's macros on one tile, over
    the tile's columns: slot k is column k, and value color c is column
    n_slots + c."""

    op_count: int
    n_colors: int
    macros: list[tuple]       # (op, m, a, b, result columns), a stream's items
    folds: list[tuple]        # (row, column or None for a zero row, sign)
    storages: list[tuple]     # (birth, death, width, color) per storage


def allocate_columns(nodes: dfglib.NodeTable, in_bits: int) -> ChannelPlan:
    """Decide addressing, allocate value copies in one sweep, color them.

    Values used k times are defined into k columns by one tagged write and
    each consumer burns its own copy; in-place results are only staged over
    an operand copy that dies at that op (inputs never qualify: their tail
    domains belong to other channels, and subtraction additionally pins the
    minuend as the destination). Copies for NC-row safety must come from
    pre-cleared columns, hence multi-use definitions are out-of-place.

    One backward walk over the ops decides each op's addressing and widens
    definitions, so that every in-place destination is stored at its op's
    width. One forward sweep then allocates: each operand read takes its
    value's next copy and ends that storage's live range at the current
    step; an out-of-place op opens one storage per use, while an in-place
    op keeps the b copy it just read. The folds read the same way, one step
    per output row after the last op, so every storage is dead again before
    the next channel reuses the pool.

    Coloring is greedy largest-degree-first on the interval graph of the
    live ranges, in (-degree, sid) order: each degree comes from the sorted
    births and deaths, and each storage takes the first color none of whose
    storages so far shares a step with it, found from one bitmask of
    occupied steps per color. The sweep's operands are then read off as
    columns: a storage's is its color's, an input's is its slot.
    """
    n_slots, kind, lhs, rhs, lo, hi, uses, tags = nodes
    top = (1 << in_bits) - 1
    width = dfglib.min_signed_width
    is_value = [k in (dfglib.ADD, dfglib.SUB) for k in kind]
    ops = [n for n, v in enumerate(is_value) if v]

    # backward: (node, b operand, a operand, in place) per op, and widths
    req = [0] * len(kind)
    decided = []
    for n in reversed(ops):
        w = req[n] = max(req[n], width(lo[n] * top, hi[n] * top))
        x, y = lhs[n], rhs[n]
        if uses[n] <= 1 and (is_value[x]
                             or (kind[n] == dfglib.ADD and is_value[y])):
            if not is_value[x]:
                x, y = y, x
            if req[x] < w:
                req[x] = w
            decided.append((n, x, y, True))
        else:
            decided.append((n, x, y, False))

    # forward: storages by sid, each op as (kind, m, a, b, first dest, count)
    # over operand refs, a sid or an input's slot - n_slots
    births: list[int] = []
    deaths: list[int] = []
    widths: list[int] = []
    next_copy = [0] * len(kind)

    def read(x: int, t: int) -> int:
        if not is_value[x]:
            return lhs[x] - n_slots
        sid = next_copy[x]
        next_copy[x] = sid + 1
        deaths[sid] = t
        return sid

    steps = []
    for t, (n, b, a, in_place) in enumerate(reversed(decided)):
        b_ref, a_ref = read(b, t), read(a, t)
        if in_place:
            next_copy[n] = b_ref
            steps.append((kind[n], widths[b_ref], a_ref, b_ref, 0, 0))
        else:
            k, s0 = max(uses[n], 1), len(births)
            births += [t] * k
            deaths += [t] * k
            widths += [req[n]] * k
            next_copy[n] = s0
            steps.append((kind[n], req[n], a_ref, b_ref, s0, k))
    folds = [(r, None if kind[x] == dfglib.ZERO else read(x, len(ops) + r),
              sign) for r, (x, sign) in enumerate(tags)]

    # a storage's neighbors are the others born by its death, less those
    # dead before its birth
    by_birth, by_death = sorted(births), sorted(deaths)
    degree = [bisect_right(by_birth, d) - bisect_left(by_death, b) - 1
              for b, d in zip(births, deaths)]
    colors = [0] * len(births)
    occupied: list[int] = []    # color -> bitmask of the steps it holds
    # a stable sort, so equal degrees stay in sid order
    for i in sorted(range(len(births)), key=degree.__getitem__, reverse=True):
        span = ((2 << (deaths[i] - births[i])) - 1) << births[i]
        for c, steps_held in enumerate(occupied):
            if not steps_held & span:
                occupied[c] |= span
                break
        else:
            c = len(occupied)
            occupied.append(span)
        colors[i] = c

    # a sid's column, then each slot's at its negative ref
    column = [n_slots + c for c in colors]
    column += range(n_slots)
    return ChannelPlan(
        len(ops), len(occupied),
        [(op, m, column[a], column[b], tuple(column[s0:s0 + k]))
         for op, m, a, b, s0, k in steps],
        [(r, None if ref is None else column[ref], sign)
         for r, ref, sign in folds],
        list(zip(births, deaths, widths, colors)))


# ---------------------------------------------------------------------------
# layer planning
# ---------------------------------------------------------------------------

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

    Each channel's row bitsets are taken once per layer, and a tile's are
    the channel's shifted down by c_lo and masked to its rows. A tile
    numbers each channel's nodes from them, after pair extraction under
    unroll_cse, as it allocates it. The accumulators hold the full
    cross-channel sum of a row; its interval comes from the row's -1 and +1
    counts over all channels, taken once per layer. One uniform width per
    tile (the widest row) keeps the accumulator columns interchangeable
    across rows and tree levels."""
    systems = lower_layer(weights, shape)
    n_slots = shape.f_h * shape.f_w
    cse = opt == "unroll_cse"
    matrices = np.stack([sys.matrix for sys in systems])
    bits = dfglib.channel_bits(matrices)
    top = (1 << in_bits) - 1
    neg = np.count_nonzero(matrices == -1, axis=(0, 2))
    pos = np.count_nonzero(matrices == 1, axis=(0, 2))

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
            for sys, rows in zip(systems, bits):
                plans[sys.channel] = plan = allocate_columns(
                    dfglib.graph_from_terms(sys.channel, rows.rows(c_lo, c_hi),
                                            cse).nodes, in_bits)
                if plan.n_colors > budget and tile_size > 1:
                    break
            n_value = max((p.n_colors for p in plans.values()), default=0)
            tile = _TilePlan(c_lo, c_hi,
                             -top * int(neg[c_lo:c_hi].max(initial=0)),
                             top * int(pos[c_lo:c_hi].max(initial=0)),
                             n_slots + n_value, plans)
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
            skip = layer.skip_source(idx)
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


def _stream(tile: _TilePlan, group: list[int]) -> Stream:
    """The stream of the APs holding `group`'s channels for `tile`: each
    channel's planned macros, then its folds into the accumulators, appended
    to the stream's columns. Every row group runs the same stream."""
    acc_w, zero = tile.acc_width, tile.zero
    items, op, m, a, b, dest = [], [], [], [], [], []    # dest: per item
    # the first fold into each accumulator runs out of place over the zero
    # column: its per-bit pre-clear initializes the column, so reused arrays
    # never leak a stale accumulator
    seeded: set[int] = set()
    for ch in group:
        plan, folds = tile.plans[ch], []
        for r, col, sign in plan.folds:
            if col is not None:
                acc, kind = tile.acc0 + r, isa.ADD if sign > 0 else isa.SUB
                folds.append((kind, acc_w, col, acc, ()) if acc in seeded
                             else (kind, acc_w, col, zero, (acc,)))
                seeded.add(acc)
        if ch == group[-1]:
            # accumulators no channel folds into are seeded at the end
            folds += [(isa.ADD, acc_w, zero, zero, (acc,)) for acc in range(
                tile.acc0, tile.carry) if acc not in seeded]
        items.append(len(plan.macros) + len(folds))
        for column, new in zip((op, m, a, b, dest), zip(*plan.macros, *folds)):
            column += new
    return Stream(*(np.array(col, np.int64) for col in (
        items, [*map(OPS.index, op)], m, a, b, [*map(len, dest)],
        [*chain.from_iterable(dest)])))


def _emit_conv(idx, layer, shape, in_bits, geometry, opt):
    try:
        tiles, systems = plan_conv_layer(layer.weights, shape, in_bits,
                                         geometry, opt)
        sched = schedule(shape, in_bits, geometry, len(tiles))
        lp = ConvLayer(**vars(shape), in_bits=in_bits, **_requant(layer.quant),
                       tiles=[Tile(*(getattr(t, f.name) for f in fields(Tile)))
                              for t in tiles],
                       streams=[[_stream(t, group)
                                 for group in sched.channel_groups]
                                for t in tiles])
        # every value lies along one track, one bit per domain; each stream
        # writes its tile's accumulators at their width
        widest = max(int(stream.m.max()) for row in lp.streams
                     for stream in row)
        if widest > geometry.domains_per_track:
            raise CapacityError(f"{widest}-bit value exceeds "
                                f"{geometry.domains_per_track} domains per track")
    except CapacityError as exc:
        raise CapacityError(f"layer {idx}: {exc}") from exc
    adds, subs = macro_counts(lp, sched)
    row = {"layer": idx, "kind": "conv",
           "ops_unroll": unrolled_op_count(systems),
           "ops_cse": sum(p.op_count
                          for t in tiles for p in t.plans.values()),
           "macro_adds": adds, "macro_subs": subs, "aps": sched.aps,
           "row_groups": len(sched.rows_used),
           "channel_groups": len(sched.channel_groups),
           "out_tiles": len(tiles),
           "acc_width": max(t.acc_width for t in tiles),
           "columns_used": max(t.columns_used for t in tiles),
           "utilization": sched.utilization}
    return lp, row

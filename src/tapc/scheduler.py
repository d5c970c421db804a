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

The program stores only decisions: per tile its channel range, accumulator
interval and value-pool layout, per (tile, channel group) one item stream
that every row group runs, and the adder-tree items. Tile columns, AP ids,
a macro's carry/zero columns and energy phase, and the op counts are derived
here (Tile, ap_id, macro_of, macro_counts) for the simulator and metrics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .lowering import LinearSystem, lower_layer, unrolled_op_count
from .model import TernaryNetwork, _input_bits

PROGRAM_VERSION = 2
OPT_LEVELS = ("unroll", "unroll_cse")


@dataclass
class ApGeometry:
    """Array and hierarchy dimensions. Consecutive AP ids fill a tile, then
    the next tile, then the next bank, so adder-tree neighbors stay local."""

    rows: int = 256
    columns: int = 256
    domains_per_track: int = 64
    aps_per_tile: int = 4
    tiles_per_bank: int = 4
    banks: int = 4

    @property
    def total_aps(self) -> int:
        return self.aps_per_tile * self.tiles_per_bank * self.banks

    def coords(self, ap: int) -> tuple[int, int, int]:
        slot = ap % self.aps_per_tile
        tile = (ap // self.aps_per_tile) % self.tiles_per_bank
        bank = ap // (self.aps_per_tile * self.tiles_per_bank)
        return bank, tile, slot

    def hop_level(self, src: int, dst: int) -> str:
        if src == dst:
            return "local"
        b1, t1, _ = self.coords(src)
        b2, t2, _ = self.coords(dst)
        if (b1, t1) == (b2, t2):
            return "tile"
        if b1 == b2:
            return "bank"
        return "global"


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
    """Decide addressing, claim value instances and color their live ranges.

    Values used k times are defined into k columns by one tagged write and
    each consumer burns its own copy; in-place results are only staged over
    an operand copy that dies at that op (inputs never qualify: their tail
    domains belong to other channels, and subtraction additionally pins the
    minuend as the destination). Copies for NC-row safety must come from
    pre-cleared columns, hence multi-use definitions are out-of-place.

    Live ranges run over op steps followed by one fold step per output row;
    every storage is dead again before the next channel reuses the pool.
    Coloring is greedy largest-degree-first on the interference graph.
    """
    op_nodes = [n for n in g.nodes if n.kind in (dfglib.ADD, dfglib.SUB)]
    step = {n.id: i for i, n in enumerate(op_nodes)}
    nsteps = len(op_nodes)
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

    # consumption order fixes which copy each consumer reads
    inst_next: dict[int, int] = {}
    claims: dict[tuple, tuple[int, int]] = {}

    def claim(consumer_key, node_id):
        idx = inst_next.get(node_id, 0)
        inst_next[node_id] = idx + 1
        claims[consumer_key] = (node_id, idx)

    for n in op_nodes:
        if is_value[n.lhs]:
            claim((n.id, "lhs"), n.lhs)
        if is_value[n.rhs]:
            claim((n.id, "rhs"), n.rhs)
    tags = g.row_tags()
    for r, (node_id, _sign) in enumerate(tags):
        if is_value[node_id]:
            claim(("fold", r), node_id)

    storages: list[_Storage] = []
    storage_of: dict[tuple[int, int], int] = {}

    def touch(consumer_key, t):
        node_id, idx = claims[consumer_key]
        s = storages[storage_of[(node_id, idx)]]
        s.death = max(s.death, t)
        return s.sid

    for n in op_nodes:
        t = step[n.id]
        if is_value[n.lhs]:
            touch((n.id, "lhs"), t)
        if is_value[n.rhs]:
            touch((n.id, "rhs"), t)
        if addressing[n.id] == isa.OUT_OF_PLACE:
            for i in range(max(n.use_count, 1)):
                s = _Storage(len(storages), t, t, req[n.id])
                storages.append(s)
                storage_of[(n.id, i)] = s.sid
        else:
            b_key = (n.id, "lhs" if b_is_lhs[n.id] else "rhs")
            sid = storage_of[claims[b_key]]
            storage_of[(n.id, 0)] = sid
    for r, (node_id, _sign) in enumerate(tags):
        if is_value[node_id]:
            touch(("fold", r), nsteps + r)

    # interference coloring; storage count is small, quadratic is fine
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

    def operand_desc(node_id, consumer_key):
        node = g.nodes[node_id]
        if node.kind == dfglib.INPUT:
            return ["in", node.slot]
        return ["val", storage_of[claims[consumer_key]]]

    macros: list[dict] = []
    for n in op_nodes:
        lhs_d = operand_desc(n.lhs, (n.id, "lhs"))
        rhs_d = operand_desc(n.rhs, (n.id, "rhs"))
        b_d, a_d = (lhs_d, rhs_d) if b_is_lhs[n.id] else (rhs_d, lhs_d)
        if addressing[n.id] == isa.IN_PLACE:
            width = storages[storage_of[(n.id, 0)]].width
            dest = [storage_of[(n.id, 0)]]
        else:
            width = req[n.id]
            dest = [storage_of[(n.id, i)] for i in range(max(n.use_count, 1))]
        macros.append({
            "node": n.id, "op": n.kind, "mode": addressing[n.id],
            "m": width, "a": a_d, "b": b_d, "dest": dest,
        })

    folds: list[tuple] = []
    for r, (node_id, sign) in enumerate(tags):
        node = g.nodes[node_id]
        if node.kind == dfglib.ZERO:
            folds.append((r, None, sign))
        elif node.kind == dfglib.INPUT:
            folds.append((r, ["in", node.slot], sign))
        else:
            folds.append((r, ["val", storage_of[claims[("fold", r)]]], sign))
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
class Tile:
    """Column layout of one output tile on each of its APs: patch slots, the
    value pool from `value0`, one accumulator per local output channel from
    `acc0`, then the carry, zero and move-scratch columns. The accumulator
    width is the narrowest that holds the proven interval [acc_lo, acc_hi]."""

    c_lo: int
    c_hi: int
    acc_lo: int
    acc_hi: int
    value0: int
    n_value_cols: int

    @property
    def acc_width(self) -> int:
        return dfglib.min_signed_width(self.acc_lo, self.acc_hi)

    @property
    def acc0(self) -> int:
        return self.value0 + self.n_value_cols

    @property
    def carry(self) -> int:
        return self.acc0 + self.c_hi - self.c_lo

    @property
    def zero(self) -> int:
        return self.carry + 1

    @property
    def scratch(self) -> int:
        return self.carry + 2

    @property
    def columns_used(self) -> int:
        return self.scratch + 1


@dataclass(frozen=True)
class _TilePlan(Tile):
    plans: dict[int, ChannelPlan]   # channel -> plan


def plan_conv_layer(weights, shape, in_bits: int, geometry: ApGeometry,
                    opt: str) -> tuple[list[_TilePlan], list[LinearSystem]]:
    """Split the layer into output tiles until every AP fits its columns."""
    systems = lower_layer(weights, shape)
    n_slots = shape.f_h * shape.f_w
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
            n_value = max((p.n_colors for p in plans.values()), default=0)
            lo, hi = _acc_interval(systems, c_lo, c_hi, in_bits)
            tile = _TilePlan(c_lo, c_hi, lo, hi, n_slots, n_value, plans)
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


def place_layer(shape, in_bits: int, geometry: ApGeometry) -> dict:
    """Geometric placement of one conv layer: output positions split into
    row groups of up to `rows`, input channels into nanowire-stacked groups
    of floor(domains / in_bits). Column budgeting is done elsewhere."""
    cap = geometry.domains_per_track // in_bits
    if cap < 1:
        raise CapacityError(f"{in_bits}-bit activations exceed "
                            f"{geometry.domains_per_track} domains per track")
    channels = list(range(shape.c_in))
    groups = [channels[i:i + cap] for i in range(0, shape.c_in, cap)]
    positions = shape.h_out * shape.w_out
    row_groups = -(-positions // geometry.rows)
    rows_used = [min(geometry.rows, positions - rg * geometry.rows)
                 for rg in range(row_groups)]
    return {"positions": positions, "row_groups": row_groups,
            "rows_used": rows_used, "channel_groups": groups}


def schedule_accumulation(n_groups: int) -> list[list[tuple[int, int]]]:
    """Binary-tree merge order over channel-group indices.

    Each level holds (dst, src) pairs; dst keeps the running partial and
    group 0 ends up with the full sum after ceil(log2(n)) levels.
    """
    levels = []
    gap = 1
    while gap < n_groups:
        levels.append([(i, i + gap) for i in range(0, n_groups, 2 * gap)
                       if i + gap < n_groups])
        gap *= 2
    return levels


# ---------------------------------------------------------------------------
# program format: what is derived from the stored decisions
# ---------------------------------------------------------------------------

def ap_id(rg: int, og: int, cg: int, n_tiles: int, n_groups: int) -> int:
    """AP of (row group, output tile, channel group) in a conv layer."""
    return (rg * n_tiles + og) * n_groups + cg


def macro_of(item: list, tile: Tile) -> tuple[isa.MacroInstr, str]:
    """Decode a stored `[op, mode, m, a, b, dest]` item on one of `tile`'s
    APs into its macro and energy phase. The macro uses the tile's carry and
    zero columns; it belongs to the "accum" phase when it writes an
    accumulator column (b in place, the first result column otherwise)."""
    op, mode, m, a, b, dest = item
    macro = isa.MacroInstr(op, mode, False, m, isa.OperandRef(*a),
                           isa.OperandRef(*b), tuple(dest), 0, tile.carry,
                           tile.zero)
    written = dest[0] if mode == isa.OUT_OF_PLACE and dest else b[0]
    phase = "accum" if tile.acc0 <= written < tile.carry else "dfg"
    return macro, phase


def macro_counts(lp: dict) -> tuple[int, int]:
    """Add and sub macros one conv layer issues: each row group runs every
    stream once, and every tree item runs once."""
    ops = [item[0] for tile_streams in lp["streams"] for items in tile_streams
           for item in items] * len(lp["rows_used"])
    ops += [item[0] for level in lp["tree"] for entry in level
            for item in entry["items"]]
    return ops.count(isa.ADD), ops.count(isa.SUB)


# ---------------------------------------------------------------------------
# program emission
# ---------------------------------------------------------------------------

_NO_OPS_ROW = {**dict.fromkeys(
    ("ops_unroll", "ops_cse", "macro_adds", "macro_subs", "aps", "row_groups",
     "channel_groups", "out_tiles", "acc_width", "columns_used"), 0),
    "utilization": 0.0}


def emit_program(net: TernaryNetwork, h: int, w: int, geometry: ApGeometry,
                 opt: str = "unroll_cse") -> "ApProgram":
    """Compile the whole network into a deterministic, serializable program.
    A conv whose `c_in` differs from its input, or an add over operands of
    different shapes, is a FormatError."""
    if opt not in OPT_LEVELS:
        raise FormatError(f"opt level must be one of {OPT_LEVELS}")
    catalog, repairs = isa.standard_catalog()
    in_c = net.layers[0].c_in if net.layers else 0
    layers_out = []
    report_rows = []
    cur_bits = _input_bits(net)
    out_shapes: list[tuple[int, int, int]] = []
    cur = (in_c, h, w)
    for idx, layer in enumerate(net.layers):
        cur_c, cur_h, cur_w = cur
        if layer.kind == "pool":
            if cur_h % 2 or cur_w % 2:
                raise FormatError(f"layer {idx}: pool needs even input extents")
            layers_out.append({"kind": "pool", "index": idx})
            report_rows.append({"layer": idx, "kind": "pool", **_NO_OPS_ROW})
            cur = (cur_c, cur_h // 2, cur_w // 2)
        elif layer.kind == "add":
            skip = layer.skip_from if layer.skip_from is not None else idx - 2
            other = (in_c, h, w) if skip == -1 else out_shapes[skip]
            if other != cur:
                raise FormatError(f"layer {idx}: add operands differ "
                                  f"{cur} vs {other}")
            layers_out.append({"kind": "add", "index": idx, "skip_from": skip,
                               "out_bits": layer.quant.activation_bits,
                               "multiplier": layer.quant.requant_multiplier,
                               "shift": layer.quant.requant_shift,
                               "act_kind": layer.quant.activation_kind})
            report_rows.append({"layer": idx, "kind": "add", **_NO_OPS_ROW})
            cur_bits = layer.quant.activation_bits
        else:
            if layer.c_in != cur_c:
                raise FormatError(f"layer {idx}: conv expects {layer.c_in} "
                                  f"input channels, gets {cur_c}")
            shape = layer.shape_for(cur_h, cur_w)
            lp, row = _emit_conv(idx, layer, shape, cur_bits, geometry, opt)
            layers_out.append(lp)
            report_rows.append(row)
            cur = (shape.c_out, shape.h_out, shape.w_out)
            cur_bits = layer.quant.activation_bits
        out_shapes.append(cur)

    doc = {
        "format_version": PROGRAM_VERSION,
        "name": net.name,
        "opt": opt,
        "in_bits": _input_bits(net),
        "in_c": in_c, "in_h": h, "in_w": w,
        "geometry": asdict(geometry),
        "luts": [_lut_doc(t) for key, t in sorted(catalog.items())
                 if not t.negated],
        "layers": layers_out,
    }
    return ApProgram(doc, report_rows, [r.describe() for r in repairs])


def _stream(tile: _TilePlan, group: list[int], in_bits: int) -> list[list]:
    """Items of the APs holding `group`'s channels for `tile`: each channel's
    DFG macros, then its folds into the accumulators. Every row group runs
    the same stream."""
    acc_w = tile.acc_width
    zero_ref = [tile.zero, 0, 1, 0]

    def ref(desc, plan, ch_local):
        if desc[0] == "in":
            return [desc[1], ch_local * in_bits, in_bits, 0]
        s = plan.storages[desc[1]]
        return [tile.value0 + s.color, 0, s.width, 1]

    items = []
    # the first fold into each accumulator runs out of place over the zero
    # column: its per-bit pre-clear initializes the column, so reused arrays
    # never leak a stale accumulator
    seeded: set[int] = set()
    for ch_local, ch in enumerate(group):
        plan = tile.plans[ch]
        for mk in plan.macros:
            dest = []
            if mk["mode"] == isa.OUT_OF_PLACE:
                dest = [tile.value0 + plan.storages[s].color for s in mk["dest"]]
            items.append([mk["op"], mk["mode"], mk["m"],
                          ref(mk["a"], plan, ch_local),
                          ref(mk["b"], plan, ch_local), dest])
        for r, desc, sign in plan.folds:
            if desc is None:
                continue
            a = ref(desc, plan, ch_local)
            op = isa.ADD if sign > 0 else isa.SUB
            if r in seeded:
                items.append([op, isa.IN_PLACE, acc_w, a,
                              [tile.acc0 + r, 0, acc_w, 1], []])
            else:
                items.append([op, isa.OUT_OF_PLACE, acc_w, a, zero_ref,
                              [tile.acc0 + r]])
                seeded.add(r)
    for r in range(tile.c_hi - tile.c_lo):
        if r not in seeded:
            items.append([isa.ADD, isa.OUT_OF_PLACE, acc_w, zero_ref, zero_ref,
                          [tile.acc0 + r]])
    return items


def _emit_conv(idx, layer, shape, in_bits, geometry, opt):
    placement = place_layer(shape, in_bits, geometry)
    groups = placement["channel_groups"]
    row_groups = placement["row_groups"]

    tiles, systems = plan_conv_layer(layer.weights, shape, in_bits, geometry, opt)
    ops_unroll = unrolled_op_count(systems)
    ops_cse = sum(
        dfglib.eliminate_common_subexpressions(dfglib.build_dfg(s)).op_count
        for s in systems)

    demand = row_groups * len(tiles) * len(groups)
    if demand > geometry.total_aps:
        raise CapacityError(
            f"layer {idx}: needs {demand} APs "
            f"({row_groups} row groups x {len(tiles)} tiles x {len(groups)} "
            f"channel groups), geometry has {geometry.total_aps}")
    # every stored value runs along one track, one bit per domain
    for tile in tiles:
        value_w = max((s.width for plan in tile.plans.values()
                       for s in plan.storages), default=0)
        for what, width in (("accumulator", tile.acc_width),
                            ("value", value_w)):
            if width > geometry.domains_per_track:
                raise CapacityError(
                    f"layer {idx}: {width}-bit {what} exceeds "
                    f"{geometry.domains_per_track} domains per track")

    # binary adder tree over channel groups, per (row group, tile)
    tree = []
    for pairs in schedule_accumulation(len(groups)):
        level = []
        for rg in range(row_groups):
            for og, tile in enumerate(tiles):
                acc_w = tile.acc_width
                for dst_cg, src_cg in pairs:
                    src = ap_id(rg, og, src_cg, len(tiles), len(groups))
                    items = []
                    for col in range(tile.acc0, tile.carry):
                        items.append(["move", src, col, 0, tile.scratch, 0,
                                      acc_w])
                        items.append([isa.ADD, isa.IN_PLACE, acc_w,
                                      [tile.scratch, 0, acc_w, 1],
                                      [col, 0, acc_w, 1], []])
                    level.append({"dst": ap_id(rg, og, dst_cg, len(tiles),
                                               len(groups)),
                                  "items": items})
        tree.append(level)

    lp = {
        "kind": "conv", "index": idx,
        "h_in": shape.h_in, "w_in": shape.w_in,
        "c_in": shape.c_in, "c_out": shape.c_out,
        "f_h": shape.f_h, "f_w": shape.f_w,
        "stride": shape.stride, "pad": shape.pad,
        "in_bits": in_bits,
        "out_bits": layer.quant.activation_bits,
        "multiplier": layer.quant.requant_multiplier,
        "shift": layer.quant.requant_shift,
        "act_kind": layer.quant.activation_kind,
        "rows_used": placement["rows_used"],
        "channel_groups": groups,
        "tiles": [{f.name: getattr(t, f.name) for f in fields(Tile)}
                  for t in tiles],
        "streams": [[_stream(t, group, in_bits) for group in groups]
                    for t in tiles],
        "tree": tree,
    }
    adds, subs = macro_counts(lp)
    utilization = placement["positions"] / (row_groups * geometry.rows)
    row = {"layer": idx, "kind": "conv", "ops_unroll": ops_unroll,
           "ops_cse": ops_cse, "macro_adds": adds, "macro_subs": subs,
           "aps": demand, "row_groups": row_groups,
           "channel_groups": len(groups), "out_tiles": len(tiles),
           "acc_width": max(t.acc_width for t in tiles),
           "columns_used": max(t.columns_used for t in tiles),
           "utilization": utilization}
    return lp, row


# ---------------------------------------------------------------------------
# program container
# ---------------------------------------------------------------------------

def _lut_doc(table: isa.LutTable) -> dict:
    return {"op": table.op_kind, "addressing": table.addressing,
            "entries": [[list(e.key), list(e.write), e.pass_index]
                        for _k, e in sorted(table.entries.items())]}


def _lut_from_doc(doc: dict) -> isa.LutTable:
    entries = {}
    for key, write, pidx in doc["entries"]:
        k = tuple(int(x) for x in key)
        entries[k] = isa.LutEntry(k, tuple(int(x) for x in write), int(pidx))
    return isa.LutTable(doc["op"], doc["addressing"], False, entries)


class ApProgram:
    """Serializable compiled program.

    The canonical byte encoding (UTF-8 JSON, sorted keys, compact
    separators, trailing newline) is part of the artifact contract:
    recompiling with identical inputs reproduces the file bit for bit.
    """

    def __init__(self, doc: dict, report_rows=None, lut_notes=None):
        if doc.get("format_version") != PROGRAM_VERSION:
            raise FormatError(f"unsupported program version {doc.get('format_version')!r}")
        self.doc = doc
        self.report_rows = report_rows or []
        self.lut_notes = lut_notes or []

    @property
    def geometry(self) -> ApGeometry:
        return ApGeometry(**self.doc["geometry"])

    @property
    def layers(self) -> list[dict]:
        return self.doc["layers"]

    def luts(self) -> dict[tuple[str, str, bool], isa.LutTable]:
        out = {}
        for d in self.doc["luts"]:
            t = _lut_from_doc(d)
            out[(t.op_kind, t.addressing, t.negated)] = t
        return out

    def dumps(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "ApProgram":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read program: {exc}") from exc
        return cls(doc)

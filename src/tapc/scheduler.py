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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .lowering import LinearSystem, lower_layer, unrolled_op_count
from .model import TernaryNetwork, _input_bits

PROGRAM_VERSION = 1
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


def choose_addressing(plan: ChannelPlan, node_id: int) -> str:
    """Addressing picked for one node by allocate_columns (for inspection)."""
    for m in plan.macros:
        if m["node"] == node_id:
            return m["mode"]
    raise KeyError(node_id)


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


@dataclass
class _TilePlan:
    c_lo: int
    c_hi: int
    acc_width: int
    acc_lo: int
    acc_hi: int
    n_value_cols: int
    columns_used: int
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
        fits = True
        for c_lo in range(0, shape.c_out, tile_size):
            c_hi = min(c_lo + tile_size, shape.c_out)
            plans = {}
            n_value = 0
            for sys in systems:
                plan = allocate_columns(_build_graph(_slice_system(sys, c_lo, c_hi),
                                                     opt, in_bits))
                plans[sys.channel] = plan
                n_value = max(n_value, plan.n_colors)
            lo, hi = _acc_interval(systems, c_lo, c_hi, in_bits)
            acc_w = dfglib.min_signed_width(lo, hi)
            used = n_slots + n_value + (c_hi - c_lo) + 3
            if used > geometry.columns:
                fits = False
                break
            tiles.append(_TilePlan(c_lo, c_hi, acc_w, lo, hi, n_value, used, plans))
        if fits:
            return tiles, systems
        if tile_size == 1:
            raise CapacityError(
                f"single output channel needs {used} columns, geometry has "
                f"{geometry.columns}")
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
# program emission
# ---------------------------------------------------------------------------

def _macro_item(phase, op, mode, m, a_ref, b_ref, dest_cols, dest_base,
                carry, zero):
    return {"t": "macro", "ph": phase, "op": op, "mode": mode, "neg": 0,
            "m": m, "a": list(a_ref), "b": list(b_ref),
            "dest": list(dest_cols), "dest_base": dest_base,
            "carry": carry, "zero": zero}


def emit_program(net: TernaryNetwork, h: int, w: int, geometry: ApGeometry,
                 opt: str = "unroll_cse") -> "ApProgram":
    """Compile the whole network into a deterministic, serializable program."""
    if opt not in OPT_LEVELS:
        raise FormatError(f"opt level must be one of {OPT_LEVELS}")
    catalog, repairs = isa.standard_catalog()
    layers_out = []
    report_rows = []
    cur_h, cur_w = h, w
    cur_bits = _input_bits(net)
    for idx, layer in enumerate(net.layers):
        if layer.kind == "pool":
            if cur_h % 2 or cur_w % 2:
                raise FormatError(f"layer {idx}: pool needs even input extents")
            layers_out.append({"kind": "pool", "index": idx})
            report_rows.append({"layer": idx, "kind": "pool", "ops_unroll": 0,
                                "ops_cse": 0, "macro_adds": 0, "macro_subs": 0,
                                "aps": 0, "row_groups": 0, "channel_groups": 0,
                                "out_tiles": 0, "acc_width": 0, "columns_used": 0,
                                "utilization": 0.0})
            cur_h, cur_w = cur_h // 2, cur_w // 2
            continue
        if layer.kind == "add":
            skip = layer.skip_from if layer.skip_from is not None else idx - 2
            layers_out.append({"kind": "add", "index": idx, "skip_from": skip,
                               "out_bits": layer.quant.activation_bits,
                               "multiplier": layer.quant.requant_multiplier,
                               "shift": layer.quant.requant_shift,
                               "act_kind": layer.quant.activation_kind})
            report_rows.append({"layer": idx, "kind": "add", "ops_unroll": 0,
                                "ops_cse": 0, "macro_adds": 0, "macro_subs": 0,
                                "aps": 0, "row_groups": 0, "channel_groups": 0,
                                "out_tiles": 0, "acc_width": 0, "columns_used": 0,
                                "utilization": 0.0})
            cur_bits = layer.quant.activation_bits
            continue

        shape = layer.shape_for(cur_h, cur_w)
        lp, row = _emit_conv(idx, layer, shape, cur_bits, geometry, opt)
        layers_out.append(lp)
        report_rows.append(row)
        cur_h, cur_w = shape.h_out, shape.w_out
        cur_bits = layer.quant.activation_bits

    doc = {
        "format_version": PROGRAM_VERSION,
        "name": net.name,
        "opt": opt,
        "in_bits": _input_bits(net),
        "in_h": h, "in_w": w,
        "geometry": asdict(geometry),
        "luts": [_lut_doc(t) for _key, t in sorted(catalog.items(),
                                                   key=lambda kv: kv[0])],
        "layers": layers_out,
    }
    return ApProgram(doc, report_rows, [r.describe() for r in repairs])


def _emit_conv(idx, layer, shape, in_bits, geometry, opt):
    placement = place_layer(shape, in_bits, geometry)
    groups = placement["channel_groups"]
    positions = placement["positions"]
    row_groups = placement["row_groups"]
    rows_used = placement["rows_used"]

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

    n_slots = shape.f_h * shape.f_w
    ap_of = {}
    next_ap = 0
    for rg in range(row_groups):
        for og in range(len(tiles)):
            for cg in range(len(groups)):
                ap_of[(rg, og, cg)] = next_ap
                next_ap += 1

    adds = subs = 0
    streams: dict[int, list] = {}
    tile_docs = []
    for og, tile in enumerate(tiles):
        value0 = n_slots
        acc0 = value0 + tile.n_value_cols
        carry = acc0 + (tile.c_hi - tile.c_lo)
        zero = carry + 1
        scratch = zero + 1
        tile_docs.append({
            "c_lo": tile.c_lo, "c_hi": tile.c_hi,
            "acc_width": tile.acc_width,
            "acc_lo": tile.acc_lo, "acc_hi": tile.acc_hi,
            "n_value_cols": tile.n_value_cols,
            "value0": value0, "acc0": acc0, "carry": carry,
            "zero": zero, "scratch": scratch,
            "columns_used": tile.columns_used,
        })

        def ref_of(desc, plan, ch_local):
            if desc[0] == "in":
                return [desc[1], ch_local * in_bits, in_bits, 0]
            s = plan.storages[desc[1]]
            return [value0 + s.color, 0, s.width, 1]

        zero_ref = [zero, 0, 1, 0]
        n_local = tile.c_hi - tile.c_lo
        for rg in range(row_groups):
            for cg, group in enumerate(groups):
                ap = ap_of[(rg, og, cg)]
                items = []
                # the first fold into each accumulator runs out of place over
                # the zero column: its per-bit pre-clear initializes the
                # column, so reused arrays never leak a stale accumulator
                seeded: set[int] = set()
                for ch_local, ch in enumerate(group):
                    plan = tile.plans[ch]
                    for mk in plan.macros:
                        a = ref_of(mk["a"], plan, ch_local)
                        b = ref_of(mk["b"], plan, ch_local)
                        dest = [value0 + plan.storages[s].color for s in mk["dest"]]
                        items.append(_macro_item(
                            "dfg", mk["op"], mk["mode"], mk["m"], a, b,
                            dest if mk["mode"] == isa.OUT_OF_PLACE else [],
                            0, carry, zero))
                        if mk["op"] == isa.ADD:
                            adds += 1
                        else:
                            subs += 1
                    for r, desc, sign in plan.folds:
                        if desc is None:
                            continue
                        a = ref_of(desc, plan, ch_local)
                        op = isa.ADD if sign > 0 else isa.SUB
                        if r in seeded:
                            items.append(_macro_item(
                                "accum", op, isa.IN_PLACE, tile.acc_width, a,
                                [acc0 + r, 0, tile.acc_width, 1], [], 0,
                                carry, zero))
                        else:
                            items.append(_macro_item(
                                "accum", op, isa.OUT_OF_PLACE, tile.acc_width,
                                a, zero_ref, [acc0 + r], 0, carry, zero))
                            seeded.add(r)
                        if op == isa.ADD:
                            adds += 1
                        else:
                            subs += 1
                for r in range(n_local):
                    if r not in seeded:
                        items.append(_macro_item(
                            "accum", isa.ADD, isa.OUT_OF_PLACE, tile.acc_width,
                            zero_ref, zero_ref, [acc0 + r], 0, carry, zero))
                        adds += 1
                streams[ap] = items

    # binary adder tree over channel groups, per (row group, tile)
    tree_levels = []
    for pairs in schedule_accumulation(len(groups)):
        level = []
        for rg in range(row_groups):
            for og, tile in enumerate(tiles):
                td = tile_docs[og]
                for dst_cg, src_cg in pairs:
                    dst = ap_of[(rg, og, dst_cg)]
                    src = ap_of[(rg, og, src_cg)]
                    items = []
                    for r in range(tile.c_hi - tile.c_lo):
                        items.append({"t": "move", "ph": "accum",
                                      "src_ap": src,
                                      "src_col": td["acc0"] + r, "src_base": 0,
                                      "dst_col": td["scratch"], "dst_base": 0,
                                      "m": tile.acc_width})
                        items.append(_macro_item(
                            "accum", isa.ADD, isa.IN_PLACE, tile.acc_width,
                            [td["scratch"], 0, tile.acc_width, 1],
                            [td["acc0"] + r, 0, tile.acc_width, 1],
                            [], 0, td["carry"], td["zero"]))
                        adds += 1
                    level.append({"dst": dst, "items": items})
        tree_levels.append(level)

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
        "row_groups": row_groups, "rows_used": rows_used,
        "channel_groups": [list(g) for g in groups],
        "tiles": tile_docs,
        "aps": {f"{rg},{og},{cg}": ap_of[(rg, og, cg)]
                for (rg, og, cg) in sorted(ap_of)},
        "streams": {str(ap): items for ap, items in sorted(streams.items())},
        "tree": tree_levels,
        "macro_adds": adds, "macro_subs": subs,
    }
    utilization = positions / (row_groups * geometry.rows)
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
            "negated": int(table.negated),
            "entries": [[list(e.key), list(e.write), e.pass_index]
                        for _k, e in sorted(table.entries.items())]}


def _lut_from_doc(doc: dict) -> isa.LutTable:
    entries = {}
    for key, write, pidx in doc["entries"]:
        k = tuple(int(x) for x in key)
        entries[k] = isa.LutEntry(k, tuple(int(x) for x in write), int(pidx))
    return isa.LutTable(doc["op"], doc["addressing"], bool(doc["negated"]), entries)


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

"""Column allocation, placement, output tiling and program emission."""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ternary_matrix
from tapc import dfg as dfglib
from tapc import isa, scheduler
from tapc.errors import CapacityError, FormatError
from tapc.lowering import LinearSystem, lower_layer
from tapc.model import (Layer, LayerShape, QuantSpec, TernaryNetwork,
                        make_synthetic_network)
from tapc.program import schedule
from tapc.scheduler import (ApGeometry, ApProgram, allocate_columns,
                            emit_program, plan_conv_layer)


def plan_for(matrix, opt="unroll_cse", bits=4):
    return allocate_columns(dfglib.graph_from_terms(
        0, dfglib.row_bits(matrix), opt == "unroll_cse").nodes, bits)


def graph_for(matrix, opt="unroll_cse", bits=4):
    """The annotated graph of the nodes `plan_for` plans."""
    return dfglib.annotate_bitwidths(dfglib.graph_from_terms(
        0, dfglib.row_bits(matrix), opt == "unroll_cse"), bits)


# --- geometry -------------------------------------------------------------

def test_geometry_ids_fill_tiles_first():
    geo = ApGeometry()
    assert geo.total_aps == 64
    assert geo.coords(0) == (0, 0, 0)
    assert geo.coords(1) == (0, 0, 1)
    assert geo.coords(5) == (0, 1, 1)
    assert geo.coords(63) == (3, 3, 3)


def test_hop_levels():
    geo = ApGeometry()
    assert geo.hop_level(7, 7) == "local"
    assert geo.hop_level(0, 1) == "tile"
    assert geo.hop_level(0, 5) == "bank"
    assert geo.hop_level(0, 21) == "global"


# --- per-channel allocation -----------------------------------------------

def _storage_at(plan, column, t, n_slots):
    """The one storage holding value column `column` at step `t`."""
    live = [s for s in plan.storages
            if s[3] == column - n_slots and s[0] <= t <= s[1]]
    assert len(live) == 1
    return live[0]


class Item(NamedTuple):
    """A planned macro's fields, by name."""

    op: str
    m: int
    a: int
    b: int
    dest: tuple


def items(plan) -> list[Item]:
    return [Item(*mac) for mac in plan.macros]


@pytest.mark.parametrize("opt", scheduler.OPT_LEVELS)
@pytest.mark.parametrize("seed", range(4))
def test_allocation_invariants(opt, seed):
    matrix = ternary_matrix(24, 9, 0.75, seed)
    plan, g = plan_for(matrix, opt), graph_for(matrix, opt)
    n_slots, nodes = g.n_slots, g.nodes
    ops = [n for n, k in enumerate(nodes.kind) if k in (dfglib.ADD, dfglib.SUB)]
    assert plan.op_count == len(plan.macros) == len(ops)
    for t, (mac, n) in enumerate(zip(items(plan), ops)):
        assert mac.op == nodes.kind[n]
        if not mac.dest:    # in place
            assert nodes.uses[n] <= 1
            assert mac.b >= n_slots
            # the result lands exactly where b lived, at the macro width
            birth, death, width, _ = _storage_at(plan, mac.b, t, n_slots)
            assert birth <= t < death
            assert width == mac.m
        else:
            assert len(mac.dest) == max(nodes.uses[n], 1)
            assert len(set(mac.dest)) == len(mac.dest)
            assert min(mac.dest) >= n_slots
        assert mac.m >= g.width(n)

    # colors form a valid interference coloring over live ranges
    for birth, death, _, color in plan.storages:
        assert 0 <= color < plan.n_colors
        assert birth <= death
    for i, a in enumerate(plan.storages):
        for b in plan.storages[i + 1:]:
            if a[0] <= b[1] and b[0] <= a[1]:
                assert a[3] != b[3]

    # one fold per output row, sign straight off the row tag
    assert [f[0] for f in plan.folds] == list(range(g.n_rows))
    for (_r, col, sign), (nid, tag_sign) in zip(plan.folds, nodes.tags):
        assert sign == tag_sign
        kind = nodes.kind[nid]
        if kind == dfglib.ZERO:
            assert col is None
        elif kind == dfglib.INPUT:
            assert col == nodes.lhs[nid]
        else:
            assert col >= n_slots


def test_in_place_chains_pre_widen_their_definition():
    # ((x0+x1)+x2)+x3 over 4-bit inputs: natural widths are 6, 7, 7, so the
    # head definition must already be stored 7 wide for the chain to land on it
    plan = plan_for(np.array([[1, 1, 1, 1]]), opt="unroll")
    # one out-of-place definition, then two in-place ops
    assert [len(m.dest) for m in items(plan)] == [1, 0, 0]
    assert [m.m for m in items(plan)] == [7, 7, 7]
    assert len(plan.storages) == 1
    assert plan.storages[0][2] == 7
    assert plan.n_colors == 1


def test_multi_use_values_get_one_copy_per_consumer():
    matrix = np.array([[1, -1, 1, 0],
                       [1, -1, 0, 1],
                       [-1, 1, 0, -1]], dtype=np.int64)
    plan, g = plan_for(matrix), graph_for(matrix)
    kind, tags = g.nodes.kind, g.nodes.tags
    ops = [n for n, k in enumerate(kind) if k in (dfglib.ADD, dfglib.SUB)]
    by_node = dict(zip(ops, items(plan)))
    n_tags = [sum(x == n for x, _ in tags) for n in range(len(kind))]
    t = kind.index(dfglib.SUB)
    u = n_tags.index(2)
    chain = next(n for n in ops if n_tags[n] == 1 and kind[n] == dfglib.ADD)
    # out of place, one copy per consumer
    assert len(by_node[t].dest) == 2           # one op consumer, one chain
    assert len(by_node[u].dest) == 2           # two fold consumers
    # copies are written together, so they are live together: distinct colors
    c0, c1 = by_node[t].dest
    assert c0 != c1
    # the single-tag chain op burns one of t's copies in place
    assert by_node[chain].dest == ()
    assert by_node[chain].b in by_node[t].dest


@dataclass
class _Storage:
    """One physical column's worth of value lifetime (an in-place chain)."""

    sid: int
    birth: int
    death: int
    width: int
    color: int = -1


def _resolved(g, storages, n_colors, macros, folds):
    """A plan of storage-id skeletons as the column plan `allocate_columns`
    returns: an input reads its slot's column, a storage its color's."""
    def column(desc):
        if desc is None:
            return None
        kind, ref = desc
        return ref if kind == "in" else g.n_slots + storages[ref].color

    items = [(mk["op"], mk["m"], column(mk["a"]), column(mk["b"]),
              tuple(column(["val", s]) for s in mk["dest"])
              if mk["mode"] == isa.OUT_OF_PLACE else ())
             for mk in macros]
    return scheduler.ChannelPlan(
        g.op_count, n_colors, items,
        [(r, column(desc), sign) for r, desc, sign in folds],
        [(s.birth, s.death, s.width, s.color) for s in storages])


def _reference_allocate(g):
    """The three-walk allocation the single pass replaced, kept as its oracle:
    claim every copy by consumer, then walk again for the storage lifetimes,
    then once more after coloring for the operand descriptors.

    Decide addressing, claim value instances and color their live ranges.

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
    kind, lhs, rhs, uses, tags = (g.nodes.kind, g.nodes.lhs, g.nodes.rhs,
                                  g.nodes.uses, g.nodes.tags)
    op_nodes = [n for n, k in enumerate(kind) if k in (dfglib.ADD, dfglib.SUB)]
    step = {n: i for i, n in enumerate(op_nodes)}
    nsteps = len(op_nodes)
    is_value = {n: k in (dfglib.ADD, dfglib.SUB) for n, k in enumerate(kind)}

    addressing: dict[int, str] = {}
    b_is_lhs: dict[int, bool] = {}
    for n in op_nodes:
        k_res = max(uses[n], 1)
        v_lhs, v_rhs = is_value[lhs[n]], is_value[rhs[n]]
        if k_res == 1 and (v_lhs or (kind[n] == dfglib.ADD and v_rhs)):
            addressing[n] = isa.IN_PLACE
            b_is_lhs[n] = v_lhs
        else:
            addressing[n] = isa.OUT_OF_PLACE
            b_is_lhs[n] = True

    # widen definitions so every in-place destination is stored at op width
    req = {n: g.width(n) for n in op_nodes}
    for n in reversed(op_nodes):
        if addressing[n] == isa.IN_PLACE:
            b_op = lhs[n] if b_is_lhs[n] else rhs[n]
            if is_value[b_op]:
                req[b_op] = max(req[b_op], req[n])

    # consumption order fixes which copy each consumer reads
    inst_next: dict[int, int] = {}
    claims: dict[tuple, tuple[int, int]] = {}

    def claim(consumer_key, node_id):
        idx = inst_next.get(node_id, 0)
        inst_next[node_id] = idx + 1
        claims[consumer_key] = (node_id, idx)

    for n in op_nodes:
        if is_value[lhs[n]]:
            claim((n, "lhs"), lhs[n])
        if is_value[rhs[n]]:
            claim((n, "rhs"), rhs[n])
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
        t = step[n]
        if is_value[lhs[n]]:
            touch((n, "lhs"), t)
        if is_value[rhs[n]]:
            touch((n, "rhs"), t)
        if addressing[n] == isa.OUT_OF_PLACE:
            for i in range(max(uses[n], 1)):
                s = _Storage(len(storages), t, t, req[n])
                storages.append(s)
                storage_of[(n, i)] = s.sid
        else:
            b_key = (n, "lhs" if b_is_lhs[n] else "rhs")
            sid = storage_of[claims[b_key]]
            storage_of[(n, 0)] = sid
    for r, (node_id, _sign) in enumerate(tags):
        if is_value[node_id]:
            touch(("fold", r), nsteps + r)

    # interference coloring, quadratic in the storage count
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
        if kind[node_id] == dfglib.INPUT:
            return ["in", lhs[node_id]]     # an input's lhs is its slot
        return ["val", storage_of[claims[consumer_key]]]

    macros: list[dict] = []
    for n in op_nodes:
        lhs_d = operand_desc(lhs[n], (n, "lhs"))
        rhs_d = operand_desc(rhs[n], (n, "rhs"))
        b_d, a_d = (lhs_d, rhs_d) if b_is_lhs[n] else (rhs_d, lhs_d)
        if addressing[n] == isa.IN_PLACE:
            width = storages[storage_of[(n, 0)]].width
            dest = [storage_of[(n, 0)]]
        else:
            width = req[n]
            dest = [storage_of[(n, i)] for i in range(max(uses[n], 1))]
        macros.append({
            "node": n, "op": kind[n], "mode": addressing[n],
            "m": width, "a": a_d, "b": b_d, "dest": dest,
        })

    folds: list[tuple] = []
    for r, (node_id, sign) in enumerate(tags):
        if kind[node_id] == dfglib.ZERO:
            folds.append((r, None, sign))
        elif kind[node_id] == dfglib.INPUT:
            folds.append((r, ["in", lhs[node_id]], sign))
        else:
            folds.append((r, ["val", storage_of[claims[("fold", r)]]], sign))
    return _resolved(g, storages, n_colors, macros, folds)


@given(st.integers(1, 40), st.integers(1, 12), st.floats(0.1, 0.9),
       st.integers(0, 2**32 - 1), st.sampled_from(scheduler.OPT_LEVELS),
       st.integers(1, 8))
def test_single_pass_allocation_matches_the_three_walk_reference(
        rows, slots, density, seed, opt, bits):
    matrix = ternary_matrix(rows, slots, 1 - density, seed)
    plan, g = plan_for(matrix, opt, bits), graph_for(matrix, opt, bits)
    want = _reference_allocate(g)
    assert plan.macros == want.macros
    assert plan.folds == want.folds
    assert plan.n_colors == want.n_colors
    assert plan.storages == want.storages
    assert plan.op_count == g.op_count


# --- placement and tiling -------------------------------------------------

def test_schedule_row_and_channel_groups():
    geo = ApGeometry()
    shape = LayerShape(16, 8, 3, 3, 1, 1, 30, 30)
    sched = schedule(shape, 4, geo)
    assert sched.utilization == 900 / (4 * 256)      # 900 positions
    assert len(sched.rows_used) == 4
    assert sched.rows_used == [256, 256, 256, 132]
    assert sched.channel_groups == [list(range(16))]

    sched = schedule(shape, 8, geo)
    assert sched.channel_groups == [list(range(8)), list(range(8, 16))]

    with pytest.raises(CapacityError):
        schedule(shape, 128, geo)


def test_schedule_grid_tree_and_epochs():
    shape = LayerShape(24, 8, 3, 3, 1, 1, 30, 30)     # 4 row groups
    sched = schedule(shape, 8, ApGeometry(), n_tiles=2)  # 3 channel groups
    assert sched.aps == 4 * 2 * 3
    assert [ap for ap, *_ in sched.grid] == list(range(sched.aps))
    assert sched.grid[7] == (7, 1, 0, 1) and sched.ap(1, 0, 1) == 7
    assert sched.bundle(1, 2) == [5, 11, 17, 23]
    assert sched.bundle(0, 1) == [sched.ap(rg, 0, 1) for rg in range(4)]
    assert sched.tree == [[(0, 0, 1), (1, 0, 1)], [(0, 0, 2), (1, 0, 2)]]
    assert (sched.LOAD, sched.STREAM, sched.TREE) == (0, 1, 2)
    assert (sched.readout, sched.epochs) == (4, 5)
    with pytest.raises(CapacityError, match="needs 72 APs"):
        schedule(shape, 8, ApGeometry(), n_tiles=6)


def _tree_pairs(n):
    """The (dst, src) channel-group pairs of each adder-tree level of a
    layer with n channel groups on one row group and one tile."""
    geo = ApGeometry(domains_per_track=1)
    levels = schedule(LayerShape(n, 1, 1, 1, 1, 0, 1, 1), 1, geo).tree
    assert all(og == 0 for level in levels for og, _dst, _src in level)
    return [[(dst, src) for _og, dst, src in level] for level in levels]


def test_accumulation_tree_frozen_shapes():
    assert _tree_pairs(1) == []
    assert _tree_pairs(2) == [[(0, 1)]]
    assert _tree_pairs(5) == [[(0, 1), (2, 3)], [(0, 2)], [(0, 4)]]


@pytest.mark.parametrize("n", range(1, 17))
def test_accumulation_tree_merges_everything_into_group_zero(n):
    levels = _tree_pairs(n)
    assert len(levels) == (n - 1).bit_length()
    alive = set(range(n))
    for level in levels:
        busy = set()
        for dst, src in level:
            assert dst < src
            assert dst in alive and src in alive
            assert not {dst, src} & busy    # pairs of one level run in parallel
            busy |= {dst, src}
            alive.discard(src)
    assert alive == {0}
    assert sum(len(level) for level in levels) == n - 1


def test_output_tiles_split_until_columns_fit():
    net = make_synthetic_network(1, 16, 0.6, bits=4, in_channels=3, seed=1)
    layer = net.layers[0]
    shape = layer.shape_for(8, 8)

    wide = ApGeometry()
    tiles, systems = plan_conv_layer(layer.weights, shape, 4, wide, "unroll_cse")
    assert len(systems) == 3
    assert len(tiles) == 1
    assert tiles[0].columns_used <= wide.columns

    narrow = ApGeometry(columns=24)
    tiles, _ = plan_conv_layer(layer.weights, shape, 4, narrow, "unroll_cse")
    assert len(tiles) > 1
    spans = [(t.c_lo, t.c_hi) for t in tiles]
    assert spans[0][0] == 0 and spans[-1][1] == 16
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    for t in tiles:
        assert t.columns_used <= narrow.columns
        assert t.acc_lo <= 0 <= t.acc_hi
        assert t.acc_width == dfglib.min_signed_width(t.acc_lo, t.acc_hi)

    with pytest.raises(CapacityError):
        plan_conv_layer(layer.weights, shape, 4, ApGeometry(columns=12), "unroll_cse")


def _acc_interval(systems, c_lo, c_hi, in_bits):
    """The widest interval of a row's sum over every channel's slots, with
    inputs in [0, 2**in_bits - 1], summed weight by weight."""
    top = (1 << in_bits) - 1
    lo = hi = 0
    for r in range(c_lo, c_hi):
        weights = [int(w) for sys in systems for w in sys.matrix[r]]
        lo = min(lo, sum(top * w for w in weights if w < 0))
        hi = max(hi, sum(top * w for w in weights if w > 0))
    return lo, hi


@given(st.integers(16, 48), st.integers(1, 6), st.integers(1, 24),
       st.floats(0.3, 0.95), st.integers(1, 5), st.integers(1, 8),
       st.sampled_from(scheduler.OPT_LEVELS), st.integers(0, 2**32 - 1))
def test_tile_accumulator_intervals_are_the_summed_row_bounds(
        columns, c_in, c_out, sparsity, hw, bits, opt, seed):
    layer = make_synthetic_network(1, c_out, sparsity, bits=bits,
                                   in_channels=c_in, seed=seed).layers[0]
    shape = layer.shape_for(hw, hw)
    try:
        tiles, systems = plan_conv_layer(layer.weights, shape, bits,
                                         ApGeometry(columns=columns), opt)
    except CapacityError:
        return
    for t in tiles:
        assert (t.acc_lo, t.acc_hi) == _acc_interval(systems, t.c_lo,
                                                     t.c_hi, bits)


def _reference_plan_conv_layer(weights, shape, in_bits, geometry, opt):
    """The tile planner before early exits and row terms, kept as the oracle
    of `plan_conv_layer`: every attempt builds and allocates every channel of
    every tile through build_dfg, CSE and annotate_bitwidths, then compares
    the tile's columns with the geometry."""
    def build_graph(system):
        g = dfglib.build_dfg(system)
        if opt == "unroll_cse":
            g = dfglib.eliminate_common_subexpressions(g)
        return dfglib.annotate_bitwidths(g, in_bits)

    systems = lower_layer(weights, shape)
    n_slots = shape.f_h * shape.f_w
    n_tiles = 1
    while True:
        tile_size = -(-shape.c_out // n_tiles)
        tiles = []
        for c_lo in range(0, shape.c_out, tile_size):
            c_hi = min(c_lo + tile_size, shape.c_out)
            plans = {}
            for sys in systems:
                plans[sys.channel] = _reference_allocate(build_graph(
                    LinearSystem(sys.channel, sys.matrix[c_lo:c_hi])))
            n_value = max((p.n_colors for p in plans.values()), default=0)
            lo, hi = _acc_interval(systems, c_lo, c_hi, in_bits)
            tile = scheduler._TilePlan(c_lo, c_hi, lo, hi, n_slots + n_value,
                                       plans)
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


def _tiles_or_error(plan, *args):
    """The accepted tiles with their plans, or the CapacityError message."""
    try:
        return plan(*args)[0]
    except CapacityError as exc:
        return str(exc)


@given(st.integers(12, 64), st.integers(1, 6), st.integers(2, 24),
       st.floats(0.3, 0.95), st.integers(1, 5), st.integers(1, 8),
       st.sampled_from(scheduler.OPT_LEVELS), st.integers(0, 2**32 - 1))
def test_tile_plans_match_the_allocate_everything_reference(
        columns, c_in, c_out, sparsity, hw, bits, opt, seed):
    layer = make_synthetic_network(1, c_out, sparsity, bits=bits,
                                   in_channels=c_in, seed=seed).layers[0]
    args = (layer.weights, layer.shape_for(hw, hw), bits,
            ApGeometry(columns=columns), opt)
    assert (_tiles_or_error(plan_conv_layer, *args)
            == _tiles_or_error(_reference_plan_conv_layer, *args))


# --- whole-program emission -----------------------------------------------

def test_program_emission_is_deterministic():
    net = make_synthetic_network(2, 6, 0.7, bits=4, in_channels=3, seed=5)
    p1 = emit_program(net, 8, 8, ApGeometry(), "unroll_cse")
    p2 = emit_program(net, 8, 8, ApGeometry(), "unroll_cse")
    assert p1.dumps() == p2.dumps()


def test_program_rejects_unknown_opt_level():
    net = make_synthetic_network(1, 4, 0.7, bits=4, seed=2)
    with pytest.raises(FormatError):
        emit_program(net, 8, 8, ApGeometry(), "hand_tuned")


def test_program_save_load_and_version_gate(tmp_path):
    net = make_synthetic_network(1, 4, 0.7, bits=4, seed=2)
    prog = emit_program(net, 8, 8, ApGeometry())
    path = tmp_path / "program.json"
    prog.save(path)
    assert ApProgram.load(path).dumps() == prog.dumps()

    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        ApProgram.load(path)

    path.write_text("{not json")
    with pytest.raises(FormatError):
        ApProgram.load(path)


def test_capacity_error_when_ap_demand_exceeds_geometry():
    net = make_synthetic_network(1, 4, 0.7, bits=8, in_channels=16, seed=0)
    tiny = ApGeometry(aps_per_tile=1, tiles_per_bank=1, banks=1)
    with pytest.raises(CapacityError):
        emit_program(net, 8, 8, tiny)    # 16 channels at 8 bits need 2 APs


def test_pool_layer_requires_even_extents():
    conv = make_synthetic_network(1, 4, 0.7, bits=4, seed=2).layers[0]
    pool = Layer("pool", 4, 4, 2, 2, 2, 0, QuantSpec(4))
    net = TernaryNetwork("p", [conv, pool])
    prog = emit_program(net, 8, 8, ApGeometry())
    kinds = [l.kind for l in prog.layers]
    assert kinds == ["conv", "pool"]
    with pytest.raises(FormatError):
        emit_program(net, 9, 9, ApGeometry())


def test_report_rows_track_op_counts():
    net = make_synthetic_network(2, 6, 0.7, bits=4, in_channels=3, seed=7)
    prog = emit_program(net, 8, 8, ApGeometry(), "unroll_cse")
    assert len(prog.report_rows) == 2
    for row in prog.report_rows:
        assert row["kind"] == "conv"
        assert row["ops_unroll"] >= row["ops_cse"] > 0
        assert row["macro_adds"] + row["macro_subs"] > 0
        assert 0.0 < row["utilization"] <= 1.0

"""Differential fuzzing of compiler and simulator, and mutation fuzzing of the
program loader.

Every network the compiler accepts must simulate bit-exactly against the
host reference, run exactly the macros `macro_counts` counts, and its
program must come back unchanged through program.json. Each of its conv
streams, decoded once into steps, must run on its bundle of row groups as
its items' macros run one by one through the micro-op reference on each AP.
Every item stream the stream rules accept, and every tree merge, must keep
the macro contract.
Every edit of a compiled program must either be rejected by the loader
with a FormatError or run with at most a toolchain error.
"""

import copy
import functools
import json
import random
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from tapc import isa, sim
from tapc.errors import CapacityError, FormatError, TapcError
from tapc.model import (ACTIVATION_KINDS, FeatureMap, Layer, QuantSpec,
                        TernaryNetwork, TernaryWeights, make_synthetic_input,
                        make_synthetic_network, reference_inference)
from tapc.program import (OPT_LEVELS, ApGeometry, ApProgram, MacroItem, Tile,
                          macro_counts, merge_steps, schedule, stream_macros)
from tapc.scheduler import emit_program

# --- networks against the host reference ------------------------------------

quants = st.builds(QuantSpec, st.integers(1, 8), st.integers(1, 3),
                   st.integers(0, 6), st.sampled_from(ACTIVATION_KINDS))

# small enough to force row groups (rows), channel groups (domains per
# track over activation bits) and output tiles (columns)
geometries = st.builds(ApGeometry, rows=st.sampled_from((4, 16, 64)),
                       columns=st.integers(12, 40),
                       domains_per_track=st.sampled_from((8, 12, 16, 24, 64)),
                       aps_per_tile=st.integers(1, 4),
                       tiles_per_bank=st.integers(1, 4),
                       banks=st.integers(1, 4))


@st.composite
def networks(draw):
    """A conv/pool/add stack of 1-4 layers and its input extents. The first
    layer's activation bits are the input's."""
    c = draw(st.integers(1, 4))
    layers = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("conv", "conv", "pool", "add")))
        quant = draw(quants)
        if kind == "conv":
            f = draw(st.sampled_from((1, 3)))
            c_out = draw(st.integers(1, 6))
            zero = draw(st.sampled_from((0.0, 0.5, 0.8)))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            weights = rng.choice([-1, 0, 1], size=(c_out, c, f, f),
                                 p=[(1 - zero) / 2, zero, (1 - zero) / 2])
            layers.append(Layer("conv", c, c_out, f, f, 1,
                                draw(st.integers(0, 1)), quant,
                                TernaryWeights(weights)))
            c = c_out
        elif kind == "pool":
            layers.append(Layer("pool", c, c, 2, 2, 2, 0, quant))
        else:
            layers.append(Layer("add", c, c, 1, 1, 1, 0, quant,
                                skip_from=draw(st.integers(-1, i - 1))))
    extents = st.sampled_from((2, 4, 6, 8)) | st.integers(1, 8)
    return TernaryNetwork("fuzz", layers), draw(extents), draw(extents)


@given(networks(), geometries, st.sampled_from(OPT_LEVELS), st.integers(0, 3))
def test_accepted_networks_simulate_bit_exactly(case, geometry, opt, seed):
    net, h, w = case
    try:
        prog = emit_program(net, h, w, geometry, opt)
    except (CapacityError, FormatError):
        return
    assert ApProgram.from_doc(json.loads(prog.dumps())) == prog
    ifm = make_synthetic_input(net, h, w, seed=seed)
    with mock.patch.object(sim, "run_macro", wraps=sim.run_macro) as run_macro:
        got = sim.run(prog, ifm).trace
    assert sim.first_divergence(got, reference_inference(net, ifm)) is None
    # a call runs its macro on every AP of its bundle
    assert sum(len(call.args[0]) for call in run_macro.call_args_list) == sum(
        sum(macro_counts(lp, schedule(lp.shape, lp.in_bits, geometry,
                                      len(lp.tiles))))
        for lp in prog.layers if lp.kind == "conv")


# --- decoded streams against the micro-op reference -------------------------

def item_macros(channels, tile: Tile, value0: int, in_bits: int):
    """Each item's macro and energy phase, read as `stream_items` documents:
    a slot as channel i's unsigned activation, the zero column as one
    unsigned bit, any other column signed at the width of its last write."""
    width_of = {}
    out = []
    for i, items in enumerate(channels):
        for op, m, a, b, dest in items:
            def read(col):
                if 0 <= col < value0:
                    return isa.OperandRef(col, i * in_bits, in_bits, False)
                if col == tile.zero:
                    return isa.OperandRef(col, 0, 1, False)
                return isa.OperandRef(col, 0, width_of[col], True)
            macro = isa.MacroInstr(
                op, isa.OUT_OF_PLACE if dest else isa.IN_PLACE, False, m,
                read(a), read(b), dest, 0, tile.carry, tile.zero)
            written = dest or (b,)
            width_of.update(dict.fromkeys(written, m))
            out.append((macro, "accum" if written[0] >= tile.acc0 else "dfg"))
    return out


def _table(catalog, macro):
    return catalog[macro.op_kind, macro.addressing, macro.negated]


def _bundle_outcome(geometry, aps, seed, execute):
    """Each AP's planes, alignment and write counts, and the counters,
    after `execute(state)` on APs whose planes and ports start random."""
    state = sim.SimState(geometry)
    rng = random.Random(seed)
    doms = geometry.domains_per_track
    for ap in aps:
        cam = state.ap(ap)
        cam.planes = [[rng.getrandbits(geometry.rows) for _ in range(doms)]
                      for _ in range(geometry.columns)]
        cam.align = {col: rng.randrange(doms)
                     for col in range(geometry.columns)}
    execute(state)
    return ([(cam.planes, cam.align, cam.writes)
             for cam in map(state.ap, aps)], state.events.bins)


@given(networks(), geometries, st.sampled_from(OPT_LEVELS),
       st.integers(0, 2**32))
def test_decoded_streams_match_the_micro_op_reference(catalog, case,
                                                      geometry, opt, seed):
    """Each conv stream's steps, run on the bundle of its row groups, leave
    every AP's planes, alignment and write counts, and every counter bin,
    as its items' macros run one by one through `isa.expand_macro` and
    `execute_micro_ops` on each AP. Each step is the one `isa.decode` makes
    of its item's macro."""
    net, h, w = case
    try:
        prog = emit_program(net, h, w, geometry, opt)
    except (CapacityError, FormatError):
        return
    for layer, lp in enumerate(prog.layers):
        if lp.kind != "conv":
            continue
        n_rg = len(schedule(lp.shape, lp.in_bits, geometry,
                            len(lp.tiles)).rows_used)
        aps = range(n_rg)
        for og, (tile, row) in enumerate(zip(lp.tiles, lp.streams)):
            for channels in row:
                value0 = lp.f_h * lp.f_w
                steps = stream_macros(channels, tile, value0, lp.in_bits,
                                      catalog)
                macros = item_macros(channels, tile, value0, lp.in_bits)
                assert steps == [isa.decode(macro, _table(catalog, macro),
                                            phase)
                                 for macro, phase in macros]

                def bundled(state):
                    for ap in aps:      # the load leaves the carry at 0
                        state.ap(ap).align[tile.carry] = 0
                    with sim.Bundle(state, aps, layer, 1) as bundle:
                        for step in steps:
                            sim.run_macro(bundle, step)

                def reference(state):
                    for ap in aps:
                        cam = state.ap(ap)
                        cam.align[tile.carry] = 0
                        for macro, phase in macros:
                            ops = isa.expand_macro(
                                macro, _table(catalog, macro),
                                dict(cam.align))
                            sim.execute_micro_ops(state, ap, ops, layer,
                                                  phase, 1)
                assert _bundle_outcome(geometry, aps, seed, bundled) == \
                    _bundle_outcome(geometry, aps, seed, reference)


@st.composite
def item_streams(draw):
    """A random item stream over a small tile, with its slot count and
    activation bits. Each item is drawn to keep the stream rules, and then
    one in ten has one field redrawn at random: a column of the tile or one
    past it on either side, or a width."""
    in_bits = draw(st.integers(1, 4))
    value0 = draw(st.integers(1, 3))
    tile = Tile(0, draw(st.integers(1, 3)), draw(st.integers(-40, 0)),
                draw(st.integers(0, 40)), value0 + draw(st.integers(0, 3)))
    any_col = st.integers(-1, tile.columns_used)
    writable = range(value0, tile.carry)
    width_of = {}
    channels = []
    for _ in range(draw(st.integers(1, 3))):
        items = []
        for _ in range(draw(st.integers(0, 5))):
            readable = st.sampled_from([*range(value0), tile.zero,
                                        *sorted(width_of)])
            a = draw(readable)
            in_place = [col for col in width_of if col != a]
            if in_place and draw(st.booleans()):
                b = draw(st.sampled_from(sorted(in_place)))
                m, dest = width_of[b], ()
            else:
                b = draw(readable)
                # with no other column to write, the carry breaks a rule
                dest = tuple(draw(st.lists(st.sampled_from(
                    [col for col in writable if col not in (a, b)]
                    or [tile.carry]), min_size=1, max_size=2, unique=True)))
                m = tile.acc_width if max(dest) >= tile.acc0 else \
                    draw(st.integers(1, 8))
            item = [draw(st.sampled_from((isa.ADD, isa.SUB))), m, a, b, dest]
            if draw(st.integers(0, 9)) == 0:
                field = draw(st.integers(1, 4))
                item[field] = draw(st.integers(1, 8)) if field == 1 else \
                    tuple(draw(st.lists(any_col, max_size=2))) \
                    if field == 4 else draw(any_col)
            width_of.update(dict.fromkeys(item[4] or item[3:4], item[1]))
            items.append(MacroItem(*item))
        channels.append(items)
    if draw(st.booleans()):     # write every accumulator last
        channels[-1] += [MacroItem(isa.ADD, tile.acc_width, 0, tile.zero,
                                   (col,))
                         for col in range(tile.acc0, tile.carry)]
    return channels, tile, value0, in_bits


@given(item_streams())
def test_the_stream_rules_imply_the_macro_contract(catalog, case):
    """Every item of a stream that `stream_macros` accepts keeps the macro
    contract (`isa.result_columns`), and its step is the one `isa.decode`
    makes of its macro: why the stream path skips the contract check."""
    channels, tile, value0, in_bits = case
    try:
        steps = stream_macros(channels, tile, value0, in_bits, catalog)
    except FormatError:
        return
    macros = item_macros(channels, tile, value0, in_bits)
    for (macro, phase), step in zip(macros, steps, strict=True):
        isa.result_columns(macro, _table(catalog, macro), {})
        assert isa.decode(macro, _table(catalog, macro), phase) == step


tiles = st.builds(Tile, st.just(0), st.integers(1, 6), st.integers(-300, 0),
                  st.integers(0, 300), st.integers(1, 20))


@given(tiles)
def test_merge_steps_are_the_reference_adds(catalog, tile):
    """Each step of a tree merge is the one `isa.decode` makes of the
    in-place add of the scratch column into an accumulator, both signed at
    the accumulator width, which also passes the macro contract."""
    w = tile.acc_width
    scratch = isa.OperandRef(tile.scratch, 0, w, True)
    want = [isa.decode(isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, w,
                                      scratch, isa.OperandRef(acc, 0, w, True),
                                      (), 0, tile.carry, tile.zero),
                       catalog[isa.ADD, isa.IN_PLACE, False], "accum")
            for acc in range(tile.acc0, tile.carry)]
    assert merge_steps(tile, catalog) == want


# --- edited programs against the loader -------------------------------------

@functools.cache
def golden_program() -> str:
    """program.json of `tapc compile --synthetic 2x10x0.8 --bits 8
    --input-hw 6x6 --rows 32 --cols 24 --seed 1`: partial row groups, two
    output tiles and an adder tree with moves."""
    net = make_synthetic_network(2, 10, 0.8, bits=8, seed=1)
    return emit_program(net, 6, 6, ApGeometry(rows=32, columns=24)).dumps()


@st.composite
def paths(draw) -> list:
    """Keys from the document root to one of its values. The walk stops at
    each level below the root with probability 1/8, so it reaches header
    fields and fields of stream items alike."""
    node = json.loads(golden_program())
    path = []
    while isinstance(node, (dict, list)) and node and \
            (not path or draw(st.integers(0, 7))):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        node = node[key]
    return path


VALUES = (-1, 0, 1, 2, 3, 7, 64, 1000, "add", "move", "in_place", "conv", "",
          None, [], {}, [0])
ACTIONS = ("set", "add", "delete", "str", "float", "bool", "wrap")


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def mutate(doc, path, action, value):
    """Set, delete or retype the value at `path`, or add `value` to an int
    there (set it otherwise), unless an earlier edit removed the way."""
    parent = doc
    for key in path[:-1]:
        if not _has(parent, key):
            return
        parent = parent[key]
    last = path[-1]
    if not _has(parent, last):
        return
    old = parent[last]
    if action == "delete":
        del parent[last]
    elif action == "add" and type(old) is type(value) is int:
        parent[last] = old + value
    elif action in ("set", "add"):
        parent[last] = copy.deepcopy(value)
    elif action == "str":
        parent[last] = str(old)
    elif action == "float":
        parent[last] = float(old) if type(old) is int else 0.5
    elif action == "bool":
        parent[last] = bool(old)
    else:
        parent[last] = [old]


@given(st.lists(st.tuples(paths(), st.sampled_from(ACTIONS),
                          st.sampled_from(VALUES)), min_size=1, max_size=3))
def test_edited_programs_are_rejected_or_run(edits):
    doc = json.loads(golden_program())
    for edit in edits:
        mutate(doc, *edit)
    try:
        prog = ApProgram.from_doc(doc)
    except FormatError:
        return
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << prog.in_bits,
                        size=(prog.in_c, prog.in_h, prog.in_w))
    try:
        sim.run(prog, FeatureMap(data, prog.in_bits))
    except TapcError:
        pass

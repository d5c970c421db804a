"""Differential fuzzing of compiler and simulator, and mutation fuzzing of the
program loader.

Every network the compiler accepts must simulate bit-exactly against the
host reference, run exactly the macros `macro_counts` counts, and its
program must come back unchanged through program.json. Each of its conv
streams, decoded into steps and charged once for its bundle of row groups,
must run on each AP as its items' macros run one by one through the
micro-op reference.
Every item stream the stream rules accept, and every tree merge, must keep
the macro contract. What a run charges must follow from its program alone,
but for the bits of its tagged writes: the derivation run alone makes every
other counter of the run, and two inputs change only those bits.
Every edit of a compiled program must either be rejected by the loader
with a FormatError or run with at most a toolchain error.
"""

import contextlib
import copy
import functools
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import decode, run_steps, steps_equal, stream_items, stream_of
from tapc import cli, isa, sim
from tapc.errors import CapacityError, FormatError, TapcError
from tapc.model import (ACTIVATION_KINDS, FeatureMap, Layer, QuantSpec,
                        TernaryNetwork, TernaryWeights, make_synthetic_input,
                        make_synthetic_network, reference_inference)
from tapc.program import (OPT_LEVELS, ApGeometry, ApProgram, Tile,
                          macro_counts, merge_steps, schedule, stream_steps)
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
    text = prog.dumps()
    assert ApProgram.from_doc(json.loads(text)).dumps() == text
    ifm = make_synthetic_input(net, h, w, seed=seed)
    with mock.patch.object(sim, "run_macro", wraps=sim.run_macro) as run_macro:
        got = sim.run(prog, ifm).trace
    assert sim.first_divergence(got, reference_inference(net, ifm)) is None
    # a call runs one macro on one AP
    assert run_macro.call_count == sum(
        sum(macro_counts(lp, schedule(lp.shape, lp.in_bits, geometry,
                                      len(lp.tiles))))
        for lp in prog.layers if lp.kind == "conv")


# --- decoded streams against the micro-op reference -------------------------

def item_macros(channels, tile: Tile, value0: int, in_bits: int):
    """Each item's macro and energy phase, read as `stream_steps` documents:
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
        state.ports(ap)[0].update({col: rng.randrange(doms)
                                   for col in range(geometry.columns)})
    execute(state)
    return ([(state.ap(ap).planes, state.align[ap], state.writes[ap])
             for ap in aps], state.events.bins)


@given(networks(), geometries, st.sampled_from(OPT_LEVELS),
       st.integers(0, 2**32))
def test_decoded_streams_match_the_micro_op_reference(catalog, case,
                                                      geometry, opt, seed):
    """Each conv stream's steps, charged once for the bundle of its row
    groups and run on each of its APs, leave every AP's planes, alignment
    and write counts, and every counter bin, as its items' macros run one
    by one through `isa.expand_macro` and `execute_micro_ops` on each AP.
    Each step is the row `conftest.decode` makes of its item's macro."""
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
            for stream in row:
                value0 = lp.f_h * lp.f_w
                steps = stream_steps(stream, tile, value0, lp.in_bits)
                macros = item_macros(stream_items(stream), tile, value0,
                                     lp.in_bits)
                assert steps_equal(steps, decode(
                    [(macro, _table(catalog, macro), phase)
                     for macro, phase in macros]))

                def bundled(state):
                    for ap in aps:  # the load leaves carry and zero at 0
                        state.align[ap].update({tile.carry: 0, tile.zero: 0})
                    run_steps(state, aps, steps, layer, 1)

                def reference(state):
                    for ap in aps:
                        align = state.align[ap]
                        align.update({tile.carry: 0, tile.zero: 0})
                        for macro, phase in macros:
                            ops = isa.expand_macro(
                                macro, _table(catalog, macro), dict(align))
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
            items.append(tuple(item))
        channels.append(items)
    if draw(st.booleans()):     # write every accumulator last
        channels[-1] += [(isa.ADD, tile.acc_width, 0, tile.zero, (col,))
                         for col in range(tile.acc0, tile.carry)]
    return channels, tile, value0, in_bits


@given(item_streams())
def test_the_stream_rules_imply_the_macro_contract(catalog, case):
    """Every item of a stream that `stream_steps` accepts keeps the macro
    contract (`isa.result_columns`), and its step is the row
    `conftest.decode` makes of its macro: why the stream path skips the
    contract check."""
    channels, tile, value0, in_bits = case
    try:
        steps = stream_steps(stream_of(channels), tile, value0, in_bits)
    except FormatError:
        return
    macros = item_macros(channels, tile, value0, in_bits)
    for macro, _phase in macros:
        isa.result_columns(macro, _table(catalog, macro), {})
    assert steps_equal(steps, decode([(macro, _table(catalog, macro), phase)
                                      for macro, phase in macros]))


tiles = st.builds(Tile, st.just(0), st.integers(1, 6), st.integers(-300, 0),
                  st.integers(0, 300), st.integers(1, 20))


@given(tiles)
def test_merge_steps_are_the_reference_adds(catalog, tile):
    """Each step of a tree merge is the row `conftest.decode` makes of the
    in-place add of the scratch column into an accumulator, both signed at
    the accumulator width, which also passes the macro contract."""
    w = tile.acc_width
    scratch = isa.OperandRef(tile.scratch, 0, w, True)
    want = decode([(isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, w, scratch,
                                   isa.OperandRef(acc, 0, w, True), (), 0,
                                   tile.carry, tile.zero),
                    catalog[isa.ADD, isa.IN_PLACE, False], "accum")
                   for acc in range(tile.acc0, tile.carry)])
    assert steps_equal(merge_steps(tile), want)


@given(networks(), geometries)
def test_compiled_tables_read_the_zero_column_as_one_bit_at_domain_0(
        case, geometry):
    """Every stream and merge table of a compiled program, at both opt
    levels, reads the zero column only as one unsigned bit at domain 0 and
    never walks its port past domain 0: what lets an unsigned operand read
    past its width from the one plane at the zero column's domain 0."""
    net, h, w = case
    for opt in OPT_LEVELS:
        try:
            prog = emit_program(net, h, w, geometry, opt)
        except (CapacityError, FormatError):
            continue
        for lp in prog.layers:
            if lp.kind != "conv":
                continue
            for tile, row in zip(lp.tiles, lp.streams):
                for steps in [merge_steps(tile)] + [
                        stream_steps(stream, tile, lp.f_h * lp.f_w,
                                     lp.in_bits) for stream in row]:
                    assert steps.zero == tile.zero
                    for col, base, width, signed in (steps.a, steps.b):
                        on = col == tile.zero
                        assert (base[on] == 0).all() and \
                            (width[on] == 1).all() and not signed[on].any()
                    (_item, col, first, last), reads, _port = steps.ports()
                    on = col == tile.zero
                    assert (first[on] == 0).all() and (last[on] == 0).all()
                    for _col, _base, n, fill, dom in reads:
                        past = n < steps.m
                        assert (dom[past & (fill == tile.zero)] == 0).all()


# --- what a run charges follows from its program ----------------------------

# the benchmark ladder's networks: layers, channels, sparsity, activation
# bits, input extent and columns, compiled at seed 0
LADDER = {"sim-dense": (4, 32, 0.85, 4, 16, 256),
          "compile-wide": (4, 64, 0.7, 4, 16, 96),
          "sim-tiled": (3, 16, 0.85, 8, 24, 256)}


def _ladder_program(name):
    layers, channels, sparsity, bits, hw, columns = LADDER[name]
    net = make_synthetic_network(layers, channels, sparsity, bits=bits,
                                 seed=0)
    return net, emit_program(net, hw, hw, ApGeometry(columns=columns),
                             "unroll_cse")


def assert_derived(prog, ifm, counter_log):
    """`sim.derive` alone makes the bins of the run's counters, in the same
    order, and each holds the same sums, but for the write bits and sizes
    of the tagged rows. Those are exactly what the executor added, in the
    run's only counter updates that count no events, and are >= 0. The
    wear, alignment and APs used are the run's too."""
    with counter_log() as calls:
        result = sim.run(prog, ifm)
    charges = sim.derive(prog)
    tagged = {}
    for key, n, bits, steps, cycles, size in calls:
        if n == 0:
            assert key[4] == sim.WRITE and bits == size >= 0
            assert steps == cycles == 0
            tagged[key] = tagged.get(key, 0) + bits
    derived = charges.events.bins
    assert list(result.events.bins) == list(derived)
    for key, (n, bits, steps, cycles, size) in derived.items():
        more = tagged.pop(key, 0)
        assert result.events.bins[key] == [n, bits + more, steps, cycles,
                                           size + more]
    assert tagged == {}
    assert charges.writes == result.state.writes
    assert charges.align == result.state.align
    assert charges.arrays_used == len(result.state.aps)


@given(networks(), geometries, st.sampled_from(OPT_LEVELS), st.integers(0, 3))
def test_the_derivation_alone_makes_the_runs_counters(counter_log, case,
                                                      geometry, opt, seed):
    net, h, w = case
    try:
        prog = emit_program(net, h, w, geometry, opt)
    except (CapacityError, FormatError):
        return
    assert_derived(prog, make_synthetic_input(net, h, w, seed=seed),
                   counter_log)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_the_derivation_alone_makes_a_ladder_runs_counters(counter_log,
                                                           name):
    net, prog = _ladder_program(name)
    hw = LADDER[name][4]
    assert_derived(prog, make_synthetic_input(net, hw, hw, seed=0),
                   counter_log)


def _replay(prog, seed):
    """events.csv rows, split, and stats.json of `tapc run --program` of
    `prog` on the random input of `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.json"
        prog.save(path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--program", str(path), "--seed",
                             str(seed), "--out-dir", tmp]) == 0
        rows = [row.split(",") for row in
                (Path(tmp) / "events.csv").read_text().splitlines()]
        return rows, json.loads((Path(tmp) / "stats.json").read_text())


def assert_input_independent(prog):
    """Two replays of one program on other inputs write the same events.csv
    but for the bits and size of its write rows, and the same cycles,
    hottest column, APs used and search, shift and move energies."""
    (rows1, stats1), (rows2, stats2) = _replay(prog, 1), _replay(prog, 2)
    header = rows1[0]
    data = [i for i, name in enumerate(header) if name in ("bits", "size")]
    assert len(rows1) == len(rows2)
    for row1, row2 in zip(rows1, rows2):
        if row1[0] == "write":
            for i in data:
                row1[i] = row2[i] = "tagged"
        assert row1 == row2
    for field in ("total_cycles", "max_col_writes", "arrays_used"):
        assert stats1[field] == stats2[field]
    for one, two in [(stats1, stats2)] + list(zip(stats1["layers"],
                                                  stats2["layers"])):
        for kind in ("search", "shift", "move"):
            assert one["energy_pj"][kind] == two["energy_pj"][kind]


def test_replays_on_other_inputs_differ_only_in_tagged_write_bits():
    assert_input_independent(_ladder_program("sim-tiled")[1])


@settings(max_examples=10)
@given(networks(), geometries, st.sampled_from(OPT_LEVELS))
def test_fuzzed_replays_differ_only_in_tagged_write_bits(case, geometry,
                                                         opt):
    net, h, w = case
    try:
        prog = emit_program(net, h, w, geometry, opt)
    except (CapacityError, FormatError):
        return
    assert_input_independent(prog)


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

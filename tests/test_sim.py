"""Functional simulation: array state, macros, the event log, and whole
programs."""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tapc import isa, sim
from tapc.errors import FormatError, SimulationError, TapcError
from tapc.model import (FeatureMap, Layer, QuantSpec, TernaryNetwork,
                        TernaryWeights, make_synthetic_input,
                        make_synthetic_network, reference_inference)
from tapc.scheduler import ApGeometry, ApProgram, emit_program

GEO = ApGeometry(rows=64, columns=16, domains_per_track=64)


def conv_layer(c_in, c_out, f, stride, pad, bits, seed, shift=3):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1, 0, 1], size=(c_out, c_in, f, f), p=[0.25, 0.5, 0.25])
    return Layer("conv", c_in, c_out, f, f, stride, pad,
                 QuantSpec(bits, 1, shift, "relu_clamp"), TernaryWeights(w))


def check_net(net, h, w, geometry=None, opts=("unroll_cse",), seed=0):
    geometry = geometry or ApGeometry()
    ifm = make_synthetic_input(net, h, w, seed=seed)
    want = reference_inference(net, ifm)
    result = None
    for opt in opts:
        prog = emit_program(net, h, w, geometry, opt)
        result = sim.run(prog, ifm)
        assert sim.first_divergence(result.trace, want) is None, opt
    return result


# --- array state ----------------------------------------------------------

def test_poke_peek_round_trip():
    cam = sim.SimState(GEO).ap(0)
    vals = np.arange(-32, 32)
    cam.poke(2, 4, 6, vals, 64)
    assert np.array_equal(cam.peek(2, 4, 6, 64, signed=True), vals)
    unsigned = np.arange(64)
    cam.poke(3, 0, 6, unsigned, 64)
    assert np.array_equal(cam.peek(3, 0, 6, 64, signed=False), unsigned)


def test_poke_peek_on_rows_not_a_multiple_of_eight():
    cam = sim.SimState(ApGeometry(rows=100, columns=4, domains_per_track=8)).ap(0)
    vals = np.arange(100) % 17 - 8
    cam.poke(1, 3, 5, vals, 100)
    assert np.array_equal(cam.peek(1, 3, 5, 100, signed=True), vals)
    assert np.array_equal(cam.visible(1), np.zeros(100))    # domain 0 unset
    cam.poke(2, 0, 1, np.ones(100, dtype=np.int64), 100)
    assert np.array_equal(cam.visible(2), np.ones(100))


def test_partial_row_load_keeps_the_rows_above():
    cam = sim.SimState(ApGeometry(rows=100, columns=4, domains_per_track=8)).ap(0)
    old = np.arange(100) % 31
    cam.poke(0, 2, 5, old, 100)
    cam.poke(0, 2, 5, np.full(37, 7), 37)
    got = cam.peek(0, 2, 5, 100, signed=False)
    assert np.array_equal(got[:37], np.full(37, 7))
    assert np.array_equal(got[37:], old[37:])


def test_search_then_write_touches_only_tagged_rows():
    st = sim.SimState(GEO)
    cam = st.ap(0)
    pattern = np.tile([0, 1], 32)
    cam.poke(0, 0, 1, pattern, 64)
    sim.execute_micro_ops(st, 0, [
        isa.MicroOp("search", cols=(0,), key=(1,)),
        isa.MicroOp("write", cols=(1,), bits=(1,)),
    ])
    assert np.array_equal(cam.visible(1), pattern)
    assert cam.writes[1] == 1
    search, write = st.events
    assert (search.kind, write.kind) == ("search", "write")
    assert search.bits == 64                # one column, every row sensed
    assert write.bits == 32                 # only the tagged half written


def test_unknown_micro_op_kind_is_rejected():
    st = sim.SimState(GEO)
    with pytest.raises(SimulationError):
        sim.execute_micro_ops(st, 0, [isa.MicroOp("teleport")])


@pytest.mark.parametrize("op", [
    isa.MicroOp("shift", col=0, target=64, steps=64),
    isa.MicroOp("shift", col=0, target=-1, steps=1),
    isa.MicroOp("search", cols=(16,), key=(1,)),
    isa.MicroOp("write", cols=(16,), bits=(1,)),
    isa.MicroOp("clear", cols=(16,), bits=(0,)),
    isa.MicroOp("search", cols=(-1,), key=(1,)),
    isa.MicroOp("search", cols=(2, -16), key=(1, 0)),
    isa.MicroOp("write", cols=(-1,), bits=(1,)),
    isa.MicroOp("clear", cols=(-1,), bits=(0,)),
], ids=["shift-past-track", "shift-below-track", "search-past-columns",
        "write-past-columns", "clear-past-columns", "search-column-minus-1",
        "search-column-minus-16", "write-column-minus-1",
        "clear-column-minus-1"])
def test_micro_ops_past_the_geometry_are_rejected(op):
    st = sim.SimState(GEO)
    with pytest.raises(SimulationError):
        sim.execute_micro_ops(st, 0, [op])


# --- macro execution ------------------------------------------------------

def make_in_place_add(m):
    a = isa.OperandRef(0, 0, m, True)
    b = isa.OperandRef(1, 0, m, True)
    return isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, m, a, b, (), 0, 3, 4)


def test_negated_out_of_place_macros(pair_harness):
    rng = np.random.default_rng(0)
    a = rng.integers(-8, 8, size=300)
    b = rng.integers(-8, 8, size=300)
    got = pair_harness(isa.SUB, isa.OUT_OF_PLACE, a, b, 4, negated=True)
    assert np.array_equal(got, a - b)       # exact negation of b - a
    got = pair_harness(isa.ADD, isa.OUT_OF_PLACE, a, b, 4, negated=True)
    assert np.array_equal(got, -(a + b) - 1)    # complement; +1 is the consumer's


def test_alignment_persists_between_macros(catalog):
    st = sim.SimState(GEO)
    cam = st.ap(0)
    table = catalog[(isa.ADD, isa.IN_PLACE, False)]
    sim.run_macro(st, 0, make_in_place_add(4), table)
    assert cam.align[0] == 3 and cam.align[1] == 3
    # the second macro plans against live alignment: both operand columns
    # must first walk back down to bit 0
    ops = isa.expand_macro(make_in_place_add(4), table, dict(cam.align))
    first_shifts = [op for op in ops if op.kind == "shift"][:2]
    assert sorted(op.col for op in first_shifts) == [0, 1]
    assert all(op.target == 0 and op.steps == 3 for op in first_shifts)
    logged = len(st.events)
    sim.run_macro(st, 0, make_in_place_add(4), table)
    shifts = [e for e in list(st.events)[logged:] if e.kind == "shift"][:2]
    assert [e.steps for e in shifts] == [3, 3]


def test_carry_column_must_sit_at_domain_zero(catalog):
    st = sim.SimState(GEO)
    sim.execute_micro_ops(st, 0, [isa.MicroOp("shift", col=3, target=2, steps=2)])
    with pytest.raises(FormatError):
        sim.run_macro(st, 0, make_in_place_add(4),
                      catalog[(isa.ADD, isa.IN_PLACE, False)])


def test_macro_left_at_the_default_carry_column_is_rejected(catalog):
    table = catalog[(isa.ADD, isa.IN_PLACE, False)]
    a = isa.OperandRef(0, 0, 4, True)
    b = isa.OperandRef(1, 0, 4, True)
    macro = isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, 4, a, b)
    assert macro.carry_col == macro.zero_col == -1
    state = sim.SimState(GEO)
    cam = state.ap(0)
    for col in range(GEO.columns):
        cam.poke(col, 0, 4, np.arange(64) % 16, 64)
    planes = copy.deepcopy(cam.planes)
    with pytest.raises(SimulationError):
        sim.run_macro(state, 0, macro, table)
    # checked before anything runs: the last columns keep their contents
    assert cam.planes == planes
    assert cam.writes == [0] * GEO.columns and len(state.events) == 0
    with pytest.raises(SimulationError):
        sim.execute_micro_ops(state, 0, isa.expand_macro(macro, table, {}))


# --- run_macro against the micro-op reference -----------------------------

DIFF_COLUMNS, DIFF_DOMAINS = 10, 12
TABLE_KEYS = [(op, mode, False) for op in (isa.ADD, isa.SUB)
              for mode in (isa.IN_PLACE, isa.OUT_OF_PLACE)] + \
    [(op, isa.OUT_OF_PLACE, True) for op in (isa.ADD, isa.SUB)]
# contract errors, each raised by both executors
FAULTS = ("other-table", "carry-shifted", "carry-default", "zero-default",
          "column-past-end", "column-minus-1", "domain-past-track",
          "bad-result")


@st.composite
def macro_cases(draw):
    """A macro over any catalog table, the AP's starting alignment and plane
    contents, and possibly one contract error."""
    rows = draw(st.integers(1, 70))
    key = draw(st.sampled_from(TABLE_KEYS))
    op, mode, negated = key
    m = draw(st.integers(1, 8))
    n_dest = draw(st.integers(1, 3)) if mode == isa.OUT_OF_PLACE else 0
    # roles may share a column; the executors must still agree
    roles = draw(st.lists(st.integers(0, DIFF_COLUMNS - 1),
                          min_size=4 + n_dest, max_size=4 + n_dest,
                          unique=draw(st.booleans())))
    carry, zero, a_col, b_col, *dests = roles

    def operand(col, width):
        return isa.OperandRef(col, draw(st.integers(0, DIFF_DOMAINS - width)),
                              width, draw(st.booleans()))
    a = operand(a_col, draw(st.integers(1, m)))
    b = operand(b_col, m if mode == isa.IN_PLACE else draw(st.integers(1, m)))
    macro = isa.MacroInstr(op, mode, negated, m, a, b, tuple(dests),
                           draw(st.integers(0, DIFF_DOMAINS - m)), carry, zero)
    align = draw(st.dictionaries(st.integers(0, DIFF_COLUMNS - 1),
                                 st.integers(0, DIFF_DOMAINS - 1)))
    align.pop(carry, None)
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    if fault == "other-table":
        key = draw(st.sampled_from([k for k in TABLE_KEYS if k != key]))
    elif fault == "carry-shifted":
        align[carry] = draw(st.integers(1, DIFF_DOMAINS - 1))
    elif fault == "carry-default":
        macro.carry_col = -1
    elif fault == "zero-default":     # an error only where it is read
        macro.zero_col = -1
    elif fault in ("column-past-end", "column-minus-1"):
        bad = DIFF_COLUMNS if fault == "column-past-end" else -1
        role = draw(st.sampled_from(("a", "b", "carry", "dest")))
        if role == "dest" and dests:
            macro.dest_cols = (bad,) + macro.dest_cols[1:]
        elif role == "carry":
            macro.carry_col = bad
        else:
            ref = a if role == "a" else b
            ref.col = bad
    elif fault == "domain-past-track":
        a.base = DIFF_DOMAINS - a.width + 1
    elif fault == "bad-result":
        if mode == isa.IN_PLACE:
            b.width = m + 1
        else:
            macro.dest_cols = ()
    return rows, key, macro, align, draw(st.integers(0, 2**32))


def _macro_outcome(rows, align, seed, execute):
    state = sim.SimState(ApGeometry(rows=rows, columns=DIFF_COLUMNS,
                                    domains_per_track=DIFF_DOMAINS))
    cam = state.ap(0)
    rng = random.Random(seed)
    cam.planes = [[rng.getrandbits(rows) for _ in range(DIFF_DOMAINS)]
                  for _ in range(DIFF_COLUMNS)]
    cam.align = dict(align)
    cam.tag = rng.getrandbits(rows)
    try:
        execute(state, cam)
    except TapcError as exc:
        return type(exc)
    return cam.planes, cam.align, cam.writes, cam.tag, list(state.events)


@given(macro_cases())
def test_run_macro_matches_the_micro_op_reference(catalog, case):
    rows, key, macro, align, seed = case
    table = catalog[key]

    def direct(state, cam):
        sim.run_macro(state, 0, macro, table, 2, "accum", 5)

    def reference(state, cam):
        ops = isa.expand_macro(macro, table, dict(cam.align))
        sim.execute_micro_ops(state, 0, ops, 2, "accum", 5)

    got = _macro_outcome(rows, align, seed, direct)
    want = _macro_outcome(rows, align, seed, reference)
    assert got == want


# --- the event log --------------------------------------------------------

def _logged(places):
    """An event log holding one search per entry, at the given places, with
    the entry's position as its bits."""
    log = sim.EventLog()
    for i, place in enumerate(places):
        log.at(*place).extend((sim.SEARCH, i, 0, 1))
    return log


def test_event_log_length_indexing_and_iteration():
    places = [(0, 0, "io", 0), (0, 0, "io", 0), (1, 0, "io", 0),
              (1, 0, "dfg", 1), (1, 0, "dfg", 1), (0, 1, "accum", 2)]
    log = _logged(places)
    log.at(3, 1, "io", 3)              # a place with no event yet
    want = [sim.Event("search", ap, layer, phase, epoch, i, 0, 1)
            for i, (ap, layer, phase, epoch) in enumerate(places)]
    assert len(log) == 6
    assert list(log) == want
    assert len(sim.EventLog()) == 0 and list(sim.EventLog()) == []


def test_export_events_matches_the_per_event_formatter():
    net = make_synthetic_network(2, 4, 0.7, bits=4, in_channels=2, seed=22)
    events = sim.run(emit_program(net, 6, 6, ApGeometry()),
                     make_synthetic_input(net, 6, 6, seed=1)).events
    assert len({place[3] for place in events.places}) > 2
    want = "".join([sim.EXPORT_HEADER + "\n"] + [
        f"{e.kind},{e.ap},{e.bits},{e.steps},{e.epoch}\n" for e in events])
    assert sim.export_events(events) == want
    assert sim.export_events(sim.EventLog()) == sim.EXPORT_HEADER + "\n"


# --- whole programs against the host reference ----------------------------

def test_single_conv_layer_both_opt_levels():
    net = make_synthetic_network(1, 6, 0.7, bits=4, in_channels=3, seed=3)
    check_net(net, 8, 8, opts=("unroll", "unroll_cse"))


def test_strided_conv():
    net = TernaryNetwork("s2", [conv_layer(2, 3, 3, 2, 1, 4, seed=11)])
    check_net(net, 9, 9)


def test_one_by_one_kernels_alias_inputs():
    net = TernaryNetwork("k1", [conv_layer(3, 4, 1, 1, 0, 4, seed=12, shift=1)])
    check_net(net, 5, 5)


def test_conv_pool_conv_stack():
    net = TernaryNetwork("pool", [
        conv_layer(2, 4, 3, 1, 1, 4, seed=13),
        Layer("pool", 4, 4, 2, 2, 2, 0, QuantSpec(4)),
        conv_layer(4, 3, 3, 1, 1, 4, seed=14),
    ])
    check_net(net, 8, 8)


def test_residual_add_requantizes_the_sum():
    net = TernaryNetwork("res", [
        conv_layer(3, 3, 3, 1, 1, 4, seed=15),
        conv_layer(3, 3, 3, 1, 1, 4, seed=16),
        Layer("add", 3, 3, 1, 1, 1, 0, QuantSpec(4, 1, 1)),
    ])
    result = check_net(net, 6, 6)
    assert len(result.trace) == 3


def test_channel_groups_spread_over_aps_and_merge():
    # 16 input channels at 8 bits only stack 8 per nanowire: two channel
    # groups, one tree level, distinct APs touched
    net = TernaryNetwork("cg", [conv_layer(16, 2, 3, 1, 1, 8, seed=17, shift=6)])
    result = check_net(net, 4, 4)
    assert len(result.state.aps) == 2
    assert any(e.kind == "move" for e in result.events)


def test_row_groups_split_positions():
    net = TernaryNetwork("rg", [conv_layer(2, 2, 3, 1, 1, 4, seed=18)])
    geo = ApGeometry(rows=16, columns=48)
    result = check_net(net, 8, 8, geometry=geo)    # 64 positions -> 4 groups
    assert len(result.state.aps) == 4


def test_output_tiles_on_narrow_columns():
    net = TernaryNetwork("ot", [conv_layer(2, 6, 3, 1, 1, 4, seed=19)])
    geo = ApGeometry(columns=20)
    prog = emit_program(net, 6, 6, geo)
    assert len(prog.layers[0].tiles) > 1
    check_net(net, 6, 6, geometry=geo)


def test_ap_reuse_across_layers_is_clean():
    # consecutive conv layers land on the same AP ids; stale accumulators,
    # garbage rows and parked alignments must all be neutralized
    net = make_synthetic_network(3, 4, 0.7, bits=4, in_channels=2, seed=20)
    check_net(net, 6, 6, opts=("unroll", "unroll_cse"))


def test_run_validates_input_shape_and_bits():
    net = make_synthetic_network(1, 4, 0.7, bits=4, in_channels=2, seed=21)
    prog = emit_program(net, 8, 8, ApGeometry())
    with pytest.raises(FormatError):
        sim.run(prog, FeatureMap(np.zeros((2, 8, 8), dtype=np.int64), 8))
    with pytest.raises(FormatError):
        sim.run(prog, FeatureMap(np.zeros((2, 6, 6), dtype=np.int64), 4))


def test_missing_lut_table_is_a_format_error():
    net = make_synthetic_network(1, 4, 0.7, bits=4, in_channels=2, seed=21)
    prog = emit_program(net, 8, 8, ApGeometry())
    doc = json.loads(prog.dumps())
    doc["luts"] = []
    with pytest.raises(FormatError):
        ApProgram.from_doc(doc)


def test_simulation_is_deterministic():
    net = make_synthetic_network(2, 4, 0.7, bits=4, in_channels=2, seed=22)
    ifm = make_synthetic_input(net, 6, 6, seed=1)
    prog = emit_program(net, 6, 6, ApGeometry())
    r1 = sim.run(prog, ifm)
    r2 = sim.run(prog, ifm)
    assert sim.export_events(r1.events) == sim.export_events(r2.events)
    assert sim.first_divergence(r1.trace, r2.trace) is None
    assert r1.state.col_write_max() > 0


# --- diagnostics ----------------------------------------------------------

def test_first_divergence_coordinates():
    a = FeatureMap(np.zeros((2, 3, 3), dtype=np.int64), 4)
    b = FeatureMap(np.zeros((2, 3, 3), dtype=np.int64), 4)
    tampered = FeatureMap(b.data.copy(), 4)
    tampered.data[1, 2, 1] = 5
    assert sim.first_divergence([a, b], [a, b]) is None
    assert sim.first_divergence([a, tampered], [a, b]) == (1, 1, 2, 1)
    assert sim.first_divergence([a], [a, b]) == (1, 0, 0, 0)
    small = FeatureMap(np.zeros((2, 2, 2), dtype=np.int64), 4)
    assert sim.first_divergence([small], [a]) == (0, 0, 0, 0)


def test_export_events_header_and_rows():
    st = sim.SimState(GEO)
    sim.execute_micro_ops(st, 0, [isa.MicroOp("search", cols=(0,), key=(0,))],
                          layer=2, phase="dfg", epoch=7)
    text = sim.export_events(st.events)
    lines = text.splitlines()
    assert lines[0] == sim.EXPORT_HEADER == "kind,ap,bits,steps,epoch"
    assert lines[1] == "search,0,64,0,7"

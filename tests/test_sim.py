"""Functional simulation: array state, macros, the event counters, and
whole programs."""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import decode, peek, poke, run_steps
from tapc import isa, sim
from tapc.errors import FormatError, SimulationError, TapcError
from tapc.model import (FeatureMap, Layer, QuantSpec, TernaryNetwork,
                        TernaryWeights, make_synthetic_input,
                        make_synthetic_network, reference_inference)
from tapc.program import Tile, merge_steps
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
    poke(cam, 2, 4, 6, vals, 64)
    assert np.array_equal(peek(cam, 2, 4, 6, 64, signed=True), vals)
    unsigned = np.arange(64)
    poke(cam, 3, 0, 6, unsigned, 64)
    assert np.array_equal(peek(cam, 3, 0, 6, 64, signed=False), unsigned)


def test_poke_peek_on_rows_not_a_multiple_of_eight():
    cam = sim.SimState(ApGeometry(rows=100, columns=4, domains_per_track=8)).ap(0)
    vals = np.arange(100) % 17 - 8
    poke(cam, 1, 3, 5, vals, 100)
    assert np.array_equal(peek(cam, 1, 3, 5, 100, signed=True), vals)
    assert np.array_equal(peek(cam, 1, 0, 1, 100, signed=False),
                          np.zeros(100))        # domain 0 unset
    poke(cam, 2, 0, 1, np.ones(100, dtype=np.int64), 100)
    assert np.array_equal(peek(cam, 2, 0, 1, 100, signed=False), np.ones(100))


def test_partial_row_load_keeps_the_rows_above():
    cam = sim.SimState(ApGeometry(rows=100, columns=4, domains_per_track=8)).ap(0)
    old = np.arange(100) % 31
    poke(cam, 0, 2, 5, old, 100)
    poke(cam, 0, 2, 5, np.full(37, 7), 37)
    got = peek(cam, 0, 2, 5, 100, signed=False)
    assert np.array_equal(got[:37], np.full(37, 7))
    assert np.array_equal(got[37:], old[37:])


def test_search_then_write_touches_only_tagged_rows():
    st = sim.SimState(GEO)
    cam = st.ap(0)
    pattern = np.tile([0, 1], 32)
    poke(cam, 0, 0, 1, pattern, 64)
    sim.execute_micro_ops(st, 0, [
        isa.MicroOp("search", cols=(0,), key=(1,)),
        isa.MicroOp("write", cols=(1,), bits=(1,)),
    ])
    assert np.array_equal(peek(cam, 1, 0, 1, 64, signed=False), pattern)
    assert st.writes[0][1] == 1
    assert st.events.bins == {
        # one column, every row sensed
        (0, 0, "dfg", 0, sim.SEARCH): [1, 64, 0, 1, 64],
        # only the tagged half written
        (0, 0, "dfg", 0, sim.WRITE): [1, 32, 0, 1, 32]}


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
    run_steps(st, [0], decode([(make_in_place_add(4), table, "dfg")]))
    assert st.align[0][0] == 3 and st.align[0][1] == 3
    # the second macro plans against live alignment: both operand columns
    # must first walk back down to bit 0
    ops = isa.expand_macro(make_in_place_add(4), table, dict(st.align[0]))
    first_shifts = [op for op in ops if op.kind == "shift"][:2]
    assert sorted(op.col for op in first_shifts) == [0, 1]
    assert all(op.target == 0 and op.steps == 3 for op in first_shifts)
    # the walk up from domain 0 is three one-step shifts a column; the
    # second macro adds a 3-step walk back down to each, in its own epoch
    run_steps(st, [0], decode([(make_in_place_add(4), table, "dfg")]),
              epoch=1)
    shifts = {epoch: st.events.bins[0, 0, "dfg", epoch, sim.SHIFT]
              for epoch in (0, 1)}
    assert shifts == {0: [6, 6 * 64, 6, 6, 6 * 64],
                      1: [8, 8 * 64, 12, 12, 12 * 64]}


def test_carry_column_must_sit_at_domain_zero(catalog):
    st = sim.SimState(GEO)
    sim.execute_micro_ops(st, 0, [isa.MicroOp("shift", col=3, target=2, steps=2)])
    with pytest.raises(FormatError):
        run_steps(st, [0], decode([(
            make_in_place_add(4), catalog[(isa.ADD, isa.IN_PLACE, False)],
            "dfg")]))


def test_macro_left_at_the_default_carry_column_is_rejected(catalog):
    table = catalog[(isa.ADD, isa.IN_PLACE, False)]
    a = isa.OperandRef(0, 0, 4, True)
    b = isa.OperandRef(1, 0, 4, True)
    macro = isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, 4, a, b)
    assert macro.carry_col == macro.zero_col == -1
    state = sim.SimState(GEO)
    cam = state.ap(0)
    for col in range(GEO.columns):
        poke(cam, col, 0, 4, np.arange(64) % 16, 64)
    planes = copy.deepcopy(cam.planes)
    with pytest.raises(SimulationError):
        run_steps(state, [0], decode([(macro, table, "dfg")]))
    # checked before anything runs: the last columns keep their contents
    assert cam.planes == planes
    assert state.writes[0] == [0] * GEO.columns and len(state.events) == 0
    with pytest.raises(SimulationError):
        sim.execute_micro_ops(state, 0, isa.expand_macro(macro, table, {}))


# --- run_macro against the micro-op reference -----------------------------

DIFF_COLUMNS, DIFF_DOMAINS = 10, 12
TABLE_KEYS = [(op, mode, False) for op in (isa.ADD, isa.SUB)
              for mode in (isa.IN_PLACE, isa.OUT_OF_PLACE)] + \
    [(op, isa.OUT_OF_PLACE, True) for op in (isa.ADD, isa.SUB)]
# contract errors, each raised by both executors, and the error they raise
FAULTS = {"other-table": FormatError, "carry-shifted": FormatError,
          "zero-shifted": FormatError,
          "carry-default": SimulationError, "zero-default": SimulationError,
          "column-past-end": SimulationError,
          "column-minus-1": SimulationError,
          "domain-past-track": SimulationError, "bad-result": FormatError,
          "aliased-roles": FormatError}


@st.composite
def contract_macros(draw, key, carry, zero, columns):
    """A macro over the table at `key` that keeps the macro contract: the
    given carry and zero columns, and a, b and the result columns on
    distinct `columns`, except where the contract lets two roles share one.
    It states only what a program can: its result starts at domain 0, and
    an operand on the zero column is one unsigned bit at domain 0."""
    op, mode, negated = key
    m = draw(st.integers(1, 8))
    n_dest = draw(st.integers(1, 3)) if mode == isa.OUT_OF_PLACE else 0
    a_col, b_col, *dests = draw(st.lists(st.sampled_from(columns),
                                         min_size=2 + n_dest,
                                         max_size=2 + n_dest, unique=True))

    def operand(col, width):
        # only the bits the macro reads need to lie on the track
        base = draw(st.integers(0, DIFF_DOMAINS - min(width, m)))
        return isa.OperandRef(col, base, width, draw(st.booleans()))
    # an operand may be stored wider than the macro reads it
    a = operand(a_col, draw(st.integers(1, m + 2)))
    if mode == isa.IN_PLACE:
        b = isa.OperandRef(b_col, 0, m, draw(st.booleans()))
    else:
        b = operand(b_col, draw(st.integers(1, m + 2)))
    # the columns the contract lets roles share: one operand as both a and
    # b, or an operand on the zero column
    share = draw(st.sampled_from(
        (None, "a-on-zero") if mode == isa.IN_PLACE
        else (None, "a-on-zero", "b-on-zero", "a-is-b")))
    if share == "a-is-b":
        b = a
    elif share == "a-on-zero":
        a = isa.OperandRef(zero, 0, 1, False)
    elif share == "b-on-zero":
        b = isa.OperandRef(zero, 0, 1, False)
    return isa.MacroInstr(op, mode, negated, m, a, b, tuple(dests), 0, carry,
                          zero)


@st.composite
def macro_cases(draw):
    """A macro over any catalog table, the AP's starting alignment and plane
    contents, and possibly one contract error, with the error type both
    executors must raise (None for a macro that runs)."""
    rows = draw(st.integers(1, 70))
    key = draw(st.sampled_from(TABLE_KEYS))
    mode = key[1]
    carry, zero = draw(st.lists(st.integers(0, DIFF_COLUMNS - 1),
                                min_size=2, max_size=2, unique=True))
    macro = draw(contract_macros(key, carry, zero, [
        col for col in range(DIFF_COLUMNS) if col not in (carry, zero)]))
    m, a, b, dests = macro.width, macro.a, macro.b, list(macro.dest_cols)
    n_dest = len(dests)
    align = draw(st.dictionaries(st.integers(0, DIFF_COLUMNS - 1),
                                 st.integers(0, DIFF_DOMAINS - 1)))
    align.pop(carry, None)      # the load leaves the carry and zero
    align.pop(zero, None)       # columns at domain 0
    fault = draw(st.sampled_from((None,) * len(FAULTS) + tuple(FAULTS)))
    if fault == "other-table":
        key = draw(st.sampled_from([k for k in TABLE_KEYS if k != key]))
    elif fault == "carry-shifted":
        align[carry] = draw(st.integers(1, DIFF_DOMAINS - 1))
    elif fault == "zero-shifted":     # an error only where read at its port
        align[zero] = draw(st.integers(1, DIFF_DOMAINS - 1))
        if not isa.reads_zero(macro) or zero in (a.col, b.col):
            fault = None
    elif fault == "carry-default":
        macro.carry_col = -1
    elif fault == "zero-default":     # an error only where it is read
        macro.zero_col = -1
        if not isa.reads_zero(macro):
            fault = None
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
        # of a read operand off the zero column: an in-place b, the
        # result, starts at domain 0
        ref = a if a.col != zero else b if mode == isa.OUT_OF_PLACE else None
        if ref is None:
            fault = None
        else:
            ref.base = DIFF_DOMAINS - min(ref.width, m) + 1
    elif fault == "bad-result":
        if mode == isa.IN_PLACE:
            b.width = m + 1
        else:
            macro.dest_cols = ()
    elif fault == "aliased-roles":
        # a column the contract keeps apart from another role's
        alias = draw(st.sampled_from(
            ["carry-on-a", "carry-on-b", "carry-on-result"]
            + (["zero-on-carry", "zero-on-result"]
               if isa.reads_zero(macro) else [])
            + (["a-on-b"] if mode == isa.IN_PLACE or b is not a else [])
            + (["result-on-a", "result-on-b"]
               if mode == isa.OUT_OF_PLACE else [])
            + (["result-twice"] if n_dest > 1 else [])))
        result = dests[0] if dests else b.col
        if alias == "carry-on-a":
            macro.carry_col = a.col
        elif alias == "carry-on-b":
            macro.carry_col = b.col
        elif alias == "carry-on-result":
            macro.carry_col = result
        elif alias == "zero-on-carry":
            macro.zero_col = carry
        elif alias == "zero-on-result":
            macro.zero_col = result
        elif alias == "a-on-b":
            a.col = b.col
            if a == b:
                a.base = (a.base + 1) % (DIFF_DOMAINS - a.width + 1)
        elif alias == "result-twice":
            macro.dest_cols = (dests[1],) + macro.dest_cols[1:]
        else:
            macro.dest_cols = ((a if alias == "result-on-a" else b).col,
                               *dests[1:])
    return (rows, key, macro, align, draw(st.integers(0, 2**32)),
            FAULTS.get(fault))


def _macro_outcome(rows, align, seed, execute):
    state = sim.SimState(ApGeometry(rows=rows, columns=DIFF_COLUMNS,
                                    domains_per_track=DIFF_DOMAINS))
    cam = state.ap(0)
    rng = random.Random(seed)
    cam.planes = [[rng.getrandbits(rows) for _ in range(DIFF_DOMAINS)]
                  for _ in range(DIFF_COLUMNS)]
    state.ports(0)[0].update(align)
    try:
        execute(state, cam)
    except TapcError as exc:
        return type(exc)
    return cam.planes, state.align[0], state.writes[0], state.events.bins


def _executors(macro, table):
    """The derivation and `run_macro`, and their micro-op reference, as
    `_macro_outcome` runs them."""
    def direct(state, cam):
        run_steps(state, [0], decode([(macro, table, "accum")]), 2, 5)

    def reference(state, cam):
        ops = isa.expand_macro(macro, table, dict(state.align[0]))
        sim.execute_micro_ops(state, 0, ops, 2, "accum", 5)
    return direct, reference


@given(macro_cases())
def test_run_macro_matches_the_micro_op_reference(catalog, case):
    """The same planes, alignment, write counts and counters; a macro that
    breaks its contract raises the same error in both."""
    rows, key, macro, align, seed, error = case
    direct, reference = _executors(macro, catalog[key])
    want = _macro_outcome(rows, align, seed, reference)
    assert _macro_outcome(rows, align, seed, direct) == want
    if error is None:
        assert isinstance(want, tuple)
    else:
        assert want == error


def _contract_case(edit):
    """A 4-bit sub over a 2-bit unsigned a (so the zero column is read) and
    a signed b: out of place into columns 2 and 5, unless the edit makes it
    in place; carry 3, zero 4. `edit` then changes one role's column."""
    a = isa.OperandRef(0, 0, 2, False)
    b = isa.OperandRef(1, 0, 4, True)
    macro = isa.MacroInstr(isa.SUB, isa.OUT_OF_PLACE, False, 4, a, b, (2, 5),
                           0, 3, 4)
    edit(macro)
    return macro


def _in_place(macro):
    macro.addressing, macro.dest_cols = isa.IN_PLACE, ()


# column sharings the macro contract forbids, and ones it allows
ALIASED_ROLES = {
    "carry-on-a": lambda mac: setattr(mac, "carry_col", 0),
    "carry-on-b": lambda mac: setattr(mac, "carry_col", 1),
    "carry-on-zero": lambda mac: setattr(mac, "carry_col", 4),
    "carry-on-result": lambda mac: setattr(mac, "carry_col", 2),
    "result-on-a": lambda mac: setattr(mac, "dest_cols", (0, 5)),
    "result-on-b": lambda mac: setattr(mac, "dest_cols", (1, 5)),
    "result-on-zero": lambda mac: setattr(mac, "dest_cols", (2, 4)),
    "result-twice": lambda mac: setattr(mac, "dest_cols", (2, 2)),
    "a-and-b-differ": lambda mac: setattr(mac.a, "col", 1),
    "in-place-a-on-b": lambda mac: (_in_place(mac), setattr(mac.a, "col", 1)),
    "in-place-b-on-zero": lambda mac: (_in_place(mac),
                                       setattr(mac, "zero_col", 1)),
}
ZERO = isa.OperandRef(4, 0, 1, False)     # the zero column as an operand
SHARED_ROLES = {
    "a-is-b": lambda mac: setattr(mac, "b", mac.a),
    "a-on-zero": lambda mac: setattr(mac, "a", ZERO),
    "b-on-zero": lambda mac: setattr(mac, "b", ZERO),
    "in-place-a-on-zero": lambda mac: (_in_place(mac),
                                       setattr(mac, "a", ZERO)),
    "carry-on-unread-zero": lambda mac: (setattr(mac.a, "signed", True),
                                         setattr(mac, "carry_col", 4)),
}


@pytest.mark.parametrize("name", sorted(ALIASED_ROLES) + sorted(SHARED_ROLES))
def test_macro_contract_on_shared_columns(catalog, name):
    macro = _contract_case({**ALIASED_ROLES, **SHARED_ROLES}[name])
    direct, reference = _executors(macro, catalog[
        macro.op_kind, macro.addressing, macro.negated])
    want = _macro_outcome(40, {}, 3, reference)
    assert _macro_outcome(40, {}, 3, direct) == want
    if name in ALIASED_ROLES:
        assert want is FormatError
    else:
        assert isinstance(want, tuple)


# --- bundles: one stream charged once, run on each of several APs -------

@st.composite
def stream_cases(draw):
    """A stream of macros that keep the contract, on carry column 0 and zero
    column 1, each with its phase, and the starting alignments of 2-3 APs
    (the carry and zero columns at domain 0 on each, as the load leaves
    them)."""
    stream = []
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(TABLE_KEYS))
        stream.append((draw(contract_macros(key, 0, 1,
                                            range(2, DIFF_COLUMNS))),
                       key, draw(st.sampled_from(("dfg", "accum")))))
    aligns = draw(st.lists(
        st.dictionaries(st.integers(2, DIFF_COLUMNS - 1),
                        st.integers(0, DIFF_DOMAINS - 1)),
        min_size=2, max_size=3))
    return draw(st.integers(1, 40)), stream, aligns, draw(
        st.integers(0, 2**32))


def _stream_outcome(rows, aligns, seed, execute):
    """Each AP's planes, alignment and write counts, and the counters,
    after `execute(state, aps)`, or the type of the error it raises. Every
    row of every AP starts with its own random bits, so the APs differ in
    the rows a partially filled group leaves stale as well as in the rows
    it uses."""
    state = sim.SimState(ApGeometry(rows=rows, columns=DIFF_COLUMNS,
                                    domains_per_track=DIFF_DOMAINS))
    rng = random.Random(seed)
    aps = list(range(len(aligns)))
    for ap, align in zip(aps, aligns):
        cam = state.ap(ap)
        cam.planes = [[rng.getrandbits(rows) for _ in range(DIFF_DOMAINS)]
                      for _ in range(DIFF_COLUMNS)]
        state.ports(ap)[0].update(align)
    try:
        execute(state, aps)
    except TapcError as exc:    # a step that reads a shifted zero column
        return type(exc)
    return ([(state.ap(ap).planes, state.align[ap], state.writes[ap])
             for ap in aps], state.events.bins)


@given(stream_cases())
def test_a_bundle_runs_each_ap_as_it_runs_alone(catalog, case):
    """The derivation's one charge of the stream for a bundle of all the
    APs, then its run on each AP, leaves each AP's planes, alignment and
    write counts, and every counter bin, as charging and running each macro
    on each AP alone does, or running the micro-op reference."""
    rows, stream, aligns, seed = case
    steps = decode([(macro, catalog[key], phase)
                    for macro, key, phase in stream])

    def bundled(state, aps):
        run_steps(state, aps, steps, 2, 5)

    def alone(state, aps):
        for ap in aps:
            for macro, key, phase in stream:
                run_steps(state, [ap], decode([(macro, catalog[key], phase)]),
                          2, 5)

    def reference(state, aps):
        for ap in aps:
            for macro, key, phase in stream:
                ops = isa.expand_macro(macro, catalog[key],
                                       dict(state.align[ap]))
                sim.execute_micro_ops(state, ap, ops, 2, phase, 5)
    want = _stream_outcome(rows, aligns, seed, reference)
    assert _stream_outcome(rows, aligns, seed, alone) == want
    assert _stream_outcome(rows, aligns, seed, bundled) == want


def _table_and_reference(catalog, stream, rows, aligns, seed, steps=None):
    """`_stream_outcome` of `stream`'s (macro, table key, phase) triples
    decoded into one table, or of the table `steps`, charged once for a
    bundle of all the APs and run on each, and of its macros run AP by AP
    through the micro-op reference."""
    if steps is None:
        steps = decode([(macro, catalog[key], phase)
                        for macro, key, phase in stream])

    def bundled(state, aps):
        run_steps(state, aps, steps, 2, 5)

    def reference(state, aps):
        for ap in aps:
            for macro, key, phase in stream:
                sim.execute_micro_ops(state, ap, isa.expand_macro(
                    macro, catalog[key], dict(state.align[ap])), 2, phase, 5)
    return (_stream_outcome(rows, aligns, seed, bundled),
            _stream_outcome(rows, aligns, seed, reference))


OUT = (isa.ADD, isa.OUT_OF_PLACE, False)


def _out_of_place(m, a, b, dest):
    """An m-bit out-of-place add on carry column 0 and zero column 1."""
    return isa.MacroInstr(*OUT, m, a, b, dest, 0, 0, 1)


def test_shifts_are_charged_to_the_phase_of_their_step(catalog):
    """A "dfg" step and an "accum" step, on columns of their own, each walk
    three ports: the table charges each step's shifts and domain steps in
    its own phase's bin, as the micro-op reference does."""
    ref = isa.OperandRef
    stream = [(_out_of_place(4, ref(2, 0, 4, True), ref(3, 0, 4, True), (4,)),
               OUT, "dfg"),
              (_out_of_place(3, ref(5, 2, 3, True), ref(6, 1, 3, True), (7,)),
               OUT, "accum")]
    got, want = _table_and_reference(catalog, stream, 16, [{}], 1)
    assert got == want
    # columns 2-4 walk 0..3; then 6 walks 0, 1..3, 5 0, 2..4 and 7 0..2
    assert [got[1][0, 2, phase, 5, sim.SHIFT][:3] for phase in
            ("dfg", "accum")] == [[9, 9 * 16, 9], [8, 8 * 16, 3 + 4 + 2]]


def test_each_ap_of_a_wide_bundle_walks_from_its_own_ports(catalog):
    """Two APs whose ports start apart run one step, which the derivation
    charges once for their bundle: it charges each AP the walks from its
    own ports, as the reference charges each AP alone."""
    ref = isa.OperandRef
    stream = [(_out_of_place(4, ref(2, 0, 4, True), ref(3, 0, 4, True), (4,)),
               OUT, "dfg")]
    aligns = [{2: 0, 3: 0}, {2: 6, 3: 2, 4: 9}]
    got, want = _table_and_reference(catalog, stream, 16, aligns, 2)
    assert got == want
    assert [got[1][ap, 2, "dfg", 5, sim.SHIFT][2] for ap in (0, 1)] == \
        [9, 6 + 2 + 9 + 9]


@pytest.mark.parametrize("shifted", ["none", "at-start", "by-a-step",
                                     "walked-home"])
def test_a_step_reading_the_zero_column_off_domain_0_is_rejected(catalog,
                                                                 shifted):
    """A step whose 2-bit unsigned a runs out below its 4-bit width reads
    the zero column at its port. Where that port stands off domain 0 from
    the start, the table is rejected as the reference rejects the macro,
    unless a step before it reads the zero column as its a, which walks
    the port home. A step that walks the zero column off domain 0, reading
    it as its a from domain 2, is rejected itself, where the reference
    rejects the step after it; no program can state that read, so the
    table is edited to make it. Otherwise both run."""
    ref = isa.OperandRef
    stream = [(_out_of_place(4, ref(2, 0, 2, False), ref(3, 0, 4, True),
                             (4,)), OUT, "dfg")]
    steps, zero = None, ref(1, 0, 1, False)
    if shifted in ("by-a-step", "walked-home"):
        stream.insert(0, (_out_of_place(3, zero, ref(5, 0, 3, True), (6,)),
                          OUT, "dfg"))
    if shifted == "by-a-step":
        steps = decode([(macro, catalog[key], phase)
                        for macro, key, phase in stream])
        steps.a[1][0] = zero.base = 2
    aligns = [{1: 3}] if shifted in ("at-start", "walked-home") else [{}]
    got, want = _table_and_reference(catalog, stream, 16, aligns, 3, steps)
    assert got == want
    if shifted in ("none", "walked-home"):
        assert isinstance(got, tuple)
    else:
        assert got is FormatError


def _merge_outcome(rows, aligns, seed, pairs, bundles):
    """`_stream_outcome` of one merge of a tile whose carry is column 5 and
    scratch column 7, so no alignment may move column 5. `bundles` lists
    which of the (destination, source) AP pairs in `pairs` share a bundle;
    the derivation charges the merge's moves and adds once for it, then
    `sim.run_part` runs the merge AP by AP, each add after its source's
    accumulator moves into its destination's scratch column."""
    tile = Tile(c_lo=0, c_hi=3, acc_lo=-40, acc_hi=40, acc0=2)
    assert (tile.carry, tile.scratch) == (5, 7)
    steps = merge_steps(tile)

    def execute(state, aps):
        for bundle_pairs in bundles:
            dsts, srcs = zip(*(pairs[i] for i in bundle_pairs))
            state.moves(dsts, steps, 2, 5)
            sim.run_part(state, dsts, srcs, steps,
                         state.steps(dsts, steps, 2, 5), 2, 5)
    return _stream_outcome(rows, aligns, seed, execute)


@given(st.integers(1, 40), st.lists(
    st.dictionaries(st.sampled_from([0, 1, 2, 3, 4, 6, 7, 8, 9]),
                    st.integers(0, DIFF_DOMAINS - 1)),
    min_size=4, max_size=4), st.integers(0, 2**32))
def test_a_wide_bundle_merges_as_each_ap_merges_alone(rows, aligns, seed):
    """APs 0 and 1 each merge three accumulators from their own source AP,
    2 and 3. The derivation's one charge of the merge for a two-AP bundle,
    then its run on each AP, leaves every AP's planes, alignment and write
    counts, and every counter bin, as charging and running each merge for
    its AP alone: each add reads the scratch column its move just wrote,
    not the one the add before it read. Only the moves write the scratch
    column, each one of the 7-bit accumulators."""
    pairs = [(0, 2), (1, 3)]
    got = _merge_outcome(rows, aligns, seed, pairs, [[0, 1]])
    assert got == _merge_outcome(rows, aligns, seed, pairs, [[0], [1]])
    assert [writes[7] for _planes, _align, writes in got[0]] == \
        [3 * 7, 3 * 7, 0, 0]


walk_spans = st.integers(0, DIFF_DOMAINS - 1).flatmap(
    lambda first: st.tuples(st.just(first),
                            st.integers(first, DIFF_DOMAINS - 1)))


@given(st.dictionaries(st.integers(0, DIFF_COLUMNS - 1),
                       st.integers(0, DIFF_DOMAINS - 1)),
       st.dictionaries(st.integers(0, DIFF_COLUMNS - 1), walk_spans))
@example(align={3: 5, 4: 2}, walks={3: (5, 5), 4: (0, 0), 6: (2, 2)})
def test_walk_replays_the_expanders_port_moves(align, walks):
    """`sim.walk` makes the shifts, domain steps and final alignment of
    `isa._shift_to` stepping each column's port to its first domain and
    then one domain at a time to its last."""
    got_align = dict(align)
    want_align, ops = dict(align), []
    for col, (first, last) in walks.items():
        for dom in range(first, last + 1):
            isa._shift_to(ops, want_align, col, dom)
    assert sim.walk(got_align, walks) == (len(ops),
                                          sum(op.steps for op in ops))
    assert got_align == want_align


# --- the event counters ---------------------------------------------------

def test_event_counts_sum_each_key():
    counts = sim.EventCounts()
    assert len(counts) == 0 and counts.bins == {}
    for key, bits, steps, cycles in [((0, 0, "io", 0, sim.SEARCH), 64, 0, 1),
                                     ((0, 0, "io", 0, sim.SEARCH), 32, 0, 1),
                                     ((1, 0, "dfg", 1, sim.SHIFT), 64, 3, 3)]:
        counts.add(key, 1, bits, steps, cycles,
                   sim.energy_size(key[-1], bits, steps))
    counts.add((1, 0, "dfg", 1, sim.SHIFT), 2, 128, 5, 5, 320)
    assert len(counts) == 5
    assert counts.bins == {(0, 0, "io", 0, sim.SEARCH): [2, 96, 0, 2, 96],
                           (1, 0, "dfg", 1, sim.SHIFT): [3, 192, 8, 8, 512]}


def _events_csv(text):
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_export_events_rows_sum_the_logged_counter_updates(counter_log):
    net = make_synthetic_network(2, 4, 0.7, bits=4, in_channels=2, seed=22)
    prog = emit_program(net, 6, 6, ApGeometry())
    ifm = make_synthetic_input(net, 6, 6, seed=1)
    with counter_log() as calls:
        result = sim.run(prog, ifm)
    text = sim.export_events(result.events)
    header, rows = _events_csv(text)
    assert header == ["kind", "ap", "layer", "phase", "epoch", "events",
                      "bits", "steps", "cycles", "size"]
    assert len({row[4] for row in rows}) > 2
    assert sum(int(row[5]) for row in rows) == len(result.events) == \
        sum(call[1] for call in calls)
    # each row sums the logged updates at its key
    want = {}
    for (ap, layer, phase, epoch, kind), *sums in calls:
        key = (sim.EVENT_KINDS[kind], str(ap), str(layer), phase, str(epoch))
        acc = want.setdefault(key, [0, 0, 0, 0, 0])
        for i, x in enumerate(sums):
            acc[i] += x
    assert {tuple(row[:5]): [int(x) for x in row[5:]] for row in rows} == want
    # a second run counts the same, to the byte
    assert sim.export_events(sim.run(prog, ifm).events) == text
    assert sim.export_events(sim.EventCounts()) == sim.EXPORT_HEADER + "\n"


# --- whole programs against the host reference ----------------------------

def test_single_conv_layer_both_opt_levels():
    net = make_synthetic_network(1, 6, 0.7, bits=4, in_channels=3, seed=3)
    check_net(net, 8, 8, opts=("unroll", "unroll_cse"))


def test_strided_conv():
    net = TernaryNetwork("s2", [conv_layer(2, 3, 3, 2, 1, 4, seed=11)])
    check_net(net, 9, 9)


@pytest.mark.parametrize("f,pad,hw", [(3, 1, 8), (1, 0, 8), (3, 1, 32)])
def test_strided_conv_on_even_inputs(f, pad, hw):
    # the two downsampling convs of a ResNet floor their output extent
    net = TernaryNetwork("s2", [conv_layer(2, 3, f, 2, pad, 4, seed=11)])
    result = check_net(net, hw, hw)
    assert result.trace[0].shape == (3, hw // 2, hw // 2)


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
    assert any(key[4] == sim.MOVE for key in result.events.bins)


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


def test_a_program_storing_pass_tables_is_a_format_error():
    # the tables are the ISA's; a format-4 program still stored them
    net = make_synthetic_network(1, 4, 0.7, bits=4, in_channels=2, seed=21)
    prog = emit_program(net, 8, 8, ApGeometry())
    doc = json.loads(prog.dumps())
    doc["luts"] = []
    with pytest.raises(FormatError, match=r"unknown fields \['luts'\]"):
        ApProgram.from_doc(doc)


def test_simulation_is_deterministic():
    net = make_synthetic_network(2, 4, 0.7, bits=4, in_channels=2, seed=22)
    ifm = make_synthetic_input(net, 6, 6, seed=1)
    prog = emit_program(net, 6, 6, ApGeometry())
    r1 = sim.run(prog, ifm)
    r2 = sim.run(prog, ifm)
    assert sim.export_events(r1.events) == sim.export_events(r2.events)
    assert sim.first_divergence(r1.trace, r2.trace) is None
    assert r1.state.max_col_writes > 0


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
    sim.execute_micro_ops(st, 0, [isa.MicroOp("shift", col=1, target=2,
                                              steps=2)],
                          layer=2, phase="dfg", epoch=7)
    text = sim.export_events(st.events)
    assert text.splitlines() == [
        sim.EXPORT_HEADER,
        "search,0,2,dfg,7,1,64,0,1,64",
        "shift,0,2,dfg,7,1,64,2,2,128"]
    assert sim.EXPORT_HEADER == \
        "kind,ap,layer,phase,epoch,events,bits,steps,cycles,size"

"""Pass tables: validation, repair, derivation, and macro expansion."""

import pytest

from tapc import isa
from tapc.errors import FormatError, LutDerivationError
from tapc.isa import ADD, SUB, IN_PLACE, OUT_OF_PLACE

# Execution orders of the published tables, frozen. A change here means the
# hand-designed sequences were touched, which is never a refactor.
PUBLISHED_ORDERS = {
    (ADD, IN_PLACE): [(0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 0)],
    (SUB, IN_PLACE): [(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)],
    (SUB, OUT_OF_PLACE): [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
}

DERIVED_ORDERS = {
    (ADD, OUT_OF_PLACE, False): [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1)],
    (ADD, OUT_OF_PLACE, True): [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)],
    (SUB, OUT_OF_PLACE, True): [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)],
}


def keys_in_order(table):
    return [e.key for e in table.passes()]


@pytest.mark.parametrize("op,mode", sorted(PUBLISHED_ORDERS))
def test_published_tables_validate(op, mode):
    table = isa.builtin_luts()[(op, mode)]
    check = isa.validate_lut(table)
    assert check.ok
    assert check.counterexamples == []
    assert keys_in_order(table) == PUBLISHED_ORDERS[(op, mode)]


def test_published_out_of_place_add_is_broken():
    table = isa.builtin_luts()[(ADD, OUT_OF_PLACE)]
    check = isa.validate_lut(table)
    assert not check.ok
    # one silent state: (0,1,1) is NC in the published table but must produce
    # carry-out 1, so the row keeps its stale carry
    assert check.counterexamples == [((0, 1, 1), (1, 1, 1, 0), (0, 1, 1, 0))]


def test_no_row_is_rewritten_twice_by_any_catalog_table():
    tables, _ = isa.standard_catalog()
    for table in tables.values():
        check = isa.validate_lut(table)
        assert check.ok
        assert max(check.writes_per_state.values()) <= 1, table.name


def test_catalog_tables_tag_exactly_the_changed_rows():
    # what lets sim.run_macro count the tagged rows, and set the tag
    # register, from the rows' states alone
    tables, _ = isa.standard_catalog()
    assert len(tables) == 6
    for (op, mode, negated), table in tables.items():
        tags = isa.validate_lut(table).writes_per_state
        for (c, b, a), n in tags.items():
            held = (c, b) if mode == IN_PLACE else (c, 0)
            changes = isa.reference_bit(op, negated, c, b, a) != held
            assert n == int(changes), (table.name, (c, b, a))


def test_catalog_rejects_a_table_tagging_unchanged_rows(monkeypatch):
    # (0, 1, 0) already holds its sum: a last pass rewriting it with the same
    # bits still validates, but tags rows that do not change
    printed = isa.builtin_luts()
    entries = dict(printed[(ADD, IN_PLACE)].entries)
    entries[(0, 1, 0)] = isa.LutEntry((0, 1, 0), (0, 1), 5)
    printed[(ADD, IN_PLACE)] = isa.LutTable(ADD, IN_PLACE, False, entries)
    assert isa.validate_lut(printed[(ADD, IN_PLACE)]).ok
    monkeypatch.setattr(isa, "builtin_luts", lambda: printed)
    with pytest.raises(LutDerivationError, match="add in_place"):
        isa.standard_catalog()


def test_catalog_contents_and_repair():
    tables, repairs = isa.standard_catalog()
    assert sorted(tables) == [
        (ADD, IN_PLACE, False),
        (ADD, OUT_OF_PLACE, False),
        (ADD, OUT_OF_PLACE, True),
        (SUB, IN_PLACE, False),
        (SUB, OUT_OF_PLACE, False),
        (SUB, OUT_OF_PLACE, True),
    ]
    assert len(repairs) == 1
    rep = repairs[0]
    assert (rep.op_kind, rep.addressing) == (ADD, OUT_OF_PLACE)
    assert [k for k, _, _ in rep.divergent_keys] == [(0, 1, 1), (1, 1, 0), (1, 1, 1)]
    # entry-by-entry divergence: the NC state becomes the last pass, the
    # write-only state becomes NC, and the final pass moves up one slot
    diffs = {k: (old, new) for k, old, new in rep.divergent_keys}
    assert diffs[(0, 1, 1)] == (((1, 0), 0), ((1, 0), 5))
    assert diffs[(1, 1, 0)] == (((1, 0), 4), ((1, 0), 0))
    assert diffs[(1, 1, 1)] == (((1, 1), 5), ((1, 1), 4))
    text = rep.describe()
    assert "3-entry repair" in text
    assert "NC" in text


@pytest.mark.parametrize("op,mode,neg", sorted(DERIVED_ORDERS))
def test_derived_orders_are_stable(op, mode, neg):
    table = isa.derive_lut(op, mode, negated=neg)
    assert isa.validate_lut(table).ok
    assert keys_in_order(table) == DERIVED_ORDERS[(op, mode, neg)]


@pytest.mark.parametrize("op", [ADD, SUB])
def test_negated_in_place_is_infeasible(op):
    with pytest.raises(LutDerivationError):
        isa.derive_lut(op, IN_PLACE, negated=True)


def test_reference_bit_matches_integer_semantics():
    for c in (0, 1):
        for b in (0, 1):
            for a in (0, 1):
                s = a + b + c
                assert isa.reference_bit(ADD, False, c, b, a) == (s >> 1, s & 1)
                d = b - a - c
                assert isa.reference_bit(SUB, False, c, b, a) == (int(d < 0), d & 1)
                # negated sub really is the operand swap
                d2 = a - b - c
                assert isa.reference_bit(SUB, True, c, b, a) == (int(d2 < 0), d2 & 1)
                # negated add keeps the true carry, complements the sum bit
                assert isa.reference_bit(ADD, True, c, b, a) == (s >> 1, 1 - (s & 1))


def test_table_structural_checks():
    good = isa.builtin_luts()[(ADD, IN_PLACE)]
    partial = dict(good.entries)
    del partial[(0, 0, 0)]
    with pytest.raises(FormatError):
        isa.LutTable(ADD, IN_PLACE, False, partial)
    gapped = dict(good.entries)
    e = gapped[(1, 1, 0)]
    gapped[(1, 1, 0)] = isa.LutEntry(e.key, e.write, 7)
    with pytest.raises(FormatError):
        isa.LutTable(ADD, IN_PLACE, False, gapped)
    with pytest.raises(FormatError):
        isa.LutTable("mul", IN_PLACE, False, dict(good.entries))
    with pytest.raises(FormatError):
        isa.LutTable(ADD, "sideways", False, dict(good.entries))


# --- macro expansion ------------------------------------------------------

def make_macro(mode, m, op=ADD, negated=False, a_width=None, b_width=None):
    a = isa.OperandRef(0, 0, a_width or m, True)
    if mode == IN_PLACE:
        b = isa.OperandRef(1, 0, b_width or m, True)
        return isa.MacroInstr(op, mode, negated, m, a, b, (), 0, 3, 4)
    b = isa.OperandRef(1, 0, b_width or m, True)
    return isa.MacroInstr(op, mode, negated, m, a, b, (2,), 0, 3, 4)


@pytest.mark.parametrize("m", [1, 4, 8, 16])
@pytest.mark.parametrize("op", [ADD, SUB])
def test_compute_cycles_in_place(op, m, catalog):
    ops = isa.expand_macro(make_macro(IN_PLACE, m, op), catalog[(op, IN_PLACE, False)], {})
    assert isa.compute_cycles(ops) == 8 * m


@pytest.mark.parametrize("m", [1, 4, 8, 16])
@pytest.mark.parametrize("op", [ADD, SUB])
def test_compute_cycles_out_of_place(op, m, catalog):
    ops = isa.expand_macro(make_macro(OUT_OF_PLACE, m, op), catalog[(op, OUT_OF_PLACE, False)], {})
    assert isa.compute_cycles(ops) == 10 * m


def test_cycle_count_accounts_shifts_and_clears(catalog):
    m = 4
    ops = isa.expand_macro(make_macro(IN_PLACE, m), catalog[(ADD, IN_PLACE, False)], {})
    shifts = sum(op.steps for op in ops if op.kind == "shift")
    clears = sum(1 for op in ops if op.kind == "clear")
    assert shifts == 2 * (m - 1)   # b and a each walk bit 0 -> m-1
    assert clears == 1             # carry cleared once per macro

    ops = isa.expand_macro(make_macro(OUT_OF_PLACE, m), catalog[(ADD, OUT_OF_PLACE, False)], {})
    shifts = sum(op.steps for op in ops if op.kind == "shift")
    clears = sum(1 for op in ops if op.kind == "clear")
    assert shifts == 3 * (m - 1)   # b, a and the result column
    assert clears == 1 + m         # carry, plus a per-bit result pre-clear


def test_expansion_uses_and_updates_alignment(catalog):
    table = catalog[(ADD, IN_PLACE, False)]
    align = {}
    isa.expand_macro(make_macro(IN_PLACE, 4), table, align)
    assert align == {0: 3, 1: 3}
    # a second identical macro must first walk both columns back to bit 0
    ops = isa.expand_macro(make_macro(IN_PLACE, 4), table, align)
    down = [op for op in ops if op.kind == "shift" and op.target == 0]
    assert sorted(op.col for op in down) == [0, 1]
    assert all(op.steps == 3 for op in down)


def test_sign_clamp_skips_shifts_past_msb(catalog):
    # a is 2 bits wide inside a 6-bit macro: after bit 1 it stays clamped at
    # its sign bit, so column 0 never moves above domain 1
    ops = isa.expand_macro(make_macro(IN_PLACE, 6, a_width=2),
                           catalog[(ADD, IN_PLACE, False)], {})
    a_targets = [op.target for op in ops if op.kind == "shift" and op.col == 0]
    assert a_targets == [1]
    b_targets = [op.target for op in ops if op.kind == "shift" and op.col == 1]
    assert b_targets == [1, 2, 3, 4, 5]


def test_unsigned_operand_redirects_to_zero_column(catalog):
    mac = make_macro(IN_PLACE, 6, a_width=2)
    mac.a.signed = False
    ops = isa.expand_macro(mac, catalog[(ADD, IN_PLACE, False)], {})
    # bits 2..5 search the reserved zero column in a's slot
    searched = [op.cols[2] for op in ops if op.kind == "search"]
    assert searched[:2 * 4] == [0] * 8          # 4 passes x 2 bits on column 0
    assert searched[2 * 4:] == [mac.zero_col] * (4 * 4)


def test_expand_macro_contract_errors(catalog):
    add_ip = catalog[(ADD, IN_PLACE, False)]
    with pytest.raises(FormatError):
        isa.expand_macro(make_macro(IN_PLACE, 4, op=SUB), add_ip, {})
    with pytest.raises(FormatError):
        isa.expand_macro(make_macro(IN_PLACE, 4, b_width=3), add_ip, {})
    mac = make_macro(OUT_OF_PLACE, 4)
    mac.dest_cols = ()
    with pytest.raises(FormatError):
        isa.expand_macro(mac, catalog[(ADD, OUT_OF_PLACE, False)], {})
    with pytest.raises(FormatError):
        isa.expand_macro(make_macro(IN_PLACE, 4), add_ip, {3: 5})

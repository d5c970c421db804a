"""Search/write pass tables and bit-serial macro expansion.

The arrays compute by content addressing: one pass searches a 3-bit key on
the (carry, B, A) columns, latches the matching rows in the tag register,
then writes a 2-bit pattern into the (carry, result) columns of exactly
those rows. A full 1-bit add or sub is a short sequence of such passes; an
m-bit op iterates the sequence over the bit columns LSB first, with the
carry/borrow column holding the loop-carried state.

Pass order is load-bearing: a row rewritten by one pass may afterwards
match the key of a pass that has not executed yet, which corrupts it. The
validator simulates all 8 row states through the sequence to catch exactly
that, and the deriver brute-forces orderings until one survives.

Entries marked NC (no change) cost nothing: rows in those states already
hold the correct result (out-of-place result columns are pre-cleared, so
"correct" there means result bit 0 and unchanged carry).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import FormatError, LutDerivationError

IN_PLACE, OUT_OF_PLACE = "in_place", "out_of_place"
ADD, SUB = "add", "sub"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LutEntry:
    key: tuple[int, int, int]        # (carry_or_borrow, b, a)
    write: tuple[int, int]           # (carry_or_borrow, result)
    pass_index: int                  # 0 = NC, else 1-based execution slot


@dataclass
class LutTable:
    op_kind: str                     # add | sub
    addressing: str                  # in_place | out_of_place
    negated: bool
    entries: dict[tuple[int, int, int], LutEntry]

    def __post_init__(self):
        if self.op_kind not in (ADD, SUB):
            raise FormatError(f"bad op kind {self.op_kind!r}")
        if self.addressing not in (IN_PLACE, OUT_OF_PLACE):
            raise FormatError(f"bad addressing {self.addressing!r}")
        if sorted(self.entries) != [(c, b, a) for c in (0, 1) for b in (0, 1) for a in (0, 1)]:
            raise FormatError("table must cover the 8 key states exactly once")
        ordinals = sorted(e.pass_index for e in self.entries.values() if e.pass_index)
        if ordinals != list(range(1, len(ordinals) + 1)):
            raise FormatError("pass ordinals must be 1..k without gaps")

    @property
    def name(self) -> str:
        neg = " negated" if self.negated else ""
        return f"{self.op_kind} {self.addressing}{neg}"

    def passes(self) -> list[LutEntry]:
        """Active entries in execution order."""
        active = [e for e in self.entries.values() if e.pass_index]
        return sorted(active, key=lambda e: e.pass_index)

    @property
    def pass_count(self) -> int:
        return len(self.passes())


def _table(op_kind, addressing, rows, negated=False) -> LutTable:
    entries = {}
    for key, write, pidx in rows:
        entries[key] = LutEntry(key, write, pidx)
    return LutTable(op_kind, addressing, negated, entries)


def builtin_luts() -> dict[tuple[str, str], LutTable]:
    """The four hand-designed plain tables, as published.

    Key bits are (carry_or_borrow, B, A); write bits are (carry_or_borrow,
    result) where result lands in B (in place) or in a fresh column R (out
    of place). Note the out-of-place add as given here does not survive
    validation; see standard_catalog for the repair.
    """
    return {
        (ADD, IN_PLACE): _table(ADD, IN_PLACE, [
            ((0, 0, 0), (0, 0), 0),
            ((0, 0, 1), (0, 1), 2),
            ((0, 1, 0), (0, 1), 0),
            ((0, 1, 1), (1, 0), 1),
            ((1, 0, 0), (0, 1), 3),
            ((1, 0, 1), (1, 0), 0),
            ((1, 1, 0), (1, 0), 4),
            ((1, 1, 1), (1, 1), 0),
        ]),
        (ADD, OUT_OF_PLACE): _table(ADD, OUT_OF_PLACE, [
            ((0, 0, 0), (0, 0), 0),
            ((0, 0, 1), (0, 1), 1),
            ((0, 1, 0), (0, 1), 2),
            ((0, 1, 1), (1, 0), 0),
            ((1, 0, 0), (0, 1), 3),
            ((1, 0, 1), (1, 0), 0),
            ((1, 1, 0), (1, 0), 4),
            ((1, 1, 1), (1, 1), 5),
        ]),
        (SUB, IN_PLACE): _table(SUB, IN_PLACE, [
            ((0, 0, 0), (0, 0), 0),
            ((0, 0, 1), (1, 1), 1),
            ((0, 1, 0), (0, 1), 0),
            ((0, 1, 1), (0, 0), 2),
            ((1, 0, 0), (1, 1), 4),
            ((1, 0, 1), (1, 0), 0),
            ((1, 1, 0), (0, 0), 3),
            ((1, 1, 1), (1, 1), 0),
        ]),
        (SUB, OUT_OF_PLACE): _table(SUB, OUT_OF_PLACE, [
            ((0, 0, 0), (0, 0), 0),
            ((0, 0, 1), (1, 1), 1),
            ((0, 1, 0), (0, 1), 2),
            ((0, 1, 1), (0, 0), 0),
            ((1, 0, 0), (1, 1), 3),
            ((1, 0, 1), (1, 0), 0),
            ((1, 1, 0), (0, 0), 4),
            ((1, 1, 1), (1, 1), 5),
        ]),
    }


# ---------------------------------------------------------------------------
# per-bit semantics, validation, derivation
# ---------------------------------------------------------------------------

def reference_bit(op_kind: str, negated: bool, carry: int, b: int, a: int) -> tuple[int, int]:
    """One bit slice of the op: (carry_or_borrow out, result bit).

    The negated sub swaps operand roles (computes A - B, the exact
    two's-complement negation of B - A). The negated add complements the
    sum bit while keeping the true carry chain; that is the bitwise half of
    -v = ~v + 1, the +1 being completed by whoever consumes the result
    (an exact single-pass-set negated add cannot exist: the bits of -(A+B)
    need three states of lookbehind, the carry column stores only two).
    """
    if op_kind == ADD:
        s = a + b + carry
        out, cout = s & 1, s >> 1
    else:
        d = (a - b - carry) if negated else (b - a - carry)
        out, cout = d & 1, int(d < 0)
    if op_kind == ADD and negated:
        out = 1 - out
    return cout, out


_STATES = [(c, b, a) for c in (0, 1) for b in (0, 1) for a in (0, 1)]


def _changes(op_kind: str, addressing: str, negated: bool, key) -> bool:
    """Whether rows in state `key` (carry, b, a) need a write: the
    (carry, result) they hold differs from the op's. A result column out of
    place holds 0, being cleared before the passes."""
    c0, b0, _a0 = key
    held = (c0, b0) if addressing == IN_PLACE else (c0, 0)
    return reference_bit(op_kind, negated, *key) != held


def _final_state(table: LutTable, c0: int, b0: int, a0: int):
    """Run the pass sequence on one initial row state; returns the end state
    plus how many times the row was written (re-match hazard diagnostics)."""
    c, b, a = c0, b0, a0
    r = 0
    writes = 0
    for entry in table.passes():
        if (c, b, a) == entry.key:
            writes += 1
            c = entry.write[0]
            if table.addressing == IN_PLACE:
                b = entry.write[1]
            else:
                r = entry.write[1]
    return (c, b, a, r), writes


@dataclass
class LutCheck:
    table: LutTable
    ok: bool
    counterexamples: list = field(default_factory=list)   # (initial, expected, got)
    writes_per_state: dict = field(default_factory=dict)  # key -> write count


def validate_lut(table: LutTable) -> LutCheck:
    """Exhaustively simulate all 8 initial row states through the sequence.

    Out-of-place result columns start cleared, so the expected end state is
    (carry', b, a, result') there and (carry', result', a, 0) in place. Any
    mismatch, including rows corrupted after their own rewrite by a later
    pass, shows up as a counterexample.
    """
    check = LutCheck(table, True)
    for c0 in (0, 1):
        for b0 in (0, 1):
            for a0 in (0, 1):
                cout, out = reference_bit(table.op_kind, table.negated, c0, b0, a0)
                if table.addressing == IN_PLACE:
                    expected = (cout, out, a0, 0)
                else:
                    expected = (cout, b0, a0, out)
                got, writes = _final_state(table, c0, b0, a0)
                check.writes_per_state[(c0, b0, a0)] = writes
                if got != expected:
                    check.ok = False
                    check.counterexamples.append(((c0, b0, a0), expected, got))
    return check


def derive_lut(op_kind: str, addressing: str, negated: bool = False) -> LutTable:
    """Brute-force a minimal-pass table for the given per-bit semantics.

    A row only ever matches the key equal to its current state, so every
    state whose (carry, result) must change needs its own active entry with
    the target bits; the search is purely over execution order. Orders are
    tried lexicographically and the first one that validates wins, which
    keeps derivation deterministic.
    """
    writes = {key: reference_bit(op_kind, negated, *key) for key in _STATES}
    active_keys = [key for key in _STATES
                   if _changes(op_kind, addressing, negated, key)]
    for order in itertools.permutations(sorted(active_keys)):
        entries = {}
        for key in writes:
            pidx = order.index(key) + 1 if key in order else 0
            entries[key] = LutEntry(key, writes[key], pidx)
        cand = LutTable(op_kind, addressing, negated, entries)
        if validate_lut(cand).ok:
            return cand
    raise LutDerivationError(
        f"no valid pass order for {op_kind} {addressing} negated={negated}: "
        "the semantics cannot be expressed over (carry, B, A) with one write set per key")


@dataclass
class LutRepair:
    """Record of a published table failing validation and its replacement."""

    op_kind: str
    addressing: str
    counterexamples: list
    divergent_keys: list   # (key, published (write, pass), derived (write, pass))

    def describe(self) -> str:
        lines = [f"published {self.op_kind} {self.addressing} table failed validation; "
                 f"replaced by a derived {len(self.divergent_keys)}-entry repair:"]
        for key, old, new in self.divergent_keys:
            lines.append(f"  key {key}: published write={old[0]} pass={old[1] or 'NC'}"
                         f" -> derived write={new[0]} pass={new[1] or 'NC'}")
        return "\n".join(lines)


def standard_catalog() -> tuple[dict[tuple[str, str, bool], LutTable], list[LutRepair]]:
    """All six tables (four plain, two negated), validated, repairing as
    needed.

    Published plain tables are kept verbatim when they validate; a failing
    one is replaced by derive_lut and the divergence is reported entry by
    entry. Negated variants are always derived. Raises LutDerivationError
    unless every table tags each row at most once, and exactly the rows
    whose (carry, result) changes.
    """
    catalog: dict[tuple[str, str, bool], LutTable] = {}
    repairs: list[LutRepair] = []
    printed = builtin_luts()
    for (op, mode), table in printed.items():
        check = validate_lut(table)
        if check.ok:
            catalog[(op, mode, False)] = table
        else:
            fixed = derive_lut(op, mode, negated=False)
            divergent = []
            for key in sorted(table.entries):
                old = table.entries[key]
                new = fixed.entries[key]
                if (old.write, old.pass_index) != (new.write, new.pass_index):
                    divergent.append((key, (old.write, old.pass_index),
                                      (new.write, new.pass_index)))
            repairs.append(LutRepair(op, mode, check.counterexamples, divergent))
            catalog[(op, mode, False)] = fixed
    # Negated variants only exist out of place: complemented result bits make
    # pairs of key states swap targets, and with the result written into a
    # searched column (in place) whichever swap pass runs second re-captures
    # the rows the first one rewrote. With a fresh result column the searched
    # state only moves through the carry, and 5 passes suffice.
    for op in (ADD, SUB):
        catalog[(op, OUT_OF_PLACE, True)] = derive_lut(op, OUT_OF_PLACE, negated=True)
    # what lets the simulator skip the passes: each row's whole bit is one
    # reference_bit step, and the rows a pass tags are those whose state is
    # its key
    for (op, mode, negated), table in catalog.items():
        tags = validate_lut(table).writes_per_state
        wrong = [key for key in _STATES
                 if tags[key] != _changes(op, mode, negated, key)]
        if wrong:
            raise LutDerivationError(
                f"{table.name} table does not tag exactly the rows whose "
                f"(carry, result) changes, once each: states {wrong}")
    return catalog, repairs


# ---------------------------------------------------------------------------
# text dump
# ---------------------------------------------------------------------------

def format_lut(table: LutTable) -> str:
    res_col = "B" if table.addressing == IN_PLACE else "R"
    lines = [f"lut {table.op_kind} {table.addressing} negated={int(table.negated)}",
             f"# key (Cr,B,A) -> write (Cr,{res_col}) pass"]
    for key in sorted(table.entries):
        e = table.entries[key]
        k = "".join(map(str, key))
        w = "".join(map(str, e.write))
        p = str(e.pass_index) if e.pass_index else "NC"
        lines.append(f"{k} -> {w} {p}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# micro-ops and macro expansion
# ---------------------------------------------------------------------------

@dataclass
class MicroOp:
    """One array-level step. Fields are kind-dependent:

    search: cols, key           write: cols, bits (into the tagged rows)
    clear:  cols, bits          shift: col, target, steps
    """

    kind: str
    cols: tuple = ()
    key: tuple = ()
    bits: tuple = ()
    col: int = -1
    target: int = 0
    steps: int = 0


@dataclass
class OperandRef:
    """Where one operand lives: column, first domain, stored width, signedness.

    Reads past the stored width clamp at the sign bit (signed values) or get
    redirected to the reserved all-zero column (unsigned activations), which
    is free sign/zero extension: no extra passes, at most fewer shifts.
    """

    col: int
    base: int
    width: int
    signed: bool


@dataclass
class MacroInstr:
    """An m-bit add/sub over two operand columns.

    In place: the result overwrites operand b, whose stored width must equal
    the macro width (the scheduler pre-widens definitions along destination
    chains). Out of place: the result lands in dest_cols, all written in one
    tagged write per pass; extra columns are the copies for multi-use values.
    """

    op_kind: str
    addressing: str
    negated: bool
    width: int
    a: OperandRef
    b: OperandRef
    dest_cols: tuple = ()
    dest_base: int = 0
    carry_col: int = -1
    zero_col: int = -1


def _shift_to(ops: list[MicroOp], align: dict[int, int], col: int, target: int):
    cur = align.get(col, 0)
    if cur != target:
        ops.append(MicroOp("shift", col=col, target=target, steps=abs(target - cur)))
        align[col] = target


def reads_zero(macro: MacroInstr) -> bool:
    """Whether the bit loop reads the zero column: past the width of an
    unsigned operand."""
    a, b, m = macro.a, macro.b, macro.width
    return not a.signed and a.width < m or not b.signed and b.width < m


def result_columns(macro: MacroInstr, table: LutTable,
                   align: dict[int, int]) -> tuple:
    """The columns one macro writes its result bits into, after checking
    that the macro fits its table, that its carry column and, where read
    at its port, its zero column sit at domain 0, and that no column it
    writes is one it searches otherwise:

    - the carry column is not a's, b's, the zero column (where read) or a
      result column;
    - the result columns are distinct, and none of them is a's, the zero
      column (where read) or, out of place, b's;
    - a and b share a column only as the same operand.
    """
    if (table.op_kind, table.addressing, table.negated) != \
            (macro.op_kind, macro.addressing, macro.negated):
        raise FormatError("macro and table disagree")
    if macro.addressing == IN_PLACE:
        if macro.b.width != macro.width:
            raise FormatError("in-place destination must be stored at macro width")
        dest_cols = (macro.b.col,)
    else:
        if not macro.dest_cols:
            raise FormatError("out-of-place macro needs result columns")
        dest_cols = tuple(macro.dest_cols)
    if align.get(macro.carry_col, 0) != 0:
        raise FormatError("carry column must stay at domain 0")
    a, b, carry = macro.a, macro.b, macro.carry_col
    searched = {a.col, macro.zero_col} if reads_zero(macro) else {a.col}
    if searched - {a.col, b.col} and align.get(macro.zero_col, 0):
        raise FormatError("zero column must stay at domain 0")  # its port
    if carry in searched or carry == b.col or carry in dest_cols:
        raise FormatError(f"carry column {carry} is also an operand, zero or "
                          f"result column")
    if macro.addressing == OUT_OF_PLACE:
        searched.add(b.col)
    if len(set(dest_cols)) != len(dest_cols) or \
            not searched.isdisjoint(dest_cols):
        raise FormatError(f"result columns {list(dest_cols)} repeat or are "
                          f"also searched")
    if a.col == b.col and a != b:
        raise FormatError(f"a and b share column {a.col} as different "
                          f"operands")
    return dest_cols


def expand_macro(macro: MacroInstr, table: LutTable, align: dict[int, int]) -> list[MicroOp]:
    """Lower one macro to shifts, clears, searches and tagged writes.

    `align` maps columns to their currently ported domain and is updated in
    place; shift distances come straight out of it. The carry column is
    pinned at domain 0 and cleared once per macro. Compute cost excluding
    shifts and clears is exactly 2 * pass_count * width cycles.
    """
    dest_cols = result_columns(macro, table, align)
    ops = [MicroOp("clear", cols=(macro.carry_col,), bits=(0,))]

    passes = table.passes()
    for bit in range(macro.width):
        # searched operand positions, with clamp / zero redirect past the MSB
        def place(ref: OperandRef) -> int:
            if bit < ref.width:
                _shift_to(ops, align, ref.col, ref.base + bit)
                return ref.col
            if ref.signed:
                _shift_to(ops, align, ref.col, ref.base + ref.width - 1)
                return ref.col
            return macro.zero_col

        b_col = macro.b.col if macro.addressing == IN_PLACE else place(macro.b)
        if macro.addressing == IN_PLACE:
            _shift_to(ops, align, b_col, macro.b.base + bit)
        a_col = place(macro.a)
        if macro.addressing == OUT_OF_PLACE:
            for col in dest_cols:
                _shift_to(ops, align, col, macro.dest_base + bit)
            ops.append(MicroOp("clear", cols=dest_cols, bits=(0,) * len(dest_cols)))
        for entry in passes:
            ops.append(MicroOp("search", cols=(macro.carry_col, b_col, a_col),
                               key=entry.key))
            wcols = (macro.carry_col,) + dest_cols
            wbits = (entry.write[0],) + (entry.write[1],) * len(dest_cols)
            ops.append(MicroOp("write", cols=wcols, bits=wbits))
    return ops


def compute_cycles(ops: list[MicroOp]) -> int:
    """Search+write cycles only, the figure the per-bit pass count fixes."""
    return sum(1 for op in ops if op.kind in ("search", "write"))

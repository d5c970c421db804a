"""The program format: the typed form of `program.json`, its one encoder and
its one checking loader.

A program stores only the compiler's decisions. Per conv layer these are
the shape and requantization, per output tile its channel range,
accumulator interval and first accumulator column (`Tile`), and per (tile,
channel group) one item stream that every row group runs, one item list
per channel of the group. An item stores its op, width and the columns it
reads and writes. What follows from them is derived here and nowhere else:
a conv layer's `Schedule` (`schedule`), with its row and channel groups,
whether its APs fit the geometry, the AP of each (row group, tile, channel
group), the bundle of each (tile, channel group), one AP per row group,
the adder tree over channel groups and the epoch of each step; a tile's
columns (`Tile`); each item's energy phase and the domains, width and
signedness of its operands, yielded by the one walk that checks a stream
(`stream_items`); the decoded steps (`isa.Step`, made by `isa.make_step`)
of a stream's items, made as the walk yields them (`stream_macros`), and
of a tree merge (`merge_steps`); and the add/sub counts (`macro_counts`).
A layer's number is its position in `layers`. The pass tables are the
ISA's (`isa.standard_catalog`), the same for every program, so no program
stores them.

Every class holds exactly the fields of its JSON object and every item is a
named tuple, which `json` writes as an array, so one `default=` hook encodes
the whole program. `ApProgram.from_doc` is the only way a program enters
from outside. It raises FormatError for anything the compiler could not
have emitted for the stored geometry, so the simulator and the accounting
read attributes without checking them again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .model import LayerShape, QuantSpec

PROGRAM_VERSION = 5
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

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise FormatError(f"geometry: {f.name} must be >= 1")

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
# the typed program
# ---------------------------------------------------------------------------

class MacroItem(NamedTuple):
    """An m-bit add or sub of the columns a and b. Out of place the result
    lands in the `dest` columns; in place `dest` is empty and the result
    overwrites b. How each operand is read follows from its column
    (`stream_macros`)."""

    op: str
    m: int
    a: int
    b: int
    dest: tuple[int, ...]


@dataclass(frozen=True)
class Tile:
    """Column layout of one output tile on each of its APs: the layer's
    patch slots, the value pool, one accumulator per local output channel
    from `acc0`, then the carry, zero and move-scratch columns. The accumulator
    width is the narrowest that holds the proven interval [acc_lo, acc_hi]."""

    c_lo: int
    c_hi: int
    acc_lo: int
    acc_hi: int
    acc0: int

    @property
    def acc_width(self) -> int:
        return dfglib.min_signed_width(self.acc_lo, self.acc_hi)

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


@dataclass
class _Requantized:
    """The controller's requantization of a layer's sums."""

    out_bits: int
    multiplier: int
    shift: int
    act_kind: str

    @property
    def quant(self) -> QuantSpec:
        return QuantSpec(self.out_bits, self.multiplier, self.shift,
                         self.act_kind)


@dataclass
class PoolLayer:
    kind: str = "pool"


@dataclass
class AddLayer(_Requantized):
    skip_from: int      # absolute layer index, -1 for the network input
    kind: str = "add"


@dataclass
class ConvLayer(_Requantized):
    c_in: int
    c_out: int
    f_h: int
    f_w: int
    stride: int
    pad: int
    h_in: int
    w_in: int
    in_bits: int
    tiles: list[Tile]
    # [tile][channel group][channel of the group]
    streams: list[list[list[list[MacroItem]]]]
    kind: str = "conv"

    @property
    def shape(self) -> LayerShape:
        return LayerShape(self.c_in, self.c_out, self.f_h, self.f_w,
                          self.stride, self.pad, self.h_in, self.w_in)


_LAYERS = {cls.kind: cls for cls in (ConvLayer, PoolLayer, AddLayer)}


@dataclass
class ApProgram:
    """A compiled program.

    The canonical byte encoding (UTF-8 JSON, sorted keys, compact
    separators, trailing newline) is part of the artifact contract:
    recompiling with identical inputs reproduces the file bit for bit.
    """

    name: str
    opt: str
    in_bits: int
    in_c: int
    in_h: int
    in_w: int
    geometry: ApGeometry
    layers: list[ConvLayer | PoolLayer | AddLayer]
    format_version: int = PROGRAM_VERSION
    # compile-only outputs: class attributes, so never stored or compared
    report_rows = ()
    lut_notes = ()

    def dumps(self) -> str:
        return json.dumps(self, default=_encode, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> ApProgram:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise FormatError(f"cannot read program: {exc}") from exc
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc) -> ApProgram:
        """Check a decoded program.json and build its typed form."""
        return _load(doc)


def _encode(obj) -> dict:
    """JSON object of a program dataclass; items are tuples, which `json`
    writes as arrays itself."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# ---------------------------------------------------------------------------
# what is derived from the stored decisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Where and when one conv layer runs: output positions in row groups
    (`rows_used` each), input channels in nanowire-stacked `channel_groups`
    and output channels in `n_tiles` tiles, one of its `aps` APs per (row
    group, tile, channel group). Its epochs, from the layer's first, are the
    load (`LOAD`), the stream (`STREAM`), one per adder-tree level from
    `TREE` on, and the `readout` at the roots of channel group 0."""

    LOAD, STREAM, TREE = 0, 1, 2

    n_tiles: int
    rows_used: list[int]
    channel_groups: list[list[int]]
    aps: int
    utilization: float      # share of the row groups' rows in use

    def ap(self, rg: int, og: int, cg: int) -> int:
        """AP of (row group, output tile, channel group)."""
        return (rg * self.n_tiles + og) * len(self.channel_groups) + cg

    @property
    def grid(self) -> list[tuple[int, int, int, int]]:
        """(AP, rg, og, cg) of the APs of the load and stream epochs."""
        return [(self.ap(rg, og, cg), rg, og, cg) for rg in range(
            len(self.rows_used)) for og in range(self.n_tiles)
            for cg in range(len(self.channel_groups))]

    def bundle(self, og: int, cg: int) -> list[int]:
        """The APs of (output tile, channel group), one per row group: the
        unit that runs one stream or one side of a tree merge."""
        return [self.ap(rg, og, cg) for rg in range(len(self.rows_used))]

    @property
    def tree(self) -> list[list[tuple[int, int, int]]]:
        """Per level of the binary adder tree over the channel groups, its
        (tile, dst group, src group) merges by tile and pair, each run on
        the tile's bundles of those groups; level i runs in epoch
        `TREE + i`. Each dst keeps the running partial, so channel group 0
        ends up with the full sums."""
        n = len(self.channel_groups)
        return [[(og, i, i + gap) for og in range(self.n_tiles)
                 for i in range(0, n - gap, 2 * gap)]
                for gap in (1 << k for k in range((n - 1).bit_length()))]

    @property
    def readout(self) -> int:
        return self.TREE + (len(self.channel_groups) - 1).bit_length()

    @property
    def epochs(self) -> int:
        return self.readout + 1


def schedule(shape, in_bits: int, geometry: ApGeometry,
             n_tiles: int = 1) -> Schedule:
    """The schedule of a conv layer on `n_tiles` output tiles, with row
    groups of up to `rows` and floor(domains / in_bits) channels a group.
    Raises CapacityError, before building any list, when an activation
    does not fit a track or the APs exceed the geometry's."""
    cap = geometry.domains_per_track // in_bits
    if cap < 1:
        raise CapacityError(f"{in_bits}-bit activations exceed "
                            f"{geometry.domains_per_track} domains per track")
    positions = shape.h_out * shape.w_out
    row_groups = -(-positions // geometry.rows)
    n_groups = -(-shape.c_in // cap)
    n_aps = row_groups * n_tiles * n_groups
    if n_aps > geometry.total_aps:
        raise CapacityError(
            f"needs {n_aps} APs ({row_groups} row groups x {n_tiles} tiles "
            f"x {n_groups} channel groups), geometry has {geometry.total_aps}")
    channels = list(range(shape.c_in))
    rows_used = [min(geometry.rows, positions - rg * geometry.rows)
                 for rg in range(row_groups)]
    return Schedule(n_tiles, rows_used,
                    [channels[i:i + cap] for i in range(0, shape.c_in, cap)],
                    n_aps, positions / (row_groups * geometry.rows))


def merge_steps(tile: Tile, catalog) -> list[isa.Step]:
    """The steps of one merge on `tile`, one in-place add per accumulator
    column b, on the pass tables of `catalog`. Before each, the b column of
    the source AP moves into the scratch column a of the destination AP;
    the add then folds it into b. Scratch, accumulators, carry and zero are
    distinct columns and both operands are signed at the accumulator width,
    so the adds keep the macro contract (`isa.make_step`)."""
    w, carry = tile.acc_width, tile.carry
    table = catalog[isa.ADD, isa.IN_PLACE, False]
    scratch = (tile.scratch, 0, w, True)
    return [isa.make_step("accum", isa.ADD, False, True, w, scratch,
                          (col, 0, w, True), (col,), 0, carry, tile.zero,
                          table)
            for col in range(tile.acc0, carry)]


def stream_items(channels: list[list[MacroItem]], tile: Tile, value0: int,
                 in_bits: int):
    """Check the items of one (tile, channel group) stream, whose list i
    holds the items of the group's channel i, in stream order, and yield
    each one's (phase, op, m, a, b, dest) as soon as it is checked, its
    operands as (column, first domain, stored width, signed). `value0` is
    the layer's slot count, where the value pool starts.

    Each operand reads its column as the column holds its data: a patch slot
    as channel i's unsigned `in_bits`-bit activation, the zero column as one
    unsigned bit, and a value-pool or accumulator column signed from domain
    0 at the width of its last write in the stream. An item belongs to the
    "accum" phase when it writes an accumulator, else to "dfg". Raises
    FormatError on a read of any other column or of a column not yet
    written, a write outside the value pool and accumulators, a result
    column listed twice, an accumulator written at other than the
    accumulator width, an in-place item whose width is not b's or whose a
    is its b, an out-of-place item whose result column is one of its
    operands, and a stream that leaves an accumulator unwritten.
    """
    acc0, carry, zero, acc_w = tile.acc0, tile.carry, tile.zero, \
        tile.acc_width
    width_of: dict[int, int] = {}    # column -> width of its last write

    def read(col, i, j):
        if 0 <= col < value0:
            return col, i * in_bits, in_bits, False
        if col == zero:
            return zero, 0, 1, False
        if col in width_of:
            return col, 0, width_of[col], True
        what = "before writing it" if value0 <= col < carry else \
            "outside the slots, value pool, accumulators and zero column"
        raise FormatError(f"channel {i} item {j} reads column {col} {what}")

    for i, items in enumerate(channels):
        for j, (op, m, a, b, dest) in enumerate(items):
            a_ref, b_ref = read(a, i, j), read(b, i, j)
            written = dest or (b,)
            if len(set(dest)) != len(dest):
                raise FormatError(f"channel {i} item {j} lists a result "
                                  f"column twice")
            for col in (a, b) if dest else (a,):
                if col in written:
                    raise FormatError(f"channel {i} item {j} reads its "
                                      f"result column {col} as an operand")
            for col in written:
                if not value0 <= col < carry:
                    raise FormatError(f"channel {i} item {j} writes column "
                                      f"{col}, outside the value pool and "
                                      f"accumulators")
                if col >= acc0 and m != acc_w:
                    raise FormatError(f"channel {i} item {j} writes a "
                                      f"{acc_w}-bit accumulator at {m} bits")
            if not dest and b_ref[2] != m:
                raise FormatError(f"channel {i} item {j} stores a {m}-bit "
                                  f"result over a {b_ref[2]}-bit b")
            for col in written:
                width_of[col] = m
            yield ("accum" if written[0] >= acc0 else "dfg", op, m, a_ref,
                   b_ref, dest)
    for col in range(acc0, carry):
        if col not in width_of:
            raise FormatError(f"accumulator column {col} is never written")


def stream_macros(channels: list[list[MacroItem]], tile: Tile, value0: int,
                  in_bits: int, catalog) -> list[isa.Step]:
    """The steps of one (tile, channel group) stream, each decoded as
    `stream_items` checks its item, on the tile's carry and zero columns
    and the pass tables of `catalog` (`isa.standard_catalog`). A result
    starts at domain 0, as b does in place.

    The stream rules imply the macro contract (`isa.make_step`), so no
    step is checked against it again: operands and results lie below the
    carry column and the zero column above it, results lie in the value
    pool and accumulators, and two reads of one column in one item are one
    operand. Only where the carry column stands is left to the simulator.
    """
    carry, zero = tile.carry, tile.zero
    return [isa.make_step(phase, op, False, not dest, m, a, b, dest or b[:1],
                          0, carry, zero, catalog[
                              op, isa.OUT_OF_PLACE if dest else isa.IN_PLACE,
                              False])
            for phase, op, m, a, b, dest in stream_items(channels, tile,
                                                         value0, in_bits)]


def macro_counts(lp: ConvLayer, sched: Schedule) -> tuple[int, int]:
    """Add and sub macros one conv layer issues on its schedule: each row
    group runs each (tile, channel group) stream once, and each tree merge
    runs one add per accumulator of its tile on each row group."""
    ops = [item.op for row in lp.streams for channels in row
           for items in channels for item in items]
    merges = sum(lp.tiles[og].carry - lp.tiles[og].acc0
                 for level in sched.tree for og, _dst, _src in level)
    n = len(sched.rows_used)
    return n * (ops.count(isa.ADD) + merges), n * ops.count(isa.SUB)


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------

def _check(ok, where: str, what: str, *args):
    """Raise FormatError `where: what` unless `ok`. The message is formatted
    with `args` (`str.format`) only then, so a passing check costs no repr."""
    if not ok:
        raise FormatError(f"{where}: {what.format(*args)}")


def _int(v, where: str, lo=-math.inf, hi=math.inf) -> int:
    """`v` as an int in [lo, hi]; a bool or a float is not an int here."""
    _check(type(v) is int, where, "expected an integer, got {!r}", v)
    _check(lo <= v <= hi, where, "{} outside [{}, {}]", v, lo, hi)
    return v


def _list(v, where: str, n: int | None = None) -> list:
    _check(type(v) is list, where, "expected a list, got {!r}", v)
    _check(n is None or len(v) == n, where, "expected {} entries, got {}", n,
           len(v))
    return v


# JSON types of the field annotations a loader checks; a float may be
# written as an int
_JSON_TYPES = {"int": (int,), "str": (str,), "float": (int, float),
               "list": (list,), "dict": (dict,)}


def checked_fields(v, cls, where: str) -> dict:
    """`v` as an object with exactly the fields of `cls`, each annotated
    int, str, float, list or dict one of that JSON type; a float must be
    finite."""
    _check(type(v) is dict, where, "expected an object, got {!r}", v)
    names = {f.name for f in fields(cls)}
    missing, extra = sorted(names - set(v)), sorted(set(v) - names)
    _check(not missing, where, "missing fields {}", missing)
    _check(not extra, where, "unknown fields {}", extra)
    for f in fields(cls):
        want, x = _JSON_TYPES.get(f.type.split("[")[0]), v[f.name]
        _check(want is None or type(x) in want and (
            type(x) is not float or math.isfinite(x)), where,
            "{} must be {}, got {!r}", f.name, f.type, x)
    return v


def _load(doc) -> ApProgram:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != PROGRAM_VERSION:
        raise FormatError(f"unsupported program version {version!r}")
    checked_fields(doc, ApProgram, "program")
    geo = ApGeometry(**checked_fields(doc["geometry"], ApGeometry,
                                      "geometry"))
    prog = ApProgram(**{**doc, "geometry": geo, "layers": []})
    _check(prog.opt in OPT_LEVELS, "program", "unknown opt level {!r}", prog.opt)
    _int(prog.in_bits, "in_bits", 1, 16)
    for name in ("in_c", "in_h", "in_w"):
        _int(getattr(prog, name), name, 1)
    _check(_list(doc["layers"], "layers"), "program", "no layers")

    cur = (prog.in_c, prog.in_h, prog.in_w)
    bits = prog.in_bits
    out_shapes: list[tuple[int, int, int]] = []
    for idx, ld in enumerate(doc["layers"]):
        where = f"layer {idx}"
        kind = ld.get("kind") if type(ld) is dict else None
        cls = _LAYERS.get(kind) if type(kind) is str else None
        _check(cls, where, "unknown kind {!r}", kind)
        layer = cls(**checked_fields(ld, cls, where))
        if cls is PoolLayer:
            c, h, w = cur
            _check(h % 2 == 0 and w % 2 == 0, where,
                   "pool needs even input extents")
            cur = (c, h // 2, w // 2)
        elif cls is AddLayer:
            skip = _int(layer.skip_from, f"{where} skip_from", -1, idx - 1)
            other = (prog.in_c, prog.in_h, prog.in_w) if skip == -1 \
                else out_shapes[skip]
            _check(other == cur, where, "add operands differ {} vs {}", cur,
                   other)
        else:
            try:
                cur = _conv(layer, where, cur, bits, geo)
            except CapacityError as exc:
                raise FormatError(f"{where}: {exc}") from exc
        if cls is not PoolLayer:
            bits = layer.quant.activation_bits    # QuantSpec checks the fields
        out_shapes.append(cur)
        prog.layers.append(layer)
    return prog


def _conv(layer: ConvLayer, where: str, cur: tuple[int, int, int], bits: int,
          geo: ApGeometry) -> tuple[int, int, int]:
    """Check a conv layer against its input and the geometry, replace its
    lists by typed ones and return its output shape. A layer that does not
    fit the geometry raises CapacityError."""
    _check((layer.c_in, layer.h_in, layer.w_in, layer.in_bits) == (*cur, bits),
           where, "expects {}x{}x{} at {} bits, gets {}x{}x{} at {}",
           layer.c_in, layer.h_in, layer.w_in, layer.in_bits, *cur, bits)
    shape = layer.shape
    n_slots = shape.f_h * shape.f_w

    layer.tiles = [Tile(**checked_fields(t, Tile, f"{where} tile {og}"))
                   for og, t in enumerate(_list(layer.tiles, where))]
    c_hi = 0
    for og, t in enumerate(layer.tiles):
        at = f"{where} tile {og}"
        _check(t.c_lo == c_hi < t.c_hi, at, "tiles do not partition c_out")
        c_hi = t.c_hi
        _check(t.acc0 >= n_slots, at, "acc0 {} lies in the {} patch slots",
               t.acc0, n_slots)
        # an all-zero input leaves every accumulator at 0
        _check(t.acc_lo <= 0 <= t.acc_hi, at,
               "accumulator interval [{}, {}] excludes 0", t.acc_lo, t.acc_hi)
        _check(t.columns_used <= geo.columns, at,
               "needs {} columns, geometry has {}", t.columns_used, geo.columns)
    _check(c_hi == layer.c_out, where, "tiles do not partition c_out")

    # `_item` and `stream_items` keep every value within a track
    groups = schedule(shape, layer.in_bits, geo,
                      len(layer.tiles)).channel_groups
    layer.streams = [
        [_stream(channels, geo, tile, n_slots, layer.in_bits,
                 len(groups[cg]), f"{where} stream {og}/{cg}")
         for cg, channels in enumerate(_list(row, where, len(groups)))]
        for og, (tile, row) in enumerate(zip(
            layer.tiles, _list(layer.streams, where, len(layer.tiles))))]
    return shape.c_out, shape.h_out, shape.w_out


def _stream(v, geo: ApGeometry, tile: Tile, value0: int, in_bits: int,
            n_channels: int, where: str) -> list[list[MacroItem]]:
    """A stream's item lists, one per channel of its group, after
    `stream_items` accepts them."""
    channels = [[_item(raw, geo, f"{where} channel {i} item {j}")
                 for j, raw in enumerate(_list(items, where))]
                for i, items in enumerate(_list(v, where, n_channels))]
    try:
        for _checked in stream_items(channels, tile, value0, in_bits):
            pass
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return channels


def _item(v, geo: ApGeometry, where: str) -> MacroItem:
    op, m, a, b, dest = _list(v, where, 5)
    _check(op in (isa.ADD, isa.SUB), where, "unknown macro {!r}", op)
    _int(m, f"{where} width", 1, geo.domains_per_track)
    for col in (a, b, *_list(dest, where)):
        _int(col, where)
    return MacroItem(op, m, a, b, tuple(dest))

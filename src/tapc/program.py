"""The program format: the typed form of `program.json`, its one encoder and
its one checking loader.

A program stores only the compiler's decisions. Per conv layer these are
the shape and requantization, per output tile its channel range,
accumulator interval and value-pool layout (`Tile`), and per (tile, channel
group) one item stream that every row group runs, one item list per channel
of the group. An item stores its op, width and the columns it reads and
writes. What follows from them is derived here and nowhere else: the
placement (`place_layer`), whether it fits the geometry (`fit_layer`), a
tile's columns (`Tile`), the AP of each (row group, tile, channel group)
(`ap_id`), the adder tree over channel groups (`adder_tree`, `merge_adds`),
each item's macro and energy phase, with the domains, width and signedness
of its operands (`stream_macros`), and the add/sub counts (`macro_counts`).
A layer's number is its position in `layers`.

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

PROGRAM_VERSION = 4
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
    luts: list[isa.LutTable]    # the four plain tables
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
    """JSON object of a program dataclass or pass table; items are tuples,
    which `json` writes as arrays itself."""
    if isinstance(obj, isa.LutTable):
        return {"op": obj.op_kind, "addressing": obj.addressing,
                "entries": [[e.key, e.write, e.pass_index]
                            for _k, e in sorted(obj.entries.items())]}
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# ---------------------------------------------------------------------------
# what is derived from the stored decisions
# ---------------------------------------------------------------------------

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


def fit_layer(lp: ConvLayer, geometry: ApGeometry) -> dict:
    """The placement of a conv layer, after checking that the layer fits the
    geometry: its APs, and every accumulator and stored value along one
    track, one bit per domain. Raises CapacityError otherwise."""
    placed = place_layer(lp.shape, lp.in_bits, geometry)
    n_rows, n_groups = placed["row_groups"], len(placed["channel_groups"])
    n_aps = n_rows * len(lp.tiles) * n_groups
    if n_aps > geometry.total_aps:
        raise CapacityError(
            f"needs {n_aps} APs ({n_rows} row groups x {len(lp.tiles)} tiles "
            f"x {n_groups} channel groups), geometry has {geometry.total_aps}")
    for tile, row in zip(lp.tiles, lp.streams):
        value_w = max((item.m for channels in row for items in channels
                       for item in items), default=0)
        for what, width in (("accumulator", tile.acc_width),
                            ("value", value_w)):
            if width > geometry.domains_per_track:
                raise CapacityError(
                    f"{width}-bit {what} exceeds "
                    f"{geometry.domains_per_track} domains per track")
    return placed


def ap_id(rg: int, og: int, cg: int, n_tiles: int, n_groups: int) -> int:
    """AP of (row group, output tile, channel group) in a conv layer."""
    return (rg * n_tiles + og) * n_groups + cg


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


def adder_tree(lp: ConvLayer,
               geometry: ApGeometry) -> list[list[tuple[int, int, int]]]:
    """The adder tree over a conv layer's channel groups: per level, its
    (dst AP, src AP, tile) merges by row group, then tile, then pair. Each
    level is one epoch, and channel group 0 of every (row group, tile)
    ends up with the full sums."""
    placed = place_layer(lp.shape, lp.in_bits, geometry)
    n_tiles, n_groups = len(lp.tiles), len(placed["channel_groups"])
    return [[(ap_id(rg, og, dst, n_tiles, n_groups),
              ap_id(rg, og, src, n_tiles, n_groups), og)
             for rg in range(placed["row_groups"]) for og in range(n_tiles)
             for dst, src in pairs]
            for pairs in schedule_accumulation(n_groups)]


def merge_adds(tile: Tile) -> list[isa.MacroInstr]:
    """The adds of one merge on `tile`, one per accumulator column b. Before
    each, the b column of the source AP moves into the scratch column a of
    the destination AP; the add then folds it into b in place."""
    w = tile.acc_width
    scratch = isa.OperandRef(tile.scratch, 0, w, True)
    return [isa.MacroInstr(isa.ADD, isa.IN_PLACE, False, w, scratch,
                           isa.OperandRef(col, 0, w, True), (), 0, tile.carry,
                           tile.zero)
            for col in range(tile.acc0, tile.carry)]


def stream_macros(channels: list[list[MacroItem]], tile: Tile,
                  in_bits: int) -> list[tuple[isa.MacroInstr, str]]:
    """The macros and energy phases of one (tile, channel group) stream,
    whose list i holds the items of the group's channel i, in stream order.

    Each operand reads its column as the column holds its data: a patch slot
    as channel i's unsigned `in_bits`-bit activation, the zero column as one
    unsigned bit, and a value-pool or accumulator column signed from domain
    0 at the width of its last write in the stream. A macro uses the tile's
    carry and zero columns, and belongs to the "accum" phase when it writes
    an accumulator, else to "dfg". Raises FormatError on a read of any other
    column or of a column not yet written, a write outside the value pool
    and accumulators, an accumulator written at other than the accumulator
    width, an in-place item whose width is not b's, and a stream that
    leaves an accumulator unwritten.
    """
    value0, acc0, end, acc_w = tile.value0, tile.acc0, tile.carry, tile.acc_width
    zero = isa.OperandRef(tile.zero, 0, 1, False)
    width_of: dict[int, int] = {}    # column -> width of its last write
    macros = []

    def read(col, i, j):
        if 0 <= col < value0:
            return isa.OperandRef(col, i * in_bits, in_bits, False)
        if col == zero.col:
            return zero
        if col in width_of:
            return isa.OperandRef(col, 0, width_of[col], True)
        what = "before writing it" if value0 <= col < end else \
            "outside the slots, value pool, accumulators and zero column"
        raise FormatError(f"channel {i} item {j} reads column {col} {what}")

    for i, items in enumerate(channels):
        for j, (op, m, a, b, dest) in enumerate(items):
            a_ref, b_ref = read(a, i, j), read(b, i, j)
            written = dest or (b,)
            for col in written:
                if not value0 <= col < end:
                    raise FormatError(f"channel {i} item {j} writes column "
                                      f"{col}, outside the value pool and "
                                      f"accumulators")
                if col >= acc0 and m != acc_w:
                    raise FormatError(f"channel {i} item {j} writes a "
                                      f"{acc_w}-bit accumulator at {m} bits")
            if not dest and b_ref.width != m:
                raise FormatError(f"channel {i} item {j} stores a {m}-bit "
                                  f"result over a {b_ref.width}-bit b")
            for col in written:
                width_of[col] = m
            macro = isa.MacroInstr(
                op, isa.OUT_OF_PLACE if dest else isa.IN_PLACE, False, m,
                a_ref, b_ref, dest, 0, tile.carry, tile.zero)
            macros.append((macro, "accum" if written[0] >= acc0 else "dfg"))
    for col in range(acc0, end):
        if col not in width_of:
            raise FormatError(f"accumulator column {col} is never written")
    return macros


def macro_counts(lp: ConvLayer, geometry: ApGeometry) -> tuple[int, int]:
    """Add and sub macros one conv layer issues: each row group runs every
    stream once, and each tree merge runs its adds once."""
    row_groups = place_layer(lp.shape, lp.in_bits, geometry)["row_groups"]
    ops = [item.op for row in lp.streams for channels in row
           for items in channels for item in items] * row_groups
    ops += [macro.op_kind for level in adder_tree(lp, geometry)
            for _dst, _src, og in level for macro in merge_adds(lp.tiles[og])]
    return ops.count(isa.ADD), ops.count(isa.SUB)


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------

_PLAIN_LUTS = [(op, mode) for op in (isa.ADD, isa.SUB)
               for mode in (isa.IN_PLACE, isa.OUT_OF_PLACE)]


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
    int, str, float, list or dict one of that JSON type."""
    _check(type(v) is dict, where, "expected an object, got {!r}", v)
    names = {f.name for f in fields(cls)}
    missing, extra = sorted(names - set(v)), sorted(set(v) - names)
    _check(not missing, where, "missing fields {}", missing)
    _check(not extra, where, "unknown fields {}", extra)
    for f in fields(cls):
        want = _JSON_TYPES.get(f.type.split("[")[0])
        _check(want is None or type(v[f.name]) in want, where,
               "{} must be {}, got {!r}", f.name, f.type, v[f.name])
    return v


def _load(doc) -> ApProgram:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != PROGRAM_VERSION:
        raise FormatError(f"unsupported program version {version!r}")
    checked_fields(doc, ApProgram, "program")
    geo = ApGeometry(**checked_fields(doc["geometry"], ApGeometry,
                                      "geometry"))
    prog = ApProgram(**{**doc, "geometry": geo, "luts": _luts(doc["luts"]),
                        "layers": []})
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


def _luts(v) -> list[isa.LutTable]:
    tables = []
    for i, d in enumerate(_list(v, "luts")):
        where = f"lut {i}"
        _check(type(d) is dict and set(d) == {"op", "addressing", "entries"},
               where, "expected an object of op, addressing and entries")
        entries = {}
        for e in _list(d["entries"], where, 8):
            key, write, pidx = _list(e, where, 3)
            key = tuple(_int(x, where, 0, 1) for x in _list(key, where, 3))
            write = tuple(_int(x, where, 0, 1) for x in _list(write, where, 2))
            entries[key] = isa.LutEntry(key, write, _int(pidx, where, 0))
        table = isa.LutTable(d["op"], d["addressing"], False, entries)
        _check(isa.validate_lut(table).ok, where, "{} table fails validation",
               table.name)
        tables.append(table)
    _check(sorted((t.op_kind, t.addressing) for t in tables) == _PLAIN_LUTS,
           "luts", "not exactly the four plain tables")
    return tables


def _conv(layer: ConvLayer, where: str, cur: tuple[int, int, int], bits: int,
          geo: ApGeometry) -> tuple[int, int, int]:
    """Check a conv layer against its input and the geometry, replace its
    lists by typed ones and return its output shape. A layer that does not
    fit the geometry raises CapacityError."""
    _check((layer.c_in, layer.h_in, layer.w_in, layer.in_bits) == (*cur, bits),
           where, "expects {}x{}x{} at {} bits, gets {}x{}x{} at {}",
           layer.c_in, layer.h_in, layer.w_in, layer.in_bits, *cur, bits)
    shape = layer.shape
    groups = place_layer(shape, layer.in_bits, geo)["channel_groups"]

    layer.tiles = [Tile(**checked_fields(t, Tile, f"{where} tile {og}"))
                   for og, t in enumerate(_list(layer.tiles, where))]
    c_hi = 0
    for og, t in enumerate(layer.tiles):
        at = f"{where} tile {og}"
        _check(t.c_lo == c_hi < t.c_hi, at, "tiles do not partition c_out")
        c_hi = t.c_hi
        _check(t.value0 == shape.f_h * shape.f_w, at,
               "value0 {} is not the {} patch slots", t.value0,
               shape.f_h * shape.f_w)
        _int(t.n_value_cols, f"{at} n_value_cols", 0)
        _check(t.columns_used <= geo.columns, at,
               "needs {} columns, geometry has {}", t.columns_used, geo.columns)
    _check(c_hi == layer.c_out, where, "tiles do not partition c_out")

    layer.streams = [
        [_stream(channels, geo, tile, layer.in_bits, len(groups[cg]),
                 f"{where} stream {og}/{cg}")
         for cg, channels in enumerate(_list(row, where, len(groups)))]
        for og, (tile, row) in enumerate(zip(
            layer.tiles, _list(layer.streams, where, len(layer.tiles))))]
    fit_layer(layer, geo)
    return shape.c_out, shape.h_out, shape.w_out


def _stream(v, geo: ApGeometry, tile: Tile, in_bits: int, n_channels: int,
            where: str) -> list[list[MacroItem]]:
    """A stream's item lists, one per channel of its group, after
    `stream_macros` accepts them."""
    channels = [[_item(raw, geo, f"{where} channel {i} item {j}")
                 for j, raw in enumerate(_list(items, where))]
                for i, items in enumerate(_list(v, where, n_channels))]
    try:
        stream_macros(channels, tile, in_bits)
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

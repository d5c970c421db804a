"""The program format: the typed form of `program.json`, its one encoder and
its one checking loader.

A program stores only the compiler's decisions. Per conv layer these are
the shape and requantization, per output tile its channel range,
accumulator interval and value-pool layout (`Tile`), and per (tile, channel
group) one item stream that every row group runs. What follows from them
is derived here and nowhere else: the placement (`place_layer`), whether it
fits the geometry (`fit_layer`), a tile's columns (`Tile`), the AP of each
(row group, tile, channel group) (`ap_id`), the adder tree over channel
groups (`adder_tree`, `merge_adds`), a stored item's macro and energy phase
(`macro_of`) and the add/sub counts (`macro_counts`). A layer's number is
its position in `layers`.

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

PROGRAM_VERSION = 3
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

class Ref(NamedTuple):
    """Where an operand lives: column, first domain, stored width, and 1 for
    a signed value or 0 for an unsigned activation."""

    col: int
    base: int
    width: int
    signed: int


class MacroItem(NamedTuple):
    """An m-bit add or sub. Out of place the result lands in the `dest`
    columns; in place `dest` is empty and the result overwrites b."""

    op: str
    mode: str
    m: int
    a: Ref
    b: Ref
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
    streams: list[list[list[MacroItem]]]    # [tile][channel group]
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
        value_w = max((item.m for items in row for item in items), default=0)
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


def merge_adds(tile: Tile) -> list[MacroItem]:
    """The adds of one merge on `tile`, one per accumulator column b. Before
    each, the b column of the source AP moves into the scratch column a of
    the destination AP; the add then folds it into b in place."""
    w = tile.acc_width
    scratch = Ref(tile.scratch, 0, w, 1)
    return [MacroItem(isa.ADD, isa.IN_PLACE, w, scratch, Ref(col, 0, w, 1), ())
            for col in range(tile.acc0, tile.carry)]


def macro_of(item: MacroItem, tile: Tile) -> tuple[isa.MacroInstr, str]:
    """The macro and energy phase of a stored item on one of `tile`'s APs.
    The macro uses the tile's carry and zero columns; it belongs to the
    "accum" phase when it writes an accumulator column (b in place, the
    first result column otherwise)."""
    op, mode, m, a, b, dest = item
    macro = isa.MacroInstr(op, mode, False, m, isa.OperandRef(*a),
                           isa.OperandRef(*b), dest, 0, tile.carry, tile.zero)
    written = dest[0] if dest else b.col
    phase = "accum" if tile.acc0 <= written < tile.carry else "dfg"
    return macro, phase


def macro_counts(lp: ConvLayer, geometry: ApGeometry) -> tuple[int, int]:
    """Add and sub macros one conv layer issues: each row group runs every
    stream once, and each tree merge runs its adds once."""
    row_groups = place_layer(lp.shape, lp.in_bits, geometry)["row_groups"]
    ops = [item.op for row in lp.streams for items in row
           for item in items] * row_groups
    ops += [item.op for level in adder_tree(lp, geometry)
            for _dst, _src, og in level for item in merge_adds(lp.tiles[og])]
    return ops.count(isa.ADD), ops.count(isa.SUB)


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------

_PLAIN_LUTS = [(op, mode) for op in (isa.ADD, isa.SUB)
               for mode in (isa.IN_PLACE, isa.OUT_OF_PLACE)]


def _check(ok, where: str, what: str):
    if not ok:
        raise FormatError(f"{where}: {what}")


def _int(v, where: str, lo=-math.inf, hi=math.inf) -> int:
    """`v` as an int in [lo, hi]; a bool or a float is not an int here."""
    _check(type(v) is int, where, f"expected an integer, got {v!r}")
    _check(lo <= v <= hi, where, f"{v} outside [{lo}, {hi}]")
    return v


def _list(v, where: str, n: int | None = None) -> list:
    _check(type(v) is list, where, f"expected a list, got {v!r}")
    _check(n is None or len(v) == n, where, f"expected {n} entries, got {len(v)}")
    return v


# JSON types of the field annotations a loader checks; a float may be
# written as an int
_JSON_TYPES = {"int": (int,), "str": (str,), "float": (int, float),
               "list": (list,), "dict": (dict,)}


def checked_fields(v, cls, where: str) -> dict:
    """`v` as an object with exactly the fields of `cls`, each annotated
    int, str, float, list or dict one of that JSON type."""
    _check(type(v) is dict, where, f"expected an object, got {v!r}")
    names = {f.name for f in fields(cls)}
    missing, extra = sorted(names - set(v)), sorted(set(v) - names)
    _check(not missing, where, f"missing fields {missing}")
    _check(not extra, where, f"unknown fields {extra}")
    for f in fields(cls):
        want = _JSON_TYPES.get(f.type.split("[")[0])
        _check(want is None or type(v[f.name]) in want, where,
               f"{f.name} must be {f.type}, got {v[f.name]!r}")
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
    _check(prog.opt in OPT_LEVELS, "program", f"unknown opt level {prog.opt!r}")
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
        _check(cls, where, f"unknown kind {kind!r}")
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
            _check(other == cur, where, f"add operands differ {cur} vs {other}")
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
        _check(isa.validate_lut(table).ok, where,
               f"{table.name} table fails validation")
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
           where, f"expects {layer.c_in}x{layer.h_in}x{layer.w_in} at "
                  f"{layer.in_bits} bits, gets {'x'.join(map(str, cur))} at "
                  f"{bits}")
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
               f"value0 {t.value0} is not the {shape.f_h * shape.f_w} "
               f"patch slots")
        _int(t.n_value_cols, f"{at} n_value_cols", 0)
        _check(t.columns_used <= geo.columns, at,
               f"needs {t.columns_used} columns, geometry has {geo.columns}")
    _check(c_hi == layer.c_out, where, "tiles do not partition c_out")

    layer.streams = [
        [_stream(items, geo, tile, layer.in_bits, len(groups[cg]),
                 f"{where} stream {og}/{cg}")
         for cg, items in enumerate(_list(row, where, len(groups)))]
        for og, (tile, row) in enumerate(zip(
            layer.tiles, _list(layer.streams, where, len(layer.tiles))))]
    fit_layer(layer, geo)
    return shape.c_out, shape.h_out, shape.w_out


def _stream(v, geo: ApGeometry, tile: Tile, in_bits: int, n_channels: int,
            where: str) -> list[MacroItem]:
    """A stream's items, each reading its operands as their columns hold
    them: a patch slot as one of the group's unsigned `in_bits`-bit
    channels, the zero column as one unsigned bit, and a value-pool or
    accumulator column signed from domain 0, after an earlier item wrote it
    and at the width of that write. Results go only to value-pool and
    accumulator columns, accumulators at the accumulator width, and an
    in-place result has the width of b. The stream writes every
    accumulator."""
    width_of: dict[int, int] = {}    # column -> width of its last write
    items = []
    for i, raw in enumerate(_list(v, where)):
        at = f"{where} item {i}"
        item = _macro(raw, geo, at)
        written = item.dest or (item.b.col,)
        _check(all(tile.value0 <= col < tile.carry for col in written), at,
               "writes outside the value pool and accumulators")
        _check(item.dest or item.b.width == item.m, at,
               f"stores a {item.m}-bit result over a {item.b.width}-bit b")
        for col, base, width, signed in (item.a, item.b):
            if col < tile.value0:
                _check(not signed and width == in_bits
                       and base % in_bits == 0
                       and base < n_channels * in_bits, at,
                       f"reads slot {col} other than as one of its "
                       f"{n_channels} unsigned {in_bits}-bit channels")
            elif col >= tile.carry:
                _check(col == tile.zero and (base, width, signed) == (0, 1, 0),
                       at, "reads the carry or scratch column, or the zero "
                           "column other than as one unsigned bit")
            else:
                what = "accumulator" if col >= tile.acc0 else "value"
                _check(signed and base == 0, at,
                       f"reads {what} column {col} other than signed from "
                       f"domain 0")
                _check(col in width_of, at,
                       f"reads {what} column {col} before writing it")
                _check(width_of[col] == width, at,
                       f"reads a {width_of[col]}-bit {what} as {width} bits")
        for col in written:
            _check(col < tile.acc0 or item.m == tile.acc_width, at,
                   f"writes a {tile.acc_width}-bit accumulator at {item.m} "
                   f"bits")
            width_of[col] = item.m
        items.append(item)
    _check(all(col in width_of for col in range(tile.acc0, tile.carry)), where,
           "leaves an accumulator unwritten")
    return items


def _ref(v, geo: ApGeometry, where: str) -> Ref:
    """An operand whose domains [base, base + width) exist in the geometry."""
    ref = Ref(*_list(v, where, 4))
    _int(ref.col, f"{where} column", 0, geo.columns - 1)
    _int(ref.width, f"{where} width", 1, geo.domains_per_track)
    _int(ref.base, f"{where} base", 0, geo.domains_per_track - ref.width)
    _int(ref.signed, f"{where} signed", 0, 1)
    return ref


def _macro(v, geo: ApGeometry, where: str) -> MacroItem:
    op, mode, m, a, b, dest = _list(v, where, 6)
    _check(op in (isa.ADD, isa.SUB) and mode in (isa.IN_PLACE, isa.OUT_OF_PLACE),
           where, f"unknown macro {op!r} {mode!r}")
    _int(m, f"{where} width", 1, geo.domains_per_track)
    for col in _list(dest, where):
        _int(col, f"{where} result column", 0, geo.columns - 1)
    _check(bool(dest) == (mode == isa.OUT_OF_PLACE), where,
           "an out-of-place macro needs result columns, an in-place one has "
           "none")
    return MacroItem(op, mode, m, _ref(a, geo, where), _ref(b, geo, where),
                     tuple(dest))

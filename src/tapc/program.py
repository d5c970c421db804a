"""The program format: the typed form of `program.json`, its one encoder and
its one checking loader.

A program stores only the compiler's decisions. Per conv layer these are
the shape and requantization, per output tile its channel range,
accumulator interval and first accumulator column (`Tile`), and per (tile,
channel group) one item stream that every row group runs, a table of
integer columns (`Stream`) in the file and here alike. An item stores its
op, width and the columns it reads and writes. What follows from them is
derived here and nowhere else: a conv layer's `Schedule` (`schedule`), with
its row and channel groups, whether its APs fit the geometry, the AP of
each (row group, tile, channel group), the bundle of each (tile, channel
group), one AP per row group, the adder tree over channel groups and the
epoch of each step; a tile's columns (`Tile`); the decoded steps (`Steps`)
of a stream, made by the one check of its table (`stream_steps`), and of a
tree merge (`merge_steps`), with their port walks and bit reads; and the
add/sub counts (`macro_counts`). A layer's number is its position in
`layers`. The pass tables are the ISA's (`isa.standard_catalog`), read
once a process, so no program stores them.

Every class holds exactly the fields of its JSON object, and one `default=`
hook encodes the whole program. `ApProgram.from_doc` is the only way a
program enters from outside. It raises FormatError for anything the
compiler could not have emitted for the stored geometry, so the simulator
and the accounting read attributes without checking them again.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import string
import textwrap
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import dfg as dfglib
from . import isa
from .errors import CapacityError, FormatError
from .model import LayerShape, QuantSpec

PROGRAM_VERSION = 6
OPT_LEVELS = ("unroll", "unroll_cse")
OPS = (isa.ADD, isa.SUB)        # an op's code is its index here
PHASES = ("dfg", "accum")       # and a step's energy phase's here


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

@dataclass(eq=False)
class Stream:
    """One (tile, channel group) stream as the file's table of integer
    columns: `items`, each channel's item count in group order, and per item
    in stream order its op (an index into OPS), width m, columns a and b and
    count `nd` of result columns (0 in place: b), that `dest` holds in turn."""

    items: np.ndarray
    op: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    nd: np.ndarray
    dest: np.ndarray

    @property
    def ch(self) -> np.ndarray:     # each item's channel in the group
        return np.repeat(np.arange(len(self.items)), self.items)


class Steps(NamedTuple):
    """Decoded macros as a table, an entry per step in run order: energy
    phase (an index into PHASES), op (into OPS), negated, in place, width m,
    operands a and b as (column, first domain, stored width, signed)
    arrays, result-column count `nd` (1 in place: b) and pass count; `dest`
    holds the result columns, step after step, each written from domain 0.
    An operand on the zero column is one unsigned bit at domain 0."""

    phase: np.ndarray
    op: np.ndarray
    negated: np.ndarray
    in_place: np.ndarray
    m: np.ndarray
    a: tuple
    b: tuple
    dest: np.ndarray
    nd: np.ndarray
    passes: np.ndarray
    carry: int
    zero: int

    def ports(self):
        """(walks, reads, port). The walks, as `isa.expand_macro` moves the
        ports: (step, column, first, last domain) arrays, of b, of a if not
        on a ported b, of the result columns out of place, from domain 0; a
        signed operand or one of positive width is ported. The reads of a
        and b, (col, base, n, fill, dom): bits [0, n) from domains `base` on
        of `col`, then each further bit from domain `dom` of `fill`, the
        sign bit, else the zero column's domain 0, read at its port by the
        steps `port` marks, which walk no operand on it."""
        m, idx = self.m, np.arange(len(self.m))
        ported = [(signed != 0) | (width > 0)
                  for _col, _base, width, signed in (self.b, self.a)]
        ported[1] &= ~ported[0] | (self.a[0] != self.b[0])
        parts = []
        for (col, base, width, _signed), on in zip((self.b, self.a), ported):
            top = base + width - 1
            parts.append((idx[on], col[on], np.minimum(base, top)[on],
                          np.minimum(base + m - 1, top)[on]))
        owner = np.repeat(idx, self.nd)
        out = ~self.in_place[owner]
        parts.append((owner[out], self.dest[out], 0 * owner[out],
                      m[owner][out] - 1))
        walks = tuple(map(np.concatenate, zip(*parts)))
        walked = np.isin(idx, walks[0][walks[1] == self.zero])
        port, reads = np.zeros(len(m), bool), []
        for col, base, width, signed in (self.a, self.b):
            n, signed = np.clip(width, 0, m), signed.astype(bool)
            reads.append((col, base, n, np.where(signed, col, self.zero),
                          np.where(signed, base + width - 1, 0)))
            port |= ~signed & (n < m)
        return walks, reads, port & ~walked


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
    # [tile][channel group]
    streams: list[list[Stream]]
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


def _encode(obj) -> dict | list:
    """JSON object of a program dataclass, or list of a stream's column."""
    if type(obj) is np.ndarray:
        return obj.tolist()
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


@functools.cache
def _pass_counts() -> np.ndarray:
    """The ISA's plain tables' passes by op and (out of place, in place),
    read at the first decode: importing this module derives no table."""
    tables = isa.standard_catalog()[0]
    return np.array([[tables[op, mode, False].pass_count for mode in (
        isa.OUT_OF_PLACE, isa.IN_PLACE)] for op in OPS])


def merge_steps(tile: Tile) -> Steps:
    """The steps of one merge on `tile`, an in-place add per accumulator
    column b, into which it folds the scratch column a, where the b column
    of the source AP has moved. Scratch, accumulators, carry and zero are
    distinct columns, so the adds keep the macro contract."""
    cols, w = np.arange(tile.acc0, tile.carry), tile.acc_width
    one, yes = np.ones(len(cols), np.int64), np.ones(len(cols), bool)
    return Steps(one * PHASES.index("accum"), one * OPS.index(isa.ADD), ~yes,
                 yes, one * w, (one * tile.scratch, 0 * one, one * w, yes),
                 (cols, 0 * one, one * w, yes), cols, one,
                 one * _pass_counts()[OPS.index(isa.ADD), 1], tile.carry,
                 tile.zero)


def stream_steps(stream: Stream, tile: Tile, value0: int,
                 in_bits: int) -> Steps:
    """Check one (tile, channel group) stream and decode its items into
    steps on the tile's carry and zero columns and the ISA's pass tables;
    the value pool starts at `value0`, the layer's slot count.

    An operand reads a patch slot as channel i's unsigned `in_bits`-bit
    activation from domain i × in_bits, the zero column as one unsigned bit,
    and a pool or accumulator column signed from domain 0 at the width of
    its last write before the item, found by one search of the writes
    sorted by (column, item). A result starts at domain 0. An item writing
    an accumulator is in the "accum" phase, else in "dfg". FormatError names
    the first item that breaks one of the `rules`, or an accumulator no item
    writes. The rules imply the macro contract (`isa.result_columns`), so
    no step is checked against it; only where the carry and zero columns
    stand is left to the simulator."""
    s, acc0, carry, acc_w = stream, tile.acc0, tile.carry, tile.acc_width
    n, m, idx, in_place = len(s.m), s.m, np.arange(len(s.m)), s.nd == 0
    # the columns each item writes, item by item: its results, or b in place
    owner = np.concatenate([np.repeat(idx, s.nd), idx[in_place]])
    order = np.argsort(owner, kind="stable")
    owner, dest = owner[order], np.concatenate([s.dest, s.b[in_place]])[order]
    by = np.lexsort((owner, dest))
    keys = dest[by] * (n + 1) + owner[by]

    def read(col):
        slot, zero = (col >= 0) & (col < value0), col == tile.zero
        at = np.searchsorted(keys, col * (n + 1) + idx) - 1
        last = by[at]       # the column's last write before the item
        width = np.where(slot, in_bits, np.where(zero, 1, m[owner[last]]))
        return ((col, np.where(slot, s.ch * in_bits, 0), width,
                 ~(slot | zero)),
                ~(slot | zero) & ((at < 0) | (dest[last] != col)))
    (a, bad_a), (b, bad_b) = read(s.a), read(s.b)
    same = (dest[by][1:] == dest[by][:-1]) & (owner[by][1:] == owner[by][:-1])
    rules = [(idx[bad_a | bad_b], "reads a column before writing it, or "
              "outside the slots, value pool, accumulators and zero column"),
             (owner[by][1:][same], "lists a result column twice"),
             (np.append(owner[~in_place[owner] & ((dest == s.a[owner])
                                                  | (dest == s.b[owner]))],
                        idx[in_place & (s.a == s.b)]),
              "reads its result column as an operand"),
             (owner[(dest < value0) | (dest >= carry) | (dest >= acc0)
                    & (m[owner] != acc_w)], "writes outside the value pool "
              f"and accumulators, or a {acc_w}-bit accumulator at another "
              "width"),
             (idx[in_place & (b[2] != m)], "stores its result over a b of "
              "another width")]
    firsts = [int(items.min(initial=n)) for items, _ in rules]
    k = min(firsts)
    if k < n:
        at = s.nd[:k].sum()
        raise FormatError(
            f"{_item(s.items, k)} ({OPS[s.op[k]]} m {s.m[k]}, a {s.a[k]}, b "
            f"{s.b[k]}, dest {s.dest[at:][:s.nd[k]].tolist()}) "
            f"{rules[firsts.index(k)][1]}")
    unwritten = np.ones(carry - acc0, bool)
    unwritten[dest[dest >= acc0] - acc0] = False
    if unwritten.any():
        raise FormatError(f"accumulator column {acc0 + unwritten.argmax()} "
                          f"is never written")
    return Steps((dest[np.searchsorted(owner, idx)] >= acc0) * 1, s.op,
                 np.zeros(n, bool), in_place, m, a, b, dest,
                 np.maximum(s.nd, 1), _pass_counts()[s.op, in_place * 1],
                 carry, tile.zero)


def _item(items: np.ndarray, k: int) -> str:
    """Item k of a stream of these item counts, by channel and index."""
    i = np.searchsorted(np.cumsum(items), k, "right")
    return f"channel {i} item {k - items[:i].sum()}"


def macro_counts(lp: ConvLayer, sched: Schedule) -> tuple[int, int]:
    """Add and sub macros one conv layer issues on its schedule: each row
    group runs each (tile, channel group) stream once, and each tree merge
    runs one add per accumulator of its tile on each row group."""
    streams = [stream for row in lp.streams for stream in row]
    subs = sum(int(stream.op.sum()) for stream in streams)
    adds = sum(len(stream.m) for stream in streams) - subs
    merges = sum(lp.tiles[og].carry - lp.tiles[og].acc0
                 for level in sched.tree for og, _dst, _src in level)
    n = len(sched.rows_used)
    return n * (adds + merges), n * subs


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------

class _Message(string.Formatter):
    def convert_field(self, value, conversion):
        return value if conversion != "r" else textwrap.shorten(
            reprlib.repr(value), 120)


def _check(ok, where: str, what: str, *args):
    """Raise FormatError `where: what` unless `ok`, formatting `args` only
    then, so a passing check costs no repr. A `!r` field shows at most 120
    characters of a `reprlib.repr`, so no value makes a message long."""
    if not ok:
        raise FormatError(f"{where}: {_Message().format(what, *args)}")


def _list(v, where: str, n: int | None = None) -> list:
    _check(type(v) is list, where, "expected a list, got {!r}", v)
    _check(n is None or len(v) == n, where, "expected {} entries, got {}", n,
           len(v))
    return v


# JSON types of the field annotations a loader checks; a float may be
# written as an int, and an array is a list
_JSON_TYPES = {"int": (int,), "str": (str,), "float": (int, float),
               "list": (list,), "dict": (dict,), "np.ndarray": (list,)}


def checked_fields(v, cls, where: str) -> dict:
    """`v` as an object with exactly the fields of `cls`, each annotated
    int, str, float, list, dict or np.ndarray one of that JSON type; a float
    must be finite."""
    _check(type(v) is dict, where, "expected an object, got {!r}", v)
    names = {f.name for f in fields(cls)}
    missing, extra = sorted(names - set(v)), sorted(set(v) - names)
    _check(not missing, where, "missing fields {!r}", missing)
    _check(not extra, where, "unknown fields {!r}", extra)
    for f in fields(cls):
        want, x = _JSON_TYPES.get(f.type.split("[")[0]), v[f.name]
        _check(want is None or type(x) in want and (
            type(x) is not float or math.isfinite(x)), where,
            "{} must be {}, got {!r}", f.name, f.type, x)
    return v


def _load(doc) -> ApProgram:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != PROGRAM_VERSION:
        raise FormatError(f"unsupported program version {reprlib.repr(version)}")
    checked_fields(doc, ApProgram, "program")
    geo = ApGeometry(**checked_fields(doc["geometry"], ApGeometry,
                                      "geometry"))
    prog = ApProgram(**{**doc, "geometry": geo, "layers": []})
    _check(prog.opt in OPT_LEVELS, "program", "unknown opt level {!r}", prog.opt)
    _check(1 <= prog.in_bits <= 16, "program",
           "in_bits must be in [1, 16], got {}", prog.in_bits)
    for name in ("in_c", "in_h", "in_w"):
        _check(getattr(prog, name) >= 1, "program", "{} must be >= 1", name)
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
            skip = layer.skip_from
            _check(-1 <= skip < idx, f"{where} skip_from",
                   "{} outside [-1, {}]", skip, idx - 1)
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

    # `_stream` and `stream_steps` keep every value within a track
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
            n_channels: int, where: str) -> Stream:
    """A stream's table, from its columns, once `stream_steps` accepts it.
    An entry out of its column's range is named by its item."""
    s, top = checked_fields(v, Stream, where), geo.columns - 1
    sizes = [len(s[name]) for name in ("op", "m", "a", "b", "nd")]
    items = _ints(s["items"], 0, sizes[0], where, "items entry {}".format)
    _check(len(items) == n_channels and set(sizes) == {items.sum()}, where,
           "items {!r} of {} channels do not count the {} entries of op, m, a, "
           "b and nd", s["items"], n_channels, sizes)
    op, m, a, b, nd = (
        _ints(s[name], lo, hi, where,
              lambda k, name=name: f"{_item(items, k)} {name}")
        for name, lo, hi in (("op", 0, len(OPS) - 1),
                             ("m", 1, geo.domains_per_track), ("a", 0, top),
                             ("b", 0, top), ("nd", 0, geo.columns)))
    _check(nd.sum() == len(s["dest"]), where,
           "nd sums to {}, dest has {} entries", nd.sum(), len(s["dest"]))
    dest = _ints(s["dest"], 0, top, where, lambda k: _item(
        items, np.searchsorted(np.cumsum(nd), k, "right")) + " dest")
    stream = Stream(items, op, m, a, b, nd, dest)
    try:
        stream_steps(stream, tile, value0, in_bits)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return stream


def _ints(col: list, lo: int, hi: int, where: str, label) -> np.ndarray:
    """`col` as an int64 array, once one type pass and one range pass find
    every entry an int (not a bool) in [lo, hi], a range within int64.
    FormatError names the first entry that is not by `label(index)`."""
    if not set(map(type, col)) <= {int} or col and not lo <= min(col) <= \
            max(col) <= hi:
        k, x = next((k, x) for k, x in enumerate(col)
                    if type(x) is not int or not lo <= x <= hi)
        raise FormatError(f"{where}: {label(k)} is {reprlib.repr(x)}, not an "
                          f"integer in [{lo}, {hi}]")
    return np.array(col, np.int64)

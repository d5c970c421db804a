"""Bit-accurate functional simulation of the CAM arrays on racetrack storage.

Array state is one row bitset per (column, domain) plane: a Python int whose
bit r is row r's stored bit. A search ANDs the ported planes of its columns
(or their complements, for a 0 key bit) into a tag of the rows it matches;
the tagged write after it ORs the tag into, or clears it out of, the ported
planes of its columns. Shifts move a port and pay per domain step. Column
moves between APs copy whole planes (charged per bit, flat across hops).

A run has two halves. What it costs follows from the program alone, but
for the bits its tagged writes write: `Charges` derives that layer by layer
with no planes (`derive` runs it alone). It keeps each AP's port alignment
and per-column write count (wear), walks the ports of the load, each step
and the readout (`walk`), checks each step's carry, zero column and reach,
and charges it all through `EventCounts.access`, `shift` and `move`.
The executor moves only data and counts the rows each bit tags: the load
packs each (row group, channel group)'s slot planes with one `packbits`,
`run_macro` runs each step on a `Bundle`'s planes, and the readout decodes
each root's accumulators with one `unpackbits`. `run` calls both, a part
of a layer at a time: the derivation hands the executor each part it has
charged, a stream or tree merge with its decoded steps (`isa.Step`, made
once per run by `program.stream_macros` and `merge_steps`). The one
alignment a data read looks at is the zero column's, past an unsigned
operand's width, and the executor reads its domain 0: the load walks its
port there, no step writes it, a step walks it only as a one-bit operand,
from domain 0 to 0 (`isa.make_step`), and the derivation rejects a step
that would read it elsewhere, as it rejects a carry column off domain 0.

`run_macro` runs each bit of an add/sub macro as one bit-parallel full
add or subtract: the result and carry planes are `isa.reference_bit` of
the (carry, b, a) planes, which is what a catalog table's passes leave in
every row, and the rows those passes tag follow from the same planes. The
micro-op path, `isa.expand_macro` then `execute_micro_ops`, replays every
pass and charges each micro-op itself: it is the reference the tests
compare derivation and executor against. The row groups of a (tile,
channel group) form one bundle (`Schedule.bundle`), whose wide planes
stack their rows, so a stream, or a tree merge on the bundle of its
destination group, runs once however many row groups share it.

`EventCounts` keeps, per (ap, layer, phase, epoch, kind), the number of
events and the integer sums of their bits, steps, cycles and energy size;
`tapc.metrics` folds them and `export_events` writes one row per key.
`Event` is the shape of one event, which `metrics.event_energy_pj`
prices, and `energy_size` the one rule for an event's energy size.

Event costs follow the array's physical behavior, not the program's intent:
searches compare every row, tagged writes pay per tagged row, and rows beyond
a partially filled group take part in compute like any others. Their results
land in rows the readout never visits, so outputs stay exact and, because the
whole machine is deterministic, so do the energy figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import isa
from .errors import FormatError, SimulationError
from .lowering import extract_patches, im2col_indices
from .model import FeatureMap, max_pool_2x2, requantize
from .program import (ApGeometry, ApProgram, ConvLayer, merge_steps,
                      schedule, stream_macros)

EVENT_KINDS = ("search", "write", "shift", "move")
SEARCH, WRITE, SHIFT, MOVE = range(len(EVENT_KINDS))


def energy_size(kind: int, bits: int, steps: int) -> int:
    """The energy size of an event of `kind` (an index into EVENT_KINDS):
    its bits, or bits × steps for a shift, whose every bit moves `steps`
    domains. A kind's energy is its size times one rate."""
    return bits * steps if kind == SHIFT else bits


@dataclass(slots=True)
class Event:
    """One costed array action. bits/steps carry the energy-relevant size,
    cycles the latency contribution within the event's epoch."""

    kind: str       # search | write | shift | move
    ap: int
    layer: int
    phase: str      # io | dfg | accum
    epoch: int
    bits: int
    steps: int
    cycles: int

    @property
    def size(self) -> int:
        return energy_size(EVENT_KINDS.index(self.kind), self.bits,
                           self.steps)


class EventCounts:
    """A run's costed actions, summed as they happen.

    `bins` maps (ap, layer, phase, epoch, kind) to the integer sums
    [events, bits, steps, cycles, size] of the events there. `kind` is an
    index into EVENT_KINDS, and size sums `energy_size`, so a bin's energy
    is its size times one rate. The length is the number of events.
    """

    __slots__ = ("bins",)

    def __init__(self):
        self.bins: dict[tuple[int, int, str, int, int], list[int]] = {}

    def add(self, key, n, bits, steps, cycles, size):
        """Count `n` events at `key` whose sums are the rest."""
        acc = self.bins.get(key)
        if acc is None:
            self.bins[key] = [n, bits, steps, cycles, size]
        else:
            acc[0] += n
            acc[1] += bits
            acc[2] += steps
            acc[3] += cycles
            acc[4] += size

    # The derivation's charges, at a `key` of (ap, layer, phase, epoch);
    # `rows` counts a row once per column charged. Zero events add no bin.
    def access(self, key, kind, n, rows):
        """`n` searches or writes, `rows` rows in all: a cycle each."""
        if n:
            self.add((*key, kind), n, rows, 0, n, rows)

    def shift(self, key, n, steps, rows):
        """`n` shifts of `steps` domain steps in all, each of `rows` tracks:
        their sizes sum to that of `rows` tracks moved `steps` domains."""
        if n:
            self.add((*key, SHIFT), n, n * rows, steps, steps,
                     energy_size(SHIFT, rows, steps))

    def move(self, key, bits, rows):
        """A move of `bits` bits into `rows` rows: ⌈bits / rows⌉ cycles."""
        self.add((*key, MOVE), 1, bits, 0, -(-bits // rows), bits)

    def __len__(self) -> int:
        return sum(acc[0] for acc in self.bins.values())


EXPORT_HEADER = "kind,ap,layer,phase,epoch,events,bits,steps,cycles,size"


def export_events(events: EventCounts) -> str:
    """events.csv: one row per counter key, in time order (layer, epoch,
    then AP, phase and kind). It is the per-AP, per-epoch timeline."""
    rows = sorted((layer, epoch, ap, phase, kind, *sums)
                  for (ap, layer, phase, epoch, kind), sums
                  in events.bins.items())
    return "".join([EXPORT_HEADER + "\n"] + [
        f"{EVENT_KINDS[kind]},{ap},{layer},{phase},{epoch},"
        f"{n},{bits},{steps},{cycles},{size}\n"
        for layer, epoch, ap, phase, kind, n, bits, steps, cycles, size
        in rows])


def _pack_planes(bits: np.ndarray) -> list[int]:
    """Row bitsets of a 0/1 array whose last axis is the row: bit r of plane
    i is element r of the array's i-th row, in C order."""
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=-1,
                         bitorder="little")
    size = packed.shape[-1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i:i + size], "little")
            for i in range(0, len(raw), size)]


def _decode(planes: list[int], rows: int, n_rows: int, width: int,
            signed: bool) -> np.ndarray:
    """Rows 0..n_rows-1 of each run of `width` planes as integers, one
    result row a run: bit b of run i is plane i * width + b."""
    size = -(-rows // 8)
    raw = np.frombuffer(b"".join(p.to_bytes(size, "little") for p in planes),
                        dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(planes), size), axis=1,
                         count=n_rows, bitorder="little")
    bits = bits.reshape(-1, width, n_rows)
    vals = np.zeros((bits.shape[0], n_rows), dtype=np.int64)
    for b in range(width):
        vals |= bits[:, b].astype(np.int64) << b
    if signed:
        vals -= ((vals >> (width - 1)) & 1) << width
    return vals


def _check_track(geometry: ApGeometry, col: int, base: int, width: int):
    """Raise SimulationError unless `col` has domains [base, base + width)."""
    if not 0 <= col < geometry.columns:
        raise SimulationError(
            f"column {col} outside the {geometry.columns}-column array")
    if base < 0 or base + width > geometry.domains_per_track:
        raise SimulationError(
            f"domains [{base}, {base + width}) of column {col} outside "
            f"the {geometry.domains_per_track}-domain track")


class CamArray:
    """The planes of one AP: `planes[col][dom]` holds domain `dom` of every
    row's track in column `col`."""

    def __init__(self, geometry: ApGeometry):
        self.geometry = geometry
        self.rows = geometry.rows
        self.full = (1 << geometry.rows) - 1
        self.planes = [[0] * geometry.domains_per_track
                       for _ in range(geometry.columns)]

    def track(self, col: int, base: int = 0, width: int = 1) -> list[int]:
        """The planes of one column, after checking that domains
        [base, base + width) exist on it."""
        _check_track(self.geometry, col, base, width)
        return self.planes[col]

    def load(self, col: int, base: int, planes: list[int], n_rows: int):
        """Replace the low `n_rows` rows of the planes of one column from
        domain `base` on, keeping the rows above."""
        if n_rows > self.rows:
            raise SimulationError(f"{n_rows} rows loaded into a "
                                  f"{self.rows}-row array")
        track = self.track(col, base, len(planes))
        for dom, plane in enumerate(planes, base):
            track[dom] = track[dom] >> n_rows << n_rows | plane

    def peek_block(self, cols, base: int, width: int, n_rows: int,
                   signed: bool = True) -> np.ndarray:
        """The `width`-bit values from domain `base` on in rows
        0..n_rows-1 of each column of `cols`, one result row a column."""
        planes = [plane for col in cols
                  for plane in self.track(col, base, width)[base:base + width]]
        return _decode(planes, self.rows, n_rows, width, signed)


def walk(align: dict[int, int], walks) -> tuple[int, int]:
    """Move the port of each column of a {column: (first, last)} map, in
    `align`, to `first`, then one domain a shift to `last`; return the
    shifts and domain steps in all."""
    shifts = steps = 0
    for col, (first, last) in walks.items():
        to_first, more = abs(first - align.get(col, 0)), last - first
        if to_first or more:
            shifts += (to_first > 0) + more
            steps += to_first + more
            align[col] = last
    return shifts, steps


class Charges:
    """The derivation: every charge of a run that follows from the program
    alone, all but the bits of its tagged writes, in the order `run` meets
    them, the order `metrics` sums each layer's floats in. `align[ap]` maps
    an AP's columns to the domain each port faces and `writes[ap]` counts
    each column's write cycles (wear), both made on first touch (`ports`)."""

    def __init__(self, geometry: ApGeometry):
        self.geometry = geometry
        self.events = EventCounts()
        self.align: dict[int, dict[int, int]] = {}
        self.writes: dict[int, list[int]] = {}
        self.n_layers = self.epoch = 0
        self.prov = None    # the root AP of each value of the last conv

    def ports(self, ap: int) -> tuple[dict[int, int], list[int]]:
        if ap not in self.writes:
            self.align[ap], self.writes[ap] = {}, [0] * self.geometry.columns
        return self.align[ap], self.writes[ap]

    @property
    def arrays_used(self) -> int:
        return len(self.writes)

    @property
    def max_col_writes(self) -> int:
        return max((max(w) for w in self.writes.values()), default=0)

    def steps(self, aps, steps: list[isa.Step], layer: int, epoch: int):
        """Charge `steps` on the bundle of `aps` as `execute_micro_ops` does
        their expansions on each AP, but for the tagged rows: per AP and
        phase, SEARCH, WRITE and SHIFT. A step's carry, and its zero column
        where read at its port, must face domain 0, and its reach exist."""
        geo, rows = self.geometry, self.geometry.rows
        columns, domains = geo.columns, geo.domains_per_track
        ports = [self.ports(ap) for ap in aps]
        n = len(ports)
        sums = defaultdict(lambda: [0, 0, 0, [0] * n, [0] * n])
        checked = None      # the carry column last found at domain 0
        for step in steps:
            (phase, _op, _neg, in_place, m, a, b, dest, _rbase, carry,
             walks, passes, (lo, col_hi, dom_hi)) = step
            if carry != checked:    # no step walks its carry column
                if any(align.get(carry, 0) for align, _ in ports):
                    raise FormatError("carry column must stay at domain 0")
                checked = carry
            if a.first is None and a.n < m or b.first is None and b.n < m:
                zero = a.fill if a.first is None and a.n < m else b.fill
                for align, _ in ports:
                    if align.get(zero, 0):
                        raise FormatError("zero column must stay at domain 0")
            if lo < 0 or col_hi >= columns or dom_hi >= domains:
                _check_track(geo, carry, 0, 1)
                for ref in (a, b):
                    if ref.n < m:
                        _check_track(geo, ref.fill, 0, 1)
                for col, (first, last) in walks.items():
                    _check_track(geo, col, first, last - first + 1)
            acc = sums[phase]
            searches = passes * m
            clears = 0 if in_place else m
            acc[0] += searches
            acc[1] += 1 + clears + searches
            acc[2] += rows * (1 + clears * len(dest))
            for k, (align, writes) in enumerate(ports):
                n_shifts, n_steps = walk(align, walks)
                acc[3][k] += n_shifts
                acc[4][k] += n_steps
                writes[carry] += 1 + searches
                for col in dest:
                    writes[col] += searches + clears
        for k, ap in enumerate(aps):
            for phase, (searches, writes, bits, shifts, moved) in sums.items():
                key = (ap, layer, phase, epoch)
                self.events.access(key, SEARCH, searches, searches * 3 * rows)
                self.events.access(key, WRITE, writes, bits)
                self.events.shift(key, shifts[k], moved[k], rows)

    def moves(self, aps, steps: list[isa.Step], layer: int, epoch: int):
        """Charge a tree merge's moves on the bundle of `aps`: before each
        step, a source AP's b column moves into the scratch column a of
        each AP, an "accum" move of every row."""
        rows = self.geometry.rows
        for ap in aps:
            writes = self.ports(ap)[1]
            for step in steps:
                writes[step.a.col] += step.m
                self.events.move((ap, layer, "accum", epoch), rows * step.m,
                                 rows)

    def layer(self, lp, catalog):
        """Charge the program's next layer. A conv layer is charged part by
        part, on the pass tables of `catalog`, by the generator returned,
        which yields each part for the executor once it is charged: after
        the load, (layer, first epoch, schedule, patch map); per stream and
        tree merge, (APs, source APs, steps, epoch); then it charges the
        readout. A pool keeps the top-left producer of a block (its max is
        data-dependent), and an add runs in the controller."""
        self.n_layers += 1
        if lp.kind == "pool" and self.prov is not None:
            self.prov = self.prov[:, ::2, ::2]
        return self._conv(lp, catalog) if lp.kind == "conv" else None

    def _conv(self, lp, catalog):
        geo, events, epoch = self.geometry, self.events, self.epoch
        layer, rows, tiles = self.n_layers - 1, geo.rows, lp.tiles
        shape, in_bits = lp.shape, lp.in_bits
        pim = im2col_indices(shape)
        sched = schedule(shape, in_bits, geo, len(tiles))
        groups = sched.channel_groups

        # load: carry and zero ports home and the zero column cleared, the
        # moves from the producer APs of the values each row group reads,
        # each slot column written up from domain 0, a write a domain
        moved = {}
        for ap, rg, og, cg in sched.grid:
            align, writes = self.ports(ap)
            tile, ru = tiles[og], sched.rows_used[rg]
            key = (ap, layer, "io", epoch + sched.LOAD)
            events.shift(key, *walk(align, {tile.carry: (0, 0),
                                            tile.zero: (0, 0)}), rows)
            writes[tile.zero] += 1
            events.access(key, WRITE, 1, rows)
            if self.prov is not None and (rg, cg) not in moved:
                ys, xs = pim.ys[rg * rows:][:ru], pim.xs[rg * rows:][:ru]
                srcs = self.prov[groups[cg]][:, ys[ys >= 0], xs[ys >= 0]]
                moved[rg, cg] = np.unique(srcs, return_counts=True)[1]
            for n in moved.get((rg, cg), ()):
                events.move(key, int(n) * in_bits, rows)
            n_doms = len(groups[cg]) * in_bits
            for k in range(pim.slots):
                writes[k] += n_doms
            events.shift(key, *walk(align, dict.fromkeys(
                range(pim.slots), (0, n_doms - 1))), rows)
            events.access(key, WRITE, pim.slots * n_doms,
                          pim.slots * n_doms * ru)
        yield layer, epoch, sched, pim

        for og, (tile, row) in enumerate(zip(tiles, lp.streams)):
            for cg, items in enumerate(row):
                aps, ep = sched.bundle(og, cg), epoch + sched.STREAM
                steps = stream_macros(items, tile, pim.slots, in_bits, catalog)
                self.steps(aps, steps, layer, ep)
                yield aps, (), steps, ep
                del steps       # before the next stream is decoded
        # a move charges rows × w bits, every row of the array, while the
        # load charges only the rows it uses; which of the two is right is
        # still open, and changing either changes the modelled energy
        merges = [merge_steps(tile, catalog) for tile in tiles]
        for ep, level in enumerate(sched.tree, epoch + sched.TREE):
            for og, dst, src in level:
                aps = sched.bundle(og, dst)
                self.moves(aps, merges[og], layer, ep)
                self.steps(aps, merges[og], layer, ep)
                yield aps, sched.bundle(og, src), merges[og], ep

        # readout at the roots: the first column's port home, charged first
        # as `metrics` sums the kinds in first-charge order, then a search an
        # accumulator bit from domain 0 up, each column left at its top
        prov = np.empty((shape.c_out, shape.h_out * shape.w_out), int)
        for og, tile in enumerate(tiles):
            cols, width = range(tile.acc0, tile.carry), tile.acc_width
            for rg, ru in enumerate(sched.rows_used):
                root = sched.ap(rg, og, 0)
                align = self.ports(root)[0]
                key = (root, layer, "io", epoch + sched.readout)
                events.shift(key, *walk(align, {cols[0]: (0, 0)}), rows)
                n = len(cols) * width
                events.access(key, SEARCH, n, n * rows)
                events.shift(key, *walk(align, dict.fromkeys(
                    cols, (0, width - 1))), rows)
                prov[tile.c_lo:tile.c_hi, rg * rows:rg * rows + ru] = root
        self.prov = prov.reshape(shape.c_out, shape.h_out, shape.w_out)
        self.epoch += sched.epochs


def derive(program: ApProgram) -> Charges:
    """Every charge of running `program` but its tagged rows' write bits,
    and each AP's alignment and wear, derived with no planes."""
    catalog = isa.standard_catalog()[0]
    charges = Charges(program.geometry)
    for lp in program.layers:
        for _part in charges.layer(lp, catalog) or ():
            pass
    return charges


class SimState(Charges):
    """A run's charges and the planes of its APs. APs materialize on first
    touch and persist across layers, which is exactly why programs must not
    assume freshly zeroed columns."""

    def __init__(self, geometry: ApGeometry):
        super().__init__(geometry)
        self.aps: dict[int, CamArray] = {}

    def ap(self, ap: int) -> CamArray:
        if ap not in self.aps:
            self.aps[ap] = CamArray(self.geometry)
        return self.aps[ap]


def execute_micro_ops(state: SimState, ap: int, ops: list[isa.MicroOp],
                      layer: int = 0, phase: str = "dfg", epoch: int = 0):
    """Run expanded micro-ops against one AP, moving its ports, counting
    its wear and charging every costed action itself.

    This is the reference derivation and executor are tested against.
    Shifts carry their step count from expansion (planned against a copy
    of the AP's alignment), so applying them here keeps plan and state in
    sync. A write goes to the rows the last search before it tagged.
    """
    cam = state.ap(ap)
    align, writes = state.ports(ap)
    full, rows = cam.full, cam.rows
    events, key = state.events, (ap, layer, phase, epoch)
    tag = 0
    for op in ops:
        kind = op.kind
        if kind == "search":
            tag = full
            for col, want in zip(op.cols, op.key):
                plane = cam.track(col)[align.get(col, 0)]
                tag &= plane if want else full ^ plane
            events.access(key, SEARCH, 1, len(op.cols) * rows)
        elif kind == "write":
            for col, bit in zip(op.cols, op.bits):
                track = cam.track(col)
                dom = align.get(col, 0)
                track[dom] = track[dom] | tag if bit else track[dom] & ~tag
                writes[col] += 1
            events.access(key, WRITE, 1, len(op.cols) * tag.bit_count())
        elif kind == "clear":
            for col in op.cols:
                cam.track(col)[align.get(col, 0)] = 0
                writes[col] += 1
            events.access(key, WRITE, 1, len(op.cols) * rows)
        elif kind == "shift":
            cam.track(op.col, op.target)
            align[op.col] = op.target
            if op.steps:
                events.shift(key, 1, op.steps, rows)
        else:
            raise SimulationError(f"unexpected micro-op kind {op.kind!r}")


class Bundle:
    """The APs that run a step together, as one array of their stacked rows:
    AP k's rows, all `rows` of them, are bits [k * rows, (k + 1) * rows) of
    each wide plane `planes[col][dom]`. A one-AP bundle works on the AP's
    own planes. A wider one gathers a plane from its APs when a step first
    reads it, and `close` scatters back the planes its steps wrote
    (`written`: per column, a bit mask of domains). `tagged` holds, per
    phase, each AP's tagged write bits, which `close` adds to the write
    counters the derivation made."""

    def __init__(self, state: SimState, aps, layer: int = 0, epoch: int = 0):
        self.events = state.events
        self.aps = list(aps)
        self.cams = [state.ap(ap) for ap in self.aps]
        self.layer, self.epoch = layer, epoch
        cam = self.cams[0]
        self.rows = cam.rows
        self.masks = [cam.full << k * cam.rows for k in range(len(self.aps))]
        self.full = (1 << cam.rows * len(self.aps)) - 1
        self.wide = len(self.aps) > 1
        self.planes = (defaultdict(lambda: [None] * len(cam.planes[0]))
                       if self.wide else cam.planes)
        self.written: dict[int, int] = {}
        self.tagged = defaultdict(lambda: [0] * len(self.aps))

    def __len__(self) -> int:
        return len(self.cams)

    def __enter__(self) -> Bundle:
        return self

    def __exit__(self, *exc):
        self.close()

    def gather(self, col: int, lo: int, hi: int):
        """Make the wide planes of domains [lo, hi) of `col` readable on a
        wide bundle: a domain neither gathered nor written is None until
        then."""
        track = self.planes[col]
        for dom in range(lo, hi):
            if track[dom] is None:
                plane = 0
                for k, cam in enumerate(self.cams):
                    plane |= cam.planes[col][dom] << k * self.rows
                track[dom] = plane

    def read(self, ref: isa.Operand, m: int) -> list[int]:
        """The planes an m-bit step searches for one operand, a bit each;
        an unsigned one reads the zero column's domain 0 past its width."""
        col, base, n, fill, first, last = ref
        wide, planes = self.wide, self.planes
        if wide:
            self.gather(col, base, base + n)
        got = planes[col][base:base + n]
        if n == m:
            return got
        if first is None:
            first = last = 0
        if wide:
            self.gather(fill, min(first, last), last + 1)
        track = planes[fill]
        if first >= last:
            return got + [track[last]] * (m - n)
        return got + [track[min(first + i, last)] for i in range(m - n)]

    def move_in(self, srcs, col: int, scratch: int, width: int):
        """Copy domains [0, width) of column `col` of the k-th AP of `srcs`
        into column `scratch` of the k-th AP; a wide bundle stacks the
        copies into its scratch planes."""
        for cam, src in zip(self.cams, srcs):
            cam.track(scratch, 0, width)[:width] = \
                src.track(col, 0, width)[:width]
        if self.wide:
            self.planes[scratch][:width] = [
                sum(src.planes[col][dom] << k * self.rows
                    for k, src in enumerate(srcs)) for dom in range(width)]

    def close(self):
        """Hand the written planes and the tagged bits back to the APs,
        once, after the last step."""
        for col, doms in self.written.items():
            for dom in range(doms.bit_length()):
                if doms >> dom & 1:
                    plane = self.planes[col][dom]
                    for k, cam in enumerate(self.cams):
                        cam.planes[col][dom] = plane >> k * cam.rows & cam.full
        for k, ap in enumerate(self.aps):
            for phase, tagged in self.tagged.items():
                if tagged[k]:
                    self.events.add((ap, self.layer, phase, self.epoch,
                                     WRITE), 0, tagged[k], 0, 0, tagged[k])


def run_macro(bundle: Bundle, step: isa.Step):
    """Execute one decoded macro on every AP of `bundle`, each bit as one
    bit-parallel full add or subtract over its (carry, b, a) planes, once
    for all the bundle's rows, and count the rows each bit tags.

    The catalog's tables (`isa.standard_catalog`) take each row from its
    (carry, b, a) state to `isa.reference_bit` of it and tag exactly the
    rows whose (carry, result) changes, once each, so the planes and the
    tagged rows follow from a bit's input planes. The macro contract keeps
    the searched planes apart from the written ones. The derivation
    (`Charges.steps`) charges the rest of the step, walks its ports,
    counts its wear and checks its carry, zero column and reach.
    """
    (phase, op, negated, in_place, m, a, b, dest, rbase, carry, _walks,
     _passes, _reach) = step
    bs, as_ = bundle.read(b, m), bundle.read(a, m)

    # a borrow is the carry of the complemented minuend plus the subtrahend;
    # the negated sub swaps the roles, the negated add complements the sum
    sub = op == isa.SUB
    us, vs = (as_, bs) if sub and negated else (bs, as_)
    full, wide = bundle.full, bundle.wide
    inv = full if sub else 0
    flip = full if sub or negated else 0
    c = count = 0
    changed = []                # on a wide bundle, the rows each bit tags
    results = []
    for u, v, held in zip(us, vs, bs if in_place else [0] * m):
        u ^= inv
        x = u ^ v
        r = x ^ c ^ flip
        c_in, c = c, u & v | x & c
        t = c_in ^ c | r ^ held     # the rows the bit's passes tag
        if wide:
            changed.append(t)
        else:
            count += t.bit_count()
        results.append(r)
    planes = bundle.planes
    planes[carry][0] = c
    for col in dest:
        planes[col][rbase:rbase + m] = results

    tagged = bundle.tagged[phase]
    n_written = 1 + len(dest)
    if wide:
        written = bundle.written
        written[carry] = written.get(carry, 0) | 1
        for col in dest:
            written[col] = written.get(col, 0) | ((1 << m) - 1) << rbase
        for k, mask in enumerate(bundle.masks):
            tagged[k] += n_written * sum((t & mask).bit_count()
                                         for t in changed)
    else:
        tagged[0] += n_written * count


@dataclass
class RunResult:
    trace: list[FeatureMap]
    events: EventCounts
    state: SimState


def _slot_planes(patches, channels, lo: int, n_rows: int,
                 in_bits: int) -> list[int]:
    """The planes rows lo..lo+n_rows of a channel group load into the slot
    columns, slot by slot: slot k holds channel i's bit b at domain
    i * in_bits + b."""
    shifts = np.arange(in_bits, dtype=np.int64)[:, None]
    bits = np.empty((patches[0].shape[1], len(channels), in_bits, n_rows),
                    dtype=np.uint8)
    for i, ch in enumerate(channels):
        bits[:, i] = patches[ch][lo:lo + n_rows].T[:, None] >> shifts & 1
    return _pack_planes(bits)


def _run_conv(state: SimState, lp: ConvLayer, parts, cur: FeatureMap):
    """Move the data of a conv layer, each part once the derivation has
    charged it (`Charges.layer`), and return its output."""
    layer, epoch, sched, pim = next(parts)
    rows, in_bits, tiles = state.geometry.rows, lp.in_bits, lp.tiles
    groups = sched.channel_groups
    patches = [extract_patches(cur, pim, ch) for ch in range(lp.c_in)]

    # load: the zero column cleared, then the slot planes; the tiles of a
    # (row group, channel group) load the same data
    loads = {}
    for ap, rg, og, cg in sched.grid:
        cam = state.ap(ap)
        ru = sched.rows_used[rg]
        cam.track(tiles[og].zero)[0] = 0
        if (rg, cg) not in loads:
            loads[rg, cg] = _slot_planes(patches, groups[cg], rg * rows, ru,
                                         in_bits)
        n_doms = len(groups[cg]) * in_bits
        for k in range(pim.slots):
            cam.load(k, 0, loads[rg, cg][k * n_doms:(k + 1) * n_doms], ru)

    # each stream on the bundle of the row groups of its (tile, channel
    # group), then the adder tree across channel groups, a merge on the
    # bundle of its dst group: before each add, each source AP's copy of
    # its b column moves into the scratch column a of its row group's AP
    for aps, srcs, steps, ep in parts:
        srcs = [state.ap(ap) for ap in srcs]
        with Bundle(state, aps, layer, ep) as bundle:
            for step in steps:
                if srcs:
                    bundle.move_in(srcs, step.b.col, step.a.col, step.m)
                run_macro(bundle, step)
        del steps               # before the derivation decodes the next

    # readout at the tree roots, one block of accumulator planes a root and
    # tile, then requantize in the controller
    shape = lp.shape
    acc = np.zeros((shape.c_out, shape.h_out * shape.w_out), dtype=np.int64)
    for og, tile in enumerate(tiles):
        cols = range(tile.acc0, tile.carry)
        for rg, ru in enumerate(sched.rows_used):
            vals = state.ap(sched.ap(rg, og, 0)).peek_block(
                cols, 0, tile.acc_width, ru)
            bad = (vals.min(axis=1) < tile.acc_lo) | \
                (vals.max(axis=1) > tile.acc_hi)
            if bad.any():
                raise SimulationError(
                    f"layer {layer}: accumulator for channel "
                    f"{tile.c_lo + int(bad.argmax())} left its proven "
                    f"interval [{tile.acc_lo}, {tile.acc_hi}]")
            acc[tile.c_lo:tile.c_hi, rg * rows:rg * rows + ru] = vals
    return FeatureMap(
        requantize(acc.reshape(shape.c_out, shape.h_out, shape.w_out),
                   lp.quant),
        lp.out_bits)


def run(program: ApProgram, ifm: FeatureMap) -> RunResult:
    """Execute a compiled program and return the per-layer output trace.

    The trace must match the host reference bit for bit; the event counters
    are the raw material for the energy/latency/endurance accounting.
    """
    if ifm.bits != program.in_bits:
        raise FormatError(f"program expects {program.in_bits}-bit input, "
                          f"feature map is {ifm.bits}-bit")
    want = (program.in_c, program.in_h, program.in_w)
    if tuple(ifm.shape) != want:
        raise FormatError(
            f"program compiled for {'x'.join(map(str, want))} (CxHxW) input, "
            f"feature map is {'x'.join(map(str, ifm.shape))}")
    catalog = isa.standard_catalog()[0]
    state = SimState(program.geometry)
    trace: list[FeatureMap] = []
    cur = ifm
    for lp in program.layers:
        parts = state.layer(lp, catalog)
        if parts is not None:
            cur = _run_conv(state, lp, parts, cur)
        elif lp.kind == "pool":
            cur = max_pool_2x2(cur)
        else:  # add: controller-side, the skip operand is already host data
            other = ifm if lp.skip_from == -1 else trace[lp.skip_from]
            acc = cur.data.astype(np.int64) + other.data.astype(np.int64)
            cur = FeatureMap(requantize(acc, lp.quant), lp.out_bits)
        trace.append(cur)
    return RunResult(trace, state.events, state)


def first_divergence(got: list[FeatureMap], want: list[FeatureMap]):
    """Locate the first mismatching element between two traces.

    Returns None when they agree, else (layer, channel, y, x) of the first
    differing value in layer-major, row-major order.
    """
    for i, (a, b) in enumerate(zip(got, want)):
        if a.shape != b.shape:
            return (i, 0, 0, 0)
        if not np.array_equal(a.data, b.data):
            c, y, x = np.argwhere(a.data != b.data)[0]
            return (i, int(c), int(y), int(x))
    if len(got) != len(want):
        return (min(len(got), len(want)), 0, 0, 0)
    return None

"""Bit-accurate functional simulation of the CAM arrays on racetrack storage.

Array state is one row bitset per (column, domain) plane: a Python int whose
bit r is row r's stored bit. A search ANDs the ported planes of its columns
(or their complements, for a 0 key bit) into a tag of the rows it matches;
the tagged write after it ORs the tag into, or clears it out of, the ported
planes of its columns. Shifts move a port and pay per domain step. Column
moves between APs copy whole planes (charged per bit, flat across hops).

A run has two halves. What it costs follows from the program alone, but
for the bits its tagged writes write: `Charges` derives that layer by layer
with no planes (`derive` runs it alone), with each AP's port alignment and
per-column write count (wear). It charges a stream or tree merge as one
table of decoded steps (`program.Steps`), by sums over its columns and by
differences along each column's walks. The executor moves only data and
counts the rows each bit tags: the load packs each (row group, channel
group)'s slot planes with one `packbits`, `run_macro` runs each step (a
flat tuple of `macro_rows`) on one AP's planes, and the readout decodes
each root's accumulators with one `unpackbits`. A step reads one
plane, its sign bit or the zero column's domain 0, for each bit past an
operand's width, and writes its results from domain 0. `run` calls both,
a layer's part at a time, once the derivation has charged it.

`run_macro` runs each bit of an add/sub macro as one bit-parallel full
add or subtract: the result and carry planes are `isa.reference_bit` of
the (carry, b, a) planes, which is what a catalog table's passes leave in
every row, and the rows those passes tag follow from the same planes. The
micro-op path, `isa.expand_macro` then `execute_micro_ops`, replays every
pass and charges each micro-op itself: it is the reference the tests
compare derivation and executor against. The row groups of a (tile,
channel group) form one bundle (`Schedule.bundle`): a stream, or a tree
merge on the bundle of its destination group, is decoded and charged once,
then `run_part` runs it on each AP's planes in turn.

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

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import isa
from .errors import FormatError, SimulationError
from .lowering import extract_patches, im2col_indices
from .model import FeatureMap, max_pool_2x2, requantize
from .program import (PHASES, ApGeometry, ApProgram, ConvLayer, Steps,
                      merge_steps, schedule, stream_steps)

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
        [base, base + width) exist on it (SimulationError)."""
        geo = self.geometry
        if not 0 <= col < geo.columns:
            raise SimulationError(
                f"column {col} outside the {geo.columns}-column array")
        if base < 0 or base + width > geo.domains_per_track:
            raise SimulationError(
                f"domains [{base}, {base + width}) of column {col} outside "
                f"the {geo.domains_per_track}-domain track")
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


def _check_steps(geo: ApGeometry, t: Steps, walks, reads, port,
                 zero_off: bool):
    """Raise for the first step of `t` that reaches past the geometry
    (SimulationError), walks the zero column past domain 0 or, where its
    port starts off 0 (`zero_off`), reads it there before a step walks it
    home (FormatError). `walks` are by (column, step)."""
    item, col, first, last = walks
    n, on = len(t.m), col == t.zero
    home = item[on].min(initial=n)
    far = [item[(col < 0) | (col >= geo.columns) | (first < 0)
                | (last >= geo.domains_per_track)]] + [
        np.flatnonzero((bits < t.m) & ((fill < 0) | (fill >= geo.columns)))
        for _col, _base, bits, fill, _dom in reads]
    i_reach = 0 if not 0 <= t.carry < geo.columns else \
        min(int(x.min(initial=n)) for x in far)
    i_zero = min(int(item[on & (last > 0)].min(initial=n)),
                 int(np.flatnonzero(port[:home] & zero_off).min(initial=n)))
    if i_zero < n and i_zero <= i_reach:
        raise FormatError("zero column must stay at domain 0")
    if i_reach < n:
        raise SimulationError(
            f"step {i_reach} reaches past the {geo.columns}-column, "
            f"{geo.domains_per_track}-domain array")


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

    def _wear(self, aps, cols, counts):
        """Add `counts` write cycles to the columns `cols` on each AP."""
        wear = np.bincount(cols, counts, self.geometry.columns).astype(int)
        worn = np.flatnonzero(wear)
        for ap in aps:
            writes = self.ports(ap)[1]
            for col, n in zip(worn.tolist(), wear[worn].tolist()):
                writes[col] += n

    def steps(self, aps, t: Steps, layer: int, epoch: int):
        """Charge the steps of `t` on the bundle of `aps` as
        `execute_micro_ops` does their expansions on each AP, but for the
        tagged rows: per AP and phase, in the order the steps meet the
        phases, SEARCH, WRITE and SHIFT, once `_check_steps` passes them. A
        column's shifts are the differences along its walks, where only the
        first depends on the AP. Returns the steps' reads for the executor
        (`macro_rows`)."""
        rows, ports = self.geometry.rows, [self.ports(ap) for ap in aps]
        if any(align.get(t.carry, 0) for align, _ in ports):
            raise FormatError("carry column must stay at domain 0")
        walks, reads, port = t.ports()
        by = np.lexsort(walks[:2])
        item, col, first, last = walks = tuple(x[by] for x in walks)
        _check_steps(self.geometry, t, walks, reads, port, any(
            align.get(t.zero, 0) for align, _ in ports))
        heads = np.flatnonzero(np.append(True, col[1:] != col[:-1]))
        jump = np.append(0, first[1:] - last[:-1])  # from the walk before
        jump[heads] = 0
        span, phase = last - first, t.phase[item]
        moved = np.logical_or.reduceat((jump != 0) | (span != 0), heads)
        final = last[np.append(heads[1:], len(col)) - 1]
        h_col, h_first, h_phase = col[heads], first[heads], phase[heads]
        searches, clears = t.passes * t.m, np.where(t.in_place, 0, t.m)
        self._wear(aps, np.append(t.dest, t.carry), np.append(np.repeat(
            searches + clears, t.nd), (1 + searches).sum()))
        sums = {}       # phase -> searches, writes, bits, shifts, steps
        p0 = int(t.phase[0])    # the phases in the order the steps meet them
        for p in [p0, 1 - p0] if (t.phase != p0).any() else [p0]:
            on, at = t.phase == p, phase == p
            sums[p] = [int(x.sum()) for x in (
                searches[on], (1 + clears + searches)[on],
                rows * (1 + clears * t.nd)[on], (jump[at] != 0) + span[at],
                np.abs(jump[at]) + span[at])]
        for ap, (align, _writes) in zip(aps, ports):
            into = h_first - [align.get(c, 0) for c in h_col.tolist()]
            now = moved | (into != 0)
            align.update(zip(h_col[now].tolist(), final[now].tolist()))
            for p, (n_search, n_write, bits, shifts, moves) in sums.items():
                key, on = (ap, layer, PHASES[p], epoch), into[h_phase == p]
                self.events.access(key, SEARCH, n_search, n_search * 3 * rows)
                self.events.access(key, WRITE, n_write, bits)
                self.events.shift(key, shifts + int(np.count_nonzero(on)),
                                  moves + int(np.abs(on).sum()), rows)
        return reads

    def moves(self, aps, t: Steps, layer: int, epoch: int):
        """Charge a tree merge's moves on the bundle of `aps`: before each
        step, a source AP's b column moves into the scratch column a of
        each AP, an "accum" move of every row."""
        rows, total = self.geometry.rows, int(t.m.sum())
        self._wear(aps, t.a[0], t.m)
        for ap in aps:
            self.events.add((ap, layer, "accum", epoch, MOVE), len(t.m),
                            rows * total, 0, total, rows * total)

    def layer(self, lp):
        """Charge the program's next layer. A conv layer is charged part by
        part by the generator returned, which yields each part for the
        executor once it is charged: after the load, (layer, first epoch,
        schedule, patch map); per stream and tree merge, (APs, source APs,
        steps, their reads, epoch); then it charges the readout. A pool
        keeps the top-left producer of a block (its max is data-dependent),
        and an add runs in the controller."""
        self.n_layers += 1
        if lp.kind == "pool" and self.prov is not None:
            self.prov = self.prov[:, ::2, ::2]
        return self._conv(lp) if lp.kind == "conv" else None

    def _conv(self, lp):
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
            for cg, stream in enumerate(row):
                aps, ep = sched.bundle(og, cg), epoch + sched.STREAM
                steps = stream_steps(stream, tile, pim.slots, in_bits)
                yield aps, (), steps, self.steps(aps, steps, layer, ep), ep
        # a move charges rows × w bits, every row of the array, while the
        # load charges only the rows it uses; which of the two is right is
        # still open, and changing either changes the modelled energy
        merges = [merge_steps(tile) for tile in tiles]
        for ep, level in enumerate(sched.tree, epoch + sched.TREE):
            for og, dst, src in level:
                aps = sched.bundle(og, dst)
                self.moves(aps, merges[og], layer, ep)
                yield aps, sched.bundle(og, src), merges[og], self.steps(
                    aps, merges[og], layer, ep), ep

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
    charges = Charges(program.geometry)
    for lp in program.layers:
        for _part in charges.layer(lp) or ():
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


def macro_rows(t: Steps, reads) -> list[tuple]:
    """The steps of `t` as `run_macro` reads them, a flat tuple each: phase,
    op, negated, in place, m, a's and b's `reads` (`Steps.ports`), the
    result columns, each written from domain 0, and the carry column."""
    a, b = reads
    flat, ends = t.dest.tolist(), np.cumsum(t.nd).tolist()
    return list(zip(map(PHASES.__getitem__, t.phase.tolist()),
                    *(x.tolist() for x in (t.op, t.negated, t.in_place, t.m,
                                           *a, *b)),
                    map(flat.__getitem__, map(slice, [0, *ends], ends)),
                    repeat(t.carry)))


def run_macro(cam: CamArray, step: tuple) -> int:
    """Execute one decoded macro (`macro_rows`) on the planes of `cam`, each
    bit as one bit-parallel full add or subtract over its (carry, b, a)
    planes, and return the bits its tagged writes write.

    The catalog's tables (`isa.standard_catalog`) take each row from its
    (carry, b, a) state to `isa.reference_bit` of it and tag exactly the
    rows whose (carry, result) changes, once each, so the planes and the
    tagged rows follow from a bit's input planes. The macro contract keeps
    the searched planes apart from the written ones. The derivation
    (`Charges.steps`) charges the rest of the step, walks its ports,
    counts its wear and checks its carry, zero column and reach.
    """
    (_phase, sub, negated, in_place, m, a_col, a_base, a_n, a_fill, a_dom,
     b_col, b_base, b_n, b_fill, b_dom, dest, carry) = step
    # a borrow is the carry of the complemented minuend plus the subtrahend;
    # the negated sub swaps the roles, the negated add complements the sum
    full = cam.full
    inv = full if sub else 0
    flip = full if sub or negated else 0
    # the planes a bit searches for each operand: n planes from its base,
    # then the fill plane for every further bit (`Steps.ports`)
    planes = cam.planes
    bs = planes[b_col][b_base:b_base + b_n]
    if b_n < m:
        bs += [planes[b_fill][b_dom]] * (m - b_n)
    as_ = planes[a_col][a_base:a_base + a_n]
    if a_n < m:
        as_ += [planes[a_fill][a_dom]] * (m - a_n)
    us, vs = (as_, bs) if sub and negated else (bs, as_)
    c = count = 0
    results = []
    for u, v, held in zip(us, vs, bs if in_place else repeat(0)):
        u ^= inv
        x = u ^ v
        r = x ^ c ^ flip
        c_in, c = c, u & v | x & c
        count += (c_in ^ c | r ^ held).bit_count()  # the rows it tags
        results.append(r)
    planes[carry][0] = c
    for col in dest:
        planes[col][:m] = results
    return (1 + len(dest)) * count


def run_part(state: SimState, aps, srcs, t: Steps, reads, layer: int,
             epoch: int):
    """Run a stream or tree merge `t`, which the derivation has charged on
    the bundle of `aps`, with its `reads`, AP by AP. Before each step of a
    merge, the k-th AP of `srcs` copies its b column into the scratch
    column a of the k-th AP of `aps`. After an AP's last step, its tagged
    bits go to its write counters, one update a phase."""
    steps = macro_rows(t, reads)
    moves = list(zip(t.b[0].tolist(), t.a[0].tolist(), t.m.tolist()))
    for ap, src in zip(aps, [state.ap(ap) for ap in srcs] or repeat(None)):
        cam, tagged = state.ap(ap), {}     # phases in the order met
        for step, (col, scratch, m) in zip(steps, moves):
            if src is not None:
                cam.track(scratch, 0, m)[:m] = src.track(col, 0, m)[:m]
            tagged[step[0]] = tagged.get(step[0], 0) + run_macro(cam, step)
        for phase, bits in tagged.items():
            if bits:
                state.events.add((ap, layer, phase, epoch, WRITE), 0, bits,
                                 0, 0, bits)


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

    for aps, srcs, steps, reads, ep in parts:
        run_part(state, aps, srcs, steps, reads, layer, ep)

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
    state = SimState(program.geometry)
    trace: list[FeatureMap] = []
    cur = ifm
    for lp in program.layers:
        parts = state.layer(lp)
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

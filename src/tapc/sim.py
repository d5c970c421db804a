"""Bit-accurate functional simulation of the CAM arrays on racetrack storage.

Array state is one row bitset per (column, domain) plane: a Python int whose
bit r is row r's stored bit. The per-column `align` map says which domain
each track currently ports. A search ANDs the ported planes of its columns
(or their complements, for a 0 key bit) into a tag of the rows it matches;
the tagged write after it ORs the tag into, or clears it out of, the ported
planes of its columns.
Shifts just move the alignment and pay per domain step. Column moves between
APs copy whole planes (the interconnect model charges them per bit, flat
across hop levels).

`run_macro` executes each add/sub macro straight on the planes, one
bit-parallel full add or subtract a bit: the result and carry planes are
`isa.reference_bit` applied to the (carry, b, a) planes with a few integer
operations, which is what a catalog table's passes leave in every row. The
rows those passes would tag and the shifts of the operand walk are worked
out from the same planes and alignments, so no pass is replayed and no
micro-op is built. The micro-op path,
`isa.expand_macro` followed by `execute_micro_ops`, replays every pass and
stays as the reference the tests compare it against; no run takes it.

A macro runs as a decoded `isa.Step`: its operand reads (with the clamp
at a signed operand's sign bit or the redirect of an unsigned one to the
zero column resolved), its port walks, result columns and table passes are
fixed before the run. A conv stream's steps are made as the walk that
checks its items yields them (`stream_macros`), and its rules imply the
macro contract; an adder-tree merge's steps are its tile's in-place adds
(`merge_steps`), made once per tile, whose columns keep the contract by
the tile's layout. Both make them with `isa.make_step`. `run_macro` is left
with what only the run knows: where the carry column stands, the geometry,
each AP's port walk, the plane slices, the bit loop and the counter sums.

The array is row-parallel, and so is the simulator: `run_macro` runs a
step on a `Bundle` of APs at once. The row groups of a (tile, channel
group) form one bundle (`Schedule.bundle`), whose wide planes stack the
APs' rows, so each stream runs once per (tile, channel group), however many
row groups share it. An adder-tree merge runs the same way, on the bundle
of its destination group: before each add, the scratch copy goes in from
the source group's APs, row group by row group, through the bundle
(`Bundle.move_in`). Only the shifts (from each AP's own alignment) and the
tagged rows (counted per AP's row segment) differ between the APs of a
bundle.

Events are counted, not listed: `EventCounts` keeps, per (ap, layer, phase,
epoch, kind), the number of events and the integer sums of their bits,
steps, cycles and energy size. A run charges them only through `access`
(searches and writes), `shift` and `move`, each given the rows it charges,
and moves ports only by `CamArray.walk`. `run_macro` sums a step's events
into its bundle, which adds them once per AP, phase and kind when it closes.
`tapc.metrics` folds the counters, and `export_events` writes one row per
counter key. The counters are the only account of a run's events: no
executor lists them one by one. `Event` is the shape of one such event,
which `metrics.event_energy_pj` prices, and `energy_size` the one rule for
an event's energy size.

Programs are the typed form of `tapc.program`, read by attribute; loaded
ones were checked by its loader. Everything a run needs beyond the stored
decisions comes from there too: each conv layer's `Schedule`, with its
row and channel groups, the AP of each (row group, tile, channel group),
the bundle of each (tile, channel group), its adder tree of (tile, dst
group, src group) merges and the epoch of each step; the steps of a merge
(`merge_steps`); and the steps and energy phases of each stream, whose
items store only columns (`stream_macros`). A layer's number is its
position in the program. A conv layer's streams and merges are decoded
once and run once a bundle. The load packs the slot planes of
each (row group, channel group) with one `packbits`, and the readout
decodes each root's block of accumulator planes with one `unpackbits`. The
pass tables are the ISA's, not the program's: `run` takes them from
`isa.standard_catalog()` once, and each step carries the pass count of
the table of its own op, addressing and negation.

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
from .program import (ApGeometry, ApProgram, ConvLayer, merge_steps, schedule,
                      stream_macros)

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

    # A run's only charges, at a `key` of (ap, layer, phase, epoch); `rows`
    # counts a row once per column charged. Zero events add no bin.
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
    """One AP: the row-bitset planes plus alignment and wear counts.
    `planes[col][dom]` holds domain `dom` of every row's track in column
    `col`."""

    def __init__(self, geometry: ApGeometry):
        self.rows = geometry.rows
        self.columns = geometry.columns
        self.domains = geometry.domains_per_track
        self.full = (1 << geometry.rows) - 1
        self.planes = [[0] * self.domains for _ in range(self.columns)]
        self.align: dict[int, int] = {}
        self.writes = [0] * self.columns

    def track(self, col: int, base: int = 0, width: int = 1) -> list[int]:
        """The planes of one column, after checking that domains
        [base, base + width) exist on it."""
        if not 0 <= col < self.columns:
            raise SimulationError(
                f"column {col} outside the {self.columns}-column array")
        if base < 0 or base + width > self.domains:
            raise SimulationError(
                f"domains [{base}, {base + width}) of column {col} outside "
                f"the {self.domains}-domain track")
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

    # direct, uncosted access for harnesses and unit tests
    def poke(self, col: int, base: int, width: int, values, n_rows: int):
        vals = np.asarray(values, dtype=np.int64)
        bits = vals >> np.arange(width, dtype=np.int64)[:, None] & 1
        self.load(col, base, _pack_planes(bits), n_rows)

    def peek(self, col: int, base: int, width: int, n_rows: int,
             signed: bool = True) -> np.ndarray:
        return self.peek_block([col], base, width, n_rows, signed)[0]

    def walk(self, walks) -> tuple[int, int]:
        """Move the port of each column of a {column: (first, last)} map to
        `first`, then one domain a shift to `last`; return the shifts and
        domain steps in all. The caller checks that the domains exist."""
        shifts = steps = 0
        for col, (first, last) in walks.items():
            to_first, more = abs(first - self.align.get(col, 0)), last - first
            if to_first or more:
                shifts += (to_first > 0) + more
                steps += to_first + more
                self.align[col] = last
        return shifts, steps


class SimState:
    """Lazy AP pool plus the event counters. APs materialize on first touch and
    persist across layers, which is exactly why programs must not assume
    freshly zeroed columns."""

    def __init__(self, geometry: ApGeometry):
        self.geometry = geometry
        self.aps: dict[int, CamArray] = {}
        self.events = EventCounts()

    def ap(self, ap: int) -> CamArray:
        if ap not in self.aps:
            self.aps[ap] = CamArray(self.geometry)
        return self.aps[ap]

    def col_write_max(self) -> int:
        return max((max(cam.writes) for cam in self.aps.values()), default=0)


def execute_micro_ops(state: SimState, ap: int, ops: list[isa.MicroOp],
                      layer: int = 0, phase: str = "dfg", epoch: int = 0):
    """Run expanded micro-ops against one AP, counting every costed action.

    This is the reference `run_macro` is tested against. Shifts carry their
    step count from expansion (planned against a copy of the AP's
    alignment), so applying them here keeps plan and state in sync. A
    write goes to the rows the last search before it in `ops` tagged.
    """
    cam = state.ap(ap)
    align, writes = cam.align, cam.writes
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
    AP k's rows are bits [k * rows, (k + 1) * rows) of each wide plane
    `planes[col][dom]`. A conv layer's bundles are `Schedule.bundle`'s, the
    row groups of one (tile, channel group), which run its stream and, as
    the destination of a tree merge, the merge's adds. All `rows` rows of
    each AP are stacked, so rows above a partially filled group take part
    as they do on the AP alone.

    A one-AP bundle works on the AP's own planes, with no copy. A wider one
    gathers a plane from its APs when a step first reads it, and `close`
    scatters the columns its steps wrote back. Each AP keeps its own
    alignment and write counts. `sums` holds, per phase, the counters of
    the steps run so far: [searches, writes, write bits outside the tagged
    rows, then per AP the tagged write bits, shifts and shift steps].
    `close` adds them per AP and phase, SEARCH, WRITE and SHIFT in that
    order, the order in which a stream's kinds first occur (`metrics` sums
    floats in that order).
    """

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
        self.planes = (defaultdict(lambda: [None] * cam.domains) if self.wide
                       else cam.planes)
        self.written: set[int] = set()
        self.sums: dict[str, list] = {}

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
        """The planes an m-bit step searches for one operand, a bit each."""
        col, base, n, fill, first, last = ref
        wide, planes = self.wide, self.planes
        if wide:
            self.gather(col, base, base + n)
        got = planes[col][base:base + n]
        if n == m:
            return got
        if first is None:
            # each AP's segment from the domain its port faces
            if not wide:
                plane = planes[fill][self.cams[0].align.get(fill, 0)]
                return got + [plane] * (m - n)
            plane = 0
            for cam, mask in zip(self.cams, self.masks):
                dom = cam.align.get(fill, 0)
                self.gather(fill, dom, dom + 1)
                plane |= planes[fill][dom] & mask
            return got + [plane] * (m - n)
        if wide:
            self.gather(fill, min(first, last), last + 1)
        track = planes[fill]
        if first >= last:
            return got + [track[last]] * (m - n)
        return got + [track[min(first + i, last)] for i in range(m - n)]

    def move_in(self, srcs, col: int, scratch: int, width: int):
        """Copy domains [0, width) of column `col` of the k-th AP of `srcs`
        into column `scratch` of the k-th AP, charging each an "accum" move
        of all its rows; a wide bundle then gathers those domains afresh."""
        for ap, cam, src in zip(self.aps, self.cams, srcs):
            cam.track(scratch, 0, width)[:width] = \
                src.track(col, 0, width)[:width]
            cam.writes[scratch] += width
            self.events.move((ap, self.layer, "accum", self.epoch),
                             self.rows * width, self.rows)
        if self.wide:
            self.planes[scratch][:width] = [None] * width

    def close(self):
        """Hand the planes and counters back to the APs, once, after the
        last step."""
        rows = self.rows
        for col in self.written:
            for dom, plane in enumerate(self.planes[col]):
                if plane is not None:
                    for k, cam in enumerate(self.cams):
                        cam.planes[col][dom] = plane >> k * rows & cam.full
        for k, ap in enumerate(self.aps):
            for phase, (searches, writes, write_bits, tagged, shifts,
                        steps) in self.sums.items():
                key = (ap, self.layer, phase, self.epoch)
                self.events.access(key, SEARCH, searches, searches * 3 * rows)
                self.events.access(key, WRITE, writes, write_bits + tagged[k])
                self.events.shift(key, shifts[k], steps[k], rows)


def _check_reach(cam: CamArray, step: isa.Step):
    """Raise SimulationError for the first column or domain of `step`
    outside the geometry of `cam`: its carry, the columns its operands
    read past their width, then its walks."""
    cam.track(step.carry)
    for ref in (step.a, step.b):
        if ref.n < step.m:
            cam.track(ref.fill)
    for col, (first, last) in step.walks.items():
        cam.track(col, first, last - first + 1)


def run_macro(bundle: Bundle, step: isa.Step):
    """Execute one decoded macro on every AP of `bundle` against its live
    alignment, each bit as one bit-parallel full add or subtract over its
    (carry, b, a) planes, once for all the bundle's rows.

    The step's table is the catalog's (`isa.standard_catalog`), whose
    passes take each row from its (carry, b, a) state to
    `isa.reference_bit` of it and tag exactly the rows whose (carry,
    result) changes, once each, in the pass keyed by their state. So the
    result and carry planes and the tagged rows follow from a bit's input
    planes, and no pass is replayed. The macro contract, which the step's
    maker checked or whose rules imply it, keeps the searched planes apart
    from the written ones. Each ported column steps to its first domain at
    bit 0 and then one domain a bit, so its shifts are counted from its
    first and last domain, not made one at a time, and from each AP's own
    alignment.

    It adds to the bundle's sums the counters `execute_micro_ops` would add
    for the expansion on each AP: the same searches and writes on every AP,
    and each AP's own shifts and tagged rows, the latter counted over its
    segment of the planes. The carry's alignment and the step's reach are
    checked before anything changes, so a step outside the geometry
    leaves the APs as they were.
    """
    (phase, op, negated, in_place, m, a, b, dest, rbase, carry, walks,
     passes, reach) = step
    cams = bundle.cams
    for cam in cams:
        if cam.align.get(carry, 0):
            raise FormatError("carry column must stay at domain 0")
    lo, col_hi, dom_hi = reach
    cam = cams[0]   # the APs share one geometry
    if lo < 0 or col_hi >= cam.columns or dom_hi >= cam.domains:
        _check_reach(cam, step)

    sums = bundle.sums.get(phase)
    if sums is None:
        n = len(cams)
        sums = bundle.sums[phase] = [0, 0, 0, [0] * n, [0] * n, [0] * n]
    tagged, shifts, steps = sums[3:]
    for k, cam in enumerate(cams):
        n_shifts, n_steps = cam.walk(walks)
        shifts[k] += n_shifts
        steps[k] += n_steps
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

    searches = passes * m
    clears = 0 if in_place else m
    for cam in cams:
        writes = cam.writes
        writes[carry] += 1 + searches
        for col in dest:
            writes[col] += searches + clears
    sums[0] += searches
    sums[1] += 1 + clears + searches
    sums[2] += bundle.rows * (1 + clears * len(dest))
    n_written = 1 + len(dest)
    if wide:
        bundle.written.update((carry, *dest))
        for k, mask in enumerate(bundle.masks):
            tagged[k] += n_written * sum((t & mask).bit_count()
                                         for t in changed)
    else:
        tagged[0] += n_written * count


# ---------------------------------------------------------------------------
# program execution
# ---------------------------------------------------------------------------

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


def _moved_values(prov: np.ndarray, pim, channels, lo: int,
                  n_rows: int) -> list[int]:
    """How many of the input values rows lo..lo+n_rows of a channel group
    read come from each producer AP, in producer order."""
    ys = pim.ys[lo:lo + n_rows]
    xs = pim.xs[lo:lo + n_rows]
    inside = ys >= 0
    moved: dict[int, int] = {}
    for ch in channels:
        srcs, counts = np.unique(prov[ch][ys[inside], xs[inside]],
                                 return_counts=True)
        for src, n in zip(srcs, counts):
            moved[int(src)] = moved.get(int(src), 0) + int(n)
    return [moved[src] for src in sorted(moved)]


def _read_out(state: SimState, ap: int, cols, width: int, n_rows: int,
              layer: int, epoch: int) -> np.ndarray:
    """Read the `width`-bit values of rows 0..n_rows-1 of `cols` through the
    port of an AP, each a search a bit from domain 0 up with a shift before
    each bit not yet in place, and leave each column at its top domain."""
    cam, events = state.ap(ap), state.events
    vals = cam.peek_block(cols, 0, width, n_rows)
    key = (ap, layer, "io", epoch)
    # the first column's port goes home before the first search, so a shift
    # there is charged first: `metrics` sums the kinds in first-charge order
    events.shift(key, *cam.walk({cols[0]: (0, 0)}), cam.rows)
    n = len(cols) * width
    events.access(key, SEARCH, n, n * cam.rows)
    events.shift(key, *cam.walk(dict.fromkeys(cols, (0, width - 1))),
                 cam.rows)
    return vals


def _run_conv(state: SimState, lp: ConvLayer, layer: int, cur: FeatureMap,
              prov: np.ndarray | None, catalog, epoch: int):
    geo = state.geometry
    shape = lp.shape
    pim = im2col_indices(shape)
    in_bits = lp.in_bits
    tiles = lp.tiles
    sched = schedule(shape, in_bits, geo, len(tiles))
    groups = sched.channel_groups
    events = state.events
    patches = [extract_patches(cur, pim, ch) for ch in range(shape.c_in)]

    # load: column hygiene, interconnect from producer APs, bit-planes in;
    # the tiles of a (row group, channel group) load the same data
    load = epoch + sched.LOAD
    loads = {}
    for ap, rg, og, cg in sched.grid:
        cam = state.ap(ap)
        tile = tiles[og]
        ru = sched.rows_used[rg]
        base_pos = rg * geo.rows
        key = (ap, layer, "io", load)
        # carry must sit at domain 0 (the expander insists) and the reserved
        # zero column must actually read zero on a reused array
        events.shift(key, *cam.walk({tile.carry: (0, 0), tile.zero: (0, 0)}),
                     cam.rows)
        cam.track(tile.zero)[0] = 0
        cam.writes[tile.zero] += 1
        events.access(key, WRITE, 1, cam.rows)
        if (rg, cg) not in loads:
            loads[rg, cg] = (
                [] if prov is None else
                _moved_values(prov, pim, groups[cg], base_pos, ru),
                _slot_planes(patches, groups[cg], base_pos, ru, in_bits))
        moved, planes = loads[rg, cg]
        for n in moved:
            events.move(key, n * in_bits, cam.rows)
        # each slot column walks up from domain 0, one write a domain
        n_doms = len(groups[cg]) * in_bits
        for k in range(pim.slots):
            cam.load(k, 0, planes[k * n_doms:(k + 1) * n_doms], ru)
            cam.writes[k] += n_doms
        events.shift(key, *cam.walk(dict.fromkeys(range(pim.slots),
                                                  (0, n_doms - 1))), cam.rows)
        n_writes = pim.slots * n_doms
        events.access(key, WRITE, n_writes, n_writes * ru)

    # per-AP channel DFGs and accumulator folds: the row groups of a (tile,
    # channel group) run its stream as one bundle
    for og, (tile, row) in enumerate(zip(tiles, lp.streams)):
        for cg, channels in enumerate(row):
            with Bundle(state, sched.bundle(og, cg), layer,
                        epoch + sched.STREAM) as bundle:
                for step in stream_macros(channels, tile, pim.slots,
                                          in_bits, catalog):
                    run_macro(bundle, step)

    # adder tree across channel groups, a merge on the bundle of its dst
    # group: before each add, each source AP's copy of its b column moves
    # into the scratch column a of its row group's AP. A move charges
    # rows × w bits, every row of the array, while the load above charges
    # only the rows it uses; which of the two is right is still open, and
    # changing either changes the modelled energy.
    merges = [merge_steps(tile, catalog) for tile in tiles]
    for ep, level in enumerate(sched.tree, epoch + sched.TREE):
        for og, dst, src in level:
            srcs = [state.ap(ap) for ap in sched.bundle(og, src)]
            with Bundle(state, sched.bundle(og, dst), layer, ep) as bundle:
                for step in merges[og]:
                    bundle.move_in(srcs, step.b.col, step.a.col, step.m)
                    run_macro(bundle, step)

    # readout at the tree roots, one block of accumulator planes a root and
    # tile, then requantize in the controller
    positions = shape.h_out * shape.w_out
    acc = np.zeros((shape.c_out, positions), dtype=np.int64)
    prov_new = np.zeros((shape.c_out, positions), dtype=np.int64)
    readout = epoch + sched.readout
    for og, tile in enumerate(tiles):
        cols = range(tile.acc0, tile.carry)
        for rg, ru in enumerate(sched.rows_used):
            root = sched.ap(rg, og, 0)
            vals = _read_out(state, root, cols, tile.acc_width, ru, layer,
                             readout)
            bad = (vals.min(axis=1) < tile.acc_lo) | \
                (vals.max(axis=1) > tile.acc_hi)
            if bad.any():
                raise SimulationError(
                    f"layer {layer}: accumulator for channel "
                    f"{tile.c_lo + int(bad.argmax())} left its proven "
                    f"interval [{tile.acc_lo}, {tile.acc_hi}]")
            base_pos = rg * geo.rows
            acc[tile.c_lo:tile.c_hi, base_pos:base_pos + ru] = vals
            prov_new[tile.c_lo:tile.c_hi, base_pos:base_pos + ru] = root
    ofm = FeatureMap(
        requantize(acc.reshape(shape.c_out, shape.h_out, shape.w_out),
                   lp.quant),
        lp.out_bits)
    prov_new = prov_new.reshape(shape.c_out, shape.h_out, shape.w_out)
    return ofm, prov_new, epoch + sched.epochs


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
    prov: np.ndarray | None = None
    epoch = 0
    for layer, lp in enumerate(program.layers):
        if lp.kind == "conv":
            cur, prov, epoch = _run_conv(state, lp, layer, cur, prov,
                                         catalog, epoch)
        elif lp.kind == "pool":
            cur = max_pool_2x2(cur)
            if prov is not None:
                # provenance of the surviving max is data-dependent; charge
                # the block's top-left producer, deterministically
                prov = prov[:, ::2, ::2]
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

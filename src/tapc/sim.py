"""Bit-accurate functional simulation of the CAM arrays on racetrack storage.

Array state is one row bitset per (column, domain) plane: a Python int whose
bit r is row r's stored bit. The per-column `align` map says which domain
each track currently ports. A search ANDs the ported planes of its columns
(or their complements, for a 0 key bit) into the tag register; a tagged write
ORs the tag into, or clears it out of, the ported planes of its columns.
Shifts just move the alignment and pay per domain step. Column moves between
APs copy whole planes (the interconnect model charges them per bit, flat
across hop levels).

`run_macro` executes each add/sub macro straight on the planes: it runs the
bit loop of `isa.expand_macro` (operand shifts, result clears, one search
and one tagged write per table pass) without building micro-ops. The
micro-op path, `isa.expand_macro` followed by `execute_micro_ops`, stays as
the reference the tests compare it against; no run takes it.

The event log is columnar: an `EventLog` keeps four int64 words per event
(kind code, bits, steps, cycles) and one place (ap, layer, phase, epoch) per
run of events that share it. `tapc.metrics` folds the columns with numpy;
iterating the log yields `Event`s.

Programs are the typed form of `tapc.program`, read by attribute; loaded
ones were checked by its loader. Everything a run needs beyond the stored
decisions comes from there too: the placement (`place_layer`), the AP of
each (row group, tile, channel group) (`ap_id`), the adder-tree merges
(`adder_tree`, `merge_adds`) and the macros and energy phases of each
stream, whose items store only columns (`stream_macros`). A layer's number
is its position in the program. A conv layer's streams are decoded once and
replayed on every row group.

Event costs follow the array's physical behavior, not the program's intent:
searches compare every row, tagged writes pay per tagged row, and rows beyond
a partially filled group take part in compute like any others. Their results
land in rows the readout never visits, so outputs stay exact and, because the
whole machine is deterministic, so do the energy figures.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import isa
from .errors import FormatError, SimulationError
from .lowering import extract_patches, im2col_indices
from .model import FeatureMap, max_pool_2x2, requantize
from .program import (ApGeometry, ApProgram, ConvLayer, adder_tree, ap_id,
                      merge_adds, place_layer, stream_macros)

EVENT_KINDS = ("search", "write", "shift", "move")
SEARCH, WRITE, SHIFT, MOVE = range(len(EVENT_KINDS))


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


class EventLog:
    """A run's costed actions in order, stored by column.

    `data` holds four int64 words per event: kind code (an index into
    EVENT_KINDS), bits, steps, cycles. Each run of events at one place
    (ap, layer, phase, epoch) is a segment: segment i starts at event
    `starts[i]` and sits at `places[i]`. Iteration yields `Event`s.
    """

    __slots__ = ("data", "starts", "places")

    def __init__(self):
        self.data = array("q")
        self.starts: list[int] = []
        self.places: list[tuple[int, int, str, int]] = []

    def at(self, ap: int, layer: int, phase: str, epoch: int) -> array:
        """`data`, to be extended with the records of events at this place."""
        place = (ap, layer, phase, epoch)
        if not self.places or self.places[-1] != place:
            n = len(self.data) >> 2
            if self.starts and self.starts[-1] == n:
                self.places[-1] = place     # the last place got no event
            else:
                self.starts.append(n)
                self.places.append(place)
        return self.data

    def __len__(self) -> int:
        return len(self.data) >> 2

    def segments(self):
        """(place, records) per segment, the records as a flat array of four
        words per event."""
        ends = self.starts[1:] + [len(self)]
        for place, lo, hi in zip(self.places, self.starts, ends):
            yield place, self.data[4 * lo:4 * hi]

    def __iter__(self):
        for (ap, layer, phase, epoch), records in self.segments():
            it = iter(records)
            for kind, bits, steps, cycles in zip(it, it, it, it):
                yield Event(EVENT_KINDS[kind], ap, layer, phase, epoch, bits,
                            steps, cycles)


EXPORT_HEADER = "kind,ap,bits,steps,epoch"


def export_events(events: EventLog) -> str:
    """events.csv: one line per event. Lines repeat within a segment, so
    each distinct one is formatted once there."""
    parts = [EXPORT_HEADER + "\n"]
    for (ap, _layer, _phase, epoch), records in events.segments():
        lines: dict[tuple, str] = {}

        def line(record):
            kind, bits, steps, _ = record
            text = f"{EVENT_KINDS[kind]},{ap},{bits},{steps},{epoch}\n"
            lines[record] = text
            return text
        it = iter(records)
        parts.append("".join([lines.get(r) or line(r)
                              for r in zip(it, it, it, it)]))
    return "".join(parts)


def _pack_rows(bits) -> int:
    """Row bitset of a 0/1 vector: element r becomes bit r."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _unpack_rows(plane: int, rows: int) -> np.ndarray:
    raw = np.frombuffer(plane.to_bytes(-(-rows // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little")


class CamArray:
    """One AP: the row-bitset planes plus alignment, tag register and wear
    counts. `planes[col][dom]` holds domain `dom` of every row's track in
    column `col`."""

    def __init__(self, geometry: ApGeometry):
        self.rows = geometry.rows
        self.columns = geometry.columns
        self.domains = geometry.domains_per_track
        self.full = (1 << geometry.rows) - 1
        self.planes = [[0] * self.domains for _ in range(self.columns)]
        self.align: dict[int, int] = {}
        self.tag = 0
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

    def load(self, col: int, dom: int, bits, n_rows: int):
        """Replace the low `n_rows` rows of one plane, keeping the rows above."""
        if n_rows > self.rows:
            raise SimulationError(f"{n_rows} rows loaded into a "
                                  f"{self.rows}-row array")
        track = self.track(col, dom)
        track[dom] = track[dom] >> n_rows << n_rows | _pack_rows(bits)

    def visible(self, col: int) -> np.ndarray:
        return _unpack_rows(self.planes[col][self.align.get(col, 0)], self.rows)

    # direct, uncosted access for harnesses and unit tests
    def poke(self, col: int, base: int, width: int, values, n_rows: int):
        vals = np.asarray(values, dtype=np.int64)
        mask = (1 << width) - 1
        for b in range(width):
            self.load(col, base + b, ((vals & mask) >> b) & 1, n_rows)

    def peek(self, col: int, base: int, width: int, n_rows: int,
             signed: bool = True) -> np.ndarray:
        track = self.track(col, base, width)
        vals = np.zeros(n_rows, dtype=np.int64)
        for b in range(width):
            vals |= _unpack_rows(track[base + b],
                                 self.rows)[:n_rows].astype(np.int64) << b
        if signed:
            vals -= ((vals >> (width - 1)) & 1) << width
        return vals

    def shift(self, col: int, target: int):
        self.track(col, target)
        self.align[col] = target


class SimState:
    """Lazy AP pool plus the event log. APs materialize on first touch and
    persist across layers, which is exactly why programs must not assume
    freshly zeroed columns."""

    def __init__(self, geometry: ApGeometry):
        self.geometry = geometry
        self.aps: dict[int, CamArray] = {}
        self.events = EventLog()

    def ap(self, ap_id: int) -> CamArray:
        if ap_id not in self.aps:
            self.aps[ap_id] = CamArray(self.geometry)
        return self.aps[ap_id]

    def col_write_max(self) -> int:
        return max((max(cam.writes) for cam in self.aps.values()), default=0)


def execute_micro_ops(state: SimState, ap_id: int, ops: list[isa.MicroOp],
                      layer: int = 0, phase: str = "dfg", epoch: int = 0):
    """Run expanded micro-ops against one AP, logging every costed action.

    This is the reference `run_macro` is tested against. Shifts carry their
    step count from expansion (planned against a copy of the AP's
    alignment), so applying them here keeps plan and state in sync.
    """
    cam = state.ap(ap_id)
    align, writes = cam.align, cam.writes
    full, rows = cam.full, cam.rows
    log = state.events.at(ap_id, layer, phase, epoch)
    for op in ops:
        kind = op.kind
        if kind == "search":
            tag = full
            for col, want in zip(op.cols, op.key):
                plane = cam.track(col)[align.get(col, 0)]
                tag &= plane if want else full ^ plane
            cam.tag = tag
            log.extend((SEARCH, len(op.cols) * rows, 0, 1))
        elif kind == "write":
            tag = cam.tag
            for col, bit in zip(op.cols, op.bits):
                track = cam.track(col)
                dom = align.get(col, 0)
                track[dom] = track[dom] | tag if bit else track[dom] & ~tag
                writes[col] += 1
            log.extend((WRITE, len(op.cols) * tag.bit_count(), 0, 1))
        elif kind == "clear":
            for col in op.cols:
                cam.track(col)[align.get(col, 0)] = 0
                writes[col] += 1
            log.extend((WRITE, len(op.cols) * rows, 0, 1))
        elif kind == "shift":
            cam.shift(op.col, op.target)
            if op.steps:
                log.extend((SHIFT, rows, op.steps, op.steps))
        else:
            raise SimulationError(f"unexpected micro-op kind {op.kind!r}")


def _ported_spans(macro: isa.MacroInstr, dest_cols: tuple):
    """(column, first domain, last domain) of every column the bit loop of
    `macro` reads or writes. The zero column is read where it stands, so
    only its domain 0 is sure to exist."""
    m = macro.width
    spans = [(macro.carry_col, 0, 0)]
    if macro.addressing == isa.IN_PLACE:
        refs = (macro.a,)
        if m > 0:
            spans.append((macro.b.col, macro.b.base, macro.b.base + m - 1))
    else:
        refs = (macro.a, macro.b)
        if m > 0:
            spans += [(col, macro.dest_base, macro.dest_base + m - 1)
                      for col in dest_cols]
    for ref in refs:
        n = min(ref.width, m)
        if n > 0:
            spans.append((ref.col, ref.base, ref.base + n - 1))
        if ref.width < m:
            top = ref.base + ref.width - 1
            spans.append((ref.col, top, top) if ref.signed
                         else (macro.zero_col, 0, 0))
    return spans


def run_macro(state: SimState, ap_id: int, macro: isa.MacroInstr,
              table: isa.LutTable, layer: int = 0, phase: str = "dfg",
              epoch: int = 0):
    """Execute one macro against the AP's live alignment, straight on the
    planes: the bit loop of `isa.expand_macro`, logging the events
    `execute_micro_ops` would log for its expansion, in the same order.

    Every column and domain the loop touches is checked before anything
    changes, so a macro outside the geometry leaves the AP as it was.
    """
    cam = state.ap(ap_id)
    align = cam.align
    dest_cols = isa.result_columns(macro, table, align)
    for col, lo, hi in _ported_spans(macro, dest_cols):
        cam.track(col, lo, hi - lo + 1)

    planes, full, rows = cam.planes, cam.full, cam.rows
    m, a, b, carry = macro.width, macro.a, macro.b, macro.carry_col
    in_place = macro.addressing == isa.IN_PLACE
    passes = [(*e.key, *e.write) for e in table.passes()]
    search_bits, n_written = 3 * rows, 1 + len(dest_cols)
    log = [WRITE, rows, 0, 1]       # the carry clear

    def port(col, target):
        cur = align.get(col, 0)
        if cur != target:
            align[col] = target
            steps = abs(target - cur)
            log.extend((SHIFT, rows, steps, steps))

    def place(ref, bit):
        # the searched position, clamped at the sign bit or redirected to
        # the zero column past the stored width
        if bit < ref.width:
            port(ref.col, ref.base + bit)
            return ref.col
        if ref.signed:
            port(ref.col, ref.base + ref.width - 1)
            return ref.col
        return macro.zero_col

    ctrack = planes[carry]
    ctrack[0] = 0
    tag = cam.tag
    for bit in range(m):
        if in_place:
            b_col = b.col
            port(b_col, b.base + bit)
        else:
            b_col = place(b, bit)
        a_col = place(a, bit)
        if not in_place:
            for col in dest_cols:
                port(col, macro.dest_base + bit)
            for col in dest_cols:
                planes[col][align.get(col, 0)] = 0
            log.extend((WRITE, len(dest_cols) * rows, 0, 1))
        cdom = align.get(carry, 0)
        btrack, bdom = planes[b_col], align.get(b_col, 0)
        atrack, adom = planes[a_col], align.get(a_col, 0)
        dests = [(planes[col], align.get(col, 0)) for col in dest_cols]
        for kc, kb, ka, wc, wr in passes:
            c, bv, av = ctrack[cdom], btrack[bdom], atrack[adom]
            tag = ((c if kc else full ^ c) & (bv if kb else full ^ bv)
                   & (av if ka else full ^ av))
            ctrack[cdom] = c | tag if wc else c & ~tag
            for track, dom in dests:
                track[dom] = track[dom] | tag if wr else track[dom] & ~tag
            log += (SEARCH, search_bits, 0, 1,
                    WRITE, n_written * tag.bit_count(), 0, 1)
    cam.tag = tag
    per_bit = len(passes) if in_place else len(passes) + 1   # + the clear
    cam.writes[carry] += 1 + len(passes) * m
    for col in dest_cols:
        cam.writes[col] += per_bit * m
    state.events.at(ap_id, layer, phase, epoch).fromlist(log)


# ---------------------------------------------------------------------------
# program execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    trace: list[FeatureMap]
    events: EventLog
    state: SimState


def _shift_log(state, ap_id, col, target, layer, phase, epoch):
    cam = state.ap(ap_id)
    cur = cam.align.get(col, 0)
    if cur != target:
        cam.shift(col, target)
        steps = abs(target - cur)
        state.events.at(ap_id, layer, phase, epoch).extend(
            (SHIFT, cam.rows, steps, steps))


def _read_signed(state, ap_id, col, base, width, n_rows, layer, epoch):
    """Read one value column through the port: a shift plus one search per
    bit, reconstructing two's-complement integers for the controller."""
    cam = state.ap(ap_id)
    vals = np.zeros(n_rows, dtype=np.int64)
    for b in range(width):
        _shift_log(state, ap_id, col, base + b, layer, "io", epoch)
        state.events.at(ap_id, layer, "io", epoch).extend(
            (SEARCH, cam.rows, 0, 1))
        vals |= cam.visible(col)[:n_rows].astype(np.int64) << b
    vals -= ((vals >> (width - 1)) & 1) << width
    return vals


def _run_conv(state: SimState, lp: ConvLayer, layer: int, cur: FeatureMap,
              prov: np.ndarray | None, luts, epoch: int):
    geo = state.geometry
    shape = lp.shape
    pim = im2col_indices(shape)
    in_bits = lp.in_bits
    placed = place_layer(shape, in_bits, geo)
    groups = placed["channel_groups"]
    rows_used = placed["rows_used"]
    tiles = lp.tiles
    n_tiles, n_groups = len(tiles), len(groups)
    grid = [(ap_id(rg, og, cg, n_tiles, n_groups), rg, og, cg)
            for rg in range(len(rows_used)) for og in range(n_tiles)
            for cg in range(n_groups)]
    patches = [extract_patches(cur, pim, ch) for ch in range(shape.c_in)]

    # load: column hygiene, interconnect from producer APs, bit-planes in
    ep_load = epoch
    for ap, rg, og, cg in grid:
        cam = state.ap(ap)
        tile = tiles[og]
        ru = rows_used[rg]
        base_pos = rg * geo.rows
        # carry must sit at domain 0 (the expander insists) and the reserved
        # zero column must actually read zero on a reused array
        _shift_log(state, ap, tile.carry, 0, layer, "io", ep_load)
        _shift_log(state, ap, tile.zero, 0, layer, "io", ep_load)
        cam.track(tile.zero)[0] = 0
        cam.writes[tile.zero] += 1
        state.events.at(ap, layer, "io", ep_load).extend(
            (WRITE, cam.rows, 0, 1))
        if prov is not None:
            agg: dict[int, int] = {}
            for ch in groups[cg]:
                ys = pim.ys[base_pos:base_pos + ru]
                xs = pim.xs[base_pos:base_pos + ru]
                m = ys >= 0
                srcs, counts = np.unique(prov[ch][ys[m], xs[m]],
                                         return_counts=True)
                for s, n in zip(srcs, counts):
                    agg[int(s)] = agg.get(int(s), 0) + int(n)
            for src in sorted(agg):
                bits = agg[src] * in_bits
                state.events.at(ap, layer, "io", ep_load).extend(
                    (MOVE, bits, 0, -(-bits // geo.rows)))
        for ci, ch in enumerate(groups[cg]):
            vals = patches[ch][base_pos:base_pos + ru]
            for k in range(pim.slots):
                for b in range(in_bits):
                    dom = ci * in_bits + b
                    _shift_log(state, ap, k, dom, layer, "io", ep_load)
                    cam.load(k, dom, (vals[:, k] >> b) & 1, ru)
                    cam.writes[k] += 1
                    state.events.at(ap, layer, "io", ep_load).extend(
                        (WRITE, ru, 0, 1))

    # per-AP channel DFGs and accumulator folds; every row group runs the
    # stream of its (tile, channel group)
    ep_work = epoch + 1
    streams = [[stream_macros(channels, tile, in_bits) for channels in row]
               for tile, row in zip(tiles, lp.streams)]
    for ap, _rg, og, cg in grid:
        for macro, phase in streams[og][cg]:
            run_macro(state, ap, macro, luts[macro.op_kind, macro.addressing],
                      layer, phase, ep_work)

    # adder tree across channel groups: before each add, the source AP's
    # copy of its b column moves into the scratch column a
    ep_next = ep_work + 1
    merges = [merge_adds(tile) for tile in tiles]
    for level in adder_tree(lp, geo):
        for dst, src, og in level:
            cam = state.ap(dst)
            for macro in merges[og]:
                scratch, col, w = macro.a.col, macro.b.col, macro.width
                cam.track(scratch, 0, w)[:w] = \
                    state.ap(src).track(col, 0, w)[:w]
                cam.writes[scratch] += w
                state.events.at(dst, layer, "accum", ep_next).extend(
                    (MOVE, cam.rows * w, 0, w))
                run_macro(state, dst, macro,
                          luts[macro.op_kind, macro.addressing], layer,
                          "accum", ep_next)
        ep_next += 1

    # readout at the tree roots, then requantize in the controller
    positions = shape.h_out * shape.w_out
    acc = np.zeros((shape.c_out, positions), dtype=np.int64)
    prov_new = np.zeros((shape.c_out, positions), dtype=np.int64)
    for og, tile in enumerate(tiles):
        w_acc = tile.acc_width
        for rg, ru in enumerate(rows_used):
            root = ap_id(rg, og, 0, n_tiles, n_groups)
            base_pos = rg * geo.rows
            for r in range(tile.c_lo, tile.c_hi):
                col = tile.acc0 + (r - tile.c_lo)
                vals = _read_signed(state, root, col, 0, w_acc, ru, layer,
                                    ep_next)
                if vals.min() < tile.acc_lo or vals.max() > tile.acc_hi:
                    raise SimulationError(
                        f"layer {layer}: accumulator for channel {r} left "
                        f"its proven interval [{tile.acc_lo}, {tile.acc_hi}]")
                acc[r, base_pos:base_pos + ru] = vals
            prov_new[tile.c_lo:tile.c_hi, base_pos:base_pos + ru] = root
    ofm = FeatureMap(
        requantize(acc.reshape(shape.c_out, shape.h_out, shape.w_out),
                   lp.quant),
        lp.out_bits)
    prov_new = prov_new.reshape(shape.c_out, shape.h_out, shape.w_out)
    return ofm, prov_new, ep_next + 1


def run(program: ApProgram, ifm: FeatureMap) -> RunResult:
    """Execute a compiled program and return the per-layer output trace.

    The trace must match the host reference bit for bit; the event log is
    the raw material for the energy/latency/endurance accounting.
    """
    if ifm.bits != program.in_bits:
        raise FormatError(f"program expects {program.in_bits}-bit input, "
                          f"feature map is {ifm.bits}-bit")
    want = (program.in_c, program.in_h, program.in_w)
    if tuple(ifm.shape) != want:
        raise FormatError(
            f"program compiled for {'x'.join(map(str, want))} (CxHxW) input, "
            f"feature map is {'x'.join(map(str, ifm.shape))}")
    luts = {(t.op_kind, t.addressing): t for t in program.luts}
    state = SimState(program.geometry)
    trace: list[FeatureMap] = []
    cur = ifm
    prov: np.ndarray | None = None
    epoch = 0
    for layer, lp in enumerate(program.layers):
        if lp.kind == "conv":
            cur, prov, epoch = _run_conv(state, lp, layer, cur, prov, luts,
                                         epoch)
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

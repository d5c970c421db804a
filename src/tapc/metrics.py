"""Energy, latency and endurance accounting over simulator event counters.

Costs are charged per event: searches and writes per bit touched, shifts per
track and domain step, inter-array moves at a flat per-bit rate that already
folds in the read, transfer and write at the far end. The simulator sums
each event's integer energy size per (ap, layer, phase, epoch, kind), so
pricing a layer takes one multiply per kind, and one per phase and kind.
Latency adds up epoch by epoch, taking the slowest AP inside each epoch
(APs run in lockstep between barriers, epochs are sequential).

The default constants are deliberately few and are echoed into every report
so a reader can see exactly what a number was built from.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import program as programlib
from .errors import FormatError
from .program import checked_fields, macro_counts, schedule
from .sim import EVENT_KINDS, MOVE

PHASES = ("io", *programlib.PHASES)

NS_PER_YEAR = 365.25 * 24 * 3600 * 1e9

CSV_COLUMNS = ("layer", "cycles", "ns", "e_search_pJ", "e_write_pJ",
               "e_shift_pJ", "e_move_pJ", "e_total_pJ", "adds", "utilization")


@dataclass
class EnergyModel:
    search_fj_per_bit: float = 3.0   # per compared bit, all rows of a search
    write_fj_per_bit: float = 3.0    # per written bit; assumed equal to search
    shift_fj_per_step: float = 0.1   # per track and domain step; assumption
    move_pj_per_bit: float = 1.0     # flat inter-array transfer, any distance
    cycle_ns: float = 0.1
    write_endurance: float = 1e16    # write cycles one cell survives

    def __post_init__(self):
        for name in ("search_fj_per_bit", "write_fj_per_bit",
                     "shift_fj_per_step", "move_pj_per_bit"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FormatError(f"energy model: {name} must be finite "
                                  f"and >= 0")
        if not (0 < self.cycle_ns < math.inf
                and 0 < self.write_endurance < math.inf):
            raise FormatError("energy model: cycle time and write endurance "
                              "must be finite and positive")

    def assumptions(self) -> list[str]:
        return [
            f"search energy {self.search_fj_per_bit} fJ/bit",
            f"write energy {self.write_fj_per_bit} fJ/bit (taken equal to search)",
            f"shift energy {self.shift_fj_per_step} fJ/track-step (assumed)",
            f"move energy {self.move_pj_per_bit} pJ/bit, flat across hops",
            f"cycle time {self.cycle_ns} ns",
            f"write endurance {self.write_endurance:.0e} cycles",
        ]


def _energy_pj(kind: int, size: int, model: EnergyModel) -> float:
    """Energy of `size` units of one kind code (`sim.energy_size`):
    (size × rate) × scale."""
    rate = (model.search_fj_per_bit, model.write_fj_per_bit,
            model.shift_fj_per_step, model.move_pj_per_bit)[kind]
    return size * rate * (1.0 if kind == MOVE else 1e-3)


def event_energy_pj(event, model: EnergyModel) -> float:
    if event.kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {event.kind!r}")
    return _energy_pj(EVENT_KINDS.index(event.kind), event.size, model)


@dataclass
class LayerStats:
    layer: int
    kind: str
    cycles: int
    ns: float
    energy_pj: dict[str, float]   # by event kind
    phase_pj: dict[str, float]    # by phase
    adds: int
    subs: int
    utilization: float

    @property
    def total_pj(self) -> float:
        return sum(self.energy_pj.values())


@dataclass
class Stats:
    name: str
    opt: str
    layers: list[LayerStats]
    total_cycles: int
    total_ns: float
    energy_pj: dict[str, float]
    phase_pj: dict[str, float]
    adds: int
    subs: int
    arrays_used: int
    max_col_writes: int
    model: dict = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return sum(self.energy_pj.values())

    @property
    def interconnect_share(self) -> float:
        t = self.total_pj
        return self.energy_pj["move"] / t if t else 0.0

    def to_doc(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=1,
                          allow_nan=False) + "\n"

    @classmethod
    def from_doc(cls, doc) -> "Stats":
        """Check a decoded stats.json and build its typed form."""
        _tables(checked_fields(doc, cls, "stats"), "stats")
        try:
            EnergyModel(**doc["model"])     # as the reports rebuild it
        except TypeError as exc:
            raise FormatError(f"stats: bad energy model: {exc}") from exc
        layers = []
        for i, d in enumerate(doc["layers"]):
            where = f"stats layer {i}"
            layers.append(LayerStats(**_tables(
                checked_fields(d, LayerStats, where), where)))
        return cls(**{**doc, "layers": layers})

    @classmethod
    def load(cls, path) -> "Stats":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise FormatError(f"cannot read stats: {exc}") from exc
        return cls.from_doc(doc)


def _tables(doc: dict, where: str) -> dict:
    """`doc` after checking that its energy tables hold a finite number for
    every event kind and every phase, and nothing else."""
    for name, keys in (("energy_pj", EVENT_KINDS), ("phase_pj", PHASES)):
        table = doc[name]
        if sorted(table) != sorted(keys) or any(
                type(x) not in (int, float) or not math.isfinite(x)
                for x in table.values()):
            raise FormatError(f"{where}: {name} needs one finite number for "
                              f"each of {', '.join(keys)}")
    return doc


def _fold(counts, n_layers: int, model: EnergyModel):
    """Energy by (layer, kind) and by (layer, phase), and cycles per layer,
    of a run's event counters. Energy sizes are summed as integers and
    multiplied by their rate once per layer and kind, and once per layer,
    phase and kind."""
    k = len(EVENT_KINDS)
    kind_size = [[0] * k for _ in range(n_layers)]
    phase_size: dict[tuple[int, str, int], int] = {}
    busy: dict[tuple[int, int], dict[int, int]] = {}
    for (ap, layer, phase, epoch, kind), acc in counts.bins.items():
        kind_size[layer][kind] += acc[4]
        key = (layer, phase, kind)
        phase_size[key] = phase_size.get(key, 0) + acc[4]
        by_ap = busy.setdefault((layer, epoch), {})
        by_ap[ap] = by_ap.get(ap, 0) + acc[3]
    by_kind = [[_energy_pj(kind, size, model) for kind, size in enumerate(row)]
               for row in kind_size]
    by_phase = [[0.0] * len(PHASES) for _ in range(n_layers)]
    for (layer, phase, kind), size in phase_size.items():
        by_phase[layer][PHASES.index(phase)] += _energy_pj(kind, size, model)
    # APs run in lockstep inside an epoch: the slowest one sets its length
    layer_cycles = [0] * n_layers
    for (layer, _epoch), by_ap in busy.items():
        layer_cycles[layer] += max(by_ap.values())
    return by_kind, by_phase, layer_cycles


def account(program, result, model: EnergyModel | None = None) -> Stats:
    """Fold a run's counters and wear, all the derivation's (`sim.Charges`)
    but the tagged write bits, into per-layer and total statistics."""
    model = model or EnergyModel()
    geo = program.geometry
    by_kind, by_phase, layer_cycles = _fold(result.events, len(program.layers),
                                            model)
    layers = []
    for idx, lp in enumerate(program.layers):
        util = 0.0
        adds = subs = 0
        if lp.kind == "conv":
            sched = schedule(lp.shape, lp.in_bits, geo, len(lp.tiles))
            util = sched.utilization
            adds, subs = macro_counts(lp, sched)
        cycles = layer_cycles[idx]
        layers.append(LayerStats(
            layer=idx, kind=lp.kind, cycles=cycles,
            ns=cycles * model.cycle_ns,
            energy_pj=dict(zip(EVENT_KINDS, by_kind[idx])),
            phase_pj=dict(zip(PHASES, by_phase[idx])),
            adds=adds, subs=subs, utilization=util))
    total_cycles = sum(layer_cycles)
    stats = Stats(
        name=program.name, opt=program.opt, layers=layers,
        total_cycles=total_cycles, total_ns=total_cycles * model.cycle_ns,
        energy_pj={k: sum(ls.energy_pj[k] for ls in layers)
                   for k in EVENT_KINDS},
        phase_pj={p: sum(ls.phase_pj[p] for ls in layers) for p in PHASES},
        adds=sum(ls.adds for ls in layers), subs=sum(ls.subs for ls in layers),
        arrays_used=result.state.arrays_used,
        max_col_writes=result.state.max_col_writes,
        model=asdict(model))
    # every figure is non-negative, so a finite total bounds its parts
    if not all(map(math.isfinite, (stats.total_ns, stats.total_pj,
                                   sum(stats.phase_pj.values())))):
        raise FormatError("energy model: the run's totals overflow a float")
    return stats


# ---------------------------------------------------------------------------
# endurance
# ---------------------------------------------------------------------------

def endurance_years(model: EnergyModel, rewrite_interval_ns: float) -> float:
    """Lifetime of a cell rewritten every `rewrite_interval_ns`."""
    return model.write_endurance * rewrite_interval_ns / NS_PER_YEAR


def endurance_estimate(stats: Stats, model: EnergyModel | None = None) -> float:
    """Worst-column lifetime in years if this run looped back to back.

    The hottest column saw `max_col_writes` write cycles in `total_ns`, so
    its mean rewrite interval is the ratio, and the endurance budget divides
    out. Returns inf when nothing was written.
    """
    model = model or EnergyModel()
    if stats.max_col_writes == 0:
        return float("inf")
    interval_ns = stats.total_ns / stats.max_col_writes
    return endurance_years(model, interval_ns)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def to_csv(stats: Stats) -> str:
    """Per-layer table; the adds column counts add and sub macros together."""
    lines = [",".join(CSV_COLUMNS)]
    for ls in stats.layers:
        lines.append(",".join([
            str(ls.layer), str(ls.cycles), f"{ls.ns:.3f}",
            f"{ls.energy_pj['search']:.6f}", f"{ls.energy_pj['write']:.6f}",
            f"{ls.energy_pj['shift']:.6f}", f"{ls.energy_pj['move']:.6f}",
            f"{ls.total_pj:.6f}", str(ls.adds + ls.subs),
            f"{ls.utilization:.4f}"]))
    lines.append(",".join([
        "total", str(stats.total_cycles), f"{stats.total_ns:.3f}",
        f"{stats.energy_pj['search']:.6f}", f"{stats.energy_pj['write']:.6f}",
        f"{stats.energy_pj['shift']:.6f}", f"{stats.energy_pj['move']:.6f}",
        f"{stats.total_pj:.6f}", str(stats.adds + stats.subs), ""]))
    return "\n".join(lines) + "\n"


def format_report(stats: Stats, baseline: Stats | None = None) -> str:
    """Human-readable account; pass the unoptimized run as baseline to get
    the side-by-side reduction figures."""
    model = EnergyModel(**stats.model) if stats.model else EnergyModel()
    out = []
    out.append(f"network {stats.name}  (opt={stats.opt})")
    out.append("model assumptions: " + "; ".join(model.assumptions()))
    out.append("")
    header = (f"{'layer':>5} {'kind':>5} {'cycles':>9} {'ns':>10} "
              f"{'pJ':>12} {'adds':>7} {'util':>6}")
    out.append(header)
    for ls in stats.layers:
        out.append(f"{ls.layer:>5} {ls.kind:>5} {ls.cycles:>9} "
                   f"{ls.ns:>10.2f} {ls.total_pj:>12.3f} "
                   f"{ls.adds + ls.subs:>7} {ls.utilization:>6.3f}")
    out.append(f"{'total':>5} {'':>5} {stats.total_cycles:>9} "
               f"{stats.total_ns:>10.2f} {stats.total_pj:>12.3f} "
               f"{stats.adds + stats.subs:>7}")
    out.append("")
    e = stats.energy_pj
    out.append("energy by kind [pJ]: " + "  ".join(
        f"{k}={e[k]:.3f}" for k in EVENT_KINDS))
    p = stats.phase_pj
    out.append("energy by phase [pJ]: " + "  ".join(
        f"{k}={p[k]:.3f}" for k in PHASES))
    out.append(f"interconnect share: {100 * stats.interconnect_share:.1f}%")
    out.append(f"arrays used: {stats.arrays_used}   "
               f"hottest column: {stats.max_col_writes} writes")
    yrs = endurance_estimate(stats, model)
    out.append(f"endurance at this duty cycle: "
               f"{'unbounded' if yrs == float('inf') else f'{yrs:.1f} years'}")
    if baseline is not None:
        ops_a, ops_b = stats.adds + stats.subs, baseline.adds + baseline.subs
        red_ops = 100 * (1 - ops_a / ops_b) if ops_b else 0.0
        red_e = (100 * (1 - stats.total_pj / baseline.total_pj)
                 if baseline.total_pj else 0.0)
        red_t = (100 * (1 - stats.total_ns / baseline.total_ns)
                 if baseline.total_ns else 0.0)
        out.append("")
        out.append(f"vs {baseline.opt}: ops {ops_b} -> {ops_a} "
                   f"({red_ops:.1f}% fewer), energy {red_e:.1f}% lower, "
                   f"latency {red_t:.1f}% lower")
    return "\n".join(out) + "\n"

"""Energy, latency and endurance accounting."""

import json
import types
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from tapc import metrics, sim
from tapc.metrics import EVENT_KINDS, PHASES, EnergyModel, LayerStats, Stats
from tapc.model import make_synthetic_input, make_synthetic_network
from tapc.program import PoolLayer, macro_counts, schedule
from tapc.scheduler import ApGeometry, ApProgram, emit_program


def _reference_pj(kind, bits, size, model):
    """Energy of one counter update: its bits at the kind's rate, or for
    shifts its summed bits × steps."""
    if kind == "search":
        return bits * model.search_fj_per_bit * 1e-3
    if kind == "write":
        return bits * model.write_fj_per_bit * 1e-3
    if kind == "shift":
        return size * model.shift_fj_per_step * 1e-3
    return bits * model.move_pj_per_bit


def _record_calls(events):
    """The counter update the test makes for each drawn event, one an
    event: (key, n, bits, steps, cycles, size)."""
    return [((ap, layer, phase, epoch, kind), 1, bits, steps, cycles,
             bits * steps if kind == sim.SHIFT else bits)
            for kind, ap, layer, phase, epoch, bits, steps, cycles in events]


def _reference_account(program, calls, state, model):
    """The update-by-update fold of a run's counter updates, as
    `EventCounts.add` received them, each priced in turn: the oracle of
    `metrics.account`, which prices the summed counters."""
    geo = program.geometry
    per_layer = {}
    for idx, lp in enumerate(program.layers):
        util = 0.0
        adds = subs = 0
        if lp.kind == "conv":
            positions = lp.shape.h_out * lp.shape.w_out
            util = positions / (-(-positions // geo.rows) * geo.rows)
            adds, subs = macro_counts(
                lp, schedule(lp.shape, lp.in_bits, geo, len(lp.tiles)))
        per_layer[idx] = {"kind": lp.kind,
                          "energy": {k: 0.0 for k in EVENT_KINDS},
                          "phase": {p: 0.0 for p in PHASES},
                          "epochs": {}, "adds": adds, "subs": subs,
                          "util": util}
    for (ap, layer, phase, epoch, kind), _n, bits, _steps, cycles, size \
            in calls:
        slot = per_layer[layer]
        kind = EVENT_KINDS[kind]
        pj = _reference_pj(kind, bits, size, model)
        slot["energy"][kind] += pj
        slot["phase"][phase] += pj
        by_ap = slot["epochs"].setdefault(epoch, {})
        by_ap[ap] = by_ap.get(ap, 0) + cycles
    layers = []
    tot_energy = {k: 0.0 for k in EVENT_KINDS}
    tot_phase = {p: 0.0 for p in PHASES}
    tot_cycles = tot_adds = tot_subs = 0
    for idx in sorted(per_layer):
        slot = per_layer[idx]
        cycles = sum(max(by_ap.values()) for by_ap in slot["epochs"].values())
        layers.append(LayerStats(
            layer=idx, kind=slot["kind"], cycles=cycles,
            ns=cycles * model.cycle_ns, energy_pj=slot["energy"],
            phase_pj=slot["phase"], adds=slot["adds"], subs=slot["subs"],
            utilization=slot["util"]))
        for k in EVENT_KINDS:
            tot_energy[k] += slot["energy"][k]
        for p in PHASES:
            tot_phase[p] += slot["phase"][p]
        tot_cycles += cycles
        tot_adds += slot["adds"]
        tot_subs += slot["subs"]
    return Stats(
        name=program.name, opt=program.opt, layers=layers,
        total_cycles=tot_cycles, total_ns=tot_cycles * model.cycle_ns,
        energy_pj=tot_energy, phase_pj=tot_phase, adds=tot_adds,
        subs=tot_subs, arrays_used=len(state.writes),
        max_col_writes=max(map(max, state.writes.values()), default=0),
        model=asdict(model))


def assert_same_stats(got, want):
    """Every int equal, every float within 1e-9 relative: the oracle adds
    rounded per-update energies, `account` rounds once per sum. Below the
    normal float range (a drawn rate of 5e-324, say) a per-event price
    keeps no relative precision, hence the absolute floor."""
    def same(a, b, where):
        assert type(a) is type(b), where
        if isinstance(a, dict):
            assert a.keys() == b.keys(), where
            for k in a:
                same(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), where
            for i, (x, y) in enumerate(zip(a, b)):
                same(x, y, f"{where}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-300), where
        else:
            assert a == b, where
    same(json.loads(got.dumps()), json.loads(want.dumps()), "stats")


@pytest.fixture(scope="module")
def accounted(counter_log):
    """Per opt level: the program, its run, the run's stats and the log of
    the run's counter updates."""
    net = make_synthetic_network(2, 6, 0.7, bits=4, in_channels=3, seed=9)
    ifm = make_synthetic_input(net, 8, 8, seed=2)
    out = {}
    for opt in ("unroll", "unroll_cse"):
        prog = emit_program(net, 8, 8, ApGeometry(), opt)
        with counter_log() as calls:
            result = sim.run(prog, ifm)
        out[opt] = (prog, result, metrics.account(prog, result), calls)
    return out


def test_event_energy_anchors():
    model = metrics.EnergyModel()
    # 3 masked columns sensed across 256 rows at 3 fJ/bit
    search = sim.Event("search", 0, 0, "dfg", 0, 3 * 256, 0, 1)
    assert metrics.event_energy_pj(search, model) == pytest.approx(2.304, rel=1e-9)
    write = sim.Event("write", 0, 0, "dfg", 0, 3 * 256, 0, 1)
    assert metrics.event_energy_pj(write, model) == pytest.approx(2.304, rel=1e-9)
    # a 2048-bit transfer at the flat 1 pJ/bit move rate
    move = sim.Event("move", 0, 0, "accum", 0, 2048, 0, 8)
    assert metrics.event_energy_pj(move, model) == pytest.approx(2048.0, rel=1e-9)
    # 256 tracks moved 2 domains at 0.1 fJ/track-step
    shift = sim.Event("shift", 0, 0, "dfg", 0, 256, 2, 2)
    assert metrics.event_energy_pj(shift, model) == pytest.approx(0.0512, rel=1e-9)
    with pytest.raises(ValueError):
        metrics.event_energy_pj(sim.Event("tunnel", 0, 0, "dfg", 0, 1, 0, 1), model)


def test_account_categories_sum_to_total(accounted):
    for opt, (prog, result, stats, calls) in accounted.items():
        by_layers = sum(ls.total_pj for ls in stats.layers)
        assert stats.total_pj == pytest.approx(by_layers, rel=1e-9)
        assert sum(stats.phase_pj.values()) == pytest.approx(stats.total_pj, rel=1e-9)
        for kind in metrics.EVENT_KINDS:
            per_layer = sum(ls.energy_pj[kind] for ls in stats.layers)
            assert stats.energy_pj[kind] == pytest.approx(per_layer, rel=1e-9)
        # total re-derivable from the run's counter updates, one by one
        model = metrics.EnergyModel()
        raw = sum(_reference_pj(EVENT_KINDS[key[4]], bits, size, model)
                  for key, _n, bits, _steps, _cycles, size in calls)
        assert stats.total_pj == pytest.approx(raw, rel=1e-9)
        assert stats.arrays_used == len(result.state.aps)
        assert stats.max_col_writes == max(map(max,
                                               result.state.writes.values()))
        assert stats.adds + stats.subs > 0
        assert stats.opt == opt


def test_latency_is_epochwise_max_over_lockstep_aps():
    geo = ApGeometry()
    prog = ApProgram(name="crafted", opt="unroll", in_bits=4, in_c=1,
                     in_h=2, in_w=2, geometry=geo, layers=[PoolLayer()])
    state = sim.SimState(geo)
    state.ports(0), state.ports(1)
    for ap, epoch, record in [
        (0, 0, (sim.SEARCH, 64, 0, 4)),
        (0, 0, (sim.WRITE, 64, 0, 6)),      # ap0, epoch0: 10
        (1, 0, (sim.SEARCH, 64, 0, 8)),     # ap1, epoch0: 8
        (0, 1, (sim.SHIFT, 64, 3, 3)),      # ap0, epoch1: 3
        (1, 1, (sim.SEARCH, 64, 0, 9)),     # ap1, epoch1: 9
    ]:
        kind, bits, steps, cycles = record
        state.events.add((ap, 0, "dfg", epoch, kind), 1, bits, steps, cycles,
                         sim.energy_size(kind, bits, steps))
    result = types.SimpleNamespace(events=state.events, state=state)
    stats = metrics.account(prog, result)
    assert stats.total_cycles == max(10, 8) + max(3, 9) == 19
    assert stats.total_ns == pytest.approx(1.9, rel=1e-9)


def test_account_matches_the_per_event_fold(accounted):
    for prog, result, stats, calls in accounted.values():
        want = _reference_account(prog, calls, result.state, EnergyModel())
        assert_same_stats(stats, want)


def _pool_program(n_layers):
    return ApProgram(name="drawn", opt="unroll", in_bits=4, in_c=1, in_h=2,
                     in_w=2, geometry=ApGeometry(),
                     layers=[PoolLayer() for _ in range(n_layers)])


rates = st.floats(0, 50, allow_nan=False, allow_infinity=False)
drawn_events = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
    st.sampled_from(PHASES), st.integers(0, 4), st.integers(0, 1 << 20),
    st.integers(0, 63), st.integers(0, 300)), max_size=200)


@given(drawn_events, rates, rates, rates, rates)
def test_account_of_drawn_logs_matches_the_per_event_fold(
        events, search, write, shift, move):
    model = EnergyModel(search, write, shift, move)
    state = sim.SimState(ApGeometry())
    for kind, ap, layer, phase, epoch, bits, steps, cycles in events:
        state.ports(ap)
        state.events.add((ap, layer, phase, epoch, kind), 1, bits, steps,
                         cycles, sim.energy_size(kind, bits, steps))
    assert len(state.events) == len(events)
    result = types.SimpleNamespace(events=state.events, state=state)
    prog = _pool_program(3)
    assert_same_stats(metrics.account(prog, result, model),
                      _reference_account(prog, _record_calls(events), state,
                                         model))


def test_endurance_anchor_at_100ns_rewrite_interval():
    years = metrics.endurance_years(metrics.EnergyModel(), 100.0)
    assert years == pytest.approx(31.6888, rel=1e-3)


def _bare_stats(total_ns, max_col_writes):
    return metrics.Stats(
        name="x", opt="unroll", layers=[], total_cycles=0, total_ns=total_ns,
        energy_pj={k: 0.0 for k in metrics.EVENT_KINDS},
        phase_pj={p: 0.0 for p in metrics.PHASES},
        adds=0, subs=0, arrays_used=0, max_col_writes=max_col_writes)


def test_endurance_estimate_divides_runtime_by_hottest_column():
    stats = _bare_stats(total_ns=1000.0, max_col_writes=10)
    want = metrics.endurance_years(metrics.EnergyModel(), 100.0)
    assert metrics.endurance_estimate(stats) == pytest.approx(want, rel=1e-9)
    assert metrics.endurance_estimate(_bare_stats(5.0, 0)) == float("inf")


def test_csv_layout(accounted):
    stats = accounted["unroll_cse"][2]
    text = metrics.to_csv(stats)
    lines = text.splitlines()
    assert lines[0] == ",".join(metrics.CSV_COLUMNS) == (
        "layer,cycles,ns,e_search_pJ,e_write_pJ,e_shift_pJ,e_move_pJ,"
        "e_total_pJ,adds,utilization")
    assert len(lines) == len(stats.layers) + 2
    assert lines[-1].startswith("total,")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(metrics.CSV_COLUMNS)
        # energy fields parse as floats and stay non-negative
        assert all(float(f) >= 0.0 for f in fields[2:8])


def test_report_renders_assumptions_and_comparison(accounted):
    base = accounted["unroll"][2]
    stats = accounted["unroll_cse"][2]
    report = metrics.format_report(stats, baseline=base)
    assert "model assumptions:" in report
    assert "3.0 fJ/bit" in report
    assert "0.1 fJ/track-step (assumed)" in report
    assert "interconnect share:" in report
    assert "endurance at this duty cycle:" in report
    assert "vs unroll: ops" in report
    assert "% fewer" in report
    solo = metrics.format_report(stats)
    assert "vs unroll" not in solo


def test_stats_round_trip(accounted):
    stats = accounted["unroll_cse"][2]
    doc = json.loads(stats.dumps())
    again = metrics.Stats.from_doc(doc)
    assert again.dumps() == stats.dumps()
    assert again.total_pj == pytest.approx(stats.total_pj, rel=1e-12)

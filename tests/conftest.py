"""Shared fixtures: the worked-example system and a batched pair checker.

Property tests replay the same 150 examples on every run and keep no
example database; the `tapc-long` profile draws a few thousand fresh ones
instead. Hypothesis still caches the constants it finds in local modules,
from collection on, so its home directory is a temporary one that the run
removes, and a run leaves no `.hypothesis/` directory in the checkout.
"""

import contextlib
import shutil
import tempfile
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import configuration, settings

from tapc import isa, sim
from tapc.lowering import LinearSystem
from tapc.program import OPS, PHASES, Steps, Stream
from tapc.scheduler import ApGeometry

settings.register_profile("tapc", derandomize=True, database=None,
                          deadline=None, max_examples=150)
# a longer, randomized run of the same properties, not part of tier-1:
#   pytest tests/test_fuzz.py --hypothesis-profile tapc-long
settings.register_profile("tapc-long", derandomize=False, database=None,
                          deadline=None, max_examples=3000)
settings.load_profile("tapc")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="tapc-hypothesis-")
    configuration.set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))

# hand-checked 6x6 ternary system used as the CSE regression anchor:
# y = M @ x for x = [1..6] was worked out by hand and frozen here
WORKED_MATRIX = np.array([
    [1, -1, 0, 1, 0, -1],
    [0, 0, -1, 1, 0, -1],
    [0, 0, 0, -1, 0, 1],
    [0, -1, 0, -1, 0, 1],
    [1, -1, 0, -1, 0, 0],
    [1, -1, -1, 1, 0, -1],
], dtype=np.int64)
WORKED_X = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
WORKED_Y = np.array([-3, -5, 2, 0, -5, -6], dtype=np.int64)
WORKED_OPS_UNROLL = 14
WORKED_OPS_CSE = 7


@pytest.fixture
def worked_matrix():
    return WORKED_MATRIX.copy()


@pytest.fixture
def worked_system():
    return LinearSystem(0, WORKED_MATRIX.copy())


@pytest.fixture(scope="session")
def catalog():
    tables, _repairs = isa.standard_catalog()
    return tables


def poke(cam, col, base, width, values, n_rows):
    """Store `values` as `width`-bit numbers from domain `base` on in rows
    0..n_rows-1 of column `col` of `cam`, uncharged."""
    vals = np.asarray(values, dtype=np.int64)
    bits = vals >> np.arange(width, dtype=np.int64)[:, None] & 1
    cam.load(col, base, sim._pack_planes(bits), n_rows)


def peek(cam, col, base, width, n_rows, signed=True):
    """The `width`-bit values from domain `base` on in rows 0..n_rows-1 of
    column `col` of `cam`."""
    return cam.peek_block([col], base, width, n_rows, signed)[0]


def decode(macros) -> Steps:
    """The steps table of (macro, pass table, phase) triples, a row each in
    order, after `isa.result_columns` checks each macro against no
    alignment: where the carry and zero columns stand is a run-time fact,
    which the derivation checks. The macros share one carry and one zero
    column. A table holds only what a program can state, so a macro whose
    result starts past domain 0, or that reads the zero column as other
    than one unsigned bit at domain 0, is refused (AssertionError). Only
    tests decode `isa.MacroInstr`s: to run those the micro-op reference
    runs, and to check the tables `program.stream_steps` and
    `program.merge_steps` make."""
    rows = []
    for macro, table, phase in macros:
        dest = isa.result_columns(macro, table, {})
        in_place = macro.addressing == isa.IN_PLACE
        assert (macro.b.base if in_place else macro.dest_base) == 0, \
            f"{macro}: result past domain 0"
        zero = isa.OperandRef(macro.zero_col, 0, 1, False)
        assert all(ref == zero for ref in (macro.a, macro.b)
                   if ref.col == zero.col), f"{macro}: zero column read wide"
        rows.append((PHASES.index(phase), OPS.index(macro.op_kind),
                     macro.negated, in_place, macro.width,
                     *(astuple(ref) for ref in (macro.a, macro.b)), dest,
                     len(dest), table.pass_count))
    (carry,), (zero,) = ({getattr(macro, f) for macro, *_ in macros}
                         for f in ("carry_col", "zero_col"))
    (phase, op, negated, in_place, m, a, b, dest, nd, passes) = zip(*rows)
    return Steps(*map(np.array, (phase, op, negated, in_place, m)),
                 *(tuple(map(np.array, zip(*ref))) for ref in (a, b)),
                 np.array([col for cols in dest for col in cols], np.int64),
                 *map(np.array, (nd, passes)), carry, zero)


def stream_of(channels) -> Stream:
    """The stream of per-channel lists of (op, m, a, b, dest) items, with op
    named as `isa` names it."""
    items = [item for row in channels for item in row]
    ops, m, a, b, dest = zip(*items) if items else ((),) * 5
    return Stream(*(np.array(col, np.int64) for col in (
        [*map(len, channels)], [*map(OPS.index, ops)], m, a, b,
        [*map(len, dest)], [col for cols in dest for col in cols])))


def stream_items(stream: Stream) -> list[list[tuple]]:
    """The items of `stream` per channel as (op, m, a, b, dest) tuples:
    what `stream_of` takes."""
    dest, nd = stream.dest.tolist(), stream.nd.tolist()
    items = list(zip(map(OPS.__getitem__, stream.op.tolist()),
                     stream.m.tolist(), stream.a.tolist(), stream.b.tolist(),
                     (tuple(dest[end - n:end])
                      for n, end in zip(nd, np.cumsum(nd).tolist()))))
    counts = stream.items.tolist()
    return [items[end - n:end]
            for n, end in zip(counts, np.cumsum(counts).tolist())]


def steps_equal(got: Steps, want: Steps) -> bool:
    """Whether two steps tables hold the same values, field by field."""
    return all(np.array_equal(x, y) for x, y in zip(
        got[:5] + got.a + got.b + got[7:], want[:5] + want.a + want.b
        + want[7:]))


def run_steps(state, aps, steps, layer=0, epoch=0):
    """Charge the table `steps` on the bundle of `aps`, then run it on each
    AP's planes, as `sim.run` runs a stream: the derivation first, then the
    executor."""
    sim.run_part(state, aps, (), steps, state.steps(aps, steps, layer, epoch),
                 layer, epoch)


@contextlib.contextmanager
def _logged_counter_updates():
    """Log every `sim.EventCounts.add` call made inside the block, as
    (key, n, bits, steps, cycles, size), and still apply it."""
    calls = []
    real_add = sim.EventCounts.add

    def add(self, key, *sums):
        calls.append((key, *sums))
        real_add(self, key, *sums)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim.EventCounts, "add", add)
        yield calls


@pytest.fixture(scope="session")
def counter_log():
    """`with counter_log() as calls:` logs the counter updates of a run,
    one call each, so a test can fold them its own way."""
    return _logged_counter_updates


@pytest.fixture(scope="session")
def pair_harness(catalog):
    """Run signed k-bit operand pairs through one macro shape, batched as
    CAM rows, and return the simulated results (two's complement exact)."""

    geo = ApGeometry(rows=256, columns=8, domains_per_track=64)

    def run_pairs(op, mode, a_vals, b_vals, k_bits, negated=False):
        a_vals = np.asarray(a_vals, dtype=np.int64)
        b_vals = np.asarray(b_vals, dtype=np.int64)
        m = k_bits + 1   # covers sums, differences and their complements
        out = np.empty(len(a_vals), dtype=np.int64)
        for lo in range(0, len(a_vals), geo.rows):
            n = min(geo.rows, len(a_vals) - lo)
            st = sim.SimState(geo)
            cam = st.ap(0)
            poke(cam, 0, 0, k_bits, a_vals[lo:lo + n], n)
            a = isa.OperandRef(0, 0, k_bits, True)
            if mode == isa.IN_PLACE:
                poke(cam, 1, 0, m, b_vals[lo:lo + n], n)
                b = isa.OperandRef(1, 0, m, True)
                mac = isa.MacroInstr(op, mode, negated, m, a, b, (), 0, 3, 4)
                dest = 1
            else:
                poke(cam, 1, 0, k_bits, b_vals[lo:lo + n], n)
                b = isa.OperandRef(1, 0, k_bits, True)
                mac = isa.MacroInstr(op, mode, negated, m, a, b, (2,), 0, 3, 4)
                dest = 2
            run_steps(st, [0], decode([(mac, catalog[op, mode, negated],
                                        "dfg")]))
            out[lo:lo + n] = peek(cam, dest, 0, m, n, signed=True)
        return out

    return run_pairs


def ternary_matrix(rows, cols, sparsity, seed):
    """iid ternary weights: P(0) = sparsity, the rest split evenly."""
    rng = np.random.default_rng(seed)
    p = [(1 - sparsity) / 2, sparsity, (1 - sparsity) / 2]
    return rng.choice([-1, 0, 1], size=(rows, cols), p=p).astype(np.int64)


def system_for(matrix):
    return LinearSystem(0, matrix)

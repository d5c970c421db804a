"""DFG construction, signed-pair CSE and bitwidth annotation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (WORKED_OPS_CSE, WORKED_OPS_UNROLL, WORKED_X, WORKED_Y,
                      system_for, ternary_matrix)
from tapc import dfg as dfglib
from tapc.lowering import unrolled_op_count
from tapc.scheduler import allocate_columns


def _graphs(matrix, bits=4):
    sys_ = system_for(matrix)
    g0 = dfglib.annotate_bitwidths(dfglib.build_dfg(sys_), bits)
    g1 = dfglib.annotate_bitwidths(
        dfglib.eliminate_common_subexpressions(dfglib.build_dfg(sys_)), bits)
    return g0, g1


def test_chain_op_count_matches_unrolled_metric():
    for seed in range(5):
        m = ternary_matrix(16, 9, 0.7, seed)
        g0, _ = _graphs(m)
        assert g0.op_count == unrolled_op_count([system_for(m)])


def test_empty_rows_share_one_zero_node():
    m = np.zeros((4, 6), dtype=np.int64)
    m[1, 3] = -1
    t = dfglib.build_dfg(system_for(m)).nodes
    zero_tags = [nid for nid, _ in t.tags if t.kind[nid] == dfglib.ZERO]
    assert len(zero_tags) == 3 and len(set(zero_tags)) == 1
    # the single-term row aliases the input with a negative sign
    nid, sign = t.tags[1]
    assert t.kind[nid] == dfglib.INPUT and t.lhs[nid] == 3 and sign == -1


@pytest.mark.parametrize("seed", range(8))
def test_evaluation_matches_matrix_product(seed):
    m = ternary_matrix(24, 9, 0.75, seed)
    g0, g1 = _graphs(m)
    rng = np.random.default_rng(seed + 100)
    for _ in range(10):
        x = rng.integers(0, 16, size=9)
        want = m @ x
        assert np.array_equal(dfglib.dfg_evaluate(g0, x), want)
        assert np.array_equal(dfglib.dfg_evaluate(g1, x, check_ranges=True), want)


def test_worked_example_cse_counts(worked_system):
    g0 = dfglib.build_dfg(worked_system)
    assert g0.op_count == WORKED_OPS_UNROLL
    g1 = dfglib.eliminate_common_subexpressions(g0)
    assert g1.op_count == WORKED_OPS_CSE
    assert np.array_equal(dfglib.dfg_evaluate(g1, WORKED_X), WORKED_Y)


def test_cse_shares_negated_occurrences():
    # row 2 is the negation of row 1 shifted through shared pairs: first
    # (x0 - x1) serves all three rows, then (x3 + t) serves rows 1 and 2,
    # the latter through a -1 output tag instead of any extra op
    m = np.array([[1, -1, 1, 0],
                  [1, -1, 0, 1],
                  [-1, 1, 0, -1]], dtype=np.int64)
    g1 = dfglib.eliminate_common_subexpressions(dfglib.build_dfg(system_for(m)))
    assert g1.op_count == 3
    tags = g1.nodes.tags
    assert tags[1][0] == tags[2][0] and tags[1][1] == -tags[2][1]


@pytest.mark.parametrize("seed", range(10))
def test_cse_never_increases_ops(seed):
    m = ternary_matrix(32, 9, 0.8, seed)
    g0, g1 = _graphs(m)
    assert g1.op_count <= g0.op_count


def test_min_signed_width_frozen_points():
    cases = {(0, 0): 1, (-1, 0): 1, (0, 1): 2, (-8, 7): 4, (-9, 7): 5,
             (0, 15): 5, (-16, 15): 5, (0, 16): 6}
    for (lo, hi), want in cases.items():
        assert dfglib.min_signed_width(lo, hi) == want


def _least_width_holding(w, lo, hi):
    def holds(w):
        return -(1 << (w - 1)) <= lo and hi <= (1 << (w - 1)) - 1
    return holds(w) and (w == 1 or not holds(w - 1))


def test_min_signed_width_is_the_least_width_holding_small_intervals():
    for lo in range(-300, 301):
        for hi in range(lo, 301):
            assert _least_width_holding(dfglib.min_signed_width(lo, hi),
                                        lo, hi), (lo, hi)


@given(st.integers(-2**200, 2**200), st.integers(-2**200, 2**200))
def test_min_signed_width_is_the_least_width_holding_big_intervals(a, b):
    lo, hi = min(a, b), max(a, b)
    assert _least_width_holding(dfglib.min_signed_width(lo, hi), lo, hi)


def test_annotation_intervals_cover_all_inputs():
    m = ternary_matrix(12, 6, 0.6, 3)
    g, _ = _graphs(m, bits=4)
    for x in ([0] * 6, [15] * 6, [15, 0, 15, 0, 15, 0]):
        dfglib.dfg_evaluate(g, np.array(x), check_ranges=True)
    for n, kind in enumerate(g.nodes.kind):
        if kind in (dfglib.ADD, dfglib.SUB):
            assert g.width(n) == dfglib.min_signed_width(*g.interval(n))
            assert _least_width_holding(g.width(n), *g.interval(n))


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=6))
def test_single_row_interval_is_tight(coeffs, bits):
    # ternary chains hit their interval corners, so the annotation must be
    # exactly [sum of negatives, sum of positives] scaled by the input top
    m = np.array([coeffs], dtype=np.int64)
    g, _ = _graphs(m, bits=bits)
    nid, sign = g.nodes.tags[0]
    arr = np.array(coeffs)
    top = (1 << bits) - 1
    row_lo = int(arr[arr < 0].sum()) * top
    row_hi = int(arr[arr > 0].sum()) * top
    if g.nodes.kind[nid] == dfglib.ZERO:
        assert row_lo == row_hi == 0
        return
    ends = [sign * end for end in g.interval(nid)]
    assert (min(ends), max(ends)) == (row_lo, row_hi)


def _dict_rows(m):
    """Each row of a ternary matrix as {slot: sign}, one np.flatnonzero
    walk per row."""
    return [{int(k): int(m[r, k]) for k in np.flatnonzero(m[r])}
            for r in range(m.shape[0])]


def _bits_of(rows, n_atoms):
    """Dict rows as `dfglib.RowBits`, one bit at a time."""
    pos, neg = [0] * n_atoms, [0] * n_atoms
    for r, row in enumerate(rows):
        for atom, sign in row.items():
            if sign > 0:
                pos[atom] |= 1 << r
            else:
                neg[atom] |= 1 << r
    return dfglib.RowBits(len(rows), pos, neg)


def _reference_cse(m):
    """The full-recount greedy CSE the incremental engine replaced: recount
    every signed pair in every row after each extraction."""
    rows = _dict_rows(m)
    n_slots = m.shape[1]
    temp_defs = []
    while True:
        counts = {}
        for row in rows:
            atoms = sorted(row.items())
            for i in range(len(atoms)):
                for j in range(i + 1, len(atoms)):
                    (u, su), (v, sv) = atoms[i], atoms[j]
                    key = (u, v, -sv) if su < 0 else (u, v, sv)
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            break
        best_key = min(counts, key=lambda k: (-counts[k], k[0], k[1],
                                              0 if k[2] > 0 else 1))
        if counts[best_key] < 2:
            break
        u, v, sv = best_key
        temp = n_slots + len(temp_defs)
        temp_defs.append((u, sv, v))
        for row in rows:
            if u in row and v in row:
                if row[u] == 1 and row[v] == sv:
                    del row[u], row[v]
                    row[temp] = 1
                elif row[u] == -1 and row[v] == -sv:
                    del row[u], row[v]
                    row[temp] = -1
    return dfglib.number_nodes(n_slots, temp_defs,
                               _bits_of(rows, n_slots + len(temp_defs)))


def _assert_matches_reference(m):
    g = dfglib.build_dfg(system_for(m))
    assert dfglib.eliminate_common_subexpressions(g).nodes == _reference_cse(m)


@st.composite
def ternary_matrices(draw, max_rows=64):
    """1 to max_rows rows over 1-27 slots, with zero rows and with some rows
    repeated or negated from earlier ones."""
    n_cols = draw(st.integers(1, 27))
    base = draw(arrays(np.int64, (draw(st.integers(1, max_rows)), n_cols),
                       elements=st.sampled_from([-1, 0, 1])))
    rows = list(base)
    for src, how in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.sampled_from([1, -1, 0])),
                                  max_size=max_rows - len(rows))):
        rows.append(how * base[src])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64)


@given(ternary_matrices())
def test_incremental_cse_matches_full_recount(m):
    _assert_matches_reference(m)


def test_incremental_cse_matches_full_recount_on_the_worked_matrix(
        worked_matrix):
    _assert_matches_reference(worked_matrix)


def _reference_chains(system):
    """build_dfg before row bitsets: one np.flatnonzero walk per row, then
    the chains."""
    m = system.matrix
    rows = _bits_of(_dict_rows(m), m.shape[1])
    return dfglib.DataFlowGraph(system.channel, rows,
                                dfglib.number_nodes(m.shape[1], [], rows))


def _assert_slice_matches_references(m, c_lo, c_hi, cse, x):
    """The graph of rows c_lo..c_hi-1 sliced from the whole matrix's
    bitsets equals the reference's on the sub-matrix, and computes it."""
    sub = m[c_lo:c_hi]
    g = dfglib.graph_from_terms(0, dfglib.row_bits(m).rows(c_lo, c_hi), cse)
    if cse:
        assert g.nodes == _reference_cse(sub)
    else:
        assert g == _reference_chains(system_for(sub))
    assert np.array_equal(dfglib.dfg_evaluate(g, x), sub @ x)


@given(ternary_matrices(max_rows=130), st.booleans(), st.data())
def test_cse_on_a_tile_slice_matches_full_recount(m, cse, data):
    # a tile's rows are a slice of its channel's bitsets, at any offset
    c_lo = data.draw(st.integers(0, m.shape[0] - 1))
    c_hi = data.draw(st.integers(c_lo + 1, m.shape[0]))
    x = np.array(data.draw(st.lists(st.integers(0, 15), min_size=m.shape[1],
                                    max_size=m.shape[1])))
    _assert_slice_matches_references(m, c_lo, c_hi, cse, x)


@pytest.mark.parametrize("cse", [False, True])
@pytest.mark.parametrize("c_lo, c_hi", [(0, 1), (7, 8), (64, 65), (129, 130),
                                        (0, 130), (3, 130), (9, 17), (13, 77)])
def test_cse_on_fixed_tile_slices_matches_full_recount(c_lo, c_hi, cse):
    # 130 rows, a third of them zero, cut into one-row tiles and slices off
    # byte boundaries
    m = ternary_matrix(130, 9, 0.6, 11)
    m[::3] = 0
    x = np.random.default_rng(5).integers(0, 16, size=9)
    _assert_slice_matches_references(m, c_lo, c_hi, cse, x)


@given(ternary_matrices(), st.integers(1, 8), st.data())
def test_graphs_from_row_terms_match_the_graph_level_passes(m, bits, data):
    # the scheduler takes a channel's bitsets once and slices them per tile
    c_lo = data.draw(st.integers(0, m.shape[0] - 1))
    c_hi = data.draw(st.integers(c_lo + 1, m.shape[0]))
    sliced = system_for(m[c_lo:c_hi])
    terms = dfglib.row_bits(m).rows(c_lo, c_hi)
    kept = dfglib.row_bits(sliced.matrix)
    assert terms == kept

    def from_terms(cse):
        return dfglib.annotate_bitwidths(dfglib.graph_from_terms(
            sliced.channel, terms, cse), bits)

    assert from_terms(True) == dfglib.annotate_bitwidths(
        dfglib.eliminate_common_subexpressions(dfglib.build_dfg(sliced)), bits)
    # CSE reruns from the rows' bitsets, not from the graph it is given
    assert (dfglib.eliminate_common_subexpressions(from_terms(True))
            == dfglib.eliminate_common_subexpressions(from_terms(False)))
    chains = from_terms(False)
    assert chains == dfglib.annotate_bitwidths(_reference_chains(sliced), bits)
    assert chains == dfglib.annotate_bitwidths(dfglib.build_dfg(sliced), bits)
    for cse in (False, True):   # the same ChannelPlan from either
        sliced_plan, own_plan = (
            allocate_columns(dfglib.graph_from_terms(0, t, cse).nodes, bits)
            for t in (terms, kept))
        assert sliced_plan == own_plan
    assert terms == kept == from_terms(True).terms    # CSE ran on a copy


def _reference_intervals(g, bits):
    """Every node's interval recomputed from its operands' intervals: inputs
    span [0, 2**bits - 1], a zero is [0, 0], and add and sub combine their
    operands' ends."""
    t, top = g.nodes, (1 << bits) - 1
    out = []
    for kind, a, b in zip(t.kind, t.lhs, t.rhs):
        if kind == dfglib.INPUT:
            out.append((0, top))
        elif kind == dfglib.ZERO:
            out.append((0, 0))
        elif kind == dfglib.ADD:
            out.append((out[a][0] + out[b][0], out[a][1] + out[b][1]))
        else:
            out.append((out[a][0] - out[b][1], out[a][1] - out[b][0]))
    return out


@given(ternary_matrices(), st.integers(1, 8), st.booleans())
def test_annotated_intervals_match_the_operand_rule(m, bits, cse):
    g = dfglib.annotate_bitwidths(dfglib.graph_from_terms(
        0, dfglib.row_bits(m), cse), bits)
    assert [g.interval(n) for n in range(len(g.nodes.kind))] \
        == _reference_intervals(g, bits)

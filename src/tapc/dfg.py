"""Multiplication-free data-flow graphs for ternary matrix rows.

Each LinearSystem row is a signed sum of patch slots, so the whole system
compiles to chains of two-operand adds/subs. Unary negation is never
materialized: a value consumed with flipped sign turns an add into a sub
(and vice versa), and a row that is exactly the negation of a node is
tagged with a minus sign that the accumulation phase resolves by
subtracting instead of adding.

The optimizer is a greedy signed-pair extractor: the two-term pattern
(+-x_i +-x_j) occurring in the most rows, counting a pattern and its
negation together, is hoisted into a temporary and substituted, until no
pattern occurs twice. Pair counts are kept incrementally (Hartley's
pair-count CSE): taken once, then updated only in the rows an extraction
rewrites, with the next pair drawn from a lazy-deletion heap whose key is
the same tie-break a full recount would apply. Scope is one LinearSystem,
i.e. one input channel of one layer, or a contiguous range of its rows.

Both opt levels start from the rows' signed slot terms (`row_terms`), taken
once per system; `shared_terms` runs the pair extraction on a copy under
CSE. `number_nodes` is the one numbering of the resulting temporaries and
rows, and the one representation of a channel's graph: parallel per-node
lists of kind, operands, value interval over inputs in [0, 1], use count
and one (node, sign) tag per row, each interval computed as its op is
made. The scheduler plans columns straight from that table.
`DataFlowGraph` is a view of it that also keeps the rows' terms, from which
CSE reruns, and the top input value, by which `annotate_bitwidths` scales
the table's intervals; `dfg_evaluate` checks a graph against them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lowering import LinearSystem

INPUT, ADD, SUB, ZERO = "input", "add", "sub", "zero"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def row_terms(matrix: np.ndarray) -> list[dict[int, int]]:
    """Per row of a ternary matrix: its nonzero slots, ascending, mapped to
    their signs."""
    rows: list[dict[int, int]] = [{} for _ in range(matrix.shape[0])]
    r_idx, k_idx = np.nonzero(matrix)
    for r, k, c in zip(r_idx.tolist(), k_idx.tolist(),
                       matrix[r_idx, k_idx].tolist()):
        rows[r][k] = c
    return rows


class NodeTable(NamedTuple):
    """One channel's nodes in topological order as parallel lists indexed
    by node id: the one numbering that `DataFlowGraph` views and the
    scheduler's column planner reads.

    `lo` and `hi` bound each node's value over inputs in [0, 1]; every node
    is a signed sum of distinct inputs, so scaling both by an input's top
    value gives its exact interval over inputs in [0, top]."""

    n_slots: int
    kind: list[str]       # INPUT, ADD, SUB or ZERO
    lhs: list[int]        # add/sub: operand node ids; input: lhs is its slot
    rhs: list[int]
    lo: list[int]
    hi: list[int]
    uses: list[int]       # operand uses plus output tags
    tags: list[tuple[int, int]]   # per output row: (node id, sign)


def number_nodes(n_slots: int, temp_defs: list[tuple[int, int, int]],
                 rows: list[dict[int, int]]) -> NodeTable:
    """Number the nodes of term lists: each temporary's op, then each row's
    left-to-right chain, an input at its first reference and one zero node
    at the first empty row.

    temp_defs entries are (u, sign_v, v): temporary atom n_slots+i equals
    atom u plus sign_v * atom v. Atoms below n_slots are patch slots.
    """
    kind: list[str] = []
    lhs: list[int] = []
    rhs: list[int] = []
    lo: list[int] = []
    hi: list[int] = []
    uses: list[int] = []
    tags: list[tuple[int, int]] = []
    node_of = [-1] * (n_slots + len(temp_defs))     # atom -> node id

    def new_node(k: str, a: int, b: int, l: int, h: int) -> int:
        kind.append(k)
        lhs.append(a)
        rhs.append(b)
        lo.append(l)
        hi.append(h)
        uses.append(0)
        return len(kind) - 1

    def new_input(atom: int) -> int:
        if atom >= n_slots:
            raise ValueError("temporary referenced before definition")
        node_of[atom] = n = new_node(INPUT, atom, -1, 0, 1)
        return n

    def new_op(sign: int, a: int, b: int) -> int:
        uses[a] += 1
        uses[b] += 1
        if sign > 0:
            return new_node(ADD, a, b, lo[a] + lo[b], hi[a] + hi[b])
        return new_node(SUB, a, b, lo[a] - hi[b], hi[a] - lo[b])

    for i, (u, sv, v) in enumerate(temp_defs):
        a = node_of[u]
        if a < 0:
            a = new_input(u)
        b = node_of[v]
        if b < 0:
            b = new_input(v)
        node_of[n_slots + i] = new_op(sv, a, b)

    zero = -1
    for row in rows:
        terms = sorted(row.items())
        if not terms:
            if zero < 0:
                zero = new_node(ZERO, -1, -1, 0, 0)
            uses[zero] += 1
            tags.append((zero, 1))
            continue
        (a0, s0), rest = terms[0], terms[1:]
        cur = node_of[a0]
        if cur < 0:
            cur = new_input(a0)
        for a, s in rest:
            b = node_of[a]
            if b < 0:
                b = new_input(a)
            cur = new_op(s * s0, cur, b)
        uses[cur] += 1
        tags.append((cur, s0))
    return NodeTable(n_slots, kind, lhs, rhs, lo, hi, uses, tags)


def shared_terms(rows: list[dict[int, int]], n_slots: int, cse: bool
                 ) -> tuple[list[tuple[int, int, int]], list[dict[int, int]]]:
    """`number_nodes`' input for rows given as signed slot terms (see
    `row_terms`): with `cse`, the temporaries `_extract_pairs` hoists from a
    copy of the rows and the rewritten copy; otherwise the rows as they are."""
    if not cse:
        return [], rows
    rows = [dict(row) for row in rows]
    return _extract_pairs(rows, n_slots), rows


@dataclass
class DataFlowGraph:
    """One LinearSystem's graph, as a view of `number_nodes`' table: the
    rows' signed slot terms as given (before any extraction), the table
    numbered from them and the top input value, 0 until
    `annotate_bitwidths` sets it."""

    channel: int
    terms: list[dict[int, int]]
    nodes: NodeTable
    top: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.terms)

    @property
    def n_slots(self) -> int:
        return self.nodes.n_slots

    @property
    def op_count(self) -> int:
        return sum(k in (ADD, SUB) for k in self.nodes.kind)

    def interval(self, n: int) -> tuple[int, int]:
        """Node n's value interval over inputs in [0, top]."""
        return self.nodes.lo[n] * self.top, self.nodes.hi[n] * self.top

    def width(self, n: int) -> int:
        return min_signed_width(*self.interval(n))


def graph_from_terms(channel: int, n_slots: int, rows: list[dict[int, int]],
                     cse: bool) -> DataFlowGraph:
    """The graph of rows given as signed slot terms (see `row_terms`): with
    `cse`, the shared-pair graph of `eliminate_common_subexpressions`, run on
    a copy of the terms; otherwise one left-to-right chain per row."""
    return DataFlowGraph(channel, rows, number_nodes(
        n_slots, *shared_terms(rows, n_slots, cse)))


def build_dfg(system: LinearSystem) -> DataFlowGraph:
    """Naive lowering: each row becomes a left-to-right chain, nothing shared."""
    return graph_from_terms(system.channel, system.matrix.shape[1],
                            row_terms(system.matrix), cse=False)


def eliminate_common_subexpressions(g: DataFlowGraph) -> DataFlowGraph:
    """Greedy shared-pair hoisting over one graph's rows (see
    `_extract_pairs`), starting from the rows' stored terms."""
    return graph_from_terms(g.channel, g.n_slots, g.terms, cse=True)


def _extract_pairs(rows: list[dict[int, int]],
                   n_slots: int) -> list[tuple[int, int, int]]:
    """Greedy shared-pair hoisting over one channel's rows, rewriting them in
    place; returns the temporaries' definitions in `number_nodes`' form.

    A signed pair (u, v, s), u < v, stands for both +-(x_u + s*x_v); its
    count is the number of rows holding either form. Counts are taken once.
    Extracting a pair touches only the rows holding it, found through an
    atom -> rows index: the pairs those rows lose with u or v are
    decremented and the pairs the new temporary forms with their remaining
    atoms are counted. The next pair comes off a lazy-deletion heap keyed
    by (-count, u, v, 0 if s > 0 else 1): counts only fall once a pair
    exists, so a popped entry whose count has fallen is pushed back at its
    current count, and one below 2 is dropped. The key is the tie-break of
    a full recount (most rows, then the lowest (u, v), then the positive
    form), so rebuilds are deterministic. Every extraction with k matching
    rows trades k chain ops for one temporary, so op_count never increases.
    """
    temp_defs: list[tuple[int, int, int]] = []
    counts: dict[tuple[int, int, int], int] = {}
    rows_of: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        atoms = sorted(row.items())
        for i, (u, su) in enumerate(atoms):
            rows_of.setdefault(u, set()).add(r)
            for v, sv in atoms[i + 1:]:
                key = (u, v, su * sv)
                counts[key] = counts.get(key, 0) + 1
    heap = [(-c, u, v, 0 if s > 0 else 1)
            for (u, v, s), c in counts.items() if c > 1]
    heapq.heapify(heap)

    while heap:
        neg, u, v, neg_s = heapq.heappop(heap)
        s = -1 if neg_s else 1
        c = counts[u, v, s]
        if c != -neg:
            if c > 1:
                heapq.heappush(heap, (-c, u, v, neg_s))
            continue
        temp = n_slots + len(temp_defs)
        temp_defs.append((u, s, v))
        counts[u, v, s] = 0     # every row holding the pair is rewritten
        formed: dict[tuple[int, int, int], int] = {}
        for r in rows_of[u] & rows_of[v]:
            row = rows[r]
            su = row[u]
            if row[v] != s * su:
                continue
            del row[u], row[v]
            rows_of[u].discard(r)
            rows_of[v].discard(r)
            for w, sw in row.items():
                for x, sx in ((u, su), (v, s * su)):
                    lo, hi = (x, w) if x < w else (w, x)
                    counts[lo, hi, sx * sw] -= 1
                key = (w, temp, su * sw)
                formed[key] = formed.get(key, 0) + 1
            row[temp] = su
            rows_of.setdefault(temp, set()).add(r)
        counts.update(formed)
        for (w, t, sw), c in formed.items():
            if c > 1:
                heapq.heappush(heap, (-c, w, t, 0 if sw > 0 else 1))
    return temp_defs


# ---------------------------------------------------------------------------
# analysis and evaluation
# ---------------------------------------------------------------------------

def min_signed_width(lo: int, hi: int) -> int:
    """Smallest two's-complement width whose range covers [lo, hi], lo <= hi:
    one sign bit over the magnitude bits of the wider end, where a negative
    x needs as many as its complement ~x = -x - 1."""
    return 1 + max(lo.bit_length() if lo >= 0 else (~lo).bit_length(),
                   hi.bit_length() if hi >= 0 else (~hi).bit_length())


def annotate_bitwidths(g: DataFlowGraph, input_bits: int) -> DataFlowGraph:
    """Interval analysis: inputs are unsigned input_bits wide, and the
    table's exact intervals over [0, 1] scale by the top input value."""
    g.top = (1 << input_bits) - 1
    return g


def dfg_evaluate(g: DataFlowGraph, patch, check_ranges: bool = False) -> np.ndarray:
    """Evaluate all rows on one patch vector, honoring output sign tags.

    With check_ranges=True every intermediate is asserted against its
    annotated interval (annotate_bitwidths must have run).
    """
    patch = np.asarray(patch, dtype=np.int64)
    if patch.shape != (g.n_slots,):
        raise ValueError(f"patch must have {g.n_slots} entries")
    x = patch.tolist()
    kind, lhs, rhs = g.nodes.kind, g.nodes.lhs, g.nodes.rhs
    values: list[int] = []
    for n, k in enumerate(kind):
        if k == INPUT:
            v = x[lhs[n]]
        elif k == ZERO:
            v = 0
        elif k == ADD:
            v = values[lhs[n]] + values[rhs[n]]
        else:
            v = values[lhs[n]] - values[rhs[n]]
        if check_ranges:
            lo, hi = g.interval(n)
            if not lo <= v <= hi:
                raise AssertionError(
                    f"node {n} ({k}) value {v} outside [{lo}, {hi}]")
        values.append(v)
    return np.array([sign * values[n] for n, sign in g.nodes.tags],
                    dtype=np.int64)

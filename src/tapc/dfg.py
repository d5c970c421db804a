"""Multiplication-free data-flow graphs for ternary matrix rows.

Each LinearSystem row is a signed sum of patch slots, so the whole system
compiles to chains of two-operand adds/subs. Unary negation is never
materialized: a value consumed with flipped sign turns an add into a sub
(and vice versa), and a row that is exactly the negation of a node is
tagged with a minus sign that the accumulation phase resolves by
subtracting instead of adding.

The optimizer is Hartley's greedy signed-pair extraction: the two-term
pattern (+-x_i +-x_j) occurring in the most rows, counting a pattern and
its negation together, is hoisted into a temporary and substituted, until
no pattern occurs twice. Scope is one LinearSystem (one input channel of
one layer) or a contiguous range of its rows. Rows are two bitsets per
atom (`RowBits`), one per sign, taken once per channel; a range's are the
channel's shifted and masked, and a pair's count is a popcount.

`graph_from_terms` numbers the rows, after pair extraction on a copy under
CSE, with `number_nodes`: the one representation of a channel's graph, as
parallel per-node lists of kind, operands, value interval over inputs in
[0, 1], use count and one (node, sign) tag per row. The scheduler plans
columns from that table. `DataFlowGraph` views it with the rows' bitsets,
from which CSE reruns, and the top input value, by which
`annotate_bitwidths` scales the intervals; `dfg_evaluate` checks a graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .isa import ADD, SUB
from .lowering import LinearSystem

INPUT, ZERO = "input", "zero"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class RowBits(NamedTuple):
    """A system's rows as two row bitsets per atom, an atom being a patch
    slot or, after extraction, a temporary: bit r of pos[a] is set where
    row r holds atom a with +1, and of neg[a] where it holds it with -1."""

    n_rows: int
    pos: list[int]
    neg: list[int]

    def rows(self, lo: int, hi: int) -> RowBits:
        """Rows lo..hi-1 as a system of their own."""
        mask = (1 << (hi - lo)) - 1
        return RowBits(hi - lo, [b >> lo & mask for b in self.pos],
                       [b >> lo & mask for b in self.neg])


def channel_bits(matrices: np.ndarray) -> list[RowBits]:
    """The rows of each ternary matrix of a (channels, rows, slots) stack,
    taken with one `np.packbits` per sign."""
    n_ch, n_rows, n_slots = matrices.shape
    size = -(-n_rows // 8)      # bytes a bitset takes

    def bits(sign: int) -> list[int]:
        raw = np.packbits(matrices == sign, axis=1, bitorder="little"
                          ).transpose(0, 2, 1).tobytes()
        return [int.from_bytes(raw[i * size:(i + 1) * size], "little")
                for i in range(n_ch * n_slots)]
    pos, neg = bits(1), bits(-1)
    return [RowBits(n_rows, pos[i:i + n_slots], neg[i:i + n_slots])
            for i in range(0, n_ch * n_slots, n_slots)]


def row_bits(matrix: np.ndarray) -> RowBits:
    """One ternary matrix's rows (see `channel_bits`)."""
    return channel_bits(matrix[None])[0]


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
                 rows: RowBits) -> NodeTable:
    """Number the nodes of a system's rows: each temporary's op, then each
    row's left-to-right chain over its atoms in ascending order, an input
    at its first reference and one zero node at the first empty row.

    temp_defs entries are (u, sign_v, v): temporary atom n_slots+i equals
    atom u plus sign_v * atom v. Atoms below n_slots are patch slots, and
    `rows` holds a bitset pair for every atom, slots first.
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

    def node(atom: int) -> int:
        """The atom's node; a slot's input is made at its first reference."""
        n = node_of[atom]
        if n < 0:
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
        node_of[n_slots + i] = new_op(sv, node(u), node(v))

    # each row's (atom, sign) chain, ascending: an atom has one sign a row
    chains: list[list[tuple[int, int]]] = [[] for _ in range(rows.n_rows)]
    for atom, (p, n) in enumerate(zip(rows.pos, rows.neg)):
        for bits, s in ((p, 1), (n, -1)):
            while bits:
                low = bits & -bits
                chains[low.bit_length() - 1].append((atom, s))
                bits ^= low

    zero = -1
    for terms in chains:
        if terms:
            (a0, s0), rest = terms[0], terms[1:]
            cur = node(a0)
            for a, s in rest:
                cur = new_op(s * s0, cur, node(a))
        else:
            if zero < 0:
                zero = new_node(ZERO, -1, -1, 0, 0)
            cur, s0 = zero, 1
        uses[cur] += 1
        tags.append((cur, s0))
    return NodeTable(n_slots, kind, lhs, rhs, lo, hi, uses, tags)


@dataclass
class DataFlowGraph:
    """One LinearSystem's graph, as a view of `number_nodes`' table: the
    rows' slot bitsets as given (before any extraction), the table numbered
    from them and the top input value, 0 until `annotate_bitwidths` sets
    it."""

    channel: int
    terms: RowBits
    nodes: NodeTable
    top: int = 0

    @property
    def n_rows(self) -> int:
        return self.terms.n_rows

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


def graph_from_terms(channel: int, rows: RowBits, cse: bool
                     ) -> DataFlowGraph:
    """The graph of a system's rows: under `cse`, numbered after
    `_extract_pairs` runs on a copy of the bitsets; else one chain a row."""
    pos, neg = list(rows.pos), list(rows.neg)
    temp_defs = _extract_pairs(pos, neg) if cse else []
    return DataFlowGraph(channel, rows, number_nodes(
        len(rows.pos), temp_defs, RowBits(rows.n_rows, pos, neg)))


def build_dfg(system: LinearSystem) -> DataFlowGraph:
    """Naive lowering: each row becomes a left-to-right chain, nothing shared."""
    return graph_from_terms(system.channel, row_bits(system.matrix),
                            cse=False)


def eliminate_common_subexpressions(g: DataFlowGraph) -> DataFlowGraph:
    """Greedy shared-pair hoisting from the graph's stored row bitsets."""
    return graph_from_terms(g.channel, g.terms, cse=True)


def _extract_pairs(pos: list[int], neg: list[int]
                   ) -> list[tuple[int, int, int]]:
    """Greedy shared-pair hoisting, in place over one system's row
    bitsets: each temporary's are appended and its rows leave its
    operands'. Returns the temporaries in `number_nodes`' form.

    A signed pair (u, v, s), u < v, stands for both +-(x_u + s*x_v). Its
    count, the rows holding either form, is read off the bitsets when it
    comes off a lazy-deletion heap keyed by (-count, u, v, 0 if s > 0 else
    1). Counts only fall once a pair exists, so an entry whose count has
    fallen goes back at its current count, or is dropped below 2. The key
    is a full recount's tie-break: most rows, the lowest (u, v), the
    positive form. A new temporary pairs with every atom sharing two of its
    rows. Each extraction with k rows trades k chain ops for one temporary,
    so op_count never increases.
    """
    temp_defs: list[tuple[int, int, int]] = []
    heap: list[tuple[int, int, int, int]] = []

    def pair_up(v: int) -> None:
        """Push each form of (u, v), u < v, that two rows or more hold."""
        rows_v = pos[v] | neg[v]
        for u in range(v):
            shared = (pos[u] | neg[u]) & rows_v
            if shared & (shared - 1):   # two rows or more
                same = (pos[u] & pos[v] | neg[u] & neg[v]).bit_count()
                opposite = shared.bit_count() - same
                if same > 1:
                    heapq.heappush(heap, (-same, u, v, 0))
                if opposite > 1:
                    heapq.heappush(heap, (-opposite, u, v, 1))

    for v in range(len(pos)):
        pair_up(v)
    while heap:
        count, u, v, crossed = heapq.heappop(heap)
        if crossed:
            held = pos[u] & neg[v] | neg[u] & pos[v]
        else:
            held = pos[u] & pos[v] | neg[u] & neg[v]
        c = held.bit_count()
        if c != -count:
            if c > 1:
                heapq.heappush(heap, (-c, u, v, crossed))
            continue
        temp_defs.append((u, -1 if crossed else 1, v))
        pos.append(pos[u] & held)
        neg.append(neg[u] & held)
        for x in u, v:
            pos[x] &= ~held
            neg[x] &= ~held
        pair_up(len(pos) - 1)
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

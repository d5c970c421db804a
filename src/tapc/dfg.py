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
rows: parallel per-node lists of kind, operands, value interval, use count
and one (node, sign) tag per row, each interval computed as its op is
made. The scheduler plans columns straight from those lists. The graph
interface (`DataFlowGraph`, `graph_from_terms`, `build_dfg`,
`eliminate_common_subexpressions`, `annotate_bitwidths`, `dfg_evaluate`)
reads the same numbering and serves the checks of the graph itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lowering import LinearSystem

INPUT, ADD, SUB, ZERO = "input", "add", "sub", "zero"


@dataclass
class DfgNode:
    id: int
    kind: str
    slot: int = -1            # input nodes: patch slot index
    lhs: int = -1             # add/sub: operand node ids
    rhs: int = -1
    output_tags: list = field(default_factory=list)   # (row, sign) pairs
    lo: int = 0               # value interval, filled by annotate_bitwidths
    hi: int = 0
    width: int = 0            # minimal two's-complement width for [lo, hi]
    use_count: int = 0        # operand uses plus output tags


@dataclass
class DataFlowGraph:
    """Topologically ordered nodes computing every row of one LinearSystem."""

    channel: int
    n_rows: int
    n_slots: int
    nodes: list[DfgNode] = field(default_factory=list)

    @property
    def op_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind in (ADD, SUB))

    def row_tags(self) -> list[tuple[int, int]]:
        """Per output row: (node id, sign), exactly one tag per row."""
        tags: dict[int, tuple[int, int]] = {}
        for node in self.nodes:
            for row, sign in node.output_tags:
                tags[row] = (node.id, sign)
        return [tags[r] for r in range(self.n_rows)]


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
    by node id: the one numbering that `DataFlowGraph` and the scheduler's
    column planner both read.

    `lo` and `hi` bound each node's value over inputs in [0, 1]; every node
    is a signed sum of distinct inputs, so scaling both by an input's top
    value gives the exact interval of `annotate_bitwidths`."""

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


def _emit(channel: int, n_rows: int, n_slots: int,
          temp_defs: list[tuple[int, int, int]],
          rows: list[dict[int, int]]) -> DataFlowGraph:
    """Materialize `number_nodes`' numbering as a node graph."""
    t = number_nodes(n_slots, temp_defs, rows)
    nodes = [DfgNode(n, k, lhs=a, rhs=b, use_count=u) if k in (ADD, SUB)
             else DfgNode(n, k, slot=a, use_count=u)
             for n, (k, a, b, u) in enumerate(zip(t.kind, t.lhs, t.rhs,
                                                  t.uses))]
    for r, (n, sign) in enumerate(t.tags):
        nodes[n].output_tags.append((r, sign))
    return DataFlowGraph(channel, n_rows, n_slots, nodes)


def graph_from_terms(channel: int, n_slots: int, rows: list[dict[int, int]],
                     cse: bool) -> DataFlowGraph:
    """The graph of rows given as signed slot terms (see `row_terms`): with
    `cse`, the shared-pair graph of `eliminate_common_subexpressions`, run on
    a copy of the terms; otherwise one left-to-right chain per row."""
    return _emit(channel, len(rows), n_slots,
                 *shared_terms(rows, n_slots, cse))


def build_dfg(system: LinearSystem) -> DataFlowGraph:
    """Naive lowering: each row becomes a left-to-right chain, nothing shared."""
    return graph_from_terms(system.channel, system.matrix.shape[1],
                            row_terms(system.matrix), cse=False)


def _terms_of(g: DataFlowGraph) -> list[dict[int, int]]:
    """Expand every output row back into signed slot terms (exact for DAGs)."""
    memo: dict[int, dict[int, int]] = {}

    def expand(nid: int) -> dict[int, int]:
        if nid in memo:
            return memo[nid]
        node = g.nodes[nid]
        if node.kind == INPUT:
            out = {node.slot: 1}
        elif node.kind == ZERO:
            out = {}
        else:
            out = dict(expand(node.lhs))
            sign = 1 if node.kind == ADD else -1
            for a, s in expand(node.rhs).items():
                c = out.get(a, 0) + sign * s
                if c == 0:
                    del out[a]
                elif abs(c) > 1:
                    # ternary rows never repeat a slot, so coefficients stay
                    # in {-1, +1}
                    raise ValueError(
                        "non-ternary expansion; graph is not row-affine")
                else:
                    out[a] = c
        memo[nid] = out
        return out

    rows: list[dict[int, int]] = [dict() for _ in range(g.n_rows)]
    for node in g.nodes:
        for row, sign in node.output_tags:
            rows[row] = {a: sign * s for a, s in expand(node.id).items()}
    return rows


def eliminate_common_subexpressions(g: DataFlowGraph) -> DataFlowGraph:
    """Greedy shared-pair hoisting over one graph's rows (see
    `_extract_pairs`), starting from the rows' expanded terms."""
    return graph_from_terms(g.channel, g.n_slots, _terms_of(g), cse=True)


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
    """Interval analysis: inputs are unsigned input_bits wide, ops combine exactly."""
    top = (1 << input_bits) - 1
    for node in g.nodes:
        if node.kind == INPUT:
            node.lo, node.hi = 0, top
        elif node.kind == ZERO:
            node.lo = node.hi = 0
        else:
            l, r = g.nodes[node.lhs], g.nodes[node.rhs]
            if node.kind == ADD:
                node.lo, node.hi = l.lo + r.lo, l.hi + r.hi
            else:
                node.lo, node.hi = l.lo - r.hi, l.hi - r.lo
        node.width = min_signed_width(node.lo, node.hi)
    return g


def dfg_evaluate(g: DataFlowGraph, patch, check_ranges: bool = False) -> np.ndarray:
    """Evaluate all rows on one patch vector, honoring output sign tags.

    With check_ranges=True every intermediate is asserted against its
    annotated interval (annotate_bitwidths must have run).
    """
    patch = np.asarray(patch, dtype=np.int64)
    if patch.shape != (g.n_slots,):
        raise ValueError(f"patch must have {g.n_slots} entries")
    values = np.zeros(len(g.nodes), dtype=np.int64)
    out = np.zeros(g.n_rows, dtype=np.int64)
    for node in g.nodes:
        if node.kind == INPUT:
            v = int(patch[node.slot])
        elif node.kind == ZERO:
            v = 0
        elif node.kind == ADD:
            v = int(values[node.lhs] + values[node.rhs])
        else:
            v = int(values[node.lhs] - values[node.rhs])
        if check_ranges and not node.lo <= v <= node.hi:
            raise AssertionError(
                f"node {node.id} ({node.kind}) value {v} outside [{node.lo}, {node.hi}]")
        values[node.id] = v
        for row, sign in node.output_tags:
            out[row] = sign * v
    return out

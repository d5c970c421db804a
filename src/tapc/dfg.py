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
once per system: `graph_from_terms` emits them as chains, or runs the pair
extraction on a copy and emits the shared graph. `build_dfg` and
`eliminate_common_subexpressions` are the same core behind the graph-level
interface.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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


def _emit(channel: int, n_rows: int, n_slots: int,
          temp_defs: list[tuple[int, int, int]],
          rows: list[dict[int, int]]) -> DataFlowGraph:
    """Materialize term lists as a node graph.

    temp_defs entries are (u, sign_v, v): temporary atom n_slots+i equals
    atom u plus sign_v * atom v. Atoms below n_slots are patch slots.
    """
    g = DataFlowGraph(channel, n_rows, n_slots)
    atom_node: dict[int, int] = {}
    zero_id = -1

    def node_for(atom: int) -> int:
        if atom not in atom_node:
            if atom >= n_slots:
                raise ValueError("temporary referenced before definition")
            n = DfgNode(len(g.nodes), INPUT, slot=atom)
            g.nodes.append(n)
            atom_node[atom] = n.id
        return atom_node[atom]

    def new_op(kind: str, lhs: int, rhs: int) -> int:
        n = DfgNode(len(g.nodes), kind, lhs=lhs, rhs=rhs)
        g.nodes.append(n)
        g.nodes[lhs].use_count += 1
        g.nodes[rhs].use_count += 1
        return n.id

    for i, (u, sv, v) in enumerate(temp_defs):
        lhs, rhs = node_for(u), node_for(v)
        atom_node[n_slots + i] = new_op(ADD if sv > 0 else SUB, lhs, rhs)

    for r, row in enumerate(rows):
        terms = sorted(row.items())
        if not terms:
            if zero_id < 0:
                zero = DfgNode(len(g.nodes), ZERO)
                g.nodes.append(zero)
                zero_id = zero.id
            g.nodes[zero_id].output_tags.append((r, 1))
            g.nodes[zero_id].use_count += 1
            continue
        (a0, s0), rest = terms[0], terms[1:]
        cur = node_for(a0)
        for a, s in rest:
            cur = new_op(ADD if s == s0 else SUB, cur, node_for(a))
        g.nodes[cur].output_tags.append((r, s0))
        g.nodes[cur].use_count += 1
    return g


def graph_from_terms(channel: int, n_slots: int, rows: list[dict[int, int]],
                     cse: bool) -> DataFlowGraph:
    """The graph of rows given as signed slot terms (see `row_terms`): with
    `cse`, the shared-pair graph of `eliminate_common_subexpressions`, run on
    a copy of the terms; otherwise one left-to-right chain per row."""
    temp_defs: list[tuple[int, int, int]] = []
    if cse:
        rows = [dict(row) for row in rows]
        temp_defs = _extract_pairs(rows, n_slots)
    return _emit(channel, len(rows), n_slots, temp_defs, rows)


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
    place; returns the temporaries' definitions in `_emit`'s form.

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
    """Smallest two's-complement width whose range covers [lo, hi]."""
    w = 1
    while lo < -(1 << (w - 1)) or hi > (1 << (w - 1)) - 1:
        w += 1
    return w


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

"""Differential fuzzing of compiler and simulator, and mutation fuzzing of the
program loader.

Every network the compiler accepts must simulate bit-exactly against the
host reference, run exactly the macros `macro_counts` counts, and its
program must come back unchanged through program.json. Every edit of a
compiled program must either be rejected by the loader with a FormatError
or run with at most a toolchain error.
"""

import copy
import functools
import json
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from tapc import sim
from tapc.errors import CapacityError, FormatError, TapcError
from tapc.model import (ACTIVATION_KINDS, FeatureMap, Layer, QuantSpec,
                        TernaryNetwork, TernaryWeights, make_synthetic_input,
                        make_synthetic_network, reference_inference)
from tapc.program import (OPT_LEVELS, ApGeometry, ApProgram, macro_counts,
                          schedule)
from tapc.scheduler import emit_program

# --- networks against the host reference ------------------------------------

quants = st.builds(QuantSpec, st.integers(1, 8), st.integers(1, 3),
                   st.integers(0, 6), st.sampled_from(ACTIVATION_KINDS))

# small enough to force row groups (rows), channel groups (domains per
# track over activation bits) and output tiles (columns)
geometries = st.builds(ApGeometry, rows=st.sampled_from((4, 16, 64)),
                       columns=st.integers(12, 40),
                       domains_per_track=st.sampled_from((8, 12, 16, 24, 64)),
                       aps_per_tile=st.integers(1, 4),
                       tiles_per_bank=st.integers(1, 4),
                       banks=st.integers(1, 4))


@st.composite
def networks(draw):
    """A conv/pool/add stack of 1-4 layers and its input extents. The first
    layer's activation bits are the input's."""
    c = draw(st.integers(1, 4))
    layers = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("conv", "conv", "pool", "add")))
        quant = draw(quants)
        if kind == "conv":
            f = draw(st.sampled_from((1, 3)))
            c_out = draw(st.integers(1, 6))
            zero = draw(st.sampled_from((0.0, 0.5, 0.8)))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            weights = rng.choice([-1, 0, 1], size=(c_out, c, f, f),
                                 p=[(1 - zero) / 2, zero, (1 - zero) / 2])
            layers.append(Layer("conv", c, c_out, f, f, 1,
                                draw(st.integers(0, 1)), quant,
                                TernaryWeights(weights)))
            c = c_out
        elif kind == "pool":
            layers.append(Layer("pool", c, c, 2, 2, 2, 0, quant))
        else:
            layers.append(Layer("add", c, c, 1, 1, 1, 0, quant,
                                skip_from=draw(st.integers(-1, i - 1))))
    extents = st.sampled_from((2, 4, 6, 8)) | st.integers(1, 8)
    return TernaryNetwork("fuzz", layers), draw(extents), draw(extents)


@given(networks(), geometries, st.sampled_from(OPT_LEVELS), st.integers(0, 3))
def test_accepted_networks_simulate_bit_exactly(case, geometry, opt, seed):
    net, h, w = case
    try:
        prog = emit_program(net, h, w, geometry, opt)
    except (CapacityError, FormatError):
        return
    assert ApProgram.from_doc(json.loads(prog.dumps())) == prog
    ifm = make_synthetic_input(net, h, w, seed=seed)
    with mock.patch.object(sim, "run_macro", wraps=sim.run_macro) as run_macro:
        got = sim.run(prog, ifm).trace
    assert sim.first_divergence(got, reference_inference(net, ifm)) is None
    # a call runs its macro on every AP of its bundle
    assert sum(len(call.args[0]) for call in run_macro.call_args_list) == sum(
        sum(macro_counts(lp, schedule(lp.shape, lp.in_bits, geometry,
                                      len(lp.tiles))))
        for lp in prog.layers if lp.kind == "conv")


# --- edited programs against the loader -------------------------------------

@functools.cache
def golden_program() -> str:
    """program.json of `tapc compile --synthetic 2x10x0.8 --bits 8
    --input-hw 6x6 --rows 32 --cols 24 --seed 1`: partial row groups, two
    output tiles and an adder tree with moves."""
    net = make_synthetic_network(2, 10, 0.8, bits=8, seed=1)
    return emit_program(net, 6, 6, ApGeometry(rows=32, columns=24)).dumps()


@st.composite
def paths(draw) -> list:
    """Keys from the document root to one of its values. The walk stops at
    each level below the root with probability 1/8, so it reaches header
    fields and fields of stream items alike."""
    node = json.loads(golden_program())
    path = []
    while isinstance(node, (dict, list)) and node and \
            (not path or draw(st.integers(0, 7))):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        node = node[key]
    return path


VALUES = (-1, 0, 1, 2, 3, 7, 64, 1000, "add", "move", "in_place", "conv", "",
          None, [], {}, [0])
ACTIONS = ("set", "add", "delete", "str", "float", "bool", "wrap")


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def mutate(doc, path, action, value):
    """Set, delete or retype the value at `path`, or add `value` to an int
    there (set it otherwise), unless an earlier edit removed the way."""
    parent = doc
    for key in path[:-1]:
        if not _has(parent, key):
            return
        parent = parent[key]
    last = path[-1]
    if not _has(parent, last):
        return
    old = parent[last]
    if action == "delete":
        del parent[last]
    elif action == "add" and type(old) is type(value) is int:
        parent[last] = old + value
    elif action in ("set", "add"):
        parent[last] = copy.deepcopy(value)
    elif action == "str":
        parent[last] = str(old)
    elif action == "float":
        parent[last] = float(old) if type(old) is int else 0.5
    elif action == "bool":
        parent[last] = bool(old)
    else:
        parent[last] = [old]


@given(st.lists(st.tuples(paths(), st.sampled_from(ACTIONS),
                          st.sampled_from(VALUES)), min_size=1, max_size=3))
def test_edited_programs_are_rejected_or_run(edits):
    doc = json.loads(golden_program())
    for edit in edits:
        mutate(doc, *edit)
    try:
        prog = ApProgram.from_doc(doc)
    except FormatError:
        return
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << prog.in_bits,
                        size=(prog.in_c, prog.in_h, prog.in_w))
    try:
        sim.run(prog, FeatureMap(data, prog.in_bits))
    except TapcError:
        pass

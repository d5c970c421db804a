"""Layer lowering: patch index maps and per-channel linear systems."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tapc.lowering import (PAD, always_padded, extract_patches,
                           im2col_indices, lower_layer, unrolled_op_count)
from tapc.model import (FeatureMap, LayerShape, TernaryWeights,
                        reference_convolution)


@pytest.mark.parametrize("f_h,f_w,stride,pad,h,w", [
    pytest.param(3, 3, 1, 0, 5, 5, id="1-0-5"),
    pytest.param(3, 3, 1, 1, 5, 5, id="1-1-5"),
    pytest.param(3, 3, 2, 1, 7, 7, id="2-1-7"),
    pytest.param(3, 3, 2, 1, 8, 8, id="2-1-8"),
    pytest.param(3, 3, 2, 0, 8, 8, id="2-0-8"),
    pytest.param(3, 3, 2, 1, 32, 32, id="2-1-32"),
    pytest.param(1, 3, 1, 1, 5, 7, id="1x3-s1-p1-5x7"),
    pytest.param(3, 2, 2, 1, 9, 6, id="3x2-s2-p1-9x6"),
    pytest.param(1, 1, 1, 0, 4, 6, id="1x1-s1-p0-4x6"),
    pytest.param(1, 1, 2, 0, 7, 8, id="1x1-s2-p0-7x8"),
    pytest.param(2, 3, 2, 0, 8, 5, id="2x3-s2-p0-8x5"),
])
def test_im2col_indices_brute_force(f_h, f_w, stride, pad, h, w):
    shape = LayerShape(1, 1, f_h, f_w, stride, pad, h, w)
    pim = im2col_indices(shape)
    assert pim.ys.shape == pim.xs.shape == (shape.h_out * shape.w_out,
                                            f_h * f_w)
    for oy in range(shape.h_out):
        for ox in range(shape.w_out):
            pos = oy * shape.w_out + ox
            for ky in range(f_h):
                for kx in range(f_w):
                    slot = ky * f_w + kx
                    iy = oy * stride + ky - pad
                    ix = ox * stride + kx - pad
                    inside = 0 <= iy < h and 0 <= ix < w
                    if inside:
                        assert pim.ys[pos, slot] == iy
                        assert pim.xs[pos, slot] == ix
                    else:
                        assert pim.ys[pos, slot] == pim.xs[pos, slot] == PAD


def test_pad_slots_read_zero():
    shape = LayerShape(1, 1, 3, 3, 1, 1, 4, 4)
    pim = im2col_indices(shape)
    fm = FeatureMap(np.arange(16).reshape(1, 4, 4) % 16, 4)
    vals = extract_patches(fm, pim, 0)
    assert np.array_equal(vals[pim.is_pad()], np.zeros(int(pim.is_pad().sum())))
    # corner position: top-left 2x2 of the kernel hangs outside
    assert vals[0, 0] == 0 and vals[0, 4] == fm.data[0, 0, 0]


def test_lowering_sums_to_reference_convolution():
    rng = np.random.default_rng(21)
    shape = LayerShape(3, 5, 3, 3, 1, 1, 6, 6)
    w = TernaryWeights(rng.integers(-1, 2, size=(5, 3, 3, 3)))
    fm = FeatureMap(rng.integers(0, 16, size=(3, 6, 6)), 4)
    systems = lower_layer(w, shape)
    pim = im2col_indices(shape)
    acc = np.zeros((5, shape.h_out * shape.w_out), dtype=np.int64)
    for sys_ in systems:
        vals = extract_patches(fm, pim, sys_.channel)
        acc += sys_.matrix @ vals.T
    want = reference_convolution(fm, w, 1, 1)
    assert np.array_equal(acc.reshape(5, 6, 6), want)


def test_always_pad_columns_are_zeroed():
    # 1x1 input with a 3x3 kernel at pad 1: only the center slot ever lands
    shape = LayerShape(1, 2, 3, 3, 1, 1, 1, 1)
    w = TernaryWeights(np.ones((2, 1, 3, 3), dtype=np.int64))
    (sys_,) = lower_layer(w, shape)
    assert np.array_equal(sys_.matrix[:, 4], [1, 1])
    keep = np.ones(9, dtype=bool)
    keep[4] = False
    assert not sys_.matrix[:, keep].any()


def test_unrolled_op_count_rules(worked_system):
    assert unrolled_op_count([worked_system]) == 14
    m = np.zeros((3, 4), dtype=np.int64)
    m[1, 2] = 1          # single term: free alias
    m[2, :] = [1, -1, 0, 1]
    sys_ = worked_system
    sys_.matrix = m
    assert unrolled_op_count([sys_]) == 2


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 6), st.integers(1, 9), st.integers(1, 9))
def test_always_padded_slots_match_the_patch_map(f_h, f_w, stride, pad, h,
                                                 w):
    assume(h + 2 * pad >= f_h and w + 2 * pad >= f_w)
    shape = LayerShape(1, 1, f_h, f_w, stride, pad, h, w)
    assert np.array_equal(always_padded(shape),
                          im2col_indices(shape).is_pad().all(axis=0))


def test_always_padded_slots_of_a_huge_output_extent():
    # 2^41 - 1 output positions a side, settled per axis with no array of
    # positions: each kernel offset meets the one input pixel somewhere
    shape = LayerShape(1, 1, 3, 3, 1, 2**40, 1, 1)
    assert not always_padded(shape).any()
    # at stride 2^40 only output index 1 reaches the input, at offset 0
    shape = LayerShape(1, 1, 3, 3, 2**40, 2**40, 1, 1)
    assert always_padded(shape).tolist() == [False] + [True] * 8

"""Network model, quantization and the file formats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tapc.errors import FormatError
from tapc.model import (FeatureMap, Layer, LayerShape, QuantSpec,
                        TernaryNetwork, TernaryWeights, load_feature_map,
                        load_network, make_synthetic_input,
                        make_synthetic_network, max_pool_2x2,
                        reference_convolution,
                        reference_inference, requantize, save_feature_map,
                        save_network)


def test_layer_shape_output_extents():
    s = LayerShape(3, 8, 3, 3, 1, 1, 16, 16)
    assert (s.h_out, s.w_out) == (16, 16)
    s = LayerShape(3, 8, 3, 3, 2, 1, 15, 15)
    assert (s.h_out, s.w_out) == (8, 8)


def test_layer_shape_floors_ragged_tiling():
    s = LayerShape(3, 8, 3, 3, 2, 0, 16, 16)
    assert (s.h_out, s.w_out) == (7, 7)
    s = LayerShape(3, 8, 3, 3, 2, 1, 32, 8)     # a ResNet downsampling conv
    assert (s.h_out, s.w_out) == (16, 4)
    s = LayerShape(3, 8, 1, 1, 2, 0, 8, 7)
    assert (s.h_out, s.w_out) == (4, 4)
    with pytest.raises(FormatError, match="no output position"):
        LayerShape(3, 8, 3, 3, 2, 0, 2, 8)


def test_ternary_weights_domain():
    with pytest.raises(FormatError):
        TernaryWeights(np.full((2, 1, 3, 3), 2))


def test_requantize_relu_rectifies_before_scaling():
    q = QuantSpec(4, requant_multiplier=1, requant_shift=2)
    acc = np.array([-7, -1, 0, 3, 7, 200])
    out = requantize(acc, q)
    assert out.tolist() == [0, 0, 0, 0, 1, 15]


def test_requantize_identity_clamp_keeps_sign_until_clamp():
    q = QuantSpec(4, requant_multiplier=3, requant_shift=1,
                  activation_kind="identity_clamp")
    acc = np.array([-5, 0, 2, 11])
    # floor((acc*3)/2) then clamp into [0, 15]
    assert requantize(acc, q).tolist() == [0, 0, 3, 15]


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=-(1 << 20), max_value=1 << 20),
       st.integers(min_value=1, max_value=1 << 10),
       st.integers(min_value=0, max_value=12))
def test_requantize_lands_on_grid(bits, acc, mult, shift):
    for kind in ("relu_clamp", "identity_clamp"):
        q = QuantSpec(bits, mult, shift, kind)
        out = int(requantize(np.array([acc]), q)[0])
        assert 0 <= out <= (1 << bits) - 1


def _naive_conv(ifm, w, stride, pad):
    c_out, c_in, fh, fw = w.data.shape
    c, h, wd = ifm.shape
    hp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.int64)
    hp[:, pad:pad + h, pad:pad + wd] = ifm.data
    ho = (h + 2 * pad - fh) // stride + 1
    wo = (wd + 2 * pad - fw) // stride + 1
    out = np.zeros((c_out, ho, wo), dtype=np.int64)
    for co in range(c_out):
        for y in range(ho):
            for x in range(wo):
                patch = hp[:, y * stride:y * stride + fh,
                           x * stride:x * stride + fw]
                out[co, y, x] = int((patch * w.data[co]).sum())
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_reference_convolution_matches_naive(stride, pad):
    rng = np.random.default_rng(11)
    w = TernaryWeights(rng.integers(-1, 2, size=(4, 3, 3, 3)))
    # odd and even inputs: a stride-2 window that would overhang is dropped
    for h, wd in ((6, 6), (7, 7), (8, 8), (8, 7)):
        ifm = FeatureMap(rng.integers(0, 16, size=(3, h, wd)), 4)
        got = reference_convolution(ifm, w, stride, pad)
        assert np.array_equal(got, _naive_conv(ifm, w, stride, pad))


def test_max_pool_matches_naive():
    rng = np.random.default_rng(3)
    fm = FeatureMap(rng.integers(0, 16, size=(2, 6, 4)), 4)
    got = max_pool_2x2(fm)
    for c in range(2):
        for y in range(3):
            for x in range(2):
                want = fm.data[c, 2 * y:2 * y + 2, 2 * x:2 * x + 2].max()
                assert got.data[c, y, x] == want


def test_reference_inference_trace_composition():
    net = make_synthetic_network(2, 4, 0.7, bits=4, seed=5)
    net.layers.append(Layer("pool", 4, 4, 2, 2, 2, 0, QuantSpec(4)))
    ifm = make_synthetic_input(net, 8, 8, seed=1)
    trace = reference_inference(net, ifm)
    assert len(trace) == 3
    assert trace[-1].shape == (4, 4, 4)
    assert np.array_equal(trace[2].data, max_pool_2x2(trace[1]).data)


def test_residual_add_requantizes_sum():
    net = make_synthetic_network(2, 4, 0.7, bits=4, seed=9)
    net.layers.append(Layer("add", 4, 4, 1, 1, 1, 0,
                            QuantSpec(4, 1, 1), skip_from=0))
    ifm = make_synthetic_input(net, 6, 6, seed=2)
    trace = reference_inference(net, ifm)
    want = requantize(trace[1].data.astype(np.int64) + trace[0].data,
                      QuantSpec(4, 1, 1))
    assert np.array_equal(trace[2].data, want)


def test_network_round_trip(tmp_path):
    net = make_synthetic_network(3, 6, 0.8, bits=4, seed=2)
    net.layers.append(Layer("add", 6, 6, 1, 1, 1, 0, QuantSpec(4), skip_from=1))
    save_network(net, tmp_path / "m.json", tmp_path / "w.bin")
    back = load_network(tmp_path / "m.json", tmp_path / "w.bin")
    assert back.name == net.name
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert (a.kind, a.c_in, a.c_out, a.quant) == (b.kind, b.c_in, b.c_out, b.quant)
        if a.kind == "conv":
            assert np.array_equal(a.weights.data, b.weights.data)
        if a.kind == "add":
            assert a.skip_from == b.skip_from


def test_network_manifest_version_checked(tmp_path):
    net = make_synthetic_network(1, 4, 0.8, seed=0)
    save_network(net, tmp_path / "m.json", tmp_path / "w.bin")
    doc = (tmp_path / "m.json").read_text().replace('"format_version": 1',
                                                    '"format_version": 9')
    (tmp_path / "m.json").write_text(doc)
    with pytest.raises(FormatError):
        load_network(tmp_path / "m.json", tmp_path / "w.bin")


def test_feature_map_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    fm = FeatureMap(rng.integers(0, 256, size=(3, 5, 7)), 8)
    save_feature_map(fm, tmp_path / "x.tfm")
    back = load_feature_map(tmp_path / "x.tfm")
    assert back == fm
    with pytest.raises(FormatError):
        save_feature_map(FeatureMap(np.zeros((1, 2, 2), dtype=np.int64), 9),
                         tmp_path / "y.tfm")


def test_feature_map_truncated_file(tmp_path):
    (tmp_path / "bad.tfm").write_bytes(b"TFM1\x01\x00")
    with pytest.raises(FormatError):
        load_feature_map(tmp_path / "bad.tfm")


def test_synthetic_network_sparsity_tracks_request():
    net = make_synthetic_network(3, 16, 0.85, bits=4, seed=0)
    zeros = total = 0
    for layer in net.layers:
        zeros += int((layer.weights.data == 0).sum())
        total += layer.weights.data.size
    assert abs(zeros / total - 0.85) < 0.05

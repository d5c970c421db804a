"""Network model, file formats and the golden reference oracle.

Everything downstream (lowering, scheduling, simulation) is checked against
the plain integer inference implemented here. Weights are ternary {-1, 0, +1},
activations are unsigned fixed-point, and batch-norm/scale folding is assumed
to have happened upstream so each layer carries one integer multiplier and one
power-of-two shift.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

MANIFEST_VERSION = 1
FEATUREMAP_MAGIC = b"TFM1"

LAYER_KINDS = ("conv", "pool", "add")
ACTIVATION_KINDS = ("relu_clamp", "identity_clamp")


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------

@dataclass
class LayerShape:
    """Spatial geometry of one layer application."""

    c_in: int
    c_out: int
    f_h: int
    f_w: int
    stride: int
    pad: int
    h_in: int
    w_in: int

    def __post_init__(self):
        for name in ("c_in", "c_out", "f_h", "f_w", "stride", "h_in", "w_in"):
            if getattr(self, name) < 1:
                raise FormatError(f"layer shape: {name} must be >= 1")
        if self.pad < 0:
            raise FormatError("layer shape: pad must be >= 0")
        # the output extent floors: a last window that would overhang the
        # padded input is dropped, as in a ResNet's stride-2 convs
        for dim, fdim, label in ((self.h_in, self.f_h, "h"), (self.w_in, self.f_w, "w")):
            if dim + 2 * self.pad < fdim:
                raise FormatError(
                    f"layer shape: {label}_in={dim} with f={fdim} pad={self.pad} "
                    f"leaves no output position"
                )

    @property
    def h_out(self) -> int:
        return (self.h_in + 2 * self.pad - self.f_h) // self.stride + 1

    @property
    def w_out(self) -> int:
        return (self.w_in + 2 * self.pad - self.f_w) // self.stride + 1


class TernaryWeights:
    """A 4-D (c_out, c_in, f_h, f_w) tensor with entries in {-1, 0, +1}."""

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 4:
            raise FormatError(f"weights must be 4-D, got shape {arr.shape}")
        if not np.isin(arr, (-1, 0, 1)).all():
            raise FormatError("weights must be ternary in {-1, 0, +1}")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True)
class QuantSpec:
    """Output quantization of one layer: y = clamp(floor(acc * mult / 2^shift)).

    The multiplier is below 2^31, so `acc * mult` stays inside int64 for any
    accumulator below 2^32, and the shift is below 63, past which every
    int64 product floors to 0 or -1 anyway."""

    activation_bits: int
    requant_multiplier: int = 1
    requant_shift: int = 0
    activation_kind: str = "relu_clamp"

    def __post_init__(self):
        if not 1 <= self.activation_bits <= 16:
            raise FormatError("activation_bits must be in 1..16")
        if not 0 <= self.requant_multiplier < 1 << 31:
            raise FormatError("requant multiplier must be in 0..2^31-1")
        if not 0 <= self.requant_shift < 63:
            raise FormatError("requant shift must be in 0..62")
        if self.activation_kind not in ACTIVATION_KINDS:
            raise FormatError(f"unknown activation_kind {self.activation_kind!r}")


@dataclass
class Layer:
    """One entry of the network's layer list.

    `weights` is None for pool/add layers. `skip_from` names the second operand
    of an add layer as an absolute layer index (-1 means the network input) and
    defaults to two layers back.
    """

    kind: str
    c_in: int
    c_out: int
    f_h: int
    f_w: int
    stride: int
    pad: int
    quant: QuantSpec
    weights: TernaryWeights | None = None
    skip_from: int | None = None

    def shape_for(self, h_in: int, w_in: int) -> LayerShape:
        return LayerShape(self.c_in, self.c_out, self.f_h, self.f_w,
                          self.stride, self.pad, h_in, w_in)

    def skip_source(self, index: int) -> int:
        """The layer an add at position `index` reads besides its input."""
        return self.skip_from if self.skip_from is not None else index - 2


@dataclass
class TernaryNetwork:
    name: str
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise FormatError(f"network {self.name!r} has no layers")
        for i, layer in enumerate(self.layers):
            _check_layer(i, layer)


def _check_layer(i: int, layer: Layer):
    if layer.kind not in LAYER_KINDS:
        raise FormatError(f"layer {i}: unknown type {layer.kind!r}")
    if layer.kind == "conv":
        if layer.weights is None:
            raise FormatError(f"layer {i}: conv layer has no weights")
        if layer.weights.shape != (layer.c_out, layer.c_in, layer.f_h, layer.f_w):
            raise FormatError(
                f"layer {i}: weight shape {layer.weights.shape} does not match "
                f"({layer.c_out}, {layer.c_in}, {layer.f_h}, {layer.f_w})")
    elif layer.kind == "pool":
        if (layer.f_h, layer.f_w, layer.stride, layer.pad) != (2, 2, 2, 0):
            raise FormatError(f"layer {i}: only 2x2/stride-2 pooling is supported")
        if layer.c_in != layer.c_out:
            raise FormatError(f"layer {i}: pool must keep the channel count")
    elif layer.kind == "add":
        if layer.c_in != layer.c_out:
            raise FormatError(f"layer {i}: add must keep the channel count")
        src = layer.skip_source(i)
        if src < -1 or src >= i:
            raise FormatError(f"layer {i}: skip_from {src} out of range")


class FeatureMap:
    """A 3-D (channels, height, width) map of unsigned values below 2^bits."""

    def __init__(self, data, bits: int):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 3:
            raise FormatError(f"feature map must be 3-D, got shape {arr.shape}")
        if not 1 <= bits <= 16:
            raise FormatError("feature map bits must be in 1..16")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= (1 << bits):
            raise FormatError(f"feature map values out of range for {bits} bits")
        self.data = arr
        self.bits = bits

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other):
        return (isinstance(other, FeatureMap) and self.bits == other.bits
                and self.data.shape == other.data.shape
                and bool((self.data == other.data).all()))


# ---------------------------------------------------------------------------
# reference arithmetic
# ---------------------------------------------------------------------------

def requantize(acc, quant: QuantSpec):
    """Map signed accumulator values onto the unsigned activation grid.

    relu_clamp rectifies before scaling; identity_clamp scales the raw value.
    Both floor-divide by 2^shift and clamp into [0, 2^bits - 1], so for
    unsigned outputs the two kinds only differ on which side of the floor a
    negative accumulator lands before the final clamp (the result is 0 either
    way, which is why folded batch norm can use either).
    """
    acc = np.asarray(acc, dtype=np.int64)
    if quant.activation_kind == "relu_clamp":
        acc = np.maximum(acc, 0)
    scaled = (acc * quant.requant_multiplier) >> quant.requant_shift
    hi = (1 << quant.activation_bits) - 1
    return np.clip(scaled, 0, hi)


def reference_convolution(ifm: FeatureMap, weights: TernaryWeights,
                          stride: int = 1, pad: int = 0) -> np.ndarray:
    """Exact integer direct convolution with zero padding.

    Returns the raw signed accumulator of shape (c_out, h_out, w_out); no
    quantization is applied. This is the oracle everything else must match
    bit for bit.
    """
    c_out, c_in, f_h, f_w = weights.shape
    c, h, w = ifm.shape
    if c != c_in:
        raise FormatError(f"ifm has {c} channels, weights expect {c_in}")
    shape = LayerShape(c_in, c_out, f_h, f_w, stride, pad, h, w)
    x = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.int64)
    x[:, pad:pad + h, pad:pad + w] = ifm.data
    out = np.zeros((c_out, shape.h_out, shape.w_out), dtype=np.int64)
    for oy in range(shape.h_out):
        for ox in range(shape.w_out):
            patch = x[:, oy * stride:oy * stride + f_h, ox * stride:ox * stride + f_w]
            out[:, oy, ox] = np.tensordot(weights.data, patch, axes=3)
    return out


def max_pool_2x2(ifm: FeatureMap) -> FeatureMap:
    """2x2 stride-2 max pooling; spatial extents must be even."""
    c, h, w = ifm.shape
    if h % 2 or w % 2:
        raise FormatError("max pool needs even spatial extents")
    x = ifm.data.reshape(c, h // 2, 2, w // 2, 2)
    return FeatureMap(x.max(axis=(2, 4)), ifm.bits)


def reference_inference(net: TernaryNetwork, ifm: FeatureMap) -> list[FeatureMap]:
    """Run the whole network on the host and return the per-layer output trace.

    The trace is the bit-exactness contract for the simulator: entry i is the
    feature map produced by layer i after requantization (or pooling).
    """
    trace: list[FeatureMap] = []
    cur = ifm
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            acc = reference_convolution(cur, layer.weights, layer.stride, layer.pad)
            cur = FeatureMap(requantize(acc, layer.quant), layer.quant.activation_bits)
        elif layer.kind == "pool":
            cur = max_pool_2x2(cur)
        else:  # add
            src = layer.skip_source(i)
            other = ifm if src == -1 else trace[src]
            if other.shape != cur.shape:
                raise FormatError(
                    f"layer {i}: add operands differ {cur.shape} vs {other.shape}")
            acc = cur.data + other.data
            cur = FeatureMap(requantize(acc, layer.quant), layer.quant.activation_bits)
        trace.append(cur)
    return trace


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_network(net: TernaryNetwork, manifest_path, weights_path):
    """Write the manifest (JSON) and the packed ternary weight blob."""
    blob = bytearray()
    records = []
    for i, layer in enumerate(net.layers):
        offset, length = len(blob), 0
        if layer.kind == "conv":
            raw = layer.weights.data.astype(np.int8).tobytes()
            length = len(raw)
            blob.extend(raw)
        rec = {
            "type": layer.kind,
            "c_in": layer.c_in, "c_out": layer.c_out,
            "f_h": layer.f_h, "f_w": layer.f_w,
            "stride": layer.stride, "pad": layer.pad,
            "activation_bits": layer.quant.activation_bits,
            "requant_multiplier": layer.quant.requant_multiplier,
            "requant_shift": layer.quant.requant_shift,
            "activation_kind": layer.quant.activation_kind,
            "weight_offset": offset, "weight_len": length,
        }
        if layer.kind == "add" and layer.skip_from is not None:
            rec["skip_from"] = layer.skip_from
        records.append(rec)
    manifest = {"format_version": MANIFEST_VERSION, "name": net.name, "layers": records}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(weights_path, "wb") as fh:
        fh.write(bytes(blob))


# the integer fields of a manifest's layer record, besides skip_from
_MANIFEST_INTS = ("c_in", "c_out", "f_h", "f_w", "stride", "pad",
                  "activation_bits", "requant_multiplier", "requant_shift",
                  "weight_offset", "weight_len")


def load_network(manifest_path, weights_path) -> TernaryNetwork:
    """Parse a manifest and its weight blob into a validated TernaryNetwork."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest root must be an object")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise FormatError(f"unsupported manifest version {manifest.get('format_version')!r}")
    try:
        with open(weights_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read weights: {exc}") from exc

    records = manifest.get("layers", [])
    if not isinstance(records, list):
        raise FormatError("manifest layers must be a list, got "
                          f"{type(records).__name__}")
    layers = []
    for i, rec in enumerate(records):
        try:
            kind = rec["type"]
            c_in, c_out, f_h, f_w, stride, pad, bits, mult, shift, offset, \
                length = (rec[name] for name in _MANIFEST_INTS)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"layer {i}: bad record ({exc})") from exc
        skip = rec.get("skip_from")     # absent or null: two layers back
        names = _MANIFEST_INTS + (() if skip is None else ("skip_from",))
        for name in names:
            if type(rec[name]) is not int:  # a bool or a float is not an int
                raise FormatError(f"layer {i}: {name} must be an integer, "
                                  f"got {rec[name]!r}")
        quant = QuantSpec(bits, mult, shift,
                          rec.get("activation_kind", "relu_clamp"))
        weights = None
        if kind == "conv":
            expect = c_out * c_in * f_h * f_w
            if length != expect:
                raise FormatError(f"layer {i}: weight_len {length} != {expect}")
            if offset < 0 or offset + length > len(blob):
                raise FormatError(f"layer {i}: weight range outside blob")
            raw = np.frombuffer(blob, dtype=np.int8, count=length, offset=offset)
            weights = TernaryWeights(raw.reshape(c_out, c_in, f_h, f_w))
        layers.append(Layer(kind, c_in, c_out, f_h, f_w, stride, pad, quant,
                            weights, skip))
    return TernaryNetwork(str(manifest.get("name", "unnamed")), layers)


def save_feature_map(fm: FeatureMap, path):
    """Feature map file: magic, (channels, height, width, bits) LE uint32, bytes."""
    if fm.bits > 8:
        raise FormatError("feature map files hold one byte per value (bits <= 8)")
    c, h, w = fm.shape
    with open(path, "wb") as fh:
        fh.write(FEATUREMAP_MAGIC)
        fh.write(struct.pack("<4I", c, h, w, fm.bits))
        fh.write(fm.data.astype(np.uint8).tobytes())


def load_feature_map(path) -> FeatureMap:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read feature map: {exc}") from exc
    if len(raw) < 20 or raw[:4] != FEATUREMAP_MAGIC:
        raise FormatError("not a feature map file")
    c, h, w, bits = struct.unpack("<4I", raw[4:20])
    if len(raw) != 20 + c * h * w:
        raise FormatError("feature map payload truncated")
    data = np.frombuffer(raw, dtype=np.uint8, offset=20).reshape(c, h, w)
    return FeatureMap(data, bits)


# ---------------------------------------------------------------------------
# synthetic workloads
# ---------------------------------------------------------------------------

def make_synthetic_network(n_layers: int, channels: int, sparsity: float,
                           bits: int = 4, in_channels: int = 3,
                           seed: int = 0, name: str | None = None) -> TernaryNetwork:
    """Seeded stack of 3x3 stride-1 pad-1 ternary conv layers.

    Stands in for real checkpoints; the zero fraction of each weight tensor
    is driven toward `sparsity` and the requant shift is sized so typical
    accumulators land inside the activation range instead of clamping flat.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise FormatError("sparsity must be in [0, 1]")
    if channels < 1:
        raise FormatError(f"a synthetic network needs at least 1 channel, "
                          f"got {channels}")
    QuantSpec(bits)     # rejects a bad width before it sizes a shift
    rng = np.random.default_rng(seed)
    layers = []
    c_prev = in_channels
    for _ in range(n_layers):
        shape = (channels, c_prev, 3, 3)
        mask = rng.random(shape) >= sparsity
        signs = rng.integers(0, 2, size=shape) * 2 - 1
        weights = TernaryWeights(np.where(mask, signs, 0))
        density = max(1.0 - sparsity, 1.0 / (c_prev * 9))
        typical = density * c_prev * 9 * ((1 << bits) - 1) / 6.0
        shift = max(0, int(round(np.log2(max(typical, 1.0)))))
        quant = QuantSpec(bits, 1, shift, "relu_clamp")
        layers.append(Layer("conv", c_prev, channels, 3, 3, 1, 1, quant, weights))
        c_prev = channels
    if name is None:
        name = f"synthetic-{n_layers}x{channels}x{sparsity:g}"
    return TernaryNetwork(name, layers)


def make_synthetic_input(net: TernaryNetwork, h: int, w: int, seed: int = 0) -> FeatureMap:
    """Uniform random input matching the first layer's channel count and bit width."""
    return random_feature_map(net.layers[0].c_in, h, w, _input_bits(net), seed)


def random_feature_map(c: int, h: int, w: int, bits: int, seed: int = 0) -> FeatureMap:
    """A (c, h, w) map of uniform random `bits`-bit values drawn from `seed`."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << bits, size=(c, h, w))
    return FeatureMap(data, bits)


def _input_bits(net: TernaryNetwork) -> int:
    """Bit width the network expects at its input (first layer's activation grid)."""
    return net.layers[0].quant.activation_bits


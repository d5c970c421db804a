"""Lowering convolutions to per-channel linear systems.

A conv layer is unrolled patch-wise: every output position p reads a
f_h*f_w window of each input channel, so per input channel the layer is a
(c_out x f_h*f_w) ternary matrix applied to the patch vector. Output
positions map onto CAM rows, patch slots onto CAM columns, and the matrix
rows become add/sub chains. Padding contributes zero-valued patch slots;
the matrix keeps its coefficients, which is equivalent by linearity, except
that a slot padded at every position is dropped outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FeatureMap, LayerShape, TernaryWeights

PAD = -1


@dataclass
class PatchIndexMap:
    """Input coordinates behind each (output position, patch slot) pair.

    ys/xs have shape (h_out*w_out, f_h*f_w); PAD (-1) marks slots that fall
    outside the input. Positions and slots are row-major.
    """

    shape: LayerShape
    ys: np.ndarray
    xs: np.ndarray

    @property
    def positions(self) -> int:
        return self.ys.shape[0]

    @property
    def slots(self) -> int:
        return self.ys.shape[1]

    def is_pad(self) -> np.ndarray:
        return self.ys == PAD


@dataclass
class LinearSystem:
    """One input channel's slice of the layer: matrix (c_out x slots)."""

    channel: int
    matrix: np.ndarray


def im2col_indices(shape: LayerShape) -> PatchIndexMap:
    """Build the position/slot coordinate map for one layer."""
    def coords(n_out, f, n_in):
        # input coordinate of each (output index, kernel offset), and
        # whether it lies inside the input
        c = (np.arange(n_out, dtype=np.int64)[:, None] * shape.stride
             + np.arange(f, dtype=np.int64) - shape.pad)
        return c, (c >= 0) & (c < n_in)

    iy, y_in = coords(shape.h_out, shape.f_h, shape.h_in)
    ix, x_in = coords(shape.w_out, shape.f_w, shape.w_in)
    # axes (oy, ox, ky, kx): positions and slots are both row-major
    inside = y_in[:, None, :, None] & x_in[None, :, None, :]
    grid = (shape.h_out * shape.w_out, shape.f_h * shape.f_w)
    ys = np.where(inside, iy[:, None, :, None], PAD).reshape(grid)
    xs = np.where(inside, ix[None, :, None, :], PAD).reshape(grid)
    return PatchIndexMap(shape, ys, xs)


def always_padded(shape: LayerShape) -> np.ndarray:
    """Whether each patch slot is padding at every output position. Slot
    (ky, kx) is exactly when no output row puts ky inside the input or no
    output column puts kx inside it, so each axis is settled on its own,
    from the first output index whose coordinate is not below 0."""
    def reached(n_out, f, n_in):
        k = np.arange(f, dtype=np.int64)
        first = np.maximum(0, -((k - shape.pad) // shape.stride))
        return (first < n_out) & (first * shape.stride + k - shape.pad < n_in)

    ys = reached(shape.h_out, shape.f_h, shape.h_in)
    xs = reached(shape.w_out, shape.f_w, shape.w_in)
    return ~(ys[:, None] & xs[None, :]).reshape(-1)


def lower_layer(weights: TernaryWeights, shape: LayerShape) -> list[LinearSystem]:
    """Split a conv layer into one LinearSystem per input channel.

    Summing the systems' outputs over channels reproduces the reference
    convolution exactly. Slots that are padding at every output position
    (kernel poking fully outside the input) get their column zeroed.
    """
    always_pad = always_padded(shape)
    systems = []
    for c in range(shape.c_in):
        matrix = weights.data[:, c, :, :].reshape(shape.c_out, shape.f_h * shape.f_w).copy()
        matrix[:, always_pad] = 0
        systems.append(LinearSystem(c, matrix))
    return systems


def extract_patches(ifm: FeatureMap, pim: PatchIndexMap, channel: int) -> np.ndarray:
    """Gather the (positions x slots) patch value matrix for one channel.

    PAD slots read as zero, matching what the array loader writes there.
    """
    data = ifm.data[channel]
    vals = np.zeros((pim.positions, pim.slots), dtype=np.int64)
    real = ~pim.is_pad()
    vals[real] = data[pim.ys[real], pim.xs[real]]
    return vals


def unrolled_op_count(systems: list[LinearSystem]) -> int:
    """Adds/subs to evaluate the systems as plain left-to-right chains.

    A row with n nonzero coefficients costs max(n - 1, 0): leading negations
    are free (sign-flipped consumption) and single-term or empty rows are
    pure copies. Counted once per output-position cohort; the row dimension
    of the array applies the same chain to every position in parallel.
    """
    total = 0
    for sys in systems:
        nnz = np.count_nonzero(sys.matrix, axis=1)
        total += int(np.maximum(nnz - 1, 0).sum())
    return total

"""Bilinear sampling on the 1/16-pel grid with replicated borders.

One kernel serves block and sub-block motion compensation and the
synthetic sequence renderer: output = round(sum of the four neighbour
pixels weighted by the 16ths fractions), with the round carried out half
away from zero (all weights are non-negative, so +128 before the /256
floor is exact). A block with one vector is a one-cell sub-block grid.

Every sub-block's source window comes from one flat gather laid out in
output order. A grid of whole-pel vectors needs no filter: the gather is
the prediction. Otherwise the filter runs separably in uint16, first
along x, h = (16-fx)*p0 + fx*p1 (at most 4080), then along y,
(16-fy)*h0 + fy*h1 (at most 65280, so +128 still fits), which is the
same integer numerator as the four-tap sum.
"""

from __future__ import annotations

import numpy as np

from .kinematics import MV_UNITS_PER_PEL

# A 16ths vector splits into whole pels and a fraction by shift and mask,
# exact floor division for either sign, far cheaper than np.divmod.
_FRAC_BITS = MV_UNITS_PER_PEL.bit_length() - 1
assert MV_UNITS_PER_PEL == 1 << _FRAC_BITS


def sample_block(
    plane: np.ndarray, x0: int, y0: int, width: int, height: int, mv: tuple[int, int]
) -> np.ndarray:
    """Sample a width x height block at (x0, y0) displaced by ``mv`` units.

    ``plane`` is a 2-D uint8 array. Sample coordinates outside the plane
    replicate the nearest border pixel. Integer-pel displacements reduce to
    an exact pixel copy.
    """
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {plane.shape}")
    return sample_subblocks(plane, x0, y0, width, height,
                            np.array([[mv]], dtype=np.int64))


def sample_subblocks(
    plane: np.ndarray, x0: int, y0: int, width: int, height: int, mvs: np.ndarray
) -> np.ndarray:
    """Sample a block whose equal sub-blocks each carry their own vector.

    ``mvs`` is a (rows, cols, 2) integer grid; sub-block (j, i) covers
    height/rows x width/cols pixels at its offset in the block, displaced
    by ``mvs[j, i]``. Every sub-block's source window, with replicated
    borders, comes from one gather, laid out (rows, sub_h, cols, sub_w)
    so that it reshapes to the block as it is.
    """
    rows, cols = mvs.shape[:2]
    sub_h, sub_w = height // rows, width // cols
    pel, frac = mvs >> _FRAC_BITS, mvs & (MV_UNITS_PER_PEL - 1)
    e = int(frac.any())   # one more row and column for the filter's taps
    top = y0 + sub_h * np.arange(rows)[:, None] + pel[..., 1]   # (rows, cols)
    left = x0 + sub_w * np.arange(cols) + pel[..., 0]
    # np.minimum/np.maximum: np.clip with int bounds costs 3x more on small arrays.
    r = np.minimum(np.maximum(top[:, None] + np.arange(sub_h + e)[:, None], 0),
                   plane.shape[0] - 1)                        # (rows, sub_h+e, cols)
    c = np.minimum(np.maximum(left[..., None] + np.arange(sub_w + e), 0),
                   plane.shape[1] - 1)                        # (rows, cols, sub_w+e)
    # Flat indices r * plane_width + c, each row index repeated along its
    # sub-block's columns so that the add runs along whole window rows.
    at = np.repeat(r * plane.shape[1], sub_w + e, axis=-1)
    at += c.reshape(rows, 1, -1)
    window = np.take(plane.reshape(-1), at)
    if not e:
        return window.reshape(height, width)
    window = window.reshape(rows, sub_h + 1, cols, sub_w + 1)
    frac = frac.astype(np.uint16)[:, None, :, None]           # (rows, 1, cols, 1, 2)
    fx, fy = frac[..., 0], frac[..., 1]
    h = window[..., :-1] * (16 - fx)
    h += window[..., 1:] * fx
    v = h[:, :-1] * (16 - fy)
    v += h[:, 1:] * fy
    v += 128
    v >>= 8
    return v.astype(np.uint8).reshape(height, width)

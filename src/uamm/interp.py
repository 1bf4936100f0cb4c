"""Bilinear sampling on the 1/16-pel grid with replicated borders.

One kernel serves block and sub-block motion compensation and the
synthetic sequence renderer: output = round(sum of the four neighbour
pixels weighted by the 16ths fractions), with the round carried out half
away from zero (all weights are non-negative, so +128 before the /256
floor is exact). A block with one vector is a one-cell sub-block grid.
"""

from __future__ import annotations

import numpy as np

from .kinematics import MV_UNITS_PER_PEL


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
    borders, comes from one gather.
    """
    rows, cols = mvs.shape[:2]
    sub_h, sub_w = height // rows, width // cols
    pel, frac = np.divmod(mvs, MV_UNITS_PER_PEL)
    top = y0 + sub_h * np.arange(rows)[:, None] + pel[..., 1]   # (rows, cols)
    left = x0 + sub_w * np.arange(cols) + pel[..., 0]
    # np.minimum/np.maximum: np.clip with int bounds costs 3x more on small arrays.
    r = np.minimum(np.maximum(top[..., None] + np.arange(sub_h + 1), 0), plane.shape[0] - 1)
    c = np.minimum(np.maximum(left[..., None] + np.arange(sub_w + 1), 0), plane.shape[1] - 1)
    window = plane[r[..., :, None], c[..., None, :]].astype(np.int32)
    frac = frac.astype(np.int32)[..., None, None]
    fx, fy = frac[:, :, 0], frac[:, :, 1]   # (rows, cols, 1, 1)

    p00 = window[..., :-1, :-1]
    p10 = window[..., :-1, 1:]
    p01 = window[..., 1:, :-1]
    p11 = window[..., 1:, 1:]
    num = (
        (16 - fx) * (16 - fy) * p00
        + fx * (16 - fy) * p10
        + (16 - fx) * fy * p01
        + fx * fy * p11
    )
    pred = ((num + 128) // 256).astype(np.uint8)   # (rows, cols, sub_h, sub_w)
    return pred.transpose(0, 2, 1, 3).reshape(height, width)

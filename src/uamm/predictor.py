"""Block prediction: full-search ME, sub-block refinement, compensation.

Two modes share one integer-pel motion search:

* uniform: the block is compensated with the searched vector as-is, the
  classic single-vector baseline.
* accelerated (uamm): each 4x4 sub-block inherits solved motion
  parameters from the reference frame's field at the position the block
  vector points to, extrapolates its own vector for the current distance,
  is corrected against the block vector, and is compensated separately.

Motion vectors use the fetch convention throughout: the prediction for a
block at x is sampled at x + mv/16 in the reference frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .interp import sample_block, sample_subblocks
from .kinematics import (
    MV_UNITS_PER_PEL,
    MotionVector,
    ParamKind,
    TimeInterval,
    _extrapolate_scaled,
)
from .motion_field import CELL_SIZE, MotionField, gather_params
# Unused here; kept because perfbench/traced_cli.py wraps predictor.inherit_params.
from .motion_field import inherit_params  # noqa: F401
from .sequences import FrameBuffer

DEFAULT_DELTA_MAX = 32  # 1/16-pel units: sub-block vectors stay within 2 pel


class PredictionMode(Enum):
    UNIFORM_BASELINE = "uniform"
    UAMM_REFINED = "uamm"


@dataclass(frozen=True)
class BlockSpec:
    """A pixel-aligned block; sides must be positive multiples of 4."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"block origin ({self.x}, {self.y}) must be non-negative")
        if self.w < 4 or self.h < 4 or self.w % 4 or self.h % 4:
            raise ValueError(f"block size {self.w}x{self.h} must be multiples of 4")


@dataclass
class PredictionResult:
    """Everything one block prediction produced."""

    mode: PredictionMode
    initial_mv: MotionVector
    subblock_mvs: np.ndarray  # (rows, cols, 2) int64, 1/16-pel units
    pred_block: np.ndarray    # (h, w) uint8
    sad: int
    corrected_count: int


def _check_block_in_frame(frame: FrameBuffer, block: BlockSpec) -> None:
    if block.x + block.w > frame.width or block.y + block.h > frame.height:
        raise ValueError(
            f"block {block.w}x{block.h} at ({block.x}, {block.y}) leaves "
            f"the {frame.width}x{frame.height} frame"
        )


def full_search_me(
    src: FrameBuffer, ref: FrameBuffer, block: BlockSpec, search_range: int
) -> MotionVector:
    """Exhaustive integer-pel search minimising SAD over a square window.

    Candidates reaching outside the reference replicate border pixels,
    matching the compensation path. Ties resolve to the smallest
    |mvx|+|mvy|, then smallest mvy, then smallest mvx, so the result is
    unique. The returned vector is in 1/16-pel units.
    """
    if search_range < 0:
        raise ValueError(f"search range must be non-negative, got {search_range}")
    _check_block_in_frame(src, block)
    _check_block_in_frame(ref, block)

    r = search_range
    padded = np.pad(ref.luma, r, mode="edge") if r else ref.luma
    windows = sliding_window_view(padded, (block.h, block.w))
    # A fresh int16 copy, so the in-place ops below never write to ref.luma
    # (padded is ref.luma itself at r = 0); |difference| <= 255 fits exactly.
    cand = windows[block.y:block.y + 2 * r + 1,
                   block.x:block.x + 2 * r + 1].astype(np.int16)
    cand -= src.luma[block.y:block.y + block.h, block.x:block.x + block.w]
    costs = np.abs(cand, out=cand).sum(axis=(2, 3), dtype=np.int64)

    dy, dx = np.indices(costs.shape)
    dy = (dy - r).ravel()
    dx = (dx - r).ravel()
    order = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), costs.ravel()))
    best = order[0]
    return MotionVector(int(dx[best]) * MV_UNITS_PER_PEL,
                        int(dy[best]) * MV_UNITS_PER_PEL)


def estimate_field(
    src: FrameBuffer, ref: FrameBuffer, block_size: int, search_range: int
) -> tuple[MotionField, list[tuple[BlockSpec, MotionVector]]]:
    """Full-search every block of a frame tiling and record the vectors.

    The frame is tiled row by row with ``block_size`` squares, clipped at
    the right and bottom edges. Returns the motion field of ``src`` (each
    cell holds its block's vector over ``src.poc - ref.poc`` ticks) and
    the (block, vector) pairs in tiling order.
    """
    interval = TimeInterval(src.poc - ref.poc)
    field = MotionField.empty(src.poc, src.width, src.height)
    searched = []
    for y in range(0, src.height, block_size):
        for x in range(0, src.width, block_size):
            block = BlockSpec(x, y, min(block_size, src.width - x),
                              min(block_size, src.height - y))
            mv = full_search_me(src, ref, block, search_range)
            field.set_block_mv(x, y, block.w, block.h, mv, interval)
            searched.append((block, mv))
    return field, searched


def motion_compensate(
    ref: FrameBuffer, block: BlockSpec, mv: MotionVector
) -> np.ndarray:
    """Bilinear block fetch from the reference at block position + mv/16."""
    return sample_block(ref.luma, block.x, block.y, block.w, block.h, (mv.x, mv.y))


def correct_mvs(
    subblock_mvs: np.ndarray, initial_mv: MotionVector, delta_max: int = DEFAULT_DELTA_MAX
):
    """Constrain sub-block vectors to a band around the block vector.

    Input shape (..., rows, cols, 2); leading axes batch independent
    grids. Each component is clamped into [initial - delta_max,
    initial + delta_max]. If more than half of a grid's sub-blocks needed
    clamping the whole grid resets to the initial vector; the returned
    count is the number of clamped sub-blocks before any reset (an array
    for batched input). The operation is idempotent.
    """
    if delta_max < 0:
        raise ValueError(f"delta_max must be non-negative, got {delta_max}")
    if subblock_mvs.ndim < 3 or subblock_mvs.shape[-1] != 2:
        raise ValueError(f"expected shape (..., rows, cols, 2), got {subblock_mvs.shape}")
    init = np.array([initial_mv.x, initial_mv.y], dtype=np.int64)
    clamped = np.clip(subblock_mvs, init - delta_max, init + delta_max)
    changed = np.any(clamped != subblock_mvs, axis=-1)
    count = changed.sum(axis=(-2, -1))
    n_sub = subblock_mvs.shape[-3] * subblock_mvs.shape[-2]
    reset = count * 2 > n_sub
    out = np.where(reset[..., None, None, None], init, clamped)
    out = out.astype(subblock_mvs.dtype)
    if subblock_mvs.ndim == 3:
        return out, int(count)
    return out, count


def _block_sad(src: FrameBuffer, block: BlockSpec, pred: np.ndarray) -> int:
    src_block = src.luma[block.y:block.y + block.h,
                         block.x:block.x + block.w].astype(np.int32)
    return int(np.abs(src_block - pred.astype(np.int32)).sum())


def predict_uniform(
    src: FrameBuffer,
    ref: FrameBuffer,
    block: BlockSpec,
    search_range: int,
    initial_mv: Optional[MotionVector] = None,
) -> PredictionResult:
    """Single-vector baseline: search, compensate, report."""
    _check_block_in_frame(src, block)
    _check_block_in_frame(ref, block)
    mv = initial_mv if initial_mv is not None else full_search_me(
        src, ref, block, search_range)
    rows, cols = block.h // CELL_SIZE, block.w // CELL_SIZE
    grid = np.empty((rows, cols, 2), dtype=np.int64)
    grid[:, :] = (mv.x, mv.y)
    pred = motion_compensate(ref, block, mv)
    return PredictionResult(
        mode=PredictionMode.UNIFORM_BASELINE,
        initial_mv=mv,
        subblock_mvs=grid,
        pred_block=pred,
        sad=_block_sad(src, block, pred),
        corrected_count=0,
    )


def predict_uamm(
    src: FrameBuffer,
    ref: FrameBuffer,
    ref_field: MotionField,
    block: BlockSpec,
    search_range: int,
    t0: int,
    t1: int,
    t2: int,
    delta_max: int = DEFAULT_DELTA_MAX,
    initial_mv: Optional[MotionVector] = None,
) -> PredictionResult:
    """Accelerated-model prediction with per-sub-block vectors.

    ``t0`` and ``t1`` are the derivation intervals of the reference
    field's parameters, ``t2`` the distance from the reference to the
    current frame. Sub-blocks whose inherited parameters are unavailable
    fall back to the block vector; if every sub-block fell back the result
    is the uniform baseline, mode included, so a field with no usable
    parameters degrades to the baseline exactly.
    """
    if min(t0, t1, t2) < 1:
        raise ValueError(f"intervals must be positive, got {(t0, t1, t2)}")
    _check_block_in_frame(src, block)
    _check_block_in_frame(ref, block)
    mv_c = initial_mv if initial_mv is not None else full_search_me(
        src, ref, block, search_range)
    v0, acc, kind = gather_params(ref_field, block, mv_c)
    available = kind != ParamKind.UNAVAILABLE
    if not available.any():
        return predict_uniform(src, ref, block, search_range, initial_mv=mv_c)
    ex, ey = _extrapolate_scaled(v0[..., 0], v0[..., 1], acc[..., 0], acc[..., 1],
                                 t0, t1, t2)
    raw = np.where(available[..., None], np.stack((ex, ey), axis=-1),
                   np.array([mv_c.x, mv_c.y], dtype=np.int64))
    corrected, count = correct_mvs(raw, mv_c, delta_max)
    pred = sample_subblocks(ref.luma, block.x, block.y, block.w, block.h, corrected)
    return PredictionResult(
        mode=PredictionMode.UAMM_REFINED,
        initial_mv=mv_c,
        subblock_mvs=corrected,
        pred_block=pred,
        sad=_block_sad(src, block, pred),
        corrected_count=count,
    )

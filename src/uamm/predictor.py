"""Block prediction: full-search ME, sub-block refinement, compensation.

Two modes share one integer-pel motion search:

* uniform: the block is compensated with the searched vector as-is, the
  classic single-vector baseline.
* accelerated (uamm): each 4x4 sub-block inherits solved motion
  parameters and their window from the reference frame's ``FieldParams``
  where the block vector points, extrapolates its own vector for the
  current distance, is corrected against the block vector, and is
  compensated separately.

The frame is the unit of work: ``search_fields`` full-searches every
block of one frame tiling per block size in one pass over the candidate
offsets, one uint8 abs-difference plane per offset shared by every block
size, every block's best updated once per chunk of 16 offsets. A block
at SAD 0 is final; each later chunk builds its planes, in batched
gathers, only over the rect of the blocks still live, and the search
ends when none is. ``predict_frame`` reconstructs every block of a frame
in one mode in one batch over its 4x4 cell grid from what a decoder has:
the reference frame, the coded field and the parameters. Their one-block cases,
``full_search_me``, ``predict_uniform``, ``predict_uamm`` and ``correct_mvs``,
stay only as test oracles and as hooks ``perfbench/traced_cli.py`` patches,
until the tracer wraps the frame kernels (ROADMAP.md).

Motion vectors use the fetch convention throughout: the prediction for a
block at x is sampled at x + mv/16 in the reference frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .interp import sample_subblocks
from .kinematics import (
    MV_MAX,
    MV_UNITS_PER_PEL,
    MotionVector,
    ParamKind,
    TimeInterval,
    _extrapolate_scaled,
    _max_abs,
)
from .motion_field import CELL_SIZE, FieldParams, MotionField, gather_params
# Unused here: perfbench/traced_cli.py patches both names on this module.
from .interp import sample_block  # noqa: F401
from .motion_field import inherit_params  # noqa: F401
from .sequences import FrameBuffer

DEFAULT_DELTA_MAX = 32  # 1/16-pel units: sub-block vectors stay within 2 pel


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
        if any(side < CELL_SIZE or side % CELL_SIZE for side in (self.w, self.h)):
            raise ValueError(f"block size {self.w}x{self.h} must be multiples of 4")


@dataclass
class FramePrediction:
    """Everything one mode's reconstruction of a frame tiling produced.

    ``corrected`` is indexed [row, col] over the tiling, which runs row by
    row like the block vectors of ``search_fields``' fields.
    """

    pred: np.ndarray          # (height, width) uint8
    subblock_mvs: np.ndarray  # (cells_y, cells_x, 2) int64, 1/16-pel units
    corrected: np.ndarray     # (blocks_y, blocks_x) int64 clamped sub-blocks


def _check_block_in_frame(frame: FrameBuffer, block: BlockSpec) -> None:
    if block.x + block.w > frame.width or block.y + block.h > frame.height:
        raise ValueError(
            f"block {block.w}x{block.h} at ({block.x}, {block.y}) leaves "
            f"the {frame.width}x{frame.height} frame"
        )


def _check_search_range(search_range: int) -> None:
    """Reject a search range that is negative or reaches past ``MV_MAX``."""
    if search_range < 0:
        raise ValueError(f"search range must be non-negative, got {search_range}")
    if search_range * MV_UNITS_PER_PEL > MV_MAX:
        raise ValueError(f"search range must be at most {MV_MAX // MV_UNITS_PER_PEL} pel, "
                         f"got {search_range}")


# A tile's rows of a uint8 plane sum exactly in uint16 while the tile is
# at most 257 rows (257 * 255 = 2**16 - 1), in uint32 beyond.
_UINT16_ROWS = 257
# Candidate offsets whose SADs are pooled and compared at once.
_CHUNK = 16
# Bytes of candidate windows one batched abs-difference call gathers.
_BATCH_BYTES = 128 * 1024


def _tile_sums(plane: np.ndarray, th: int, tw: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of ``plane`` over th x tw tiles of its last two axes, int64.

    Tiles run from the top left corner; the last row and column of tiles
    are clipped at the edges. ``plane`` is uint8, a 0/1 mask its uint8 view.
    Each tile's rows are added first as whole row vectors (zero rows pad
    the last tile row) into exact uint16 or uint32 partials, then along x
    with ``np.add.reduceat``, into ``out`` if given.
    """
    *lead, rows, cols = plane.shape
    tiles_y = -(-rows // th)
    if tiles_y * th > rows:
        pad = np.zeros((*lead, tiles_y * th - rows, cols), dtype=plane.dtype)
        plane = np.concatenate((plane, pad), axis=-2)
    acc = np.uint16 if th <= _UINT16_ROWS else np.uint32
    part = np.add.reduce(plane.reshape(*lead, tiles_y, th, cols), axis=-2, dtype=acc)
    return np.add.reduceat(part, np.arange(0, cols, tw), axis=-1, dtype=np.int64, out=out)


def _block_sads(src: np.ndarray, pred: np.ndarray, bh: int, bw: int,
                scratch: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """SAD of each bh x bw block tiling two equal uint8 planes, int64.

    ``pred`` may also be a stack of such planes along a leading axis, each
    compared with ``src``. The |differences|, max - min, go into one uint8
    plane per plane of ``pred``, ``scratch`` if given: zeros, as wide as
    the planes and as high as their tile rows, so its rows past the planes
    stay zero. The block sums go into ``out`` if given, a ([planes,]
    tiles_y, tiles_x) int64 array.
    """
    h, w = src.shape
    if scratch is None:
        scratch = np.zeros((*pred.shape[:-2], -(-h // bh) * bh, w), dtype=np.uint8)
    plane = np.maximum(pred, src, out=scratch[..., :h, :])
    np.subtract(plane, np.minimum(pred, src), out=plane)
    return _tile_sums(scratch, bh, bw, out)


def _search_order(dy_lo: int, dy_hi: int, dx_lo: int, dx_hi: int):
    """Candidate offsets of the box dy_lo..dy_hi x dx_lo..dx_hi, best
    tie-break first: smallest |dx|+|dy|, then smallest dy, then smallest
    dx. Yields them as (dy, dx) int64 arrays of ``_CHUNK`` offsets, the
    last one shorter, built one ring |dx|+|dy| = d at a time."""
    dy = dx = np.empty(0, dtype=np.int64)
    for d in range(max(-dy_lo, dy_hi) + max(-dx_lo, dx_hi) + 1):
        ring_dy = np.arange(max(dy_lo, -d), min(dy_hi, d) + 1)
        reach = d - np.abs(ring_dy)
        ring_dx = np.stack((-reach, reach), axis=-1)
        keep = (ring_dx >= dx_lo) & (ring_dx <= dx_hi)
        keep[:, 1] &= reach > 0                 # dx = 0 once
        dy = np.concatenate((dy, ring_dy.repeat(2)[keep.ravel()]))
        dx = np.concatenate((dx, ring_dx[keep]))
        while dy.size >= _CHUNK:
            yield dy[:_CHUNK], dx[:_CHUNK]
            dy, dx = dy[_CHUNK:], dx[_CHUNK:]
    if dy.size:
        yield dy, dx


def _pool(grid: np.ndarray, fy: int, fx: int, out: np.ndarray) -> None:
    """Sum fy x fx tiles of ``grid``'s last two axes into ``out``.

    ``out`` is (..., ny, nx); ``grid`` holds at least ny * fy rows and
    nx * fx columns, zeros past its tiles. The tiles' rows are added
    first, as ``fy`` strided slices, then their columns, as ``fx``.
    """
    ny, nx = out.shape[-2:]
    rows = [grid[..., i:ny * fy:fy, :nx * fx] for i in range(fy)]
    rowsum = rows[0] if fy == 1 else np.add(rows[0], rows[1])
    for part in rows[2:]:
        rowsum += part
    cols = [rowsum[..., j::fx] for j in range(fx)]
    if fx == 1:
        out[...] = cols[0]
    else:
        np.add(cols[0], cols[1], out=out)
    for part in cols[2:]:
        out += part


def _live_rect(live: np.ndarray, blocks: list[tuple[int, int]], bounds: list[int],
               ratios: list[tuple[int, int]], ty: int, tx: int) -> tuple[int, int, int, int]:
    """Bounding rect (r0, r1, c0, c1), in gcd tiles, of the blocks flagged
    in ``live`` over every tiling: tiling (fy, fx)'s block (by, bx) covers
    tile rows by * fy until (by + 1) * fy and columns likewise, clipped at
    ty x tx. At least one block must be live."""
    r0, r1, c0, c1 = ty, 0, tx, 0
    for (ny, nx), lo, hi, (fy, fx) in zip(blocks, bounds, bounds[1:], ratios):
        mask = live[lo:hi].reshape(ny, nx)
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            cols = np.flatnonzero(mask.any(axis=0))
            r0, r1 = min(r0, int(rows[0]) * fy), max(r1, min(int(rows[-1] + 1) * fy, ty))
            c0, c1 = min(c0, int(cols[0]) * fx), max(c1, min(int(cols[-1] + 1) * fx, tx))
    return r0, r1, c0, c1


def _search_blocks(src: FrameBuffer, ref: FrameBuffer, x: int, y: int, w: int, h: int,
                   tiles: list[tuple[int, int]], search_range: int) -> list[np.ndarray]:
    """Full search of every tiling of the w x h rect at (x, y), one per
    (bh, bw) in ``tiles``, in one pass over the candidate offsets.

    The rect must lie inside both frames. Candidates reaching outside the
    reference replicate its border pixels, matching the compensation path.
    An offset that moves the rect wholly past a frame edge reads the same
    replicated border as the offset that just reaches it, so it ties with
    that nearer offset and loses the tie-break: the search visits only
    the offsets within the range and within those bounds. Each offset's
    uint8 abs-difference plane is summed over the tiles of the gcd of the
    tile sizes, whose edges every tiling shares. The offsets go in
    ``_search_order`` in chunks of ``_CHUNK``: the chunk's gcd-tile SADs
    pool exactly, in int64, to each tiling's block SADs by strided adds,
    and each block takes its chunk's first minimum, the earliest offset,
    which replaces its running best only if strictly smaller, so each
    result is the unique tie-break winner.

    A block whose best SAD is 0 is final: no later offset is strictly
    smaller. Each chunk after the first builds its planes only over the
    live rect, the bounding rect in gcd tiles of the blocks not yet final
    in any tiling, and the search ends once none is left. Grid tiles
    outside that rect keep stale sums, which only final blocks read. A
    chunk's candidate windows are gathered from a sliding window view of
    the padded reference in batches of at most ``_BATCH_BYTES``, each
    built by one max, min and subtract into an abs-difference stack and
    summed by one exact row sum; a window larger than that runs alone as
    a view, with no copy.

    Returns one (rows, cols, 2) int64 array of vectors in 1/16-pel units
    per entry of ``tiles``. Neither frame is written. The range must keep
    every vector within ``MV_MAX``.
    """
    _check_search_range(search_range)
    rect = BlockSpec(x, y, w, h)
    _check_block_in_frame(src, rect)
    _check_block_in_frame(ref, rect)

    r = search_range
    dy_lo, dy_hi = max(-r, -(y + h - 1)), min(r, ref.height - 1 - y)
    dx_lo, dx_hi = max(-r, -(x + w - 1)), min(r, ref.width - 1 - x)
    # The reference around the rect, padded once (a copy, never ref.luma).
    rows = np.clip(np.arange(y + dy_lo, y + h + dy_hi), 0, ref.height - 1)
    cols = np.clip(np.arange(x + dx_lo, x + w + dx_hi), 0, ref.width - 1)
    padded = ref.luma[rows[:, None], cols]
    target = src.luma[y:y + h, x:x + w]
    gh, gw = math.gcd(*(bh for bh, _ in tiles)), math.gcd(*(bw for _, bw in tiles))
    ty, tx = -(-h // gh), -(-w // gw)
    # Tiling (bh, bw) pools (bh/gh) x (bw/gw) gcd tiles into each block;
    # the gcd grid carries zero rows and columns up to the largest whole
    # number of blocks any tiling needs, which its tiles never write.
    ratios = [(bh // gh, bw // gw) for bh, bw in tiles]
    blocks = [(-(-ty // fy), -(-tx // fx)) for fy, fx in ratios]
    grid = np.zeros((_CHUNK, max(ny * fy for (fy, _), (ny, _) in zip(ratios, blocks)),
                     max(nx * fx for (_, fx), (_, nx) in zip(ratios, blocks))), dtype=np.int64)
    # Every tiling's block SADs sit in its own columns of one (_CHUNK,
    # blocks) stack; the running bests are flat vectors over those columns.
    bounds = np.cumsum([0] + [ny * nx for ny, nx in blocks]).tolist()
    sads = np.empty((_CHUNK, bounds[-1]), dtype=np.int64)
    views = [sads[:, lo:hi].reshape(_CHUNK, ny, nx)
             for (ny, nx), lo, hi in zip(blocks, bounds, bounds[1:])]
    best = np.full(bounds[-1], np.iinfo(np.int64).max)
    best_mv = np.zeros((bounds[-1], 2), dtype=np.int64)
    every = np.arange(bounds[-1])
    # One buffer holds each batch's abs-difference stack: a whole padded
    # plane, or as many smaller ones as fit in _BATCH_BYTES.
    stack = np.empty(max(_BATCH_BYTES, ty * gh * w), dtype=np.uint8)
    rect, planes_for = (0, ty, 0, tx), None     # the live rect, in gcd tiles
    live_count = bounds[-1]                     # blocks whose best SAD is not 0
    for dy, dx in _search_order(dy_lo, dy_hi, dx_lo, dx_hi):
        if planes_for != rect:
            planes_for = r0, r1, c0, c1 = rect
            y0, y1, x0, x1 = r0 * gh, min(r1 * gh, h), c0 * gw, min(c1 * gw, w)
            part = target[y0:y1, x0:x1]
            plane_rows = (r1 - r0) * gh     # whole tiles: zero rows past y1
            size = plane_rows * (x1 - x0)
            batch = max(1, min(_CHUNK, _BATCH_BYTES // size))
            diff = stack[:batch * size].reshape(batch, plane_rows, x1 - x0)
            diff[:, y1 - y0:] = 0
            # windows[oy, ox]: the live rect's window at box offset (oy, ox).
            windows = np.lib.stride_tricks.sliding_window_view(padded[y0:, x0:], part.shape)
        oy, ox = dy - dy_lo, dx - dx_lo
        n = oy.size
        for k in range(0, n, batch):
            m = min(batch, n - k)
            if m == 1:      # in place: a view of the padded reference
                cand, planes, sums = windows[oy[k], ox[k]], diff[0], grid[k, r0:r1, c0:c1]
            else:           # one gather of m windows
                cand, planes, sums = (windows[oy[k:k + m], ox[k:k + m]], diff[:m],
                                      grid[k:k + m, r0:r1, c0:c1])
            _block_sads(part, cand, gh, gw, planes, sums)
        for (fy, fx), view in zip(ratios, views):
            _pool(grid[:n], fy, fx, view[:n])
        at = np.argmin(sads[:n], axis=0)    # the first minimum: earliest offset
        sad = sads[at, every]
        better = sad < best
        best[better] = sad[better]
        best_mv[better] = np.stack((dx, dy), axis=-1)[at[better]]
        live = best != 0
        if np.count_nonzero(live) < live_count:     # some blocks became final
            live_count = np.count_nonzero(live)
            rect = _live_rect(live, blocks, bounds, ratios, ty, tx)
            if not live_count:
                break
    mvs = best_mv * MV_UNITS_PER_PEL
    return [mvs[lo:hi].reshape(ny, nx, 2)
            for (ny, nx), lo, hi in zip(blocks, bounds, bounds[1:])]


def full_search_me(
    src: FrameBuffer, ref: FrameBuffer, block: BlockSpec, search_range: int
) -> MotionVector:
    """Exhaustive integer-pel search minimising SAD over a square window.

    Candidates reaching outside the reference replicate border pixels,
    matching the compensation path. Ties resolve to the smallest
    |mvx|+|mvy|, then smallest mvy, then smallest mvx, so the result is
    unique. The returned vector is in 1/16-pel units. The one-block case
    of ``search_fields``' kernel: a test oracle and tracer hook only.
    """
    [mv] = _search_blocks(src, ref, block.x, block.y, block.w, block.h,
                          [(block.h, block.w)], search_range)
    return MotionVector(*mv[0, 0].tolist())


def search_fields(
    src: FrameBuffer, ref: FrameBuffer, block_sizes: list[int], search_range: int
) -> list[MotionField]:
    """Full-search every block of one frame tiling per block size, in one
    frame-wide pass shared by all of them.

    Each tiling runs row by row with ``block_size`` squares, clipped at
    the right and bottom edges; the frame sides and every block size must
    be positive multiples of 4. Returns one motion field of ``src`` per
    block size, in order: each cell holds its block's vector over
    ``src.poc - ref.poc`` ticks.
    """
    if not block_sizes:
        raise ValueError("block sizes must be a non-empty list of multiples of 4, got []")
    for block_size in block_sizes:
        BlockSpec(0, 0, block_size, block_size)   # checks block_size
    interval = TimeInterval(src.poc - ref.poc)
    searched = _search_blocks(src, ref, 0, 0, src.width, src.height,
                              [(bs, bs) for bs in block_sizes], search_range)
    fields = []
    for block_size, mvs in zip(block_sizes, searched):
        field = MotionField.empty(src.poc, src.width, src.height)
        step = block_size // CELL_SIZE
        field.mv[...] = mvs[np.arange(field.cells_y)[:, None] // step,
                            np.arange(field.cells_x) // step]
        field.ref_distance[...] = interval.ticks
        fields.append(field)
    return fields


def _correct(raw: np.ndarray, init: np.ndarray, delta_max: int, th: int, tw: int):
    """The band rule over th x tw tiles of sub-block vector grids.

    ``raw`` is (..., rows, cols, 2); ``init`` broadcasts against it and
    holds each sub-block's block vector. Returns the corrected grids, in
    ``raw``'s dtype, and the clamped count of each tile before any reset,
    (..., tiles_y, tiles_x) int64. A band wider than max|raw| + max|init|
    clamps nothing, so ``delta_max`` is capped there; a band edge that
    would still leave int64 raises OverflowError instead of wrapping.
    """
    if delta_max < 0:
        raise ValueError(f"delta_max must be non-negative, got {delta_max}")
    reach = [_max_abs(raw), _max_abs(init)]
    delta = min(delta_max, sum(reach))
    if reach[1] + delta > np.iinfo(np.int64).max:
        raise OverflowError(f"band edge {reach[1] + delta} exceeds the signed 64-bit range")
    clamped = np.clip(raw, init - delta, init + delta)
    changed = np.any(clamped != raw, axis=-1)
    count = _tile_sums(changed.view(np.uint8), th, tw)
    rows, cols = changed.shape[-2:]
    reset = count * 2 > _tile_sums(np.ones((rows, cols), dtype=np.uint8), th, tw)
    reset = reset[..., np.arange(rows)[:, None] // th, np.arange(cols) // tw]
    out = np.where(reset[..., None], init, clamped)
    return out.astype(raw.dtype), count


def correct_mvs(
    subblock_mvs: np.ndarray, initial_mv: MotionVector, delta_max: int = DEFAULT_DELTA_MAX
):
    """Constrain sub-block vectors to a band around the block vector.

    Input shape (..., rows, cols, 2); leading axes batch independent
    grids. Each component is clamped into [initial - delta_max,
    initial + delta_max]. If more than half of a grid's sub-blocks needed
    clamping the whole grid resets to the initial vector; the returned
    count is the number of clamped sub-blocks before any reset (an array
    for batched input); idempotent. A test oracle and tracer hook only.
    """
    if subblock_mvs.ndim < 3 or subblock_mvs.shape[-1] != 2:
        raise ValueError(f"expected shape (..., rows, cols, 2), got {subblock_mvs.shape}")
    init = np.array([initial_mv.x, initial_mv.y], dtype=np.int64)
    rows, cols = subblock_mvs.shape[-3:-1]
    out, count = _correct(subblock_mvs, init, delta_max, rows, cols)
    if subblock_mvs.ndim == 3:
        return out, int(count[0, 0])
    return out, count[..., 0, 0]


def _predict_blocks(ref: FrameBuffer, x: int, y: int, w: int, h: int, bh: int, bw: int,
                    mvs: np.ndarray, ref_params: Optional[FieldParams] = None, t2=1,
                    delta_max: int = DEFAULT_DELTA_MAX) -> FramePrediction:
    """Predict the bh x bw blocks tiling the w x h rect at (x, y) of ``ref`` at once.

    ``mvs`` is (h/4, w/4, 2) int64: each 4x4 cell's block vector. Without
    ``ref_params`` every sub-block keeps it (uniform). With them, each
    sub-block inherits the parameters of the cell its center lands on when
    displaced by its block vector, extrapolates them ``t2`` ticks past
    their window, falls back to the block vector where they are
    unavailable and is corrected block by block (uamm); parameters
    unavailable everywhere give the uniform result exactly. ``t2`` is an int,
    or an (h/4, w/4) plane of each cell's own distance, at least 1. One
    gather compensates every sub-block.
    """
    _check_block_in_frame(ref, BlockSpec(x, y, w, h))
    if mvs.shape != (h // CELL_SIZE, w // CELL_SIZE, 2):
        raise ValueError(f"expected one vector per 4x4 cell of {w}x{h}, got {mvs.shape}")
    if ref_params is None:
        sub = mvs
        corrected = np.zeros((-(-h // bh), -(-w // bw)), dtype=np.int64)
    else:
        if np.min(t2) < 1:
            raise ValueError(f"interval t2 must be positive, got {np.min(t2)}")
        v0, acc, kind, t0, t1 = gather_params(ref_params, x, y, w, h, mvs[..., 0], mvs[..., 1])
        available = kind != ParamKind.UNAVAILABLE
        ex, ey = _extrapolate_scaled(v0[..., 0], v0[..., 1], acc[..., 0], acc[..., 1],
                                     t0, t1, t2)
        raw = np.where(available[..., None], np.stack((ex, ey), axis=-1), mvs)
        sub, corrected = _correct(raw, mvs, delta_max, bh // CELL_SIZE, bw // CELL_SIZE)
    pred = sample_subblocks(ref.luma, x, y, w, h, sub)
    return FramePrediction(pred=pred, subblock_mvs=sub, corrected=corrected)


def predict_frame(ref: FrameBuffer, field: MotionField, block_size: int,
                  ref_params: Optional[FieldParams] = None,
                  delta_max: int = DEFAULT_DELTA_MAX) -> FramePrediction:
    """Predict every block of a frame's tiling in one batch from ``ref``,
    ``field`` and ``ref_params`` alone: no source frame.

    ``field`` is ``search_fields``' result for ``block_size``, as large as
    ``ref``: each cell holds its block's vector and the ticks it spans
    back to ``ref``. Without ``ref_params`` this is ``predict_uniform``
    block by block; with the reference frame's parameters it is
    ``predict_uamm``, with one gather and one extrapolation over the
    whole cell grid, each cell over its own ref distance past its window,
    and the band clamp and majority reset block by block. A block with no
    usable parameters comes out as its uniform prediction.
    """
    return _predict_blocks(ref, 0, 0, ref.width, ref.height, block_size, block_size,
                           field.mv.astype(np.int64), ref_params, field.ref_distance, delta_max)


def predict_uniform(src: FrameBuffer, ref: FrameBuffer, block: BlockSpec, search_range: int,
                    initial_mv: Optional[MotionVector] = None) -> FramePrediction:
    """Single-vector baseline: ``predict_uamm`` with no parameters, ``src``
    feeding only the search (test oracle, tracer hook)."""
    return predict_uamm(src, ref, None, block, search_range, 1, initial_mv=initial_mv)


def predict_uamm(src: FrameBuffer, ref: FrameBuffer, ref_params: Optional[FieldParams],
                 block: BlockSpec, search_range: int, t2: int,
                 delta_max: int = DEFAULT_DELTA_MAX,
                 initial_mv: Optional[MotionVector] = None) -> FramePrediction:
    """Accelerated-model prediction of one block: ``_predict_blocks`` over
    its rect of ``ref``, every 4x4 cell carrying ``initial_mv`` or, if that
    is None, the ``full_search_me`` vector, the one use of ``src``; each
    sub-block extrapolated ``t2`` ticks past the window of the parameters
    it inherits. Where every sub-block falls back to the block vector, as
    under parameters unavailable everywhere, the result is the uniform
    baseline exactly. A test oracle and tracer hook only.
    """
    mv = initial_mv if initial_mv is not None else full_search_me(
        src, ref, block, search_range)
    mvs = np.tile(np.array([mv.x, mv.y], dtype=np.int64),
                  (block.h // CELL_SIZE, block.w // CELL_SIZE, 1))
    return _predict_blocks(ref, block.x, block.y, block.w, block.h, block.h, block.w,
                           mvs, ref_params, t2, delta_max)

"""Per-frame motion fields at 4x4-pixel cell granularity.

Each reconstructed frame keeps one cell per 4x4 block holding the coded
motion vector (fetch convention: the block at x sources its prediction
from x + mv/16 in the reference), the temporal distance that vector spans
and, after a derivation pass, the solved acceleration parameters.

Parameter derivation chains two fields: for every cell of the current
field the stored vector is followed back to the previous field, the
vector found there supplies the earlier displacement segment, and the
two-segment solver runs on the pair. Cells whose chain breaks degrade to
a linear model; cells with a zero ref distance hold no vector and stay
unavailable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import repeat
from typing import IO, TYPE_CHECKING

import numpy as np

from .kinematics import (
    MotionVector,
    ParamKind,
    TimeInterval,
    UammParams,
    _derive_scaled,
    div_round_half_away,
)

if TYPE_CHECKING:
    from .predictor import BlockSpec

CELL_SIZE = 4

_CSV_COLUMNS = ("poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind", "v0x", "v0y", "ax", "ay")
# The CSV name of each ParamKind, indexed by its value.
_KIND_NAMES = [ParamKind(v).name.capitalize() for v in range(len(ParamKind))]


@dataclass
class MotionField:
    """Cell grid for one frame. Arrays are indexed [cy, cx]."""

    poc: int
    width: int
    height: int
    mv: np.ndarray          # (cells_y, cells_x, 2) int32, 1/16-pel units
    ref_distance: np.ndarray  # (cells_y, cells_x) int32 ticks; 0: the cell has no vector
    v0: np.ndarray          # (cells_y, cells_x, 2) int64, scaled
    acc: np.ndarray         # (cells_y, cells_x, 2) int64, scaled
    kind: np.ndarray        # (cells_y, cells_x) uint8 ParamKind values

    @classmethod
    def empty(cls, poc: int, width: int, height: int) -> "MotionField":
        """A field with every cell unavailable."""
        if width < 1 or height < 1:
            raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
        cy = -(-height // CELL_SIZE)
        cx = -(-width // CELL_SIZE)
        return cls(
            poc=poc,
            width=width,
            height=height,
            mv=np.zeros((cy, cx, 2), dtype=np.int32),
            ref_distance=np.zeros((cy, cx), dtype=np.int32),
            v0=np.zeros((cy, cx, 2), dtype=np.int64),
            acc=np.zeros((cy, cx, 2), dtype=np.int64),
            kind=np.zeros((cy, cx), dtype=np.uint8),
        )

    @property
    def cells_y(self) -> int:
        return self.mv.shape[0]

    @property
    def cells_x(self) -> int:
        return self.mv.shape[1]

    def set_block_mv(self, x: int, y: int, width: int, height: int,
                     mv: MotionVector, ref_distance: TimeInterval) -> None:
        """Assign one coded vector to every cell covered by a pixel rect."""
        cy0, cy1 = y // CELL_SIZE, (y + height - 1) // CELL_SIZE + 1
        cx0, cx1 = x // CELL_SIZE, (x + width - 1) // CELL_SIZE + 1
        self.mv[cy0:cy1, cx0:cx1] = (mv.x, mv.y)
        self.ref_distance[cy0:cy1, cx0:cx1] = ref_distance.ticks


def field_from_global_mv(
    poc: int, width: int, height: int, mv: MotionVector, ref_distance: TimeInterval
) -> MotionField:
    """A field in which every cell carries the same vector (global motion)."""
    out = MotionField.empty(poc, width, height)
    out.mv[:, :] = (mv.x, mv.y)
    out.ref_distance[:, :] = ref_distance.ticks
    return out


def _displaced_cells(field: MotionField, x: int, y: int, w: int, h: int, mvx, mvy):
    """Index pair (cy, cx) into ``field``'s planes, [row, col] over the 4x4
    cells of the pixel rect (x, y, w, h): each cell center moved by the
    vector rounded to integer pixels, clamped into the frame. The vector
    (mvx, mvy) is one pair of ints, or one pair of (rows, cols) planes."""
    px = np.arange(x + CELL_SIZE // 2, x + w, CELL_SIZE) + div_round_half_away(mvx, 16)
    py = (np.arange(y + CELL_SIZE // 2, y + h, CELL_SIZE)[:, None]
          + div_round_half_away(mvy, 16))
    return (np.minimum(np.maximum(py, 0), field.height - 1) // CELL_SIZE,
            np.minimum(np.maximum(px, 0), field.width - 1) // CELL_SIZE)


def derive_field_params(curr: MotionField, prev: MotionField) -> MotionField:
    """Fill the parameter planes of ``curr`` by chaining into ``prev``.

    Returns a new field; ``curr`` is left untouched. For each cell with a
    vector, the displaced position (cell pixel center plus the vector
    rounded to integer pixels, clamped into the frame) selects a cell of
    ``prev``; a vector there completes the two-segment derivation,
    otherwise the cell falls back to a linear model with the velocity that
    reproduces its own vector. The whole grid is solved in one array pass.
    """
    if curr.poc <= prev.poc:
        raise ValueError(f"need curr.poc > prev.poc, got {curr.poc} <= {prev.poc}")
    t1 = curr.poc - prev.poc

    valid = curr.ref_distance > 0
    src = tuple(c[valid] for c in _displaced_cells(
        prev, 0, 0, curr.cells_x * CELL_SIZE, curr.cells_y * CELL_SIZE,
        curr.mv[..., 0], curr.mv[..., 1]))
    chained = prev.ref_distance[src] > 0
    mv1 = curr.mv[valid]
    # A broken chain repeats the cell's own segment (mv0 = mv1, t0 = t1): the
    # solve is then exactly zero acceleration and velocity mv1/t1, rounded once.
    mv0 = np.where(chained[:, None], prev.mv[src], mv1)
    t0 = np.where(chained, prev.ref_distance[src], t1)
    solved = _derive_scaled(mv0[:, 0], mv0[:, 1], mv1[:, 0], mv1[:, 1], t0, t1)
    out = replace(curr, mv=curr.mv.copy(),
                  ref_distance=curr.ref_distance.copy(), v0=np.zeros_like(curr.v0),
                  acc=np.zeros_like(curr.acc), kind=np.zeros_like(curr.kind))
    out.v0[valid, 0], out.v0[valid, 1], out.acc[valid, 0], out.acc[valid, 1] = solved
    out.kind[valid] = ParamKind.CONSTANT
    out.kind[out.v0.any(axis=2)] = ParamKind.LINEAR
    out.kind[out.acc.any(axis=2)] = ParamKind.ACCELERATED
    return out


def gather_params(
    ref_field: MotionField, x: int, y: int, w: int, h: int, mvx, mvy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter planes inherited by the 4x4 sub-blocks of the pixel rect
    (x, y, w, h).

    Each sub-block center is displaced by its vector, (mvx, mvy) one pair
    of ints for the rect or of (rows, cols) planes, rounded to integer
    pixels and clamped into the reference frame; the cell found there
    supplies the sub-block's parameters. Returns ``(v0, acc, kind)``
    indexed [row, col] over the sub-blocks: (rows, cols, 2) int64 twice,
    then (rows, cols) uint8 ParamKind values (possibly UNAVAILABLE).
    """
    cells = _displaced_cells(ref_field, x, y, w, h, mvx, mvy)
    return ref_field.v0[cells], ref_field.acc[cells], ref_field.kind[cells]


def inherit_params(
    ref_field: MotionField, block: "BlockSpec", mv: MotionVector
) -> list[list[UammParams]]:
    """``gather_params`` as one ``UammParams`` per sub-block, [row][col]:
    a test oracle and tracer hook until the tracer wraps the frame kernels."""
    v0, acc, kind = gather_params(ref_field, block.x, block.y, block.w, block.h,
                                  mv.x, mv.y)
    return [
        [UammParams(vx, vy, ax, ay, ParamKind(k))
         for (vx, vy), (ax, ay), k in zip(v0_row, acc_row, kind_row)]
        for v0_row, acc_row, kind_row in zip(v0.tolist(), acc.tolist(), kind.tolist())
    ]


def dump_field_csv(field_obj: MotionField, stream: IO[str]) -> None:
    """Write one row per cell. Cells without a vector leave mv columns empty.

    Rows are formatted one cell row at a time from the planes' values.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for cy in range(field_obj.cells_y):
        mvx, mvy = field_obj.mv[cy].T.tolist()
        dist = field_obj.ref_distance[cy].tolist()
        for cx in np.flatnonzero(field_obj.ref_distance[cy] <= 0).tolist():
            mvx[cx] = mvy[cx] = dist[cx] = ""
        kinds = [_KIND_NAMES[k] for k in field_obj.kind[cy].tolist()]
        v0x, v0y = field_obj.v0[cy].T.tolist()
        ax, ay = field_obj.acc[cy].T.tolist()
        writer.writerows(zip(repeat(field_obj.poc), range(field_obj.cells_x), repeat(cy),
                             mvx, mvy, dist, kinds, v0x, v0y, ax, ay))

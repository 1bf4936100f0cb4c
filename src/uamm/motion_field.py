"""Per-frame motion fields at 4x4-pixel cell granularity.

Each reconstructed frame keeps one cell per 4x4 block holding the coded
motion vector (fetch convention: the block at x sources its prediction
from x + mv/16 in the reference), the temporal distance that vector spans
and, after a derivation pass, the solved acceleration parameters.

Parameter derivation chains two fields: for every cell of the current
field the stored vector is followed back to the previous field, the
vector found there supplies the earlier displacement segment, and the
two-segment solver runs on the pair. Cells whose chain breaks degrade to
a linear model; cells without any vector stay unavailable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Optional

import numpy as np

from .kinematics import (
    PARAM_SCALE,
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


@dataclass(frozen=True)
class FieldCell:
    """One cell's view of a motion field: vector, distance, parameters."""

    mv: Optional[MotionVector]
    ref_distance: Optional[TimeInterval]
    params: UammParams


@dataclass
class MotionField:
    """Cell grid for one frame. Arrays are indexed [cy, cx]."""

    poc: int
    width: int
    height: int
    mv: np.ndarray          # (cells_y, cells_x, 2) int32, 1/16-pel units
    mv_valid: np.ndarray    # (cells_y, cells_x) bool
    ref_distance: np.ndarray  # (cells_y, cells_x) int32 ticks, 0 where invalid
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
            mv_valid=np.zeros((cy, cx), dtype=bool),
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
        self.mv_valid[cy0:cy1, cx0:cx1] = True
        self.ref_distance[cy0:cy1, cx0:cx1] = ref_distance.ticks

    def cell_at(self, px: int, py: int) -> FieldCell:
        """The cell covering pixel (px, py). Out-of-frame raises IndexError."""
        if not (0 <= px < self.width and 0 <= py < self.height):
            raise IndexError(
                f"pixel ({px}, {py}) outside frame {self.width}x{self.height}"
            )
        cx, cy = px // CELL_SIZE, py // CELL_SIZE
        return self._cell(cx, cy)

    def _cell(self, cx: int, cy: int) -> FieldCell:
        valid = bool(self.mv_valid[cy, cx])
        mv = MotionVector(*self.mv[cy, cx]) if valid else None
        dist = TimeInterval(int(self.ref_distance[cy, cx])) if valid else None
        params = UammParams(
            int(self.v0[cy, cx, 0]),
            int(self.v0[cy, cx, 1]),
            int(self.acc[cy, cx, 0]),
            int(self.acc[cy, cx, 1]),
            ParamKind(int(self.kind[cy, cx])),
        )
        return FieldCell(mv=mv, ref_distance=dist, params=params)


def field_from_global_mv(
    poc: int, width: int, height: int, mv: MotionVector, ref_distance: TimeInterval
) -> MotionField:
    """A field in which every cell carries the same vector (global motion)."""
    out = MotionField.empty(poc, width, height)
    out.mv[:, :] = (mv.x, mv.y)
    out.mv_valid[:, :] = True
    out.ref_distance[:, :] = ref_distance.ticks
    return out


def derive_field_params(curr: MotionField, prev: MotionField) -> MotionField:
    """Fill the parameter planes of ``curr`` by chaining into ``prev``.

    Returns a new field; ``curr`` is left untouched. For each cell with a
    vector, the displaced position (cell pixel center plus the vector
    rounded to integer pixels, clamped into the frame) selects a cell of
    ``prev``; a vector there completes the two-segment derivation,
    otherwise the cell falls back to a linear model with the velocity that
    reproduces its own vector.
    """
    if curr.poc <= prev.poc:
        raise ValueError(f"need curr.poc > prev.poc, got {curr.poc} <= {prev.poc}")
    t1 = curr.poc - prev.poc

    v0 = np.zeros_like(curr.v0)
    acc = np.zeros_like(curr.acc)
    kind = np.zeros_like(curr.kind)

    for cy in range(curr.cells_y):
        for cx in range(curr.cells_x):
            if not curr.mv_valid[cy, cx]:
                continue
            mv1x = int(curr.mv[cy, cx, 0])
            mv1y = int(curr.mv[cy, cx, 1])
            px = cx * CELL_SIZE + CELL_SIZE // 2 + div_round_half_away(mv1x, 16)
            py = cy * CELL_SIZE + CELL_SIZE // 2 + div_round_half_away(mv1y, 16)
            px = min(max(px, 0), prev.width - 1)
            py = min(max(py, 0), prev.height - 1)
            pcx, pcy = px // CELL_SIZE, py // CELL_SIZE
            if prev.mv_valid[pcy, pcx]:
                t0 = int(prev.ref_distance[pcy, pcx])
                mv0x = int(prev.mv[pcy, pcx, 0])
                mv0y = int(prev.mv[pcy, pcx, 1])
                dv0x, dv0y, dax, day = _derive_scaled(mv0x, mv0y, mv1x, mv1y, t0, t1)
            else:
                dv0x = div_round_half_away(mv1x * PARAM_SCALE, t1)
                dv0y = div_round_half_away(mv1y * PARAM_SCALE, t1)
                dax = day = 0
            p = UammParams.classify(dv0x, dv0y, dax, day)
            v0[cy, cx] = (p.v0x, p.v0y)
            acc[cy, cx] = (p.ax, p.ay)
            kind[cy, cx] = int(p.kind)

    return MotionField(
        poc=curr.poc,
        width=curr.width,
        height=curr.height,
        mv=curr.mv.copy(),
        mv_valid=curr.mv_valid.copy(),
        ref_distance=curr.ref_distance.copy(),
        v0=v0,
        acc=acc,
        kind=kind,
    )


def gather_params(
    ref_field: MotionField, block: "BlockSpec", mv: MotionVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter planes inherited by the 4x4 sub-blocks of a block.

    Each sub-block center is displaced by ``mv`` rounded to integer pixels
    and clamped into the reference frame; the cell found there supplies
    the sub-block's parameters. Returns ``(v0, acc, kind)`` indexed
    [row, col] over the sub-blocks: (rows, cols, 2) int64 twice, then
    (rows, cols) uint8 ParamKind values (possibly UNAVAILABLE).
    """
    center = CELL_SIZE // 2
    px = np.arange(block.x + center, block.x + block.w, CELL_SIZE)
    py = np.arange(block.y + center, block.y + block.h, CELL_SIZE)
    px += div_round_half_away(mv.x, 16)
    py += div_round_half_away(mv.y, 16)
    cx = np.minimum(np.maximum(px, 0), ref_field.width - 1) // CELL_SIZE
    cy = (np.minimum(np.maximum(py, 0), ref_field.height - 1) // CELL_SIZE)[:, None]
    return ref_field.v0[cy, cx], ref_field.acc[cy, cx], ref_field.kind[cy, cx]


def inherit_params(
    ref_field: MotionField, block: "BlockSpec", mv: MotionVector
) -> list[list[UammParams]]:
    """``gather_params`` as one ``UammParams`` per sub-block, [row][col]."""
    v0, acc, kind = gather_params(ref_field, block, mv)
    return [
        [UammParams(vx, vy, ax, ay, ParamKind(k))
         for (vx, vy), (ax, ay), k in zip(v0_row, acc_row, kind_row)]
        for v0_row, acc_row, kind_row in zip(v0.tolist(), acc.tolist(), kind.tolist())
    ]


def dump_field_csv(field_obj: MotionField, stream: IO[str]) -> None:
    """Write one row per cell. Cells without a vector leave mv columns empty."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for cy in range(field_obj.cells_y):
        for cx in range(field_obj.cells_x):
            valid = bool(field_obj.mv_valid[cy, cx])
            kind = ParamKind(int(field_obj.kind[cy, cx]))
            writer.writerow([
                field_obj.poc,
                cx,
                cy,
                int(field_obj.mv[cy, cx, 0]) if valid else "",
                int(field_obj.mv[cy, cx, 1]) if valid else "",
                int(field_obj.ref_distance[cy, cx]) if valid else "",
                kind.name.capitalize(),
                int(field_obj.v0[cy, cx, 0]),
                int(field_obj.v0[cy, cx, 1]),
                int(field_obj.acc[cy, cx, 0]),
                int(field_obj.acc[cy, cx, 1]),
            ])

"""Per-frame motion fields at 4x4-pixel cell granularity.

Each reconstructed frame keeps one cell per 4x4 block holding the coded
motion vector (fetch convention: the block at x sources its prediction
from x + mv/16 in the reference) and the temporal distance that vector
spans. Derived parameters live apart, in ``FieldParams``.

Parameter derivation chains two fields: every cell's window ends with its
own vector, over its own ref distance. The vector is followed back to the
previous field, and where a vector there ends where this one starts, it
supplies the earlier displacement segment and the two-segment solver runs
on the pair. Cells whose chain breaks degrade to a linear model; cells
with a zero ref distance hold no vector and stay unavailable.

Derivation and inheritance read the cells of a field by one flat index,
``cy * cells_x + cx``. Derivation solves, and the CSV dump formats, a
chunk of whole cell rows at a time, so neither holds temporaries that
grow with the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

import numpy as np

from .kinematics import (
    MV_UNITS_PER_PEL,
    MotionVector,
    ParamKind,
    TimeInterval,
    UammParams,
    _derive_scaled,
    div_round_half_away,
    param_kind,
)

if TYPE_CHECKING:
    from .predictor import BlockSpec

CELL_SIZE = 4

_CSV_COLUMNS = ("poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind", "v0x", "v0y", "ax", "ay")
# The CSV name of each ParamKind, indexed by its value.
_KIND_NAMES = [ParamKind(v).name.capitalize() for v in range(len(ParamKind))]
_KIND = _CSV_COLUMNS.index("kind")
# Bytes of the text block one dump_field_csv chunk formats (whole cell rows,
# at least one); its mask, values and compress indices take about 9x more.
_DUMP_BYTES = 64 * 1024
# Cells one derive_field_params chunk solves (whole cell rows, at least one).
_DERIVE_CELLS = 4096


@dataclass
class MotionField:
    """Cell grid for one frame, a cell per started 4x4 block. Arrays are indexed [cy, cx]."""

    poc: int
    mv: np.ndarray          # (cells_y, cells_x, 2) int32, 1/16-pel units
    ref_distance: np.ndarray  # (cells_y, cells_x) int32 ticks; 0: the cell has no vector

    @classmethod
    def empty(cls, poc: int, width: int, height: int) -> "MotionField":
        """The grid of a ``width`` x ``height`` frame, every cell unavailable."""
        if width < 1 or height < 1:
            raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
        cells = (-(-height // CELL_SIZE), -(-width // CELL_SIZE))
        return cls(poc, np.zeros((*cells, 2), dtype=np.int32),
                   np.zeros(cells, dtype=np.int32))

    @property
    def cells_y(self) -> int:
        return self.mv.shape[0]

    @property
    def cells_x(self) -> int:
        return self.mv.shape[1]


@dataclass
class FieldParams:
    """Parameters derived for each cell of ``field`` (held, not copied),
    indexed [cy, cx], each solved over its window: ``t0`` ticks, then the
    cell's ``field.ref_distance``, both 0 where the kind is UNAVAILABLE."""

    field: MotionField
    v0: np.ndarray          # (cells_y, cells_x, 2) int64, scaled
    acc: np.ndarray         # (cells_y, cells_x, 2) int64, scaled
    kind: np.ndarray        # (cells_y, cells_x) uint8 ParamKind values
    t0: np.ndarray          # (cells_y, cells_x) int64 ticks

    @classmethod
    def unavailable(cls, field: MotionField) -> "FieldParams":
        """Parameters of ``field`` with every cell unavailable."""
        cells = field.ref_distance.shape
        return cls(field, np.zeros((*cells, 2), dtype=np.int64),
                   np.zeros((*cells, 2), dtype=np.int64), np.zeros(cells, dtype=np.uint8),
                   np.zeros(cells, dtype=np.int64))


def field_from_global_mv(
    poc: int, width: int, height: int, mv: MotionVector, ref_distance: TimeInterval
) -> MotionField:
    """A field in which every cell carries the same vector (global motion)."""
    out = MotionField.empty(poc, width, height)
    out.mv[:, :] = (mv.x, mv.y)
    out.ref_distance[:, :] = ref_distance.ticks
    return out


def _displaced_cells(field: MotionField, x: int, y: int, w: int, h: int, mvx, mvy):
    """Flat index ``cy * cells_x + cx`` into ``field``'s planes, [row, col]
    over the 4x4 cells of the pixel rect (x, y, w, h): each cell center
    moved by the vector rounded to integer pixels, its cell clamped into
    the grid: the cell of the nearest frame pixel. (mvx, mvy) is one pair
    of ints, or one pair of (rows, cols) planes."""
    cx = (np.arange(x + CELL_SIZE // 2, x + w, CELL_SIZE)
          + div_round_half_away(mvx, MV_UNITS_PER_PEL)) // CELL_SIZE
    cy = (np.arange(y + CELL_SIZE // 2, y + h, CELL_SIZE)[:, None]
          + div_round_half_away(mvy, MV_UNITS_PER_PEL)) // CELL_SIZE
    return (np.minimum(np.maximum(cy, 0), field.cells_y - 1) * field.cells_x
            + np.minimum(np.maximum(cx, 0), field.cells_x - 1))


def _take(plane: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The entries of a [cy, cx, ...] plane at flat cell indices ``cells``."""
    return plane.reshape(-1, *plane.shape[2:]).take(cells, axis=0)


def derive_field_params(curr: MotionField, prev: MotionField) -> FieldParams:
    """The parameters of ``curr``, chaining into ``prev``; neither is written.

    For each cell with a vector, over its ref distance t1, the displaced
    position (cell pixel center plus the vector rounded to integer pixels,
    clamped into the frame) selects a cell of ``prev``. A vector there
    that ends where this one starts (t1 = ``curr.poc - prev.poc``)
    completes the two-segment derivation over the window (its ref
    distance, t1); otherwise the cell falls back to a linear model with
    the velocity that reproduces its own vector, over (t1, t1). The whole
    grid is solved a chunk of whole cell rows at a time, at most
    ``_DERIVE_CELLS`` cells (and at least one row) per chunk, so the
    temporaries stay flat in the field size. A cell without a vector
    solves a zero vector over (1, 1), which gives exactly zero parameters,
    and is written UNAVAILABLE over the window (0, 0).
    """
    if curr.poc <= prev.poc:
        raise ValueError(f"need curr.poc > prev.poc, got {curr.poc} <= {prev.poc}")

    out = FieldParams.unavailable(curr)
    gap, width = curr.poc - prev.poc, curr.cells_x * CELL_SIZE
    rows = max(1, min(curr.cells_y, _DERIVE_CELLS // curr.cells_x))
    for r0 in range(0, curr.cells_y, rows):
        chunk = slice(r0, min(r0 + rows, curr.cells_y))
        valid = curr.ref_distance[chunk] > 0
        mv1 = curr.mv[chunk] * valid[..., None]
        t1 = np.where(valid, curr.ref_distance[chunk], 1)
        src = _displaced_cells(prev, 0, r0 * CELL_SIZE, width, len(valid) * CELL_SIZE,
                               mv1[..., 0], mv1[..., 1])
        t0 = _take(prev.ref_distance, src)
        chained = valid & (t0 > 0) & (t1 == gap)
        # A broken chain repeats the cell's own segment (mv0 = mv1, t0 = t1): the
        # solve is then exactly zero acceleration and velocity mv1/t1, rounded once.
        mv0 = np.where(chained[..., None], _take(prev.mv, src), mv1)
        t0 = np.where(chained, t0, t1)
        solved = _derive_scaled(mv0[..., 0], mv0[..., 1], mv1[..., 0], mv1[..., 1], t0, t1)
        (out.v0[chunk, :, 0], out.v0[chunk, :, 1],
         out.acc[chunk, :, 0], out.acc[chunk, :, 1]) = solved
        out.t0[chunk] = t0 * valid
        out.kind[chunk] = param_kind(*solved) * valid
    return out


def gather_params(params: FieldParams, x: int, y: int, w: int, h: int, mvx, mvy
                  ) -> tuple[np.ndarray, ...]:
    """Parameter planes inherited by the 4x4 sub-blocks of the pixel rect
    (x, y, w, h).

    Each sub-block center is displaced by its vector, (mvx, mvy) one pair
    of ints for the rect or of (rows, cols) planes, rounded to integer
    pixels and clamped into the reference frame; the cell found there
    supplies the sub-block's parameters. Returns ``(v0, acc, kind, t0, t1)``
    indexed [row, col] over the sub-blocks: (rows, cols, 2) int64 twice,
    (rows, cols) uint8 ParamKind values (possibly UNAVAILABLE), then the
    window, (rows, cols) int64 ``t0`` and the cells' int32 ref distances.
    """
    cells = _displaced_cells(params.field, x, y, w, h, mvx, mvy)
    return tuple(_take(p, cells) for p in (params.v0, params.acc, params.kind,
                                           params.t0, params.field.ref_distance))


def inherit_params(
    params: FieldParams, block: "BlockSpec", mv: MotionVector
) -> list[list[UammParams]]:
    """``gather_params`` as one ``UammParams`` per sub-block, [row][col]:
    a test oracle and tracer hook until the tracer wraps the frame kernels."""
    v0, acc, kind, _, _ = gather_params(params, block.x, block.y, block.w, block.h,
                                        mv.x, mv.y)
    return [
        [UammParams(vx, vy, ax, ay, ParamKind(k))
         for (vx, vy), (ax, ay), k in zip(v0_row, acc_row, kind_row)]
        for v0_row, acc_row, kind_row in zip(v0.tolist(), acc.tolist(), kind.tolist())
    ]


def dump_field_csv(params: FieldParams, stream: IO[str]) -> None:
    """Write one row per cell of ``params.field``, cy-major, with its
    parameters. Cells without a vector leave the mv columns empty.

    Rows are formatted by integer array arithmetic, a chunk of whole cell
    rows at a time, in a byte block of up to ``_DUMP_BYTES``. A row is a
    run of equal slots, each a sign byte, the digits of the field's widest
    value and a comma (a newline ends the row). Every integer column takes
    one slot, its value right-aligned; the kind's name, from a table, takes
    as many slots as it needs. A mask of the bytes that stay (the sign of a
    negative value, its significant digits and always its units digit, the
    name's letters) compresses each chunk's block to its text, which is
    written at once.
    """
    f = params.field
    stream.write(",".join(_CSV_COLUMNS) + "\n")
    planes = (f.mv[..., 0], f.mv[..., 1], f.ref_distance,
              params.v0[..., 0], params.v0[..., 1], params.acc[..., 0], params.acc[..., 1])
    digits = len(str(max(abs(f.poc), f.cells_x, f.cells_y,
                         *(max(-int(p.min()), int(p.max())) for p in planes))))
    slot = digits + 2
    sign, units = 0, slot - 2
    kind_slots = -(-(max(map(len, _KIND_NAMES)) + 1) // slot)   # name and comma
    name = slice(_KIND * slot, (_KIND + kind_slots) * slot - 1)   # bytes of a row
    name_width = name.stop - name.start
    names = np.array([list(n.ljust(name_width).encode()) for n in _KIND_NAMES], np.uint8)
    letters = np.arange(name_width) < np.array([[len(n)] for n in _KIND_NAMES])

    columns = len(_CSV_COLUMNS) - 1 + kind_slots
    rows = max(1, min(f.cells_y, _DUMP_BYTES // (f.cells_x * columns * slot)))
    # [cell, slot, byte]: one flat stride reaches the same byte of every slot
    block = np.zeros((rows * f.cells_x, columns, slot), dtype=np.uint8)
    keep = np.zeros(block.shape, dtype=bool)
    block[:, :, sign] = ord("-")
    block[:, :, -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    keep[:, :, -1] = keep[:, :, units] = True
    values = np.zeros(block.shape[:2], dtype=np.int64)    # the kind's slots hold 0
    values[:, 0] = f.poc
    values[:, 1] = np.tile(np.arange(f.cells_x), rows)
    for r0 in range(0, f.cells_y, rows):
        r1 = min(r0 + rows, f.cells_y)
        n = (r1 - r0) * f.cells_x
        v, b, k = values[:n], block[:n], keep[:n]
        v[:, 2] = np.arange(r0, r1).repeat(f.cells_x)
        v[:, 3:5] = f.mv[r0:r1].reshape(n, 2)
        v[:, 5] = f.ref_distance[r0:r1].reshape(n)
        hidden = v[:, 5] <= 0
        v[hidden, 3:6] = 0                    # no sign, no digits ...
        k[:, 3:6, units] = ~hidden[:, None]   # ... and no units digit
        v[:, -4:-2] = params.v0[r0:r1].reshape(n, 2)
        v[:, -2:] = params.acc[r0:r1].reshape(n, 2)
        np.less(v, 0, out=k[:, :, sign])
        mag = np.abs(v).view(np.uint64)       # |-2**63| wraps to the bits of 2**63
        for p in range(units, sign, -1):
            if p < units:
                np.greater(mag, 0, out=k[:, :, p])
            q = mag // 10
            mag -= q * 10                     # the digit; mag % 10 is 5-7x slower
            np.add(mag, ord("0"), out=b[:, :, p], casting="unsafe")
            mag = q
        kinds = params.kind[r0:r1].reshape(n)
        b.reshape(n, -1)[:, name] = names[kinds]
        k.reshape(n, -1)[:, name] = letters[kinds]
        stream.write(np.compress(k.reshape(-1), b).tobytes().decode("ascii"))

"""Motion field storage, the chained derivation pass, inheritance, CSV dump."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uamm import (
    MV_MAX,
    PARAM_SCALE,
    BlockSpec,
    MotionField,
    MotionVector,
    ParamKind,
    TimeInterval,
    UammParams,
    derive_field_params,
    dump_field_csv,
    extrapolate_mv,
    field_from_global_mv,
    div_round_half_away,
    inherit_params,
)
from uamm.kinematics import _derive_scaled
from uamm.motion_field import gather_params

P = PARAM_SCALE
TICK = TimeInterval(1)


def global_field(poc, w, h, mvx, mvy, ticks=1):
    return field_from_global_mv(poc, w, h, MotionVector(mvx, mvy),
                                TimeInterval(ticks))


# ----------------------------------------------------------------- lookup

def test_cell_at_origin_and_division():
    f = MotionField.empty(0, 8, 8)
    f.set_block_mv(0, 0, 4, 4, MotionVector(1, 2), TICK)
    assert f.cell_at(0, 0).mv == MotionVector(1, 2)
    assert f.cell_at(3, 3).mv == MotionVector(1, 2)
    # (7, 4) lives in cell (1, 1), which is still empty
    assert f.cell_at(7, 4).mv is None


def test_cell_at_last_pixel_is_last_cell():
    f = MotionField.empty(0, 16, 12)
    f.set_block_mv(12, 8, 4, 4, MotionVector(5, 5), TICK)
    cell = f.cell_at(15, 11)
    assert cell.mv == MotionVector(5, 5)
    assert cell.ref_distance == TICK


@pytest.mark.parametrize("px,py", [(-1, 0), (0, -1), (16, 0), (0, 12), (99, 99)])
def test_cell_at_out_of_bounds_raises(px, py):
    f = MotionField.empty(0, 16, 12)
    with pytest.raises(IndexError):
        f.cell_at(px, py)


def test_empty_field_is_all_unavailable():
    f = MotionField.empty(3, 12, 8)
    for py in range(0, 8, 4):
        for px in range(0, 12, 4):
            cell = f.cell_at(px, py)
            assert cell.mv is None
            assert cell.ref_distance is None
            assert cell.params.kind == ParamKind.UNAVAILABLE


def test_set_block_mv_covers_exactly_the_rect():
    f = MotionField.empty(0, 16, 16)
    f.set_block_mv(4, 4, 8, 8, MotionVector(7, -7), TICK)
    assert f.mv_valid.sum() == 4
    assert f.cell_at(4, 4).mv == MotionVector(7, -7)
    assert f.cell_at(11, 11).mv == MotionVector(7, -7)
    assert f.cell_at(0, 0).mv is None
    assert f.cell_at(12, 4).mv is None


# -------------------------------------------------------------- derivation

def test_derive_chained_pair():
    prev = global_field(1, 16, 16, 2, 0)
    curr = global_field(2, 16, 16, 4, 0)
    out = derive_field_params(curr, prev)
    cell = out.cell_at(0, 0)
    assert cell.params.kind == ParamKind.ACCELERATED
    assert (cell.params.v0x, cell.params.ax) == (P, 2 * P)
    assert (cell.params.v0y, cell.params.ay) == (0, 0)
    # every cell of a global pair derives identically
    assert np.all(out.kind == int(ParamKind.ACCELERATED))


def test_derive_broken_chain_falls_back_to_linear():
    prev = MotionField.empty(1, 16, 16)
    curr = global_field(2, 16, 16, 4, 0)
    out = derive_field_params(curr, prev)
    cell = out.cell_at(0, 0)
    assert cell.params == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)


def test_derive_static_broken_chain_is_constant():
    prev = MotionField.empty(1, 16, 16)
    curr = global_field(2, 16, 16, 0, 0)
    out = derive_field_params(curr, prev)
    assert np.all(out.kind == int(ParamKind.CONSTANT))


def test_derive_no_vector_stays_unavailable():
    prev = global_field(1, 16, 16, 2, 0)
    curr = MotionField.empty(2, 16, 16)
    curr.set_block_mv(0, 0, 4, 4, MotionVector(4, 0), TICK)
    out = derive_field_params(curr, prev)
    assert out.cell_at(0, 0).params.kind == ParamKind.ACCELERATED
    assert out.cell_at(8, 8).params.kind == ParamKind.UNAVAILABLE


def test_derive_requires_increasing_poc():
    a = MotionField.empty(1, 8, 8)
    b = MotionField.empty(1, 8, 8)
    with pytest.raises(ValueError):
        derive_field_params(a, b)


def test_derive_uses_poc_difference_as_interval():
    # two-tick gap: same vector halves the fallback velocity
    prev = MotionField.empty(1, 8, 8)
    curr = global_field(3, 8, 8, 8, 0)
    out = derive_field_params(curr, prev)
    assert out.cell_at(0, 0).params == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)


def test_derive_follows_the_stored_vector():
    """The chain reads the displaced cell of the previous field, not the
    co-located one."""
    prev = MotionField.empty(1, 16, 8)
    prev.set_block_mv(4, 0, 4, 4, MotionVector(32, 0), TICK)  # only cell (0,1)
    curr = MotionField.empty(2, 16, 8)
    curr.set_block_mv(0, 0, 4, 4, MotionVector(64, 0), TICK)
    out = derive_field_params(curr, prev)
    # center (2,2) + 64/16 px lands at (6,2): cell (0,1) of prev
    p = out.cell_at(0, 0).params
    assert p.kind == ParamKind.ACCELERATED
    assert (p.v0x, p.ax) == (16 * P, 32 * P)


def test_derive_clamps_displaced_position_to_border():
    prev = MotionField.empty(1, 16, 8)
    prev.set_block_mv(12, 0, 4, 4, MotionVector(2, 0), TICK)  # last column only
    curr = MotionField.empty(2, 16, 8)
    curr.set_block_mv(12, 0, 4, 4, MotionVector(4096, 0), TICK)  # 256 px right
    out = derive_field_params(curr, prev)
    # clamped to pixel 15 -> last-column cell, which has a vector
    assert out.cell_at(12, 0).params.kind == ParamKind.ACCELERATED


def test_derive_never_accelerated_with_zero_acceleration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        prev = MotionField.empty(1, 16, 16)
        curr = MotionField.empty(2, 16, 16)
        for f in (prev, curr):
            for y in range(0, 16, 4):
                for x in range(0, 16, 4):
                    if rng.random() < 0.7:
                        f.set_block_mv(x, y, 4, 4,
                                       MotionVector(int(rng.integers(-48, 49)),
                                                    int(rng.integers(-48, 49))),
                                       TICK)
        out = derive_field_params(curr, prev)
        accelerated = out.kind == int(ParamKind.ACCELERATED)
        zero_acc = np.all(out.acc == 0, axis=-1)
        assert not np.any(accelerated & zero_acc)


def test_derive_leaves_input_untouched_and_copies_planes():
    prev = global_field(1, 8, 8, 2, 0)
    curr = global_field(2, 8, 8, 4, 0)
    out = derive_field_params(curr, prev)
    assert np.all(curr.kind == 0)
    out.mv[0, 0] = (999, 999)
    assert tuple(curr.mv[0, 0]) == (4, 0)


def test_derive_recovers_global_trajectory_and_extrapolates_the_chain():
    """Fields taken from one constant-acceleration trajectory derive the
    same parameters in every cell, and extrapolating them yields exactly
    the next frame's fetch vector."""
    v0, a = 16, 32  # 1/16-pel per frame, per frame^2
    fetch = lambda k: -(v0 + a * k - a // 2)  # block at frame k fetches this
    for j in range(2, 5):
        prev = global_field(j - 1, 32, 32, fetch(j - 1), 0)
        curr = global_field(j, 32, 32, fetch(j), 0)
        out = derive_field_params(curr, prev)
        p = out.cell_at(16, 16).params
        assert p.ax == -a * P
        assert p.v0x == -(v0 + a * (j - 2)) * P
        assert np.all(out.kind == int(ParamKind.ACCELERATED))
        nxt = extrapolate_mv(p, TICK, TICK, TICK)
        assert nxt == MotionVector(fetch(j + 1), 0)


def test_derive_overflow_raises_instead_of_wrapping():
    """Planes written directly can hold int32 values no MotionVector allows;
    the array solve must raise on them, not wrap."""
    prev, curr = MotionField.empty(1, 8, 8), MotionField.empty(2, 8, 8)
    for f in (prev, curr):
        f.mv[...] = (2**30, 0)
        f.mv_valid[...] = True
    prev.ref_distance[...] = 2**30
    curr.ref_distance[...] = 1
    with pytest.raises(OverflowError):
        derive_field_params(curr, prev)


@st.composite
def _random_field_pair(draw):
    """Two fields of one random size, often not a multiple of 4, with random
    masks, vectors within a few pels or anywhere up to +-MV_MAX, per-cell
    ref distances 1-4 and a poc gap of 1-3."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for poc in (4, 4 + draw(st.integers(1, 3))):
        f = MotionField.empty(poc, w, h)
        f.mv_valid[...] = rng.random(f.mv_valid.shape) < draw(st.sampled_from([0, 0.5, 0.9, 1]))
        limit = draw(st.sampled_from([80, MV_MAX]))
        f.mv[...] = rng.integers(-limit, limit + 1, f.mv.shape) * f.mv_valid[..., None]
        f.ref_distance[...] = rng.integers(1, 5, f.ref_distance.shape) * f.mv_valid
        fields.append(f)
    return fields


@given(_random_field_pair())
def test_derive_field_matches_the_per_cell_solve(pair):
    """The whole-grid derivation against a per-cell reference: ``cell_at``
    of ``prev`` at the displaced, clamped cell center, then the scalar
    solver or the linear fallback, then ``UammParams.classify``."""
    prev, curr = pair
    t1 = curr.poc - prev.poc
    out = derive_field_params(curr, prev)
    for cy in range(curr.cells_y):
        for cx in range(curr.cells_x):
            want = UammParams.unavailable()
            if curr.mv_valid[cy, cx]:
                mvx, mvy = (int(v) for v in curr.mv[cy, cx])
                px = 4 * cx + 2 + div_round_half_away(mvx, 16)
                py = 4 * cy + 2 + div_round_half_away(mvy, 16)
                src = prev.cell_at(min(max(px, 0), prev.width - 1),
                                   min(max(py, 0), prev.height - 1))
                if src.mv is None:
                    solved = (div_round_half_away(mvx * P, t1),
                              div_round_half_away(mvy * P, t1), 0, 0)
                else:
                    solved = _derive_scaled(src.mv.x, src.mv.y, mvx, mvy,
                                            src.ref_distance.ticks, t1)
                want = UammParams.classify(*solved)
            assert (tuple(out.v0[cy, cx]), tuple(out.acc[cy, cx]), out.kind[cy, cx]) == (
                (want.v0x, want.v0y), (want.ax, want.ay), int(want.kind))


# ------------------------------------------------------------- inheritance

def _field_with_cell_params(w, h, assign):
    """Build a field and hand-fill parameter planes: assign(cx, cy) -> params."""
    f = MotionField.empty(0, w, h)
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            p = assign(cx, cy)
            f.v0[cy, cx] = (p.v0x, p.v0y)
            f.acc[cy, cx] = (p.ax, p.ay)
            f.kind[cy, cx] = int(p.kind)
    return f


def test_inherit_identity_displacement_uniform_field():
    uniform = UammParams(3 * P, 0, 2 * P, 0, ParamKind.ACCELERATED)
    f = _field_with_cell_params(16, 16, lambda cx, cy: uniform)
    grid = inherit_params(f, BlockSpec(0, 0, 8, 8), MotionVector(0, 0))
    assert len(grid) == 2 and len(grid[0]) == 2
    assert all(p == uniform for row in grid for p in row)


def test_inherit_out_of_frame_uses_border_cell():
    border = UammParams(9 * P, 0, 0, 0, ParamKind.LINEAR)
    inner = UammParams(P, 0, 0, 0, ParamKind.LINEAR)

    def assign(cx, cy):
        return border if cx == 3 else inner

    f = _field_with_cell_params(16, 16, assign)
    grid = inherit_params(f, BlockSpec(8, 8, 8, 8), MotionVector(4096, 0))
    assert all(p == border for row in grid for p in row)


def test_inherit_straddles_a_parameter_boundary():
    left = UammParams(P, 0, 2 * P, 0, ParamKind.ACCELERATED)
    right = UammParams(5 * P, 0, 0, 0, ParamKind.LINEAR)

    def assign(cx, cy):
        return left if cx < 2 else right

    f = _field_with_cell_params(16, 8, assign)
    grid = inherit_params(f, BlockSpec(0, 0, 16, 8), MotionVector(0, 0))
    assert [p for p in grid[0]] == [left, left, right, right]
    assert grid[0] == grid[1]


def test_inherit_rounds_the_displacement_to_pixels():
    a = UammParams(P, 0, 0, 0, ParamKind.LINEAR)
    b = UammParams(2 * P, 0, 0, 0, ParamKind.LINEAR)

    def assign(cx, cy):
        return a if cx == 0 else b

    f = _field_with_cell_params(8, 4, assign)
    block = BlockSpec(0, 0, 4, 4)
    # center pixel 2: +8 units rounds to +1 px -> still cell 0
    assert inherit_params(f, block, MotionVector(8, 0))[0][0] == a
    # +24 units rounds to +2 px -> pixel 4 -> cell 1
    assert inherit_params(f, block, MotionVector(24, 0))[0][0] == b


def test_inherit_is_total_on_empty_fields():
    f = MotionField.empty(0, 16, 16)
    grid = inherit_params(f, BlockSpec(4, 4, 8, 8), MotionVector(-300, 77))
    assert all(p.kind == ParamKind.UNAVAILABLE for row in grid for p in row)


@st.composite
def _random_inheritance(draw):
    """A field with random parameters, a block inside it, and vectors."""
    w, h = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    f = MotionField.empty(0, w, h)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v0 = rng.integers(-5000, 5001, f.v0.shape)
    acc = rng.integers(-500, 501, f.acc.shape)
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            p = UammParams.classify(*v0[cy, cx], *acc[cy, cx])
            if rng.random() < 0.3:
                p = UammParams.unavailable()
            f.v0[cy, cx] = (p.v0x, p.v0y)
            f.acc[cy, cx] = (p.ax, p.ay)
            f.kind[cy, cx] = int(p.kind)
    bw = 4 * draw(st.integers(1, w // 4))
    bh = 4 * draw(st.integers(1, h // 4))
    bx = draw(st.sampled_from([0, w - bw, draw(st.integers(0, w - bw))]))
    by = draw(st.sampled_from([0, h - bh, draw(st.integers(0, h - bh))]))
    # Vectors within a few pels, where rounding picks the cell, and one anywhere.
    mvs = [MotionVector(*rng.integers(-80, 81, 2)) for _ in range(8)]
    far = st.integers(-MV_MAX, MV_MAX)
    mvs.append(MotionVector(draw(far), draw(far)))
    return f, BlockSpec(bx, by, bw, bh), mvs


@given(_random_inheritance())
def test_inherit_matches_the_displaced_center_cell(case):
    """The array gather and its scalar wrapper against a per-sub-block
    ``cell_at`` lookup of the displaced, clamped sub-block center."""
    f, block, mvs = case
    rows, cols = block.h // 4, block.w // 4
    for mv in mvs:
        v0, acc, kind = gather_params(f, block, mv)
        grid = inherit_params(f, block, mv)
        assert v0.shape == acc.shape == (rows, cols, 2) and kind.shape == (rows, cols)
        assert len(grid) == rows and all(len(row) == cols for row in grid)
        for j in range(rows):
            for i in range(cols):
                px = block.x + 4 * i + 2 + div_round_half_away(mv.x, 16)
                py = block.y + 4 * j + 2 + div_round_half_away(mv.y, 16)
                want = f.cell_at(min(max(px, 0), f.width - 1),
                                 min(max(py, 0), f.height - 1)).params
                assert grid[j][i] == want
                assert (tuple(v0[j, i]), tuple(acc[j, i]), kind[j, i]) == (
                    (want.v0x, want.v0y), (want.ax, want.ay), int(want.kind))


# --------------------------------------------------------------- CSV dump

def test_dump_field_csv_shape_and_values():
    prev = global_field(1, 8, 8, 2, 0)
    curr = MotionField.empty(2, 8, 8)
    curr.set_block_mv(0, 0, 4, 4, MotionVector(4, 0), TICK)
    out = derive_field_params(curr, prev)

    buf = io.StringIO()
    dump_field_csv(out, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind",
                       "v0x", "v0y", "ax", "ay"]
    assert len(rows) == 1 + 4  # header + 2x2 cells

    by_cell = {(r[1], r[2]): r for r in rows[1:]}
    derived = by_cell[("0", "0")]
    assert derived[0] == "2"
    assert derived[3:7] == ["4", "0", "1", "Accelerated"]
    assert derived[7:] == [str(P), "0", str(2 * P), "0"]

    empty = by_cell[("1", "1")]
    assert empty[3:6] == ["", "", ""]
    assert empty[6] == "Unavailable"


@st.composite
def _random_dump_field(draw):
    """A field of 1-40 px a side with a random poc, vector mask, vectors
    and ref distances, and parameters of every kind with either sign;
    cells without a vector hold unavailable parameters."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = MotionField.empty(draw(st.integers(-5, 1000)), w, h)
    f.mv_valid[...] = rng.random(f.mv_valid.shape) < draw(st.sampled_from([0, 0.5, 1]))
    f.mv[...] = rng.integers(-MV_MAX, MV_MAX + 1, f.mv.shape)
    f.ref_distance[...] = rng.integers(1, 5, f.ref_distance.shape)
    v0 = rng.integers(-2**40, 2**40, f.v0.shape) * (rng.random((*f.kind.shape, 1)) < 0.7)
    acc = rng.integers(-500, 501, f.acc.shape) * (rng.random((*f.kind.shape, 1)) < 0.5)
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            p = UammParams.classify(*v0[cy, cx].tolist(), *acc[cy, cx].tolist())
            if not f.mv_valid[cy, cx]:
                p = UammParams.unavailable()
            f.v0[cy, cx], f.acc[cy, cx], f.kind[cy, cx] = (p.v0x, p.v0y), (p.ax, p.ay), p.kind
    return f


@given(_random_dump_field())
def test_dump_field_csv_matches_a_per_cell_reference(f):
    """Each row against the cell's ``cell_at`` view, formatted field by field."""
    buf = io.StringIO()
    dump_field_csv(f, buf)
    want = [["poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind", "v0x", "v0y", "ax", "ay"]]
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            cell = f.cell_at(4 * cx, 4 * cy)
            mv = ("", "", "") if cell.mv is None else (
                cell.mv.x, cell.mv.y, cell.ref_distance.ticks)
            p = cell.params
            want.append([str(v) for v in (f.poc, cx, cy, *mv, p.kind.name.capitalize(),
                                          p.v0x, p.v0y, p.ax, p.ay)])
    assert buf.getvalue() == "".join(",".join(row) + "\n" for row in want)

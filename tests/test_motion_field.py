"""Motion field storage, the chained derivation pass, inheritance, CSV dump."""

import csv
import dataclasses
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


def params_at(f, cy, cx):
    """The parameters of cell (cy, cx), read from the planes."""
    return UammParams(*f.v0[cy, cx].tolist(), *f.acc[cy, cx].tolist(),
                      ParamKind(int(f.kind[cy, cx])))


# ----------------------------------------------------------------- storage

def test_empty_field_is_all_unavailable():
    f = MotionField.empty(3, 12, 8)
    assert f.mv.shape == (2, 3, 2)
    assert (f.ref_distance == 0).all()
    assert all(params_at(f, cy, cx) == UammParams.unavailable()
               for cy in range(2) for cx in range(3))


def test_set_block_mv_covers_exactly_the_rect():
    f = MotionField.empty(0, 16, 16)
    f.set_block_mv(4, 4, 8, 8, MotionVector(7, -7), TICK)
    assert (f.ref_distance > 0).sum() == 4
    assert (f.ref_distance[1:3, 1:3] == 1).all()
    assert (f.mv[1:3, 1:3] == (7, -7)).all()
    assert f.ref_distance[0, 0] == 0 and f.ref_distance[1, 3] == 0


# -------------------------------------------------------------- derivation

def test_derive_chained_pair():
    prev = global_field(1, 16, 16, 2, 0)
    curr = global_field(2, 16, 16, 4, 0)
    out = derive_field_params(curr, prev)
    assert params_at(out, 0, 0) == UammParams(P, 0, 2 * P, 0, ParamKind.ACCELERATED)
    # every cell of a global pair derives identically
    assert np.all(out.kind == int(ParamKind.ACCELERATED))


def test_derive_broken_chain_falls_back_to_linear():
    prev = MotionField.empty(1, 16, 16)
    curr = global_field(2, 16, 16, 4, 0)
    out = derive_field_params(curr, prev)
    assert params_at(out, 0, 0) == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)


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
    assert out.kind[0, 0] == ParamKind.ACCELERATED
    assert out.kind[2, 2] == ParamKind.UNAVAILABLE


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
    assert params_at(out, 0, 0) == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)


def test_derive_follows_the_stored_vector():
    """The chain reads the displaced cell of the previous field, not the
    co-located one."""
    prev = MotionField.empty(1, 16, 8)
    prev.set_block_mv(4, 0, 4, 4, MotionVector(32, 0), TICK)  # only cell (0,1)
    curr = MotionField.empty(2, 16, 8)
    curr.set_block_mv(0, 0, 4, 4, MotionVector(64, 0), TICK)
    out = derive_field_params(curr, prev)
    # center (2,2) + 64/16 px lands at (6,2): cell (0,1) of prev
    p = params_at(out, 0, 0)
    assert p.kind == ParamKind.ACCELERATED
    assert (p.v0x, p.ax) == (16 * P, 32 * P)


def test_derive_clamps_displaced_position_to_border():
    prev = MotionField.empty(1, 16, 8)
    prev.set_block_mv(12, 0, 4, 4, MotionVector(2, 0), TICK)  # last column only
    curr = MotionField.empty(2, 16, 8)
    curr.set_block_mv(12, 0, 4, 4, MotionVector(4096, 0), TICK)  # 256 px right
    out = derive_field_params(curr, prev)
    # clamped to pixel 15 -> last-column cell, which has a vector
    assert out.kind[0, 3] == ParamKind.ACCELERATED


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
        p = params_at(out, 4, 4)
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
    prev.ref_distance[...] = 2**30
    curr.ref_distance[...] = 1
    with pytest.raises(OverflowError):
        derive_field_params(curr, prev)


def _draw_vectors(draw, rng, f):
    """Fill ``f`` with vectors on a random share of its cells, within a few
    pels or anywhere up to +-MV_MAX, with ref distances 1-4; the other
    cells keep a zero vector and a zero distance, which marks them empty."""
    has_mv = rng.random(f.ref_distance.shape) < draw(st.sampled_from([0, 0.5, 0.9, 1]))
    limit = draw(st.sampled_from([80, MV_MAX]))
    f.mv[...] = rng.integers(-limit, limit + 1, f.mv.shape) * has_mv[..., None]
    f.ref_distance[...] = rng.integers(1, 5, f.ref_distance.shape) * has_mv
    return f


@st.composite
def _random_field_pair(draw):
    """Two fields of one random size, often not a multiple of 4, filled by
    ``_draw_vectors``, with a poc gap of 1-3."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [_draw_vectors(draw, rng, MotionField.empty(poc, w, h))
            for poc in (4, 4 + draw(st.integers(1, 3)))]


@given(_random_field_pair())
def test_derive_field_matches_the_per_cell_solve(pair):
    """The whole-grid derivation against a per-cell reference: the cell of
    ``prev`` under the displaced, clamped cell center, then the scalar
    solver on its vector and distance or, if it has none, the linear
    fallback, then ``UammParams.classify``."""
    prev, curr = pair
    t1 = curr.poc - prev.poc
    out = derive_field_params(curr, prev)
    for cy in range(curr.cells_y):
        for cx in range(curr.cells_x):
            want = UammParams.unavailable()
            if curr.ref_distance[cy, cx] > 0:
                mvx, mvy = (int(v) for v in curr.mv[cy, cx])
                px = 4 * cx + 2 + div_round_half_away(mvx, 16)
                py = 4 * cy + 2 + div_round_half_away(mvy, 16)
                sy = min(max(py, 0), prev.height - 1) // 4
                sx = min(max(px, 0), prev.width - 1) // 4
                if prev.ref_distance[sy, sx] <= 0:
                    solved = (div_round_half_away(mvx * P, t1),
                              div_round_half_away(mvy * P, t1), 0, 0)
                else:
                    mv0 = MotionVector(*prev.mv[sy, sx].tolist())
                    t0 = TimeInterval(int(prev.ref_distance[sy, sx]))
                    solved = _derive_scaled(mv0.x, mv0.y, mvx, mvy, t0.ticks, t1)
                want = UammParams.classify(*solved)
            assert (tuple(out.v0[cy, cx]), tuple(out.acc[cy, cx]), out.kind[cy, cx]) == (
                (want.v0x, want.v0y), (want.ax, want.ay), int(want.kind))


@st.composite
def _random_field_chain(draw):
    """A ``_random_field_pair`` and a third field of its size, older than
    both, filled by ``_draw_vectors``."""
    prev, curr = draw(_random_field_pair())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    older = MotionField.empty(draw(st.integers(0, prev.poc - 1)), prev.width, prev.height)
    return _draw_vectors(draw, rng, older), prev, curr


@given(_random_field_chain())
def test_derive_reads_no_parameters_of_the_previous_field(chain):
    """Deriving from a derived field equals deriving from the searched one,
    whatever the field before it holds, so a runner may keep only the
    field it derived last."""
    older, prev, curr = chain
    direct = derive_field_params(curr, prev)
    chained = derive_field_params(curr, derive_field_params(prev, older))
    for plane in dataclasses.fields(MotionField):
        a, b = getattr(chained, plane.name), getattr(direct, plane.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), plane.name


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


def _field_naming_its_cells(w, h):
    """A field whose cell (cy, cx) holds v0 = (cx + 1, cy + 1)."""
    return _field_with_cell_params(
        w, h, lambda cx, cy: UammParams(cx + 1, cy + 1, 0, 0, ParamKind.LINEAR))


def _gathered_cell(f, x, y, w, h, mvx, mvy):
    """The (cy, cx) of the cell each sub-block of the rect gathered from."""
    v0, _, _ = gather_params(f, x, y, w, h, mvx, mvy)
    return [[(vy - 1, vx - 1) for vx, vy in row] for row in v0.tolist()]


def test_gather_params_finds_the_cell_by_division():
    """A 4x4 block at the origin, its center (2, 2) moved by whole pixels:
    pixel 3 is still cell 0, pixel 4 is cell 1, on both axes."""
    f = _field_naming_its_cells(8, 8)
    assert _gathered_cell(f, 0, 0, 4, 4, 16, 16) == [[(0, 0)]]
    assert _gathered_cell(f, 0, 0, 4, 4, 32, 16) == [[(0, 1)]]
    assert _gathered_cell(f, 0, 0, 4, 4, 16, 32) == [[(1, 0)]]
    assert _gathered_cell(f, 0, 0, 4, 4, 5 * 16, 5 * 16) == [[(1, 1)]]


def test_gather_params_partial_last_cell_is_the_last_cell():
    """On a 17x13 frame the grid is 5x4 cells, and the last one covers a
    single pixel. The center of a 4x4 rect there, (18, 14), lies past the
    frame and clamps to pixel (16, 12), which is that last cell."""
    f = _field_naming_its_cells(17, 13)
    assert (f.cells_y, f.cells_x) == (4, 5)
    assert _gathered_cell(f, 16, 12, 4, 4, 0, 0) == [[(3, 4)]]
    assert _gathered_cell(f, 12, 8, 8, 8, 0, 0) == [[(2, 3), (2, 4)], [(3, 3), (3, 4)]]


@pytest.mark.parametrize("px,py", [(-1, 0), (0, -1), (16, 0), (0, 12), (99, 99)])
def test_gather_params_clamps_an_out_of_frame_center(px, py):
    """A center displaced to pixel (px, py) outside the 16x12 frame reads
    the cell of the nearest frame pixel; it never wraps or raises."""
    f = _field_naming_its_cells(16, 12)
    want = (min(max(py, 0), 11) // 4, min(max(px, 0), 15) // 4)
    assert _gathered_cell(f, 0, 0, 4, 4, 16 * (px - 2), 16 * (py - 2)) == [[want]]


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
    # One of those vectors per sub-block, as (rows, cols) int64 planes.
    pick = rng.integers(0, len(mvs), (bh // 4, bw // 4))
    planes = np.array([(mv.x, mv.y) for mv in mvs], dtype=np.int64)[pick]
    return f, BlockSpec(bx, by, bw, bh), mvs, planes


@given(_random_inheritance())
def test_inherit_matches_the_displaced_center_cell(case):
    """The array gather, with one vector for the block or one per
    sub-block, and its scalar wrapper against the parameters of the cell
    under each displaced, clamped sub-block center."""
    f, block, mvs, planes = case
    rows, cols = block.h // 4, block.w // 4
    rect = (block.x, block.y, block.w, block.h)

    def expected(vectors):
        """The looked-up params, [row][col], of (rows, cols, 2) vectors."""
        grid = []
        for j in range(rows):
            grid.append([])
            for i in range(cols):
                mvx, mvy = vectors[j, i].tolist()
                px = block.x + 4 * i + 2 + div_round_half_away(mvx, 16)
                py = block.y + 4 * j + 2 + div_round_half_away(mvy, 16)
                grid[j].append(params_at(f, min(max(py, 0), f.height - 1) // 4,
                                         min(max(px, 0), f.width - 1) // 4))
        return grid

    def assert_gathered(gathered, want):
        v0, acc, kind = gathered
        assert v0.shape == acc.shape == (rows, cols, 2) and kind.shape == (rows, cols)
        assert [[((p.v0x, p.v0y), (p.ax, p.ay), int(p.kind)) for p in row]
                for row in want] == [
            [(tuple(v), tuple(a), k) for v, a, k in zip(*row)]
            for row in zip(v0.tolist(), acc.tolist(), kind.tolist())]

    for mv in mvs:
        want = expected(np.tile((mv.x, mv.y), (rows, cols, 1)))
        assert_gathered(gather_params(f, *rect, mv.x, mv.y), want)
        assert inherit_params(f, block, mv) == want
    assert_gathered(gather_params(f, *rect, planes[..., 0], planes[..., 1]), expected(planes))


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
    """A field of 1-40 px a side with a random poc, vectors, ref distances
    1-4 on a random share of cells and 0 on the others, and parameters of
    every kind with either sign; cells without a vector hold unavailable
    parameters, whatever vector their planes keep."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = MotionField.empty(draw(st.integers(-5, 1000)), w, h)
    has_mv = rng.random(f.ref_distance.shape) < draw(st.sampled_from([0, 0.5, 1]))
    f.mv[...] = rng.integers(-MV_MAX, MV_MAX + 1, f.mv.shape)
    f.ref_distance[...] = rng.integers(1, 5, f.ref_distance.shape) * has_mv
    v0 = rng.integers(-2**40, 2**40, f.v0.shape) * (rng.random((*f.kind.shape, 1)) < 0.7)
    acc = rng.integers(-500, 501, f.acc.shape) * (rng.random((*f.kind.shape, 1)) < 0.5)
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            p = UammParams.classify(*v0[cy, cx].tolist(), *acc[cy, cx].tolist())
            if not has_mv[cy, cx]:
                p = UammParams.unavailable()
            f.v0[cy, cx], f.acc[cy, cx], f.kind[cy, cx] = (p.v0x, p.v0y), (p.ax, p.ay), p.kind
    return f


@given(_random_dump_field())
def test_dump_field_csv_matches_a_per_cell_reference(f):
    """Each row against the cell's vector, distance and parameters, read
    from the planes and formatted field by field."""
    buf = io.StringIO()
    dump_field_csv(f, buf)
    want = [["poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind", "v0x", "v0y", "ax", "ay"]]
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            mv = ("", "", "")
            if f.ref_distance[cy, cx] > 0:
                vector = MotionVector(*f.mv[cy, cx].tolist())
                mv = (vector.x, vector.y, TimeInterval(int(f.ref_distance[cy, cx])).ticks)
            p = params_at(f, cy, cx)
            want.append([str(v) for v in (f.poc, cx, cy, *mv, p.kind.name.capitalize(),
                                          p.v0x, p.v0y, p.ax, p.ay)])
    assert buf.getvalue() == "".join(",".join(row) + "\n" for row in want)

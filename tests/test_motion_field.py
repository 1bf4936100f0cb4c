"""Motion field storage, the chained derivation pass, inheritance, CSV dump."""

import csv
import dataclasses
import io
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uamm import (
    MV_MAX,
    PARAM_SCALE,
    BlockSpec,
    FieldParams,
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
)
from uamm import motion_field
from uamm.kinematics import _derive_scaled
from uamm.motion_field import gather_params, inherit_params

P = PARAM_SCALE
TICK = TimeInterval(1)


def global_field(poc, w, h, mvx, mvy, ticks=1):
    return field_from_global_mv(poc, w, h, MotionVector(mvx, mvy),
                                TimeInterval(ticks))


def params_at(f, cy, cx):
    """The parameters of cell (cy, cx), read from the planes."""
    return UammParams(*f.v0[cy, cx].tolist(), *f.acc[cy, cx].tolist(),
                      ParamKind(int(f.kind[cy, cx])))


def window_at(f, cy, cx):
    """The window (t0, t1) of cell (cy, cx): t1 is the cell's ref distance."""
    return int(f.t0[cy, cx]), int(f.field.ref_distance[cy, cx])


# ----------------------------------------------------------------- storage

def test_empty_field_is_all_unavailable():
    """A searched field is its poc and its grid of vectors and distances;
    its parameters, unavailable everywhere, hold it and an empty window."""
    f = MotionField.empty(3, 12, 8)
    assert [p.name for p in dataclasses.fields(MotionField)] == [
        "poc", "mv", "ref_distance"]
    assert f.mv.shape == (2, 3, 2)
    assert (f.ref_distance == 0).all()
    params = FieldParams.unavailable(f)
    assert params.field is f
    assert all(params_at(params, cy, cx) == UammParams.unavailable()
               for cy in range(2) for cx in range(3))
    assert [p.name for p in dataclasses.fields(FieldParams)] == [
        "field", "v0", "acc", "kind", "t0"]
    assert params.t0.shape == (2, 3)
    assert not params.t0.any()


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
    curr.mv[0, 0], curr.ref_distance[0, 0] = (4, 0), 1
    out = derive_field_params(curr, prev)
    assert out.kind[0, 0] == ParamKind.ACCELERATED
    assert out.kind[2, 2] == ParamKind.UNAVAILABLE


def test_derive_requires_increasing_poc():
    a = MotionField.empty(1, 8, 8)
    b = MotionField.empty(1, 8, 8)
    with pytest.raises(ValueError):
        derive_field_params(a, b)


def test_derive_uses_ref_distance_as_interval():
    """A cell's vector is solved over its own ref distance, not the poc gap."""
    prev = MotionField.empty(1, 8, 8)
    # two ticks: the same vector halves the fallback velocity
    out = derive_field_params(global_field(3, 8, 8, 8, 0, ticks=2), prev)
    assert params_at(out, 0, 0) == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)
    # a two-tick poc gap does not, when the vector spans one tick
    out = derive_field_params(global_field(3, 8, 8, 8, 0), prev)
    assert params_at(out, 0, 0) == UammParams(8 * P, 0, 0, 0, ParamKind.LINEAR)
    assert window_at(out, 0, 0) == (1, 1)


def test_derive_breaks_the_chain_on_an_empty_previous_cell():
    """A field at poc 4 with an 80-unit vector over 2 ticks, chained to an
    empty field at poc 3: 40 units a tick, over the window (2, 2)."""
    out = derive_field_params(global_field(4, 8, 8, 80, 0, ticks=2),
                              MotionField.empty(3, 8, 8))
    assert params_at(out, 0, 0) == UammParams(40 * P, 0, 0, 0, ParamKind.LINEAR)
    assert window_at(out, 0, 0) == (2, 2)


def test_derive_breaks_the_chain_where_the_segments_do_not_meet():
    """The previous field, one tick back, has a vector at the displaced
    cell, but the current vector spans two ticks: it starts before that
    field, so the cell takes the linear model over (2, 2)."""
    prev = global_field(1, 8, 8, 2, 0)
    out = derive_field_params(global_field(2, 8, 8, 8, 0, ticks=2), prev)
    assert params_at(out, 0, 0) == UammParams(4 * P, 0, 0, 0, ParamKind.LINEAR)
    assert window_at(out, 0, 0) == (2, 2)


def test_derive_follows_the_stored_vector():
    """The chain reads the displaced cell of the previous field, not the
    co-located one."""
    prev = MotionField.empty(1, 16, 8)
    prev.mv[0, 1], prev.ref_distance[0, 1] = (32, 0), 1  # only cell (0,1)
    curr = MotionField.empty(2, 16, 8)
    curr.mv[0, 0], curr.ref_distance[0, 0] = (64, 0), 1
    out = derive_field_params(curr, prev)
    # center (2,2) + 64/16 px lands at (6,2): cell (0,1) of prev
    p = params_at(out, 0, 0)
    assert p.kind == ParamKind.ACCELERATED
    assert (p.v0x, p.ax) == (16 * P, 32 * P)


def test_derive_clamps_displaced_position_to_border():
    prev = MotionField.empty(1, 16, 8)
    prev.mv[0, 3], prev.ref_distance[0, 3] = (2, 0), 1  # last column only
    curr = MotionField.empty(2, 16, 8)
    curr.mv[0, 3], curr.ref_distance[0, 3] = (4096, 0), 1  # 256 px right
    out = derive_field_params(curr, prev)
    # clamped to pixel 15 -> last-column cell, which has a vector
    assert out.kind[0, 3] == ParamKind.ACCELERATED


def test_derive_never_accelerated_with_zero_acceleration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        prev = MotionField.empty(1, 16, 16)
        curr = MotionField.empty(2, 16, 16)
        for f in (prev, curr):
            for cy in range(4):
                for cx in range(4):
                    if rng.random() < 0.7:
                        f.mv[cy, cx] = rng.integers(-48, 49, 2)
                        f.ref_distance[cy, cx] = 1
        out = derive_field_params(curr, prev)
        accelerated = out.kind == int(ParamKind.ACCELERATED)
        zero_acc = np.all(out.acc == 0, axis=-1)
        assert not np.any(accelerated & zero_acc)


def test_derive_leaves_input_untouched_and_holds_the_field():
    prev = global_field(1, 8, 8, 2, 0)
    curr = global_field(2, 8, 8, 4, 0)
    out = derive_field_params(curr, prev)
    assert out.field is curr
    assert np.all(curr.mv == (4, 0)) and np.all(curr.ref_distance == 1)
    assert np.all(prev.mv == (2, 0)) and np.all(prev.ref_distance == 1)


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
    """A random pixel size (w, h), often not a multiple of 4, and two
    fields of it filled by ``_draw_vectors``, with a poc gap of 1-3."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (w, h), [_draw_vectors(draw, rng, MotionField.empty(poc, w, h))
                    for poc in (4, 4 + draw(st.integers(1, 3)))]


def _mixed_distance_pair():
    """A 24x20 px pair, poc 5 then 7, whose previous field has ref
    distances 0, 1 and 3 in turn, so chains break or span one or three
    ticks, and whose current vectors reach up to 3 cells either way."""
    rng = np.random.default_rng(17)
    prev, curr = MotionField.empty(5, 24, 20), MotionField.empty(7, 24, 20)
    prev.ref_distance[...] = np.array([0, 1, 3])[np.arange(30).reshape(5, 6) % 3]
    prev.mv[...] = rng.integers(-40, 41, prev.mv.shape) * (prev.ref_distance > 0)[..., None]
    curr.mv[...] = rng.integers(-200, 201, curr.mv.shape)
    curr.ref_distance[...] = 2
    curr.ref_distance[0, :2] = curr.mv[0, :2] = 0
    return (24, 20), [prev, curr]


@given(_random_field_pair())
@example(_mixed_distance_pair())
def test_derive_field_matches_the_per_cell_solve(pair):
    """The whole-grid derivation against a per-cell reference: the cell of
    ``prev`` under the displaced, clamped cell center, then the scalar
    solver on its vector and distance or, if it has none, the linear
    fallback, then ``UammParams.classify``. Each cell's window ends with
    its own vector over its ref distance t1: it is (that distance, t1) if
    the segments meet in time, t1 = ``curr.poc - prev.poc``, else (t1, t1),
    and (0, 0) on a cell with no vector. The center is clamped into the
    drawn pixel size, so the grid's cell clamp must agree with it."""
    (width, height), (prev, curr) = pair
    out = derive_field_params(curr, prev)
    for cy in range(curr.cells_y):
        for cx in range(curr.cells_x):
            want, window = UammParams.unavailable(), (0, 0)
            t1 = int(curr.ref_distance[cy, cx])
            if t1 > 0:
                mvx, mvy = (int(v) for v in curr.mv[cy, cx])
                px = 4 * cx + 2 + div_round_half_away(mvx, 16)
                py = 4 * cy + 2 + div_round_half_away(mvy, 16)
                sy = min(max(py, 0), height - 1) // 4
                sx = min(max(px, 0), width - 1) // 4
                if prev.ref_distance[sy, sx] <= 0 or t1 != curr.poc - prev.poc:
                    solved = (div_round_half_away(mvx * P, t1),
                              div_round_half_away(mvy * P, t1), 0, 0)
                    window = (t1, t1)
                else:
                    mv0 = MotionVector(*prev.mv[sy, sx].tolist())
                    t0 = TimeInterval(int(prev.ref_distance[sy, sx]))
                    solved = _derive_scaled(mv0.x, mv0.y, mvx, mvy, t0.ticks, t1)
                    window = (t0.ticks, t1)
                want = UammParams.classify(*solved)
            assert (tuple(out.v0[cy, cx]), tuple(out.acc[cy, cx]), out.kind[cy, cx]) == (
                (want.v0x, want.v0y), (want.ax, want.ay), int(want.kind))
            assert window_at(out, cy, cx) == window


_assert_matches_the_per_cell_solve = test_derive_field_matches_the_per_cell_solve.hypothesis.inner_test


def _seeded_pair(w, h, seed, empty_mv=None):
    """A w x h px pair, poc 4 then 5, with ref distances 0-3 on both sides,
    so chains break or meet, and vectors of up to 6 pels or up to +-MV_MAX.
    ``empty_mv`` fills the vectors of the cells without a distance."""
    rng = np.random.default_rng(seed)
    pair = [MotionField.empty(poc, w, h) for poc in (4, 5)]
    for f in pair:
        f.ref_distance[...] = rng.integers(0, 4, f.ref_distance.shape)
        limit = rng.choice([96, MV_MAX], f.ref_distance.shape)[..., None]
        f.mv[...] = rng.integers(-limit, limit + 1, f.mv.shape)
        if empty_mv is not None:
            empty = f.ref_distance == 0
            f.mv[empty] = rng.choice([-empty_mv, empty_mv], (empty.sum(), 2))
    return (w, h), pair


@pytest.mark.parametrize("chunk", [lambda cx: 1, lambda cx: 7, lambda cx: cx - 1,
                                   lambda cx: cx + 1],
                         ids=["1", "7", "cells_x-1", "cells_x+1"])
@pytest.mark.parametrize("pair", [
    _seeded_pair(9, 61, 0), _seeded_pair(37, 23, 1), _seeded_pair(13, 45, 2),
    _mixed_distance_pair(), _seeded_pair(21, 30, 3, empty_mv=2**30),
], ids=["9x61", "37x23", "13x45", "mixed_distance", "empty_cells_2**30"])
def test_derive_field_matches_the_per_cell_solve_across_chunks(monkeypatch, chunk, pair):
    """Chunks of one cell, of a few cells spanning rows, and of one cell
    less or more than a row, on fields several chunks high whose last chunk
    may be partial. Vectors of +-2**30 in cells without a distance must
    reach neither the solve nor the parameters."""
    monkeypatch.setattr(motion_field, "_DERIVE_CELLS", chunk(pair[1][1].cells_x))
    _assert_matches_the_per_cell_solve(pair)


@pytest.mark.parametrize("size", [512, 2048])
def test_derive_field_memory_stays_flat(size):
    """The derivation's traced peak, less the parameters it returns, stays
    under 1 MiB whatever the field's size."""
    rng = np.random.default_rng(size)
    prev, curr = (MotionField.empty(poc, size, size) for poc in (1, 2))
    for f in (prev, curr):
        f.mv[...] = rng.integers(-300, 301, f.mv.shape)
        f.ref_distance[...] = 1
    tracemalloc.start()
    try:
        out = derive_field_params(curr, prev)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained <= 1 << 20
    assert (out.kind == ParamKind.ACCELERATED).any()


@st.composite
def _random_field_chain(draw):
    """A ``_random_field_pair`` and a third field of its drawn pixel size,
    older than both, filled by ``_draw_vectors``."""
    (w, h), (prev, curr) = draw(_random_field_pair())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    older = MotionField.empty(draw(st.integers(0, prev.poc - 1)), w, h)
    return _draw_vectors(draw, rng, older), prev, curr


@given(_random_field_chain())
def test_derive_reads_no_parameters_of_the_previous_field(chain):
    """Deriving from the field a derivation holds equals deriving from the
    searched one, whatever the field before it holds, so a runner may keep
    only the parameters it derived last."""
    older, prev, curr = chain
    direct = derive_field_params(curr, prev)
    chained = derive_field_params(curr, derive_field_params(prev, older).field)
    assert chained.field is direct.field is curr
    for plane in dataclasses.fields(FieldParams)[1:]:
        a, b = getattr(chained, plane.name), getattr(direct, plane.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), plane.name


# ------------------------------------------------------------- inheritance

def _field_with_cell_params(w, h, assign):
    """Parameters of an empty field, hand-filled: assign(cx, cy) -> params."""
    f = FieldParams.unavailable(MotionField.empty(0, w, h))
    for cy in range(f.field.cells_y):
        for cx in range(f.field.cells_x):
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
    f = FieldParams.unavailable(MotionField.empty(0, 16, 16))
    grid = inherit_params(f, BlockSpec(4, 4, 8, 8), MotionVector(-300, 77))
    assert all(p.kind == ParamKind.UNAVAILABLE for row in grid for p in row)


def _field_naming_its_cells(w, h):
    """A field whose cell (cy, cx) holds v0 = (cx + 1, cy + 1)."""
    return _field_with_cell_params(
        w, h, lambda cx, cy: UammParams(cx + 1, cy + 1, 0, 0, ParamKind.LINEAR))


def _gathered_cell(f, x, y, w, h, mvx, mvy):
    """The (cy, cx) of the cell each sub-block of the rect gathered from."""
    v0 = gather_params(f, x, y, w, h, mvx, mvy)[0]
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
    assert f.kind.shape == (4, 5)
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
    """Random parameters and windows of a field of a random pixel size,
    the size, a block inside it, and vectors."""
    w, h = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    f = FieldParams.unavailable(MotionField.empty(0, w, h))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v0 = rng.integers(-5000, 5001, f.v0.shape)
    acc = rng.integers(-500, 501, f.acc.shape)
    for cy in range(f.field.cells_y):
        for cx in range(f.field.cells_x):
            p = UammParams.classify(*v0[cy, cx], *acc[cy, cx])
            if rng.random() < 0.3:
                p = UammParams.unavailable()
            f.v0[cy, cx] = (p.v0x, p.v0y)
            f.acc[cy, cx] = (p.ax, p.ay)
            f.kind[cy, cx] = int(p.kind)
            if p.kind != ParamKind.UNAVAILABLE:
                f.t0[cy, cx], f.field.ref_distance[cy, cx] = rng.integers(1, 9, 2)
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
    return f, (w, h), BlockSpec(bx, by, bw, bh), mvs, planes


@given(_random_inheritance())
def test_inherit_matches_the_displaced_center_cell(case):
    """The array gather, with one vector for the block or one per
    sub-block, and its scalar wrapper against the parameters and window
    of the cell under each displaced sub-block center, clamped into the
    drawn pixel size."""
    f, (width, height), block, mvs, planes = case
    rows, cols = block.h // 4, block.w // 4
    rect = (block.x, block.y, block.w, block.h)

    def expected(vectors):
        """The looked-up cells (cy, cx), [row][col], of (rows, cols, 2) vectors."""
        grid = []
        for j in range(rows):
            grid.append([])
            for i in range(cols):
                mvx, mvy = vectors[j, i].tolist()
                px = block.x + 4 * i + 2 + div_round_half_away(mvx, 16)
                py = block.y + 4 * j + 2 + div_round_half_away(mvy, 16)
                grid[j].append((min(max(py, 0), height - 1) // 4,
                                min(max(px, 0), width - 1) // 4))
        return grid

    def assert_gathered(gathered, cells):
        v0, acc, kind, t0, t1 = gathered
        assert v0.shape == acc.shape == (rows, cols, 2)
        assert kind.shape == t0.shape == t1.shape == (rows, cols)
        want = [[params_at(f, *cell) for cell in row] for row in cells]
        assert [[((p.v0x, p.v0y), (p.ax, p.ay), int(p.kind)) for p in row]
                for row in want] == [
            [(tuple(v), tuple(a), k) for v, a, k in zip(*row)]
            for row in zip(v0.tolist(), acc.tolist(), kind.tolist())]
        assert [[window_at(f, *cell) for cell in row] for row in cells] == [
            list(zip(*row)) for row in zip(t0.tolist(), t1.tolist())]
        return want

    for mv in mvs:
        cells = expected(np.tile((mv.x, mv.y), (rows, cols, 1)))
        want = assert_gathered(gather_params(f, *rect, mv.x, mv.y), cells)
        assert inherit_params(f, block, mv) == want
    assert_gathered(gather_params(f, *rect, planes[..., 0], planes[..., 1]), expected(planes))


# --------------------------------------------------------------- CSV dump

def test_dump_field_csv_shape_and_values():
    prev = global_field(1, 8, 8, 2, 0)
    curr = MotionField.empty(2, 8, 8)
    curr.mv[0, 0], curr.ref_distance[0, 0] = (4, 0), 1
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
    """The parameters of a field of 1-40 px a side with a random poc,
    vectors, ref distances 1-4 on a random share of cells and 0 on the
    others: parameters of every kind with either sign; cells without a
    vector hold unavailable parameters, whatever vector their planes keep."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = MotionField.empty(draw(st.integers(-5, 1000)), w, h)
    params = FieldParams.unavailable(f)
    has_mv = rng.random(f.ref_distance.shape) < draw(st.sampled_from([0, 0.5, 1]))
    f.mv[...] = rng.integers(-MV_MAX, MV_MAX + 1, f.mv.shape)
    f.ref_distance[...] = rng.integers(1, 5, f.ref_distance.shape) * has_mv
    v0 = rng.integers(-2**40, 2**40, params.v0.shape) * (rng.random((*has_mv.shape, 1)) < 0.7)
    acc = rng.integers(-500, 501, params.acc.shape) * (rng.random((*has_mv.shape, 1)) < 0.5)
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            p = UammParams.classify(*v0[cy, cx].tolist(), *acc[cy, cx].tolist())
            if not has_mv[cy, cx]:
                p = UammParams.unavailable()
            params.v0[cy, cx], params.acc[cy, cx] = (p.v0x, p.v0y), (p.ax, p.ay)
            params.kind[cy, cx] = p.kind
    return params


@given(_random_dump_field())
def test_dump_field_csv_matches_a_per_cell_reference(params):
    """Each row against the cell's vector, distance and parameters, read
    from the planes and formatted field by field."""
    f = params.field
    buf = io.StringIO()
    dump_field_csv(params, buf)
    want = [["poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind", "v0x", "v0y", "ax", "ay"]]
    for cy in range(f.cells_y):
        for cx in range(f.cells_x):
            mv = ("", "", "")
            if f.ref_distance[cy, cx] > 0:
                vector = MotionVector(*f.mv[cy, cx].tolist())
                mv = (vector.x, vector.y, TimeInterval(int(f.ref_distance[cy, cx])).ticks)
            p = params_at(params, cy, cx)
            want.append([str(v) for v in (f.poc, cx, cy, *mv, p.kind.name.capitalize(),
                                          p.v0x, p.v0y, p.ax, p.ay)])
    assert buf.getvalue() == "".join(",".join(row) + "\n" for row in want)


def _csv_writer_dump(params, stream):
    """The ``csv.writer`` body that ``dump_field_csv`` had before it
    formatted by array arithmetic: the byte oracle of the tests below."""
    field_obj = params.field
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(motion_field._CSV_COLUMNS)
    for cy in range(field_obj.cells_y):
        mvx, mvy = field_obj.mv[cy].T.tolist()
        dist = field_obj.ref_distance[cy].tolist()
        for cx in np.flatnonzero(field_obj.ref_distance[cy] <= 0).tolist():
            mvx[cx] = mvy[cx] = dist[cx] = ""
        kinds = [motion_field._KIND_NAMES[k] for k in params.kind[cy].tolist()]
        v0x, v0y = params.v0[cy].T.tolist()
        ax, ay = params.acc[cy].T.tolist()
        writer.writerows(zip(repeat(field_obj.poc), range(field_obj.cells_x), repeat(cy),
                             mvx, mvy, dist, kinds, v0x, v0y, ax, ay))


I32_EDGE = 2**31 - 1
# Values to draw vectors and ref distances from, then parameters: the
# extremes of int32 and int64, or values of a few digits, as searches give.
EDGE_VALUES = {
    "int64": ([-I32_EDGE, I32_EDGE], [-2**63, 2**63 - 1, -10**18, 10**18]),
    "small": ([-40, 37], [-1536, 2000, 1024]),
}


def _edge_field(w, h, seed, edges, poc=7):
    """The parameters of a w x h px field, whose planes mix the
    ``EDGE_VALUES[edges]`` with zeros and small values: ref distances
    negative, zero and positive, parameters of either sign, every kind."""
    ints, values = EDGE_VALUES[edges]
    rng = np.random.default_rng(seed)
    pick = lambda values, shape: np.array(values)[rng.integers(0, len(values), shape)]
    f = MotionField.empty(poc, w, h)
    f.mv[...] = pick(ints + [0, -5, 12], f.mv.shape)
    f.ref_distance[...] = pick(ints + [-3, -1, 0, 1, 2], f.ref_distance.shape)
    params = FieldParams.unavailable(f)
    params.v0[...] = pick(values + [0, -1, 9], params.v0.shape)
    params.acc[...] = pick(values + [0, 1, -64], params.acc.shape)
    params.kind[...] = rng.integers(0, len(ParamKind), params.kind.shape)
    return params


def _assert_dump_matches_csv_writer(f):
    got, want = io.StringIO(), io.StringIO()
    dump_field_csv(f, got)
    _csv_writer_dump(f, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("edges", sorted(EDGE_VALUES))
@pytest.mark.parametrize("w,h", [(2048, 2048), (4095, 37), (37, 1999), (517, 515), (1, 1)])
def test_dump_field_csv_matches_the_csv_writer_across_chunks(edges, w, h):
    """Fields wider than one chunk (a 2048 px row of int64 extremes is more
    than _DUMP_BYTES, so each chunk is one row), taller than one chunk, and
    odd sizes whose last chunk is partial."""
    _assert_dump_matches_csv_writer(_edge_field(w, h, w * h, edges))


@pytest.mark.parametrize("edges", sorted(EDGE_VALUES))
@pytest.mark.parametrize("dump_bytes", [1, 700, 5000])
def test_dump_field_csv_matches_the_csv_writer_at_any_chunk_size(monkeypatch, dump_bytes, edges):
    """One cell row per chunk, a few rows with a partial last chunk, and
    chunks that differ in how many rows they hold."""
    monkeypatch.setattr(motion_field, "_DUMP_BYTES", dump_bytes)
    for seed, (w, h) in enumerate([(44, 45), (9, 61), (64, 64)]):
        _assert_dump_matches_csv_writer(_edge_field(w, h, seed, edges, poc=1000 * seed - 1))


class _CountingSink:
    """A text stream that keeps only how much it was given."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def tell(self):
        return self.size


@pytest.mark.parametrize("size,edges", [(512, "small"), (2048, "int64")])
def test_dump_field_csv_memory_stays_flat(size, edges):
    """The dump's traced peak stays under 1 MiB whatever the field's size:
    a 2048 px row of int64 extremes is the widest chunk a field of that
    width can give."""
    field, sink = _edge_field(size, size, size, edges), _CountingSink()
    tracemalloc.start()
    try:
        dump_field_csv(field, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert sink.tell() > field.kind.size * 20

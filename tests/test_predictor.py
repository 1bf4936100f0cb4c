"""Search, compensation, sub-block vector correction, both prediction modes."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm import (
    CELL_SIZE,
    MV_MAX,
    PARAM_SCALE,
    BlockSpec,
    FieldParams,
    FrameBuffer,
    MotionField,
    MotionVector,
    ParamKind,
    TimeInterval,
    TrajectorySpec,
    UammParams,
    derive_field_params,
    derive_params,
    extrapolate_mv,
    field_from_global_mv,
    predict_frame,
    search_fields,
    synth_sequence,
)
from uamm import predictor
from uamm.interp import sample_block, sample_subblocks
from uamm.predictor import (
    correct_mvs,
    full_search_me,
    predict_uamm,
    predict_uniform,
)

P = PARAM_SCALE


def frame(luma, poc=0):
    return FrameBuffer(poc=poc, luma=luma)


def noise(rng, w, h):
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


def shifted_right(luma, pels):
    """Content moved right: the original block is found at +pels in x."""
    out = np.repeat(luma[:, :1], luma.shape[1], axis=1)
    out[:, pels:] = luma[:, :-pels]
    return out


def scored(src, res, bh, bw, x=0, y=0):
    """SADs of the bh x bw blocks of a prediction against the rect of the
    source frame it covers from (x, y), scored as the runner scores them."""
    h, w = res.pred.shape
    return predictor._block_sads(src.luma[y:y + h, x:x + w], res.pred, bh, bw)


def unit_window_params(w, h):
    """Unavailable parameters of an empty w x h field, each cell's window
    one tick and one tick: the tests fill in the planes."""
    f = FieldParams.unavailable(MotionField.empty(0, w, h))
    f.t0[...] = f.field.ref_distance[...] = 1
    return f


def linear_field(w, h, vx, vy):
    """Parameters in which every cell carries a linear model with the
    given scaled velocity."""
    f = unit_window_params(w, h)
    f.v0[:, :] = (vx, vy)
    f.kind[:, :] = int(ParamKind.LINEAR if (vx, vy) != (0, 0)
                       else ParamKind.CONSTANT)
    return f


# ---------------------------------------------------------------- sampling

def test_sample_block_integer_copy():
    rng = np.random.default_rng(0)
    plane = noise(rng, 16, 16)
    got = sample_block(plane, 2, 3, 6, 5, (32, -16))
    assert np.array_equal(got, plane[2:7, 4:10])


def _scalar_bilinear(plane, x, y, mv):
    """One sample at pixel (x, y) displaced by ``mv``, clamped at the border."""
    def at(r, c):
        r = min(max(r, 0), plane.shape[0] - 1)
        c = min(max(c, 0), plane.shape[1] - 1)
        return int(plane[r, c])
    ix, fx = mv[0] // 16, mv[0] % 16
    iy, fy = mv[1] // 16, mv[1] % 16
    y, x = y + iy, x + ix
    num = ((16 - fx) * (16 - fy) * at(y, x)
           + fx * (16 - fy) * at(y, x + 1)
           + (16 - fx) * fy * at(y + 1, x)
           + fx * fy * at(y + 1, x + 1))
    return (num + 128) // 256


@st.composite
def _random_compensation(draw):
    """A plane, a block touching any of its edges, a 4x4 sub-block vector
    grid: any vectors, or whole-pel ones, which compensation copies."""
    w, h = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane = noise(rng, w, h)
    bw = 4 * draw(st.integers(1, min(w // 4, 4)))
    bh = 4 * draw(st.integers(1, min(h // 4, 4)))
    bx = draw(st.sampled_from([0, w - bw, draw(st.integers(0, w - bw))]))
    by = draw(st.sampled_from([0, h - bh, draw(st.integers(0, h - bh))]))
    # Small fractional vectors of either sign, or anywhere up to far outside.
    component = st.one_of(st.integers(-40, 40), st.integers(-MV_MAX, MV_MAX))
    whole_pel = draw(st.booleans())
    if whole_pel:
        component = st.one_of(st.integers(-40, 40), st.integers(-MV_MAX // 16, MV_MAX // 16))
    n = (bh // 4) * (bw // 4)
    mvs = draw(st.lists(st.tuples(component, component), min_size=n, max_size=n))
    mvs = np.array(mvs, dtype=np.int64).reshape(bh // 4, bw // 4, 2) * (16 if whole_pel else 1)
    return plane, bx, by, bw, bh, mvs


@given(_random_compensation())
@example((noise(np.random.default_rng(1), 12, 12), 2, 2, 4, 4,
          np.array([[[21, -7]]])))  # fractional in both axes, negative y
def test_sample_block_matches_scalar_bilinear(case):
    """Per-pixel scalar reference -> per-sub-block ``sample_block`` -> the
    whole-block ``sample_subblocks`` gather, which must agree exactly."""
    plane, bx, by, bw, bh, mvs = case
    per_cell = np.empty((bh, bw), dtype=np.uint8)
    for j in range(bh // 4):
        for i in range(bw // 4):
            mv = (int(mvs[j, i, 0]), int(mvs[j, i, 1]))
            got = sample_block(plane, bx + 4 * i, by + 4 * j, 4, 4, mv)
            want = [[_scalar_bilinear(plane, bx + 4 * i + c, by + 4 * j + r, mv)
                     for c in range(4)] for r in range(4)]
            assert got.tolist() == want
            per_cell[4 * j:4 * j + 4, 4 * i:4 * i + 4] = got
    assert np.array_equal(sample_subblocks(plane, bx, by, bw, bh, mvs), per_cell)
    # The whole block under one vector, as uniform compensation fetches it.
    mv = (int(mvs[-1, -1, 0]), int(mvs[-1, -1, 1]))
    assert sample_block(plane, bx, by, bw, bh, mv).tolist() == [
        [_scalar_bilinear(plane, bx + c, by + r, mv) for c in range(bw)]
        for r in range(bh)]


@pytest.mark.parametrize("level", [0, 255])
def test_sample_subblocks_every_fraction_on_extreme_planes(level):
    """All 16 x 16 (fx, fy) pairs, one per 4x4 sub-block, on an all-0 and
    an all-255 plane: at 255 the separable uint16 filter's vertical sum
    reaches 65280, and the +128 of the rounding must not wrap."""
    plane = np.full((72, 72), level, dtype=np.uint8)
    fx, fy = np.meshgrid(np.arange(16), np.arange(16))
    mvs = np.stack((fx - 32, fy + 16), axis=-1)   # whole-pel parts of either sign
    got = sample_subblocks(plane, 2, 3, 64, 64, mvs)
    want = [[_scalar_bilinear(plane, 2 + c, 3 + r, mvs[r // 4, c // 4].tolist())
             for c in range(64)] for r in range(64)]
    assert got.tolist() == want
    assert (got == level).all()


# -------------------------------------------------------------- full search

def test_search_identical_frames_is_zero():
    rng = np.random.default_rng(2)
    luma = noise(rng, 32, 32)
    mv = full_search_me(frame(luma), frame(luma), BlockSpec(8, 8, 8, 8), 4)
    assert mv == MotionVector(0, 0)


def test_search_finds_integer_shift():
    rng = np.random.default_rng(3)
    src = noise(rng, 32, 32)
    ref = shifted_right(src, 3)
    mv = full_search_me(frame(src), frame(ref), BlockSpec(8, 8, 8, 8), 8)
    assert mv == MotionVector(48, 0)


def test_search_flat_frames_tie_break_to_zero():
    flat = np.full((24, 24), 100, dtype=np.uint8)
    mv = full_search_me(frame(flat), frame(flat), BlockSpec(4, 4, 8, 8), 6)
    assert mv == MotionVector(0, 0)


def test_search_periodic_content_prefers_the_smallest_vector():
    pattern = np.tile(np.array([[10, 200]], dtype=np.uint8), (16, 8))
    mv = full_search_me(frame(pattern), frame(pattern), BlockSpec(4, 4, 8, 8), 6)
    assert mv == MotionVector(0, 0)


def test_search_validates_inputs():
    luma = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        full_search_me(frame(luma), frame(luma), BlockSpec(0, 0, 8, 8), -1)
    with pytest.raises(ValueError):
        full_search_me(frame(luma), frame(luma), BlockSpec(12, 12, 8, 8), 2)
    # 2048 pel is 32768 units, past MV_MAX: rejected before any offset is searched
    with pytest.raises(ValueError, match="at most 2047"):
        search_fields(frame(luma, poc=1), frame(luma), [8], 2048)


def test_search_fields_clips_the_tiling_at_the_frame_edges():
    """16x16 blocks on a 40x24 frame: the last block column is 8 wide and
    the last block row 8 high, and every block, clipped or not, finds the
    shift; every cell of the 10x6 grid carries its block's vector."""
    rng = np.random.default_rng(5)
    ref = frame(noise(rng, 40, 24), poc=1)
    src = frame(shifted_right(ref.luma, 2), poc=3)
    [field] = search_fields(src, ref, [16], 4)
    assert field.poc == 3 and field.mv.shape == (6, 10, 2)
    assert (field.mv == (-32, 0)).all() and (field.ref_distance == 2).all()


def _low_entropy(kind, rng, w, h):
    """A frame where equal SADs are common: a constant, a tiled 2x2 or 3x3
    tile of values in {0, 1, 2}, or independent values in {0, 1, 2}."""
    if kind == "flat":
        return np.full((h, w), int(rng.integers(0, 3)), dtype=np.uint8)
    if kind == "periodic":
        p = int(rng.integers(2, 4))
        tile = rng.integers(0, 3, (p, p), dtype=np.uint8)
        return np.tile(tile, (h // p + 1, w // p + 1))[:h, :w].copy()
    return rng.integers(0, 3, (h, w), dtype=np.uint8)


def _brute_force_vectors(src, ref, block_sizes, r):
    """Per-candidate oracle: every block's SAD at every offset from an
    integral image of the abs-difference plane against the edge-padded
    reference, then per block the smallest (SAD, |dx|+|dy|, dy, dx).
    Returns {block_size: {(x, y): vector}} for the row-major tilings."""
    h, w = src.shape
    padded = np.pad(ref.astype(np.int64), r, mode="edge")
    # Flat indices into the (h+1, w+1) integral image of each block's four
    # corners, (y0, x0) (y0, x1) (y1, x0) (y1, x1), every block size in turn.
    corners, origins = [], []
    for bs in block_sizes:
        y0, x0 = np.arange(0, h, bs), np.arange(0, w, bs)
        y1, x1 = np.minimum(y0 + bs, h), np.minimum(x0 + bs, w)
        for j in range(len(y0)):
            for i in range(len(x0)):
                corners.append([yy * (w + 1) + xx for yy in (y0[j], y1[j]) for xx in (x0[i], x1[i])])
                origins.append((bs, int(x0[i]), int(y0[j])))
    corners = np.array(corners)
    offsets, at_corners = [], []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            diff = np.abs(src.astype(np.int64) - padded[r + dy:r + dy + h, r + dx:r + dx + w])
            sat = np.zeros((h + 1, w + 1), dtype=np.int64)
            sat[1:, 1:] = diff.cumsum(axis=0).cumsum(axis=1)
            at_corners.append(sat.ravel()[corners])
            offsets.append((dx, dy))
    v = np.stack(at_corners)   # (offsets, blocks, 4)
    sads = v[..., 3] - v[..., 2] - v[..., 1] + v[..., 0]
    dxs, dys = (np.array(c) for c in zip(*offsets))
    vectors = {bs: {} for bs in block_sizes}
    for k, (bs, x, y) in enumerate(origins):
        best = np.lexsort((dxs, dys, np.abs(dxs) + np.abs(dys), sads[:, k]))[0]
        vectors[bs][(x, y)] = MotionVector(16 * int(dxs[best]), 16 * int(dys[best]))
    return vectors


_TIED_CASES = [(kinds, r) for kinds in [("levels", "levels"), ("periodic", "periodic"),
                                        ("flat", "levels"), ("periodic", "flat")]
               for r in (0, 1, 8)] + [(("levels", "levels"), 24), (("periodic", "flat"), 24)]


@pytest.mark.parametrize("kinds,search_range", _TIED_CASES,
                         ids=[f"{a}-{b}-r{r}" for (a, b), r in _TIED_CASES])
def test_search_fields_matches_a_brute_force_search_on_tied_frames(kinds, search_range):
    """The frame-wide search against ``_brute_force_vectors`` on an 80x72
    frame, whose edge blocks clip at most block sides, on low-entropy
    content where many offsets tie; both frames stay untouched."""
    rng = np.random.default_rng(search_range * 10 + len(kinds[0]) + len(kinds[1]))
    luma_src, luma_ref = (_low_entropy(k, rng, 80, 72) for k in kinds)
    src, ref = frame(luma_src.copy(), poc=1), frame(luma_ref.copy(), poc=0)
    block_sizes = (4, 12, 16, 20, 28, 64)
    want = _brute_force_vectors(luma_src, luma_ref, block_sizes, search_range)
    # Each size in a pass of its own, then one shared pass for all six sizes
    # at once: gcd 4, sizes that do not nest (12/20/28) and clipped edge tiles.
    alone = [search_fields(src, ref, [bs], search_range)[0] for bs in block_sizes]
    shared = search_fields(src, ref, list(block_sizes), search_range)
    assert len(shared) == len(block_sizes)
    for fields in (alone, shared):
        for block_size, field in zip(block_sizes, fields):
            for (x, y), mv in want[block_size].items():
                cells = field.mv[y // 4:(y + block_size) // 4, x // 4:(x + block_size) // 4]
                assert (cells == (mv.x, mv.y)).all()
            assert (field.ref_distance == 1).all()
    assert np.array_equal(src.luma, luma_src) and np.array_equal(ref.luma, luma_ref)


_CHUNK_CASES = [(kinds, r) for kinds in [("levels", "levels"), ("periodic", "periodic"),
                                         ("periodic", "flat")]
                for r in (1, 8)]


@pytest.mark.parametrize("chunk", [1, 7, predictor._CHUNK])
@pytest.mark.parametrize("kinds,search_range", _CHUNK_CASES,
                         ids=[f"{a}-{b}-r{r}" for (a, b), r in _CHUNK_CASES])
def test_search_tie_break_holds_across_chunk_boundaries(monkeypatch, chunk, kinds,
                                                        search_range):
    """``search_fields`` against ``_brute_force_vectors`` with the offsets
    compared one at a time, in chunks of 7, which split the |dx|+|dy|
    rings at other places than the default, and in the default chunks;
    range 1 fits in one chunk, range 8's 289 offsets end in a short one."""
    monkeypatch.setattr(predictor, "_CHUNK", chunk)
    rng = np.random.default_rng(search_range * 10 + len(kinds[0]) + len(kinds[1]))
    luma_src, luma_ref = (_low_entropy(k, rng, 80, 72) for k in kinds)
    block_sizes = (4, 12, 16, 20, 28, 64)
    want = _brute_force_vectors(luma_src, luma_ref, block_sizes, search_range)
    fields = search_fields(frame(luma_src, poc=1), frame(luma_ref), list(block_sizes),
                           search_range)
    for block_size, field in zip(block_sizes, fields):
        for (x, y), mv in want[block_size].items():
            assert tuple(field.mv[y // 4, x // 4]) == (mv.x, mv.y)


def _final_blocks_case(case):
    """An 80x72 pair over one static background, on which the blocks that
    hold none of the changes below reach SAD 0 at offset (0, 0), in the
    first chunk.

    * ``static``: identical low-entropy frames.
    * ``inner``, ``corner``: a 0-255 noise patch on a low-entropy
      background moves by a whole-pel shift, so the blocks inside it reach
      SAD 0 only at that shift, mid-search; one patch sits inside the
      frame, one ends at its right and bottom edges.
    * ``dot``: one pixel a level above a flat background moves by (-3, 0)
      across x = 48, an edge of sizes 16 and 48: their blocks that hold
      it on one side only sit at SAD 1 until the 20th offset reaches 0,
      while independent noise in the bottom right corner keeps blocks
      live elsewhere.
    """
    rng = np.random.default_rng(len(case))
    if case == "dot":
        ref = np.ones((72, 80), dtype=np.uint8)
        src = ref.copy()
        ref[10, 49] = src[10, 46] = 2
        ref[56:, 72:], src[56:, 72:] = (noise(rng, 8, 16) for _ in range(2))
        return src, ref
    ref = _low_entropy("levels", rng, 80, 72)
    src = ref.copy()
    if case != "static":
        (px, py, pw, ph), (sx, sy) = {"inner": ((20, 12, 32, 28), (5, -3)),
                                      "corner": ((40, 40, 36, 32), (4, 0))}[case]
        patch = rng.integers(3, 256, (ph, pw), dtype=np.uint8)
        ref[py:py + ph, px:px + pw] = patch
        src[py + sy:py + sy + ph, px + sx:px + sx + pw] = patch
    return src, ref


@pytest.mark.parametrize("chunk", [1, 7, 16])
@pytest.mark.parametrize("block_sizes", [(4, 12, 16, 20, 28, 64), (16, 48), (28,)],
                         ids=["gcd4", "gcd16", "gcd28"])
@pytest.mark.parametrize("case", ["static", "inner", "corner", "dot"])
def test_search_with_final_blocks_matches_a_brute_force_search(monkeypatch, chunk,
                                                               block_sizes, case):
    """Blocks whose best SAD reaches 0 are final and the later chunks
    search only the live blocks' rect: ``search_fields`` against
    ``_brute_force_vectors`` at range 8, with the offsets compared one at
    a time, in chunks of 7 and in chunks of 16. Sizes 16/48 and 28 leave
    zero pad rows below the frame's last tile row, 28 clips the last
    column too; around the inner patch and the dot, later planes are
    smaller than the frame, and the dot's blocks at SAD 1 must stay live
    inside them."""
    monkeypatch.setattr(predictor, "_CHUNK", chunk)
    areas, tile_sums = [], predictor._tile_sums

    def recording(plane, *args, **kwargs):
        areas.append(plane.shape[-2] * plane.shape[-1])
        return tile_sums(plane, *args, **kwargs)

    monkeypatch.setattr(predictor, "_tile_sums", recording)
    luma_src, luma_ref = _final_blocks_case(case)
    want = _brute_force_vectors(luma_src, luma_ref, block_sizes, 8)
    fields = search_fields(frame(luma_src, poc=1), frame(luma_ref), list(block_sizes), 8)
    for block_size, field in zip(block_sizes, fields):
        for (x, y), mv in want[block_size].items():
            assert tuple(field.mv[y // 4, x // 4]) == (mv.x, mv.y)
    if case == "static":
        assert not any(f.mv.any() for f in fields)
    if case in ("inner", "dot"):    # the live rect shrinks
        assert min(areas) < max(areas)


@pytest.mark.parametrize("w,h,search_range", [(96, 64, 24), (512, 512, 511)])
def test_search_of_identical_frames_ends_after_one_chunk(monkeypatch, w, h, search_range):
    """Identical frames put every block at SAD 0 at offset (0, 0), which
    no later offset can beat: at range 24, 2401 offsets, or 511, about a
    million, the search builds the planes of one chunk and stops. The
    offsets come ring by ring, so the search never holds them all: its
    traced peak stays under 4 MiB."""
    windows, tile_sums = [], predictor._tile_sums

    def counting(plane, *args, **kwargs):
        windows.append(1 if plane.ndim == 2 else plane.shape[0])
        return tile_sums(plane, *args, **kwargs)

    monkeypatch.setattr(predictor, "_tile_sums", counting)
    luma = noise(np.random.default_rng(4), w, h)
    tracemalloc.start()
    try:
        fields = search_fields(frame(luma, poc=1), frame(luma), [16, 32], search_range)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert sum(windows) <= predictor._CHUNK
    assert not any(f.mv.any() for f in fields)


def _past_the_frame_case(kind):
    """A 32x32 source and reference: low-entropy content, or a flat source
    at the lowest or highest value of a reference that ramps along both
    axes, which only the offsets moving a block wholly onto the ramp's
    top left or bottom right pixel match."""
    rng = np.random.default_rng(len(kind))
    if kind in ("corner-low", "corner-high"):
        ramp = np.add.outer(np.arange(32), np.arange(32)).astype(np.uint8)
        return np.full_like(ramp, ramp.max() if kind == "corner-high" else 0), ramp
    luma_src, luma_ref = (_low_entropy(k, rng, 32, 32) for k in kind.split("-"))
    # A ramp in the reference makes its borders differ from each other.
    return luma_src, luma_ref + np.arange(32, dtype=np.uint8) // 8


@pytest.mark.parametrize("kind", ["levels-levels", "periodic-flat", "corner-low",
                                  "corner-high"])
def test_search_past_the_frame_matches_a_brute_force_search(kind):
    """A range wider than the frame: offsets that move a rect wholly past
    an edge read the same border as the offset that just reaches it and
    lose the tie-break, so the search skips them. On a 32x32 clip the
    vectors at range 40 equal ``_brute_force_vectors`` over every offset,
    and range 2047, 16.8 M offsets unclamped, gives the same in seconds."""
    luma_src, luma_ref = _past_the_frame_case(kind)
    block_sizes = (4, 12, 16, 32)
    want = _brute_force_vectors(luma_src, luma_ref, block_sizes, 40)
    if kind == "corner-high":   # the top left block reaches the last offset in
        assert want[4][(0, 0)] == MotionVector(16 * 31, 16 * 31)
    if kind == "corner-low":
        assert want[4][(28, 28)] == MotionVector(-16 * 31, -16 * 31)
    src, ref = frame(luma_src, poc=1), frame(luma_ref)
    for search_range in (40, 2047):
        start = time.perf_counter()
        fields = search_fields(src, ref, list(block_sizes), search_range)
        assert time.perf_counter() - start < 20.0
        for block_size, field in zip(block_sizes, fields):
            for (x, y), mv in want[block_size].items():
                assert tuple(field.mv[y // 4, x // 4]) == (mv.x, mv.y)
    block = BlockSpec(12, 4, 8, 12)
    assert full_search_me(src, ref, block, 2047) == full_search_me(src, ref, block, 40)


def test_search_pools_tilings_without_a_common_multiple_grid():
    """Sizes 4, 12, ..., 60 on a 64x64 frame pool 1 to 15 gcd tiles per
    block side, whose least common multiple is 45045: each tiling pools
    from a gcd grid padded to its own whole blocks, never to that
    multiple, so the search stays small and exact."""
    rng = np.random.default_rng(9)
    luma_src, luma_ref = (_low_entropy("levels", rng, 64, 64) for _ in range(2))
    block_sizes = list(range(4, 61, 8))
    tracemalloc.start()
    try:
        fields = search_fields(frame(luma_src, poc=1), frame(luma_ref), block_sizes, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    want = _brute_force_vectors(luma_src, luma_ref, block_sizes, 2)
    for block_size, field in zip(block_sizes, fields):
        for (x, y), mv in want[block_size].items():
            assert tuple(field.mv[y // 4, x // 4]) == (mv.x, mv.y)


def _int64_tile_sads(a, b, th, tw):
    diff = np.abs(a.astype(np.int64) - b)
    h, w = diff.shape
    return [[int(diff[y:y + th, x:x + tw].sum()) for x in range(0, w, tw)]
            for y in range(0, h, th)]


def test_search_sums_stay_exact_past_the_uint16_row_bound():
    """A tile's rows sum in uint16 only while the tile is at most 257 rows
    (257 * 255 = 2**16 - 1). All-0 against all-255 frames with blocks 260
    rows high, and a reference whose white rows end at row 261: a block of
    260 rows at offset dy sees min(260, 261 - dy) white rows, so the best
    offset, dy = 4, sums to 257 * 255 per column while dy = 3, at 258 rows,
    would wrap to 254 in uint16 and win."""
    black = np.zeros((264, 264), dtype=np.uint8)
    white = np.full_like(black, 255)
    [field] = search_fields(frame(black, poc=1), frame(white), [260], 1)
    assert not field.mv.any()
    assert full_search_me(frame(black[:, :8], poc=1), frame(white[:, :8]),
                          BlockSpec(0, 0, 8, 260), 2) == MotionVector(0, 0)
    for th in (256, 257, 258, 260, 264):
        got = predictor._block_sads(black, white, th, 8)
        assert got.dtype == np.int64
        assert got.tolist() == _int64_tile_sads(black, white, th, 8)
    stairs = np.zeros((268, 4), dtype=np.uint8)
    stairs[:261] = 255
    mv = full_search_me(frame(np.zeros_like(stairs), poc=1), frame(stairs),
                        BlockSpec(0, 0, 4, 260), 4)
    assert mv == MotionVector(0, 4 * 16)
    assert predictor._block_sads(np.zeros((260, 4), dtype=np.uint8), stairs[4:264],
                                 260, 4).tolist() == [[257 * 255 * 4]]


@st.composite
def _sad_planes(draw):
    """Two pairs of equal-shape uint8 planes of 1-80 rows and columns, the
    candidate a view into a wider plane as in the search, and tiles of 4-64
    rows and 1-64 columns, so edge tiles clip on either axis."""
    h, w = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    th, tw = draw(st.integers(4, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([np.arange(256), np.array([0, 255]), np.array([7])]))

    def plane():
        return rng.choice(levels, (h, w)).astype(np.uint8)

    def candidate():
        return rng.choice(levels, (h + 2, w + 3)).astype(np.uint8)[1:h + 1, 2:w + 2]

    return (plane(), candidate()), (plane(), candidate()), th, tw


@settings(max_examples=100, deadline=None)
@given(_sad_planes())
def test_block_sads_matches_an_int64_tile_sum(case):
    """``_block_sads`` against an int64 |a - b| tile sum, twice on one
    reused scratch whose pad rows it must leave zero, once into ``out``
    and once with its own scratch."""
    (a, b), (c, d), th, tw = case
    h, w = a.shape
    scratch = np.zeros((-(-h // th) * th, w), dtype=np.uint8)
    assert predictor._block_sads(a, b, th, tw, scratch).tolist() == _int64_tile_sads(a, b, th, tw)
    assert not scratch[h:].any()
    out = np.empty((-(-h // th), -(-w // tw)), dtype=np.int64)
    assert predictor._block_sads(c, d, th, tw, scratch, out) is out
    assert out.tolist() == _int64_tile_sads(c, d, th, tw)
    assert not scratch[h:].any()
    assert predictor._block_sads(b, a, th, tw).tolist() == _int64_tile_sads(a, b, th, tw)


def test_frame_kernels_validate_inputs():
    luma, wide = np.zeros((16, 16), dtype=np.uint8), np.zeros((16, 24), dtype=np.uint8)
    with pytest.raises(ValueError, match="search range"):
        search_fields(frame(luma), frame(luma, poc=-1), [8], -1)
    with pytest.raises(ValueError, match="leaves the 16x16 frame"):
        search_fields(frame(wide), frame(luma, poc=-1), [8], 1)
    with pytest.raises(ValueError, match="multiples of 4"):
        search_fields(frame(luma), frame(luma, poc=-1), [6], 1)
    with pytest.raises(ValueError, match="multiples of 4"):
        search_fields(frame(luma), frame(luma, poc=-1), [], 1)
    with pytest.raises(ValueError, match="multiples of 4"):
        search_fields(frame(luma), frame(luma, poc=-1), [8, 6], 1)
    [field] = search_fields(frame(luma), frame(luma, poc=-1), [8], 1)
    with pytest.raises(ValueError, match="one vector per 4x4 cell"):
        predict_frame(frame(wide), field, 8)
    field.ref_distance[1, 2] = 0
    with pytest.raises(ValueError, match="t2"):
        predict_frame(frame(luma), field, 8, FieldParams.unavailable(field))


# ------------------------------------------------------------- compensation

def test_compensate_zero_vector_is_a_copy():
    rng = np.random.default_rng(4)
    luma = noise(rng, 16, 16)
    got = sample_block(luma, 4, 4, 8, 8, (0, 0))
    assert np.array_equal(got, luma[4:12, 4:12])


def test_compensate_half_pel_on_ramp():
    ramp = np.tile(np.arange(16, dtype=np.uint8), (16, 1))
    got = sample_block(ramp, 0, 0, 8, 8, (8, 0))
    # x + 0.5 rounds away from zero to x + 1
    expected = np.tile(np.arange(1, 9, dtype=np.uint8), (8, 1))
    assert np.array_equal(got, expected)


def test_compensate_outside_frame_replicates_border():
    rng = np.random.default_rng(5)
    luma = noise(rng, 16, 16)
    got = sample_block(luma, 0, 0, 4, 4, (16 * 100, 0))
    assert np.array_equal(got, np.repeat(luma[0:4, 15:16], 4, axis=1))


def test_compensate_integer_vectors_never_interpolate():
    rng = np.random.default_rng(6)
    luma = noise(rng, 32, 32)
    for dx in (-2, 0, 3):
        for dy in (-1, 0, 2):
            got = sample_block(luma, 12, 12, 8, 8, (16 * dx, 16 * dy))
            assert np.array_equal(
                got, luma[12 + dy:20 + dy, 12 + dx:20 + dx])


# ---------------------------------------------------------------- correction

def grid_of(*mvs):
    """2x2 sub-block grid from four (x, y) pairs, row-major."""
    return np.array(mvs, dtype=np.int64).reshape(2, 2, 2)


def test_correct_within_band_is_untouched():
    init = MotionVector(10, -10)
    grid = grid_of((10, -10), (42, -10), (10, 22), (-22, -42))
    out, count = correct_mvs(grid, init, 32)
    assert count == 0
    assert np.array_equal(out, grid)


def test_correct_clamps_one_outlier():
    init = MotionVector(0, 0)
    grid = grid_of((40, 0), (0, 0), (0, 0), (0, 0))
    out, count = correct_mvs(grid, init, 32)
    assert count == 1
    assert tuple(out[0, 0]) == (32, 0)
    assert np.all(out.reshape(-1, 2)[1:] == 0)


def test_correct_majority_resets_everything():
    init = MotionVector(4, 4)
    grid = grid_of((100, 4), (4, 100), (-100, -100), (4, 4))
    out, count = correct_mvs(grid, init, 32)
    assert count == 3
    assert np.all(out == np.array([4, 4]))


def test_correct_exactly_half_does_not_reset():
    init = MotionVector(0, 0)
    grid = grid_of((50, 0), (0, -50), (8, 8), (0, 0))
    out, count = correct_mvs(grid, init, 32)
    assert count == 2
    assert tuple(out[0, 0]) == (32, 0)
    assert tuple(out[0, 1]) == (0, -32)
    assert tuple(out[1, 0]) == (8, 8)


def test_correct_counts_a_sub_block_once_for_both_axes():
    init = MotionVector(0, 0)
    grid = grid_of((40, -40), (0, 0), (0, 0), (0, 0))
    out, count = correct_mvs(grid, init, 32)
    assert count == 1
    assert tuple(out[0, 0]) == (32, -32)


def test_correct_is_idempotent_and_preserves_dtype():
    rng = np.random.default_rng(7)
    init = MotionVector(3, -5)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        grid = rng.integers(-64, 65, (rows, cols, 2)).astype(np.int32)
        once, _ = correct_mvs(grid, init, 24)
        twice, again = correct_mvs(once, init, 24)
        assert once.dtype == np.int32
        assert np.array_equal(once, twice)
        assert again == 0


def test_correct_batched_matches_per_grid_loop():
    rng = np.random.default_rng(8)
    init = MotionVector(-6, 2)
    batch = rng.integers(-80, 81, (10, 3, 2, 2, 2)).astype(np.int64)
    out, counts = correct_mvs(batch, init, 32)
    assert counts.shape == (10, 3)
    for b in range(10):
        for g in range(3):
            single, count = correct_mvs(batch[b, g], init, 32)
            assert np.array_equal(out[b, g], single)
            assert counts[b, g] == count


def test_correct_zero_band_forces_the_initial_vector():
    init = MotionVector(12, 0)
    grid = grid_of((12, 0), (13, 0), (12, 1), (12, 0))
    out, count = correct_mvs(grid, init, 0)
    assert count == 2
    assert np.all(out == np.array([12, 0]))


def test_correct_validates_arguments():
    grid = grid_of((0, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        correct_mvs(grid, MotionVector(0, 0), -1)
    with pytest.raises(ValueError):
        correct_mvs(np.zeros((2, 2), dtype=np.int64), MotionVector(0, 0))


# ------------------------------------------------------------------- blocks

def test_block_spec_validation():
    BlockSpec(0, 0, 4, 4)
    with pytest.raises(ValueError):
        BlockSpec(-1, 0, 8, 8)
    with pytest.raises(ValueError):
        BlockSpec(0, 0, 6, 8)
    with pytest.raises(ValueError):
        BlockSpec(0, 0, 8, 0)


@pytest.mark.parametrize("src_side,ref_side,block", [
    (16, 16, BlockSpec(12, 12, 8, 8)),
    (32, 16, BlockSpec(8, 8, 16, 16)),   # inside src, leaves ref
])
def test_prediction_with_a_given_vector_rejects_a_block_leaving_a_frame(
    src_side, ref_side, block
):
    src = frame(np.zeros((src_side, src_side), dtype=np.uint8))
    ref = frame(np.zeros((ref_side, ref_side), dtype=np.uint8))
    field = linear_field(ref_side, ref_side, 0, 0)  # usable: no fallback
    zero = MotionVector(0, 0)
    with pytest.raises(ValueError, match="leaves the 16x16 frame"):
        predict_uniform(src, ref, block, 2, initial_mv=zero)
    with pytest.raises(ValueError, match="leaves the 16x16 frame"):
        predict_uamm(src, ref, field, block, 2, 1, initial_mv=zero)


# -------------------------------------------------------------- uniform mode

def test_uniform_static_scene():
    rng = np.random.default_rng(9)
    luma = noise(rng, 32, 32)
    res = predict_uniform(frame(luma), frame(luma), BlockSpec(8, 8, 16, 16), 4)
    assert res.refined.tolist() == [[False]]
    assert scored(frame(luma), res, 16, 16, 8, 8).tolist() == [[0]]
    assert res.corrected.tolist() == [[0]]
    assert res.subblock_mvs.shape == (4, 4, 2)
    assert np.all(res.subblock_mvs == 0)
    assert np.array_equal(res.pred, luma[8:24, 8:24])


def test_uniform_pure_translation_has_zero_sad():
    rng = np.random.default_rng(10)
    src = noise(rng, 32, 32)
    ref = shifted_right(src, 3)
    res = predict_uniform(frame(src), frame(ref), BlockSpec(8, 8, 8, 8), 8)
    assert np.all(res.subblock_mvs == (48, 0))
    assert scored(frame(src), res, 8, 8, 8, 8)[0, 0] == 0


def test_uniform_sad_is_the_reported_residual():
    rng = np.random.default_rng(11)
    src, ref = noise(rng, 32, 32), noise(rng, 32, 32)
    block = BlockSpec(4, 4, 8, 8)
    res = predict_uniform(frame(src), frame(ref), block, 2)
    manual = np.abs(src[4:12, 4:12].astype(int)
                    - res.pred.astype(int)).sum()
    assert scored(frame(src), res, 8, 8, 4, 4)[0, 0] == int(manual)


# ----------------------------------------------------------------- uamm mode

def test_uamm_total_fallback_equals_uniform():
    rng = np.random.default_rng(12)
    src, ref = noise(rng, 32, 32), noise(rng, 32, 32)
    empty = FieldParams.unavailable(MotionField.empty(0, 32, 32))
    block = BlockSpec(8, 8, 16, 16)
    a = predict_uamm(frame(src), frame(ref), empty, block, 4, 1)
    b = predict_uniform(frame(src), frame(ref), block, 4)
    assert a.refined.tolist() == b.refined.tolist() == [[False]]
    assert np.array_equal(a.subblock_mvs, b.subblock_mvs)
    assert np.array_equal(a.pred, b.pred)
    sads = [scored(frame(src), r, 16, 16, 8, 8).tolist() for r in (a, b)]
    assert (sads[0], a.corrected.tolist()) == (sads[1], b.corrected.tolist())


def test_uamm_linear_field_scales_like_tmvp():
    rng = np.random.default_rng(13)
    luma = noise(rng, 32, 32)
    f = linear_field(32, 32, 16 * P, 0)  # one pel per tick
    res = predict_uamm(frame(luma), frame(luma), f, BlockSpec(8, 8, 8, 8), 4, t2=2)
    assert res.refined[0, 0]
    assert res.corrected[0, 0] == 0
    # two ticks of one pel per tick: same value tmvp scaling produces
    from uamm import tmvp_scale
    expect = tmvp_scale(MotionVector(16, 0), TimeInterval(2), TimeInterval(1))
    assert expect == MotionVector(32, 0)
    assert np.all(res.subblock_mvs == np.array([32, 0]))


def test_uamm_recovers_the_accelerating_object():
    spec = TrajectorySpec(start_x=32, start_y=0, v0x=16, v0y=0, ax=32, ay=16,
                          patch_kind="noise", patch_seed=3,
                          background="flat", background_value=20)
    frames, gt = synth_sequence(spec, 6, 64, 64)
    k = 3
    tick = TimeInterval(1)
    f1 = field_from_global_mv(k - 2, 64, 64,
                              MotionVector(-gt[k - 3].x, -gt[k - 3].y), tick)
    f2 = field_from_global_mv(k - 1, 64, 64,
                              MotionVector(-gt[k - 2].x, -gt[k - 2].y), tick)
    ref_field = derive_field_params(f2, f1)
    # 8x8 block fully inside the object footprint at frame 3
    res = predict_uamm(frames[k], frames[k - 1], ref_field,
                       BlockSpec(16, 6, 8, 8), 12, 1)
    assert res.refined[0, 0]
    assert np.all(res.subblock_mvs == np.array([-gt[k - 1].x, -gt[k - 1].y]))
    assert scored(frames[k], res, 8, 8, 16, 6)[0, 0] == 0
    assert res.corrected[0, 0] == 0


def test_uamm_partial_out_of_band_clamps_but_keeps_the_rest():
    rng = np.random.default_rng(14)
    luma = noise(rng, 16, 16)
    f = unit_window_params(16, 16)
    f.kind[:, :] = int(ParamKind.LINEAR)
    f.v0[:2] = (48 * P, 0)   # top cell rows extrapolate out of band
    f.v0[2:] = (16 * P, 0)   # bottom rows stay inside
    res = predict_uamm(frame(luma), frame(luma), f, BlockSpec(4, 4, 8, 8), 2, 1)
    assert res.corrected[0, 0] == 2
    assert np.all(res.subblock_mvs[0] == np.array([32, 0]))
    assert np.all(res.subblock_mvs[1] == np.array([16, 0]))


def test_uamm_majority_reset_reproduces_the_block_vector():
    rng = np.random.default_rng(15)
    luma = noise(rng, 16, 16)
    f = linear_field(16, 16, 120 * P, 0)  # hopeless extrapolation everywhere
    block = BlockSpec(4, 4, 8, 8)
    res = predict_uamm(frame(luma), frame(luma), f, block, 2, 1)
    base = predict_uniform(frame(luma), frame(luma), block, 2)
    assert res.refined[0, 0]
    assert res.corrected[0, 0] == 4
    assert np.array_equal(res.subblock_mvs, base.subblock_mvs)
    assert np.array_equal(res.pred, base.pred)


@pytest.mark.parametrize("v0,acc,kind,t2", [
    ((64, 0), (64, 0), ParamKind.ACCELERATED, 2**40),
    ((2**61, 0), (0, 0), ParamKind.LINEAR, 4),   # 2*v0*t2 = 2**65 would wrap
])
def test_uamm_extrapolation_overflow_raises_instead_of_wrapping(v0, acc, kind, t2):
    luma = np.zeros((16, 16), dtype=np.uint8)
    f = unit_window_params(16, 16)
    f.v0[:, :] = v0
    f.acc[:, :] = acc
    f.kind[:, :] = int(kind)
    with pytest.raises(OverflowError):
        predict_uamm(frame(luma), frame(luma), f, BlockSpec(0, 0, 8, 8), 2,
                     t2=t2, initial_mv=MotionVector(0, 0))


def test_uamm_rejects_bad_intervals():
    luma = np.zeros((16, 16), dtype=np.uint8)
    f = FieldParams.unavailable(MotionField.empty(0, 16, 16))
    with pytest.raises(ValueError):
        predict_uamm(frame(luma), frame(luma), f, BlockSpec(0, 0, 8, 8), 2, t2=0)


def test_uamm_extrapolates_past_the_derived_window():
    """Fields at reference distance 2, mvx 32 at poc 2 then 80 at poc 4,
    derive parameters over the window (2, 2). Predicting two ticks on,
    every sub-block takes ``extrapolate_mv`` over that window, (128, 0),
    not the (80, 0) a window of one tick each would give."""
    two = TimeInterval(2)
    params = derive_field_params(field_from_global_mv(4, 32, 32, MotionVector(80, 0), two),
                                 field_from_global_mv(2, 32, 32, MotionVector(32, 0), two))
    solved = derive_params(MotionVector(32, 0), MotionVector(80, 0), two, two)
    assert extrapolate_mv(solved, two, two, two) == MotionVector(128, 0)
    rng = np.random.default_rng(18)
    ref = frame(noise(rng, 32, 32), poc=4)
    field = field_from_global_mv(6, 32, 32, MotionVector(0, 0), two)
    got = predict_frame(ref, field, 16, params, delta_max=10**4)
    assert np.all(got.subblock_mvs == (128, 0))
    assert not got.corrected.any()


# ------------------------------------------------------------------- frames

def _per_block_frame(src, ref, field, block_size, ref_field=None, delta_max=32):
    """The frame pass rebuilt from one ``predict_uniform`` (no ``ref_field``)
    or ``predict_uamm`` call per block of the tiling, each given its
    block's vector and, as ``t2``, its ref distance from ``field``."""
    h, w = src.luma.shape
    pred = np.zeros((h, w), dtype=np.uint8)
    sub = np.zeros((h // 4, w // 4, 2), dtype=np.int64)
    sads, corrected, refined = [], [], []
    for y in range(0, h, block_size):
        for x in range(0, w, block_size):
            block = BlockSpec(x, y, min(block_size, w - x), min(block_size, h - y))
            mv = MotionVector(*field.mv[y // 4, x // 4].tolist())
            if ref_field is None:
                res = predict_uniform(src, ref, block, 0, initial_mv=mv)
            else:
                res = predict_uamm(src, ref, ref_field, block, 0,
                                   int(field.ref_distance[y // 4, x // 4]),
                                   delta_max=delta_max, initial_mv=mv)
            pred[y:y + block.h, x:x + block.w] = res.pred
            sub[y // 4:(y + block.h) // 4, x // 4:(x + block.w) // 4] = res.subblock_mvs
            sads.append(scored(src, res, block.h, block.w, x, y)[0, 0])
            corrected.append(res.corrected[0, 0])
            refined.append(res.refined[0, 0])
    blocks = (-(-h // block_size), -(-w // block_size))
    return (pred, sub, *(np.array(v).reshape(blocks) for v in (sads, corrected, refined)))


def _assert_frame_equals(src, block_size, got, want):
    pred, sub, sads, corrected, refined = want
    assert np.array_equal(got.pred, pred)
    assert np.array_equal(got.subblock_mvs, sub)
    assert scored(src, got, block_size, block_size).tolist() == sads.tolist()
    assert got.corrected.tolist() == corrected.tolist()
    assert got.refined.tolist() == refined.tolist()


def _block_field(w, h, block_size, mvs, dists=None):
    """A searched-style field: block (i, j) of the tiling carries mvs[j][i]
    over dists[j][i] ticks, 1 without ``dists``."""
    field = MotionField.empty(1, w, h)
    cells = block_size // CELL_SIZE
    for j in range(len(mvs)):
        for i in range(len(mvs[j])):
            rect = np.s_[j * cells:(j + 1) * cells, i * cells:(i + 1) * cells]
            field.mv[rect] = mvs[j][i]
            field.ref_distance[rect] = 1 if dists is None else dists[j][i]
    return field


@st.composite
def _frame_case(draw):
    """Frames of 4-48 px a side tiled by 4-20 px blocks (edge blocks clip),
    sub-pel block vectors of either sign over ref distances of 1-3 ticks
    per block, and reference parameters whose cells are unavailable with
    probability 0, 1/2 or 1 and otherwise, over windows of 1-4 ticks each,
    extrapolate to within 3 pel per tick, so that some stay in the band
    and some clamp; band widths 0, 32 and one that never clamps."""
    w, h = 4 * draw(st.integers(1, 12)), 4 * draw(st.integers(1, 12))
    block_size = draw(st.sampled_from([4, 8, 12, 16, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src, ref = frame(noise(rng, w, h), poc=1), frame(noise(rng, w, h), poc=0)
    blocks = (-(-h // block_size), -(-w // block_size))
    field = _block_field(w, h, block_size, rng.integers(-40, 41, (*blocks, 2)).tolist(),
                         rng.integers(1, 4, blocks).tolist())
    ref_field = FieldParams.unavailable(MotionField.empty(0, w, h))
    shape = ref_field.kind.shape
    ref_field.v0[...] = rng.integers(-48, 49, (*shape, 2)) * P
    ref_field.acc[...] = rng.integers(-8, 9, (*shape, 2)) * (rng.random((*shape, 1)) < 0.5)
    ref_field.kind[...] = np.where(ref_field.acc.any(axis=2), ParamKind.ACCELERATED,
                                   np.where(ref_field.v0.any(axis=2), ParamKind.LINEAR,
                                            ParamKind.CONSTANT))
    unavailable = rng.random(shape) < draw(st.sampled_from([0, 0.5, 1]))
    ref_field.v0[unavailable] = ref_field.acc[unavailable] = 0
    ref_field.kind[unavailable] = ParamKind.UNAVAILABLE
    ref_field.t0[...], ref_field.field.ref_distance[...] = (
        rng.integers(1, 5, (2, *shape)) * ~unavailable)
    delta_max = draw(st.sampled_from([0, 32, 10**6]))
    return src, ref, field, ref_field, block_size, delta_max


@settings(max_examples=60, deadline=None)
@given(_frame_case())
def test_frame_pass_matches_one_call_per_block(case):
    """Both modes' frame passes against ``_per_block_frame``: prediction
    plane, sub-block vectors, per-block SADs, clamp counts, refined flags."""
    src, ref, field, ref_field, block_size, delta_max = case
    _assert_frame_equals(src, block_size, predict_frame(ref, field, block_size),
                         _per_block_frame(src, ref, field, block_size))
    _assert_frame_equals(
        src, block_size, predict_frame(ref, field, block_size, ref_field, delta_max),
        _per_block_frame(src, ref, field, block_size, ref_field, delta_max))


def test_frame_pass_applies_the_band_rule_block_by_block():
    """A 40x24 frame of 16-px blocks (the right column 8 wide, the bottom
    row 8 high), zero block vectors and linear cells extrapolating to
    16 (in the band) or 100 (out of it) units in x:

        block (0,0), 16 sub-blocks: 8 out, exactly half: clamped, no reset;
        block (1,0): no parameters: the uniform prediction;
        block (2,0), 8 sub-blocks: 5 out: reset to the block vector;
        block (0,1), 8 sub-blocks: 4 unavailable, 2 out: clamped, no reset;
        block (1,1): all in the band;
        block (2,1), 4 sub-blocks: 3 out: reset.
    """
    rng = np.random.default_rng(16)
    src, ref = frame(noise(rng, 40, 24), poc=1), frame(noise(rng, 40, 24), poc=0)
    field = _block_field(40, 24, 16, [[(0, 0)] * 3] * 2)
    target = np.full((6, 10), 16)
    target[0:2, 0:4] = 100
    target[0:2, 8:10] = target[2, 8] = 100
    target[4:6, 3] = 100
    target[4, 8:10] = target[5, 8] = 100
    ref_field = linear_field(40, 24, 0, 0)
    ref_field.v0[..., 0] = target * P
    ref_field.kind[...] = ParamKind.LINEAR
    ref_field.kind[0:4, 4:8] = ref_field.kind[4:6, 0:2] = ParamKind.UNAVAILABLE
    ref_field.v0[ref_field.kind == ParamKind.UNAVAILABLE] = 0

    got = predict_frame(ref, field, 16, ref_field, delta_max=32)
    assert got.corrected.tolist() == [[8, 0, 5], [2, 0, 3]]
    assert got.refined.tolist() == [[True, False, True], [True, True, True]]
    want_x = np.minimum(target, 32)
    want_x[0:4, 4:8] = want_x[4:6, 0:2] = 0           # fallbacks
    want_x[0:4, 8:10] = want_x[4:6, 8:10] = 0         # resets
    assert got.subblock_mvs[..., 0].tolist() == want_x.tolist()
    assert not got.subblock_mvs[..., 1].any()
    _assert_frame_equals(src, 16, got, _per_block_frame(src, ref, field, 16, ref_field, 32))
    uniform = predict_frame(ref, field, 16)
    assert np.array_equal(got.pred[0:16, 16:32], uniform.pred[0:16, 16:32])
    assert scored(src, got, 16, 16)[0, 1] == scored(src, uniform, 16, 16)[0, 1]

"""Search, compensation, sub-block vector correction, both prediction modes."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uamm import (
    MV_MAX,
    PARAM_SCALE,
    BlockSpec,
    FrameBuffer,
    MotionField,
    MotionVector,
    ParamKind,
    PredictionMode,
    TimeInterval,
    TrajectorySpec,
    UammParams,
    correct_mvs,
    derive_field_params,
    estimate_field,
    field_from_global_mv,
    full_search_me,
    motion_compensate,
    predict_uamm,
    predict_uniform,
    synth_sequence,
)
from uamm.interp import sample_block, sample_subblocks

P = PARAM_SCALE


def frame(luma, poc=0):
    h, w = luma.shape
    return FrameBuffer(poc=poc, width=w, height=h, luma=luma)


def noise(rng, w, h):
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


def shifted_right(luma, pels):
    """Content moved right: the original block is found at +pels in x."""
    out = np.repeat(luma[:, :1], luma.shape[1], axis=1)
    out[:, pels:] = luma[:, :-pels]
    return out


def linear_field(w, h, vx, vy):
    """Every cell carries a linear model with the given scaled velocity."""
    f = MotionField.empty(0, w, h)
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
    """A plane, a block touching any of its edges, a 4x4 sub-block vector grid."""
    w, h = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane = noise(rng, w, h)
    bw = 4 * draw(st.integers(1, min(w // 4, 4)))
    bh = 4 * draw(st.integers(1, min(h // 4, 4)))
    bx = draw(st.sampled_from([0, w - bw, draw(st.integers(0, w - bw))]))
    by = draw(st.sampled_from([0, h - bh, draw(st.integers(0, h - bh))]))
    # Small fractional vectors of either sign, or anywhere up to far outside.
    component = st.one_of(st.integers(-40, 40), st.integers(-MV_MAX, MV_MAX))
    n = (bh // 4) * (bw // 4)
    mvs = draw(st.lists(st.tuples(component, component), min_size=n, max_size=n))
    return plane, bx, by, bw, bh, np.array(mvs, dtype=np.int64).reshape(bh // 4, bw // 4, 2)


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


def test_estimate_field_clips_the_tiling_at_the_frame_edges():
    rng = np.random.default_rng(5)
    ref = frame(noise(rng, 40, 24), poc=1)
    src = frame(shifted_right(ref.luma, 2), poc=3)
    field, searched = estimate_field(src, ref, 16, 4)
    assert [(b.x, b.y, b.w, b.h) for b, _ in searched] == [
        (0, 0, 16, 16), (16, 0, 16, 16), (32, 0, 8, 16),
        (0, 16, 16, 8), (16, 16, 16, 8), (32, 16, 8, 8)]
    assert all(mv == MotionVector(-32, 0) for _, mv in searched)
    assert field.poc == 3 and field.mv_valid.all()
    assert (field.mv == (-32, 0)).all() and (field.ref_distance == 2).all()


# ------------------------------------------------------------- compensation

def test_compensate_zero_vector_is_a_copy():
    rng = np.random.default_rng(4)
    luma = noise(rng, 16, 16)
    got = motion_compensate(frame(luma), BlockSpec(4, 4, 8, 8), MotionVector(0, 0))
    assert np.array_equal(got, luma[4:12, 4:12])


def test_compensate_half_pel_on_ramp():
    ramp = np.tile(np.arange(16, dtype=np.uint8), (16, 1))
    got = motion_compensate(frame(ramp), BlockSpec(0, 0, 8, 8), MotionVector(8, 0))
    # x + 0.5 rounds away from zero to x + 1
    expected = np.tile(np.arange(1, 9, dtype=np.uint8), (8, 1))
    assert np.array_equal(got, expected)


def test_compensate_outside_frame_replicates_border():
    rng = np.random.default_rng(5)
    luma = noise(rng, 16, 16)
    got = motion_compensate(frame(luma), BlockSpec(0, 0, 4, 4),
                            MotionVector(16 * 100, 0))
    assert np.array_equal(got, np.repeat(luma[0:4, 15:16], 4, axis=1))


def test_compensate_integer_vectors_never_interpolate():
    rng = np.random.default_rng(6)
    luma = noise(rng, 32, 32)
    block = BlockSpec(12, 12, 8, 8)
    for dx in (-2, 0, 3):
        for dy in (-1, 0, 2):
            got = motion_compensate(frame(luma), block,
                                    MotionVector(16 * dx, 16 * dy))
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
    (16, 32, BlockSpec(8, 8, 16, 16)),   # inside ref, leaves src
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
        predict_uamm(src, ref, field, block, 2, 1, 1, 1, initial_mv=zero)


# -------------------------------------------------------------- uniform mode

def test_uniform_static_scene():
    rng = np.random.default_rng(9)
    luma = noise(rng, 32, 32)
    res = predict_uniform(frame(luma), frame(luma), BlockSpec(8, 8, 16, 16), 4)
    assert res.mode == PredictionMode.UNIFORM_BASELINE
    assert res.initial_mv == MotionVector(0, 0)
    assert res.sad == 0
    assert res.corrected_count == 0
    assert res.subblock_mvs.shape == (4, 4, 2)
    assert np.all(res.subblock_mvs == 0)
    assert np.array_equal(res.pred_block, luma[8:24, 8:24])


def test_uniform_pure_translation_has_zero_sad():
    rng = np.random.default_rng(10)
    src = noise(rng, 32, 32)
    ref = shifted_right(src, 3)
    res = predict_uniform(frame(src), frame(ref), BlockSpec(8, 8, 8, 8), 8)
    assert res.initial_mv == MotionVector(48, 0)
    assert res.sad == 0


def test_uniform_sad_is_the_reported_residual():
    rng = np.random.default_rng(11)
    src, ref = noise(rng, 32, 32), noise(rng, 32, 32)
    block = BlockSpec(4, 4, 8, 8)
    res = predict_uniform(frame(src), frame(ref), block, 2)
    manual = np.abs(src[4:12, 4:12].astype(int)
                    - res.pred_block.astype(int)).sum()
    assert res.sad == int(manual)


# ----------------------------------------------------------------- uamm mode

def test_uamm_total_fallback_equals_uniform():
    rng = np.random.default_rng(12)
    src, ref = noise(rng, 32, 32), noise(rng, 32, 32)
    empty = MotionField.empty(0, 32, 32)
    block = BlockSpec(8, 8, 16, 16)
    a = predict_uamm(frame(src), frame(ref), empty, block, 4, 1, 1, 1)
    b = predict_uniform(frame(src), frame(ref), block, 4)
    assert a.mode == b.mode == PredictionMode.UNIFORM_BASELINE
    assert a.initial_mv == b.initial_mv
    assert np.array_equal(a.subblock_mvs, b.subblock_mvs)
    assert np.array_equal(a.pred_block, b.pred_block)
    assert (a.sad, a.corrected_count) == (b.sad, b.corrected_count)


def test_uamm_linear_field_scales_like_tmvp():
    rng = np.random.default_rng(13)
    luma = noise(rng, 32, 32)
    f = linear_field(32, 32, 16 * P, 0)  # one pel per tick
    res = predict_uamm(frame(luma), frame(luma), f, BlockSpec(8, 8, 8, 8),
                       4, t0=1, t1=1, t2=2)
    assert res.mode == PredictionMode.UAMM_REFINED
    assert res.corrected_count == 0
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
                       BlockSpec(16, 6, 8, 8), 12, 1, 1, 1)
    assert res.mode == PredictionMode.UAMM_REFINED
    assert np.all(res.subblock_mvs == np.array([-gt[k - 1].x, -gt[k - 1].y]))
    assert res.sad == 0
    assert res.corrected_count == 0


def test_uamm_partial_out_of_band_clamps_but_keeps_the_rest():
    rng = np.random.default_rng(14)
    luma = noise(rng, 16, 16)
    f = MotionField.empty(0, 16, 16)
    f.kind[:, :] = int(ParamKind.LINEAR)
    f.v0[:2] = (48 * P, 0)   # top cell rows extrapolate out of band
    f.v0[2:] = (16 * P, 0)   # bottom rows stay inside
    res = predict_uamm(frame(luma), frame(luma), f, BlockSpec(4, 4, 8, 8),
                       2, 1, 1, 1)
    assert res.corrected_count == 2
    assert np.all(res.subblock_mvs[0] == np.array([32, 0]))
    assert np.all(res.subblock_mvs[1] == np.array([16, 0]))


def test_uamm_majority_reset_reproduces_the_block_vector():
    rng = np.random.default_rng(15)
    luma = noise(rng, 16, 16)
    f = linear_field(16, 16, 120 * P, 0)  # hopeless extrapolation everywhere
    block = BlockSpec(4, 4, 8, 8)
    res = predict_uamm(frame(luma), frame(luma), f, block, 2, 1, 1, 1)
    base = predict_uniform(frame(luma), frame(luma), block, 2)
    assert res.mode == PredictionMode.UAMM_REFINED
    assert res.corrected_count == 4
    assert np.all(res.subblock_mvs == np.array([base.initial_mv.x,
                                                base.initial_mv.y]))
    assert np.array_equal(res.pred_block, base.pred_block)


@pytest.mark.parametrize("v0,acc,kind,t2", [
    ((64, 0), (64, 0), ParamKind.ACCELERATED, 2**40),
    ((2**61, 0), (0, 0), ParamKind.LINEAR, 4),   # 2*v0*t2 = 2**65 would wrap
])
def test_uamm_extrapolation_overflow_raises_instead_of_wrapping(v0, acc, kind, t2):
    luma = np.zeros((16, 16), dtype=np.uint8)
    f = MotionField.empty(0, 16, 16)
    f.v0[:, :] = v0
    f.acc[:, :] = acc
    f.kind[:, :] = int(kind)
    with pytest.raises(OverflowError):
        predict_uamm(frame(luma), frame(luma), f, BlockSpec(0, 0, 8, 8), 2,
                     t0=1, t1=1, t2=t2, initial_mv=MotionVector(0, 0))


def test_uamm_rejects_bad_intervals():
    luma = np.zeros((16, 16), dtype=np.uint8)
    f = MotionField.empty(0, 16, 16)
    with pytest.raises(ValueError):
        predict_uamm(frame(luma), frame(luma), f, BlockSpec(0, 0, 8, 8),
                     2, t0=0, t1=1, t2=1)

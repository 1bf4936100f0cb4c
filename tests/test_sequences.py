"""YUV I/O round-trips and the synthetic constant-acceleration generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamm import (
    FrameBuffer,
    MotionVector,
    TrajectorySpec,
    read_yuv,
    synth_sequence,
    write_yuv,
)
from uamm.sequences import trajectory_positions


def random_frame(rng, poc, w, h):
    return FrameBuffer(
        poc=poc,
        luma=rng.integers(0, 256, (h, w), dtype=np.uint8),
        chroma_u=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        chroma_v=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
    )


# ------------------------------------------------------------ frame buffer

def test_frame_buffer_validates_planes():
    ok = np.zeros((8, 6), dtype=np.uint8)
    frame = FrameBuffer(poc=0, luma=ok)
    assert (frame.width, frame.height) == (6, 8)
    with pytest.raises(ValueError):
        FrameBuffer(poc=0, luma=np.zeros((8, 6, 1), np.uint8))
    with pytest.raises(ValueError):
        FrameBuffer(poc=0, luma=np.zeros((0, 6), np.uint8))
    with pytest.raises(ValueError):
        FrameBuffer(poc=0, luma=ok.astype(np.int16))
    with pytest.raises(ValueError):
        FrameBuffer(poc=0, luma=ok, chroma_u=np.zeros((8, 6), np.uint8))


# ------------------------------------------------------------------- file IO

def test_read_yuv_two_small_frames(tmp_path):
    path = tmp_path / "two.yuv"
    payload = bytes(range(192 // 2)) * 2  # 2 frames x 96 bytes for 8x8 4:2:0
    path.write_bytes(payload)
    frames = read_yuv(str(path), 8, 8, 2)
    assert len(frames) == 2
    assert [f.poc for f in frames] == [0, 1]
    assert frames[0].luma[0, 5] == 5
    assert frames[0].chroma_u.shape == (4, 4)


def test_read_yuv_truncated_names_expected_and_actual(tmp_path):
    path = tmp_path / "short.yuv"
    path.write_bytes(b"\x00" * 191)
    with pytest.raises(ValueError) as err:
        read_yuv(str(path), 8, 8, 2)
    msg = str(err.value)
    assert "192" in msg and "191" in msg and "short.yuv" in msg


def test_read_yuv_rejects_bad_dimensions(tmp_path):
    path = tmp_path / "any.yuv"
    path.write_bytes(b"\x00" * 400)
    for w, h in ((0, 8), (8, 0), (7, 8), (8, 7)):
        with pytest.raises(ValueError):
            read_yuv(str(path), w, h, 1)


def test_read_yuv_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.yuv"
    with pytest.raises(FileNotFoundError) as err:
        read_yuv(str(missing), 8, 8, 1)
    assert "nope.yuv" in str(err.value)


def test_write_read_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, k, 16, 8) for k in range(3)]
    path = tmp_path / "rt.yuv"
    write_yuv(frames, str(path))
    back = read_yuv(str(path), 16, 8, 3)
    for a, b in zip(frames, back):
        assert np.array_equal(a.luma, b.luma)
        assert np.array_equal(a.chroma_u, b.chroma_u)
        assert np.array_equal(a.chroma_v, b.chroma_v)


def test_write_yuv_fills_missing_chroma(tmp_path):
    frame = FrameBuffer(poc=0, luma=np.zeros((8, 8), np.uint8))
    path = tmp_path / "grey.yuv"
    write_yuv([frame], str(path))
    back = read_yuv(str(path), 8, 8, 1)
    assert np.all(back[0].chroma_u == 128)
    assert np.all(back[0].chroma_v == 128)


# ----------------------------------------------------------------- synthesis

def test_uniform_motion_positions_and_vectors():
    spec = TrajectorySpec(start_x=64, start_y=64, v0x=16, v0y=0,
                          patch_width=8, patch_height=8)
    assert spec.position(3) == (64 + 48, 64)
    _, mvs = synth_sequence(spec, 4, 64, 64)
    assert mvs == [MotionVector(16, 0)] * 3


def test_accelerated_positions_frozen():
    spec = TrajectorySpec(start_x=0, start_y=0, v0x=16, v0y=0, ax=32, ay=0,
                          patch_width=8, patch_height=8)
    assert [spec.position(k)[0] for k in range(4)] == [0, 32, 96, 192]
    _, mvs = synth_sequence(spec, 4, 64, 16)
    assert [mv.x for mv in mvs] == [32, 64, 96]


def test_static_sequence_is_identical_frames():
    spec = TrajectorySpec(start_x=32, start_y=32, patch_width=8, patch_height=8)
    frames, mvs = synth_sequence(spec, 3, 32, 32)
    assert mvs == [MotionVector(0, 0)] * 2
    assert np.array_equal(frames[0].luma, frames[1].luma)
    assert np.array_equal(frames[1].luma, frames[2].luma)


@given(st.integers(-16, 16), st.integers(-16, 16),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_vector_differences_equal_the_acceleration(v0x, v0y, hax, hay):
    ax, ay = 2 * hax, 2 * hay  # grid-exact accelerations are even
    spec = TrajectorySpec(start_x=1024, start_y=1024, v0x=v0x, v0y=v0y,
                          ax=ax, ay=ay, patch_width=4, patch_height=4)
    _, mvs = synth_sequence(spec, 5, 128, 128)
    for k in range(1, len(mvs)):
        assert mvs[k].x - mvs[k - 1].x == ax
        assert mvs[k].y - mvs[k - 1].y == ay


def test_object_leaving_the_frame_is_rejected():
    spec = TrajectorySpec(start_x=0, start_y=0, v0x=256, v0y=0,
                          patch_width=8, patch_height=8)
    with pytest.raises(ValueError) as err:
        synth_sequence(spec, 4, 32, 32)
    assert "frame" in str(err.value)


def test_object_leaving_the_frame_is_rejected_before_later_frames_are_built():
    """The first frame that leaves raises at once: a long sequence costs
    no memory for the frames after it."""
    spec = TrajectorySpec(start_x=64, start_y=64, v0x=16, ax=4, ay=2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="leaves the 64x64 frame at frame 16 "):
            trajectory_positions(spec, 200_000, 64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_odd_acceleration_is_rejected():
    spec = TrajectorySpec(start_x=64, start_y=64, ax=1, patch_width=4,
                          patch_height=4)
    with pytest.raises(ValueError):
        synth_sequence(spec, 3, 32, 32)
    # a single frame never moves, so the grid constraint does not apply
    frames, mvs = synth_sequence(spec, 1, 32, 32)
    assert len(frames) == 1 and mvs == []


def test_integer_pel_rendering_is_an_exact_patch_copy():
    spec = TrajectorySpec(start_x=32, start_y=16, v0x=32, v0y=16,
                          patch_width=8, patch_height=8, patch="noise",
                          patch_seed=5, background="flat", background_value=30)
    frames, _ = synth_sequence(spec, 4, 64, 64)
    patch0 = frames[0].luma[1:9, 2:10]
    for k in range(1, 4):
        x, y = spec.position(k)
        region = frames[k].luma[y // 16:y // 16 + 8, x // 16:x // 16 + 8]
        assert np.array_equal(region, patch0)


def test_subpel_start_widens_the_footprint():
    spec = TrajectorySpec(start_x=40, start_y=16, patch_width=8, patch_height=8,
                          patch="solid", patch_value=250,
                          background="flat", background_value=0)
    frames, _ = synth_sequence(spec, 1, 32, 32)
    row = frames[0].luma[2]
    # interior of the half-pel patch is solid, both edges are blended
    assert np.all(row[3:10] == 250)
    assert 0 < row[2] < 250 and 0 < row[10] < 250


def test_patch_and_background_textures():
    checker = TrajectorySpec(start_x=0, start_y=0, patch="checker",
                             patch_width=8, patch_height=8, background="ramp")
    frames, _ = synth_sequence(checker, 1, 32, 16)
    luma = frames[0].luma
    assert luma[0, 0] == 220 and luma[0, 2] == 35  # checker cells are 2 px
    assert list(luma[12, 8:12]) == [8, 9, 10, 11]  # ramp outside the patch

    solid = TrajectorySpec(start_x=0, start_y=0, patch="solid",
                           patch_value=99, patch_width=4, patch_height=4)
    frames, _ = synth_sequence(solid, 1, 16, 16)
    assert np.all(frames[0].luma[:4, :4] == 99)


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(start_x=0, start_y=0, patch="plasma")
    with pytest.raises(ValueError):
        TrajectorySpec(start_x=0, start_y=0, background="stars")
    with pytest.raises(ValueError):
        TrajectorySpec(start_x=0, start_y=0, patch_width=0)
    with pytest.raises(ValueError):
        synth_sequence(TrajectorySpec(start_x=0, start_y=0), 0, 16, 16)


@pytest.mark.parametrize("name, value", [
    ("patch_value", -5), ("patch_value", 256), ("background_value", 300),
    ("patch_seed", -1), ("background_seed", -1),
])
def test_trajectory_spec_rejects_out_of_range_levels_and_seeds(name, value):
    with pytest.raises(ValueError, match=name):
        TrajectorySpec(start_x=0, start_y=0, **{name: value})
    # 0 is in range for all four
    TrajectorySpec(start_x=0, start_y=0, **{name: 0})

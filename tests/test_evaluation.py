"""Quality metrics, BD-rate, and the experiment driver."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm import (
    MV_MAX,
    BdRateError,
    BlockSpec,
    ExperimentConfig,
    FieldParams,
    FrameBuffer,
    MotionField,
    MotionVector,
    ParamKind,
    RatePoint,
    RdPoint,
    SequenceSource,
    TrajectorySpec,
    bd_rate,
    derive_field_params,
    psnr,
    run_experiment,
    search_fields,
    synth_sequence,
    write_yuv,
)
from uamm import evaluation, predictor
from uamm.config import load_config
from uamm.evaluation import MODES, Decoder, _ModeTally, _signed_exp_golomb_bits
from uamm.motion_field import CELL_SIZE, gather_params
from uamm.predictor import predict_uamm, predict_uniform

CURVE = [RdPoint(100.0, 30.0), RdPoint(180.0, 33.0),
         RdPoint(330.0, 36.0), RdPoint(600.0, 39.0)]

TWO_POINTS = (RatePoint("a", 8, 8), RatePoint("b", 16, 8))


def scaled(points, factor):
    return [RdPoint(p.rate * factor, p.psnr) for p in points]


def accel_source(name="accel", frames=4, size=32):
    return SequenceSource(
        name=name, width=size, height=size, frames=frames,
        trajectory=TrajectorySpec(start_x=64, start_y=64, v0x=16, v0y=0,
                                  ax=4, ay=2, patch="noise", patch_seed=1,
                                  background="flat", background_value=30))


def make_config(tmp_path, source, **kw):
    defaults = dict(rate_points=TWO_POINTS, output_dir=str(tmp_path / "out"))
    defaults.update(kw)
    return ExperimentConfig(source=source, **defaults)


# --------------------------------------------------------------------- psnr

def test_psnr_identical_is_infinite():
    a = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert psnr(a, a) == math.inf


def test_psnr_constant_offset():
    a = np.zeros((32, 32), dtype=np.uint8)
    b = np.full((32, 32), 16, dtype=np.uint8)
    assert psnr(a, b) == pytest.approx(10 * math.log10(255 ** 2 / 256))


def test_psnr_single_saturated_pixel():
    a = np.zeros((2, 2), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 255
    # MSE = 255^2 / 4, so the ratio collapses to 4
    assert psnr(a, b) == pytest.approx(20 * math.log10(2))


def test_psnr_decreases_with_error():
    a = np.zeros((16, 16), dtype=np.uint8)
    values = [psnr(a, np.full_like(a, v)) for v in (1, 4, 9, 30)]
    assert all(x > y for x, y in zip(values, values[1:]))


@st.composite
def _psnr_planes(draw):
    """Two uint8 planes up to 300x300: random, identical, or all-0 against
    all-255, the largest error a pixel can carry."""
    h, w = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 256, (h, w), dtype=np.uint8)
    kind = draw(st.sampled_from(["random", "close", "same", "extremes"]))
    if kind == "random":
        b = rng.integers(0, 256, (h, w), dtype=np.uint8)
    elif kind == "close":
        b = np.clip(a.astype(np.int64) + rng.integers(-2, 3, (h, w)), 0, 255).astype(np.uint8)
    elif kind == "same":
        b = a.copy()
    else:
        a, b = np.zeros((h, w), dtype=np.uint8), np.full((h, w), 255, dtype=np.uint8)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=60, deadline=None)
@given(_psnr_planes())
@example((np.zeros((300, 300), dtype=np.uint8), np.full((300, 300), 255, dtype=np.uint8)))
@example((np.full((300, 300), 7, dtype=np.uint8),) * 2)
def test_psnr_equals_the_int64_formula_exactly(planes):
    """The uint8 |difference| plane with a float64 sum of squares against
    10 log10(255^2 / mean((a - b)^2)) over int64, bit for bit."""
    a, b = planes
    diff = a.astype(np.int64) - b.astype(np.int64)
    mse = float(np.mean(diff * diff))
    want = math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)
    assert psnr(a, b) == want
    assert a.dtype == b.dtype == np.uint8


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))
    # Empty planes have no mean error: a ValueError too, not a ZeroDivisionError.
    with pytest.raises(ValueError):
        psnr(np.zeros((0, 4), dtype=np.uint8), np.zeros((0, 4), dtype=np.uint8))


# ------------------------------------------------------------------ bd-rate

def test_bd_rate_of_identical_curves_is_exactly_zero():
    assert bd_rate(CURVE, CURVE) == 0.0


def test_bd_rate_ten_percent_cheaper():
    assert bd_rate(CURVE, scaled(CURVE, 0.9)) == pytest.approx(-10.0, abs=0.01)


def test_bd_rate_ten_percent_dearer():
    assert bd_rate(CURVE, scaled(CURVE, 1.1)) == pytest.approx(10.0, abs=0.01)


def test_bd_rate_is_nearly_antisymmetric():
    other = [RdPoint(98.0, 30.0), RdPoint(184.0, 33.0),
             RdPoint(325.0, 36.0), RdPoint(612.0, 39.0)]
    assert abs(bd_rate(CURVE, other) + bd_rate(other, CURVE)) <= 0.05


def test_bd_rate_needs_four_points():
    with pytest.raises(BdRateError):
        bd_rate(CURVE[:3], CURVE[:3])


def test_bd_rate_rejects_non_monotonic_psnr():
    bad = [RdPoint(100.0, 30.0), RdPoint(180.0, 36.0),
           RdPoint(330.0, 33.0), RdPoint(600.0, 39.0)]
    with pytest.raises(BdRateError):
        bd_rate(bad, CURVE)


def test_bd_rate_rejects_non_increasing_rates():
    bad = [RdPoint(100.0, 30.0), RdPoint(100.0, 33.0),
           RdPoint(330.0, 36.0), RdPoint(600.0, 39.0)]
    with pytest.raises(BdRateError):
        bd_rate(bad, CURVE)


def test_bd_rate_needs_overlapping_quality():
    high = [RdPoint(p.rate, p.psnr + 40.0) for p in CURVE]
    with pytest.raises(BdRateError):
        bd_rate(CURVE, high)


def test_rd_point_validation():
    with pytest.raises(ValueError):
        RdPoint(0.0, 30.0)
    with pytest.raises(ValueError):
        RdPoint(-5.0, 30.0)


# --------------------------------------------------------------- rate proxy

def test_signed_exp_golomb_code_lengths():
    expected = {0: 1, 1: 3, -1: 3, 2: 5, -2: 5, 3: 5, 4: 7}
    for value, bits in expected.items():
        assert _signed_exp_golomb_bits(value) == bits
    assert _signed_exp_golomb_bits(np.array(list(expected))).tolist() == list(expected.values())
    # One array call over every vector delta equals the code length of its
    # code number u, 2 * bitlen(u + 1) - 1, in Python ints.
    values = np.arange(-2 * MV_MAX, 2 * MV_MAX + 1)
    got = _signed_exp_golomb_bits(values)
    assert got.shape == values.shape
    assert got.tolist() == [2 * (2 * abs(v) - (v > 0) + 1).bit_length() - 1
                            for v in values.tolist()]


# ------------------------------------------------------------------- config

def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError) as err:
        ExperimentConfig(source=accel_source(), rate_points=TWO_POINTS,
                         modes=("uniform", "hevc"))
    assert "uniform, uamm" in str(err.value)


def test_config_rejects_duplicate_rate_point_labels():
    with pytest.raises(ValueError):
        ExperimentConfig(source=accel_source(),
                         rate_points=(RatePoint("a", 8, 8),
                                      RatePoint("a", 16, 8)))


def test_source_rejects_too_few_frames():
    with pytest.raises(ValueError):
        accel_source(frames=1)


def test_source_rejects_unaligned_dimensions():
    with pytest.raises(ValueError):
        accel_source(size=30)
    for width in (0, -4):
        with pytest.raises(ValueError):
            SequenceSource(name="x", width=width, height=32, frames=4, path="x.yuv")


def test_source_needs_its_backing_data():
    """A source is a path or a trajectory: exactly one of them."""
    with pytest.raises(ValueError):
        SequenceSource(name="x", width=32, height=32, frames=4)
    with pytest.raises(ValueError):
        SequenceSource(name="x", width=32, height=32, frames=4, path="")
    with pytest.raises(ValueError):
        SequenceSource(name="x", width=32, height=32, frames=4, path="x.yuv",
                       trajectory=accel_source().trajectory)


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint("q", 6, 8)
    with pytest.raises(ValueError):
        RatePoint("q", 8, -1)


# --------------------------------------------------------------- experiment

def test_experiment_is_deterministic(tmp_path):
    cfg_a = make_config(tmp_path / "a", accel_source())
    cfg_b = make_config(tmp_path / "b", accel_source())
    ra, rb = run_experiment(cfg_a), run_experiment(cfg_b)
    assert ra.rows == rb.rows
    csv_a = (tmp_path / "a" / "out" / "report.csv").read_bytes()
    csv_b = (tmp_path / "b" / "out" / "report.csv").read_bytes()
    assert csv_a == csv_b


def test_experiment_static_scene_ties_the_modes(tmp_path):
    # nothing moves: every vector is zero, every cell is constant, both
    # modes predict losslessly at identical proxy rates
    src = SequenceSource(
        name="still", width=32, height=32, frames=5,
        trajectory=TrajectorySpec(start_x=32, start_y=16, v0x=0, v0y=0,
                                  ax=0, ay=0, patch="noise",
                                  patch_seed=5, background="flat",
                                  background_value=20))
    report = run_experiment(make_config(tmp_path, src))
    by_key = {(r.rate_point, r.mode): r for r in report.rows}
    for label in ("a", "b"):
        uni, acc = by_key[(label, "uniform")], by_key[(label, "uamm")]
        assert uni.mean_sad == acc.mean_sad == 0.0
        assert uni.pred_psnr_db == acc.pred_psnr_db == math.inf
        assert uni.rate_proxy == acc.rate_proxy


def test_experiment_zero_band_reduces_uamm_to_the_baseline(tmp_path):
    # delta_max 0 pins every sub-block to the searched vector, so the
    # refined mode must reproduce the baseline numbers on any content
    report = run_experiment(make_config(tmp_path, accel_source(frames=5),
                                        delta_max=0))
    by_key = {(r.rate_point, r.mode): r for r in report.rows}
    for label in ("a", "b"):
        uni, acc = by_key[(label, "uniform")], by_key[(label, "uamm")]
        assert uni.mean_sad == acc.mean_sad
        assert uni.pred_psnr_db == acc.pred_psnr_db
        assert uni.rate_proxy == acc.rate_proxy


def test_experiment_acceleration_engages_the_correction(tmp_path):
    report = run_experiment(make_config(tmp_path, accel_source(frames=6)))
    by_mode = {}
    for r in report.rows:
        by_mode.setdefault(r.mode, []).append(r)
    assert any(r.corrected_pct > 0 for r in by_mode["uamm"])
    assert all(r.corrected_pct == 0 for r in by_mode["uniform"])
    assert all(0 <= r.corrected_pct <= 100 for r in report.rows)
    # the modes genuinely diverge on accelerating content
    assert any(u.mean_sad != a.mean_sad
               for u, a in zip(by_mode["uniform"], by_mode["uamm"]))


def test_experiment_reads_yuv_sources(tmp_path):
    spec = TrajectorySpec(start_x=16, start_y=16, v0x=16, v0y=0, ax=2, ay=0,
                          patch="checker", background="ramp")
    frames, _ = synth_sequence(spec, 4, 32, 32)
    path = tmp_path / "clip.yuv"
    write_yuv(frames, str(path))
    cfg = make_config(tmp_path, SequenceSource(name="clip", width=32,
                                               height=32, frames=4,
                                               path=str(path)))
    report = run_experiment(cfg)
    assert {r.sequence for r in report.rows} == {"clip"}
    assert len(report.rows) == 4  # 2 rate points x 2 modes


def test_experiment_missing_yuv_names_the_file(tmp_path):
    missing = str(tmp_path / "nope.yuv")
    cfg = make_config(tmp_path, SequenceSource(name="x", width=32, height=32,
                                               frames=4, path=missing))
    with pytest.raises(FileNotFoundError) as err:
        run_experiment(cfg)
    assert "nope.yuv" in str(err.value)


def test_experiment_bd_summary_is_na_below_four_points(tmp_path):
    run_experiment(make_config(tmp_path, accel_source()))
    lines = (tmp_path / "out" / "bd_summary.csv").read_text().splitlines()
    assert lines[1].split(",") == ["accel", "NA"]


def test_experiment_uniform_only_derives_no_parameters(tmp_path, monkeypatch):
    def refuse(curr, prev):
        raise AssertionError("uniform-only runs never read derived parameters")

    monkeypatch.setattr(evaluation, "derive_field_params", refuse)
    report = run_experiment(make_config(tmp_path, accel_source(frames=5),
                                        modes=("uniform",)))
    assert [(r.rate_point, r.mode) for r in report.rows] == [
        ("a", "uniform"), ("b", "uniform")]


@pytest.mark.parametrize("modes, value", [
    (MODES, "curve_a must have exactly 4 points, got 2"),
    (("uniform",), None),
    (("uamm",), None),
])
def test_report_holds_one_bd_value(tmp_path, modes, value):
    """The report's one BD value: the reason as a str when the curves do
    not reduce, None when a mode is missing, and then no row is written."""
    report = run_experiment(make_config(tmp_path, accel_source(), modes=modes))
    assert report.bd_summary == value
    rows = (tmp_path / "out" / "bd_summary.csv").read_text().splitlines()
    assert rows == ["sequence,bd_rate_pct"] + (["accel,NA"] if value else [])


def test_experiment_writes_rd_curves_on_request(tmp_path):
    cfg = make_config(tmp_path, accel_source("clip"), write_rd_curves=True)
    run_experiment(cfg)
    names = sorted(os.listdir(tmp_path / "out"))
    assert "rd_clip_uniform.dat" in names
    assert "rd_clip_uamm.dat" in names
    body = (tmp_path / "out" / "rd_clip_uamm.dat").read_text().splitlines()
    assert body[0].startswith("#")
    assert len(body) == 3  # header plus two rate points
    rate, quality = body[1].split()
    assert float(rate) > 0 and float(quality) > 0


# ------------------------------------------------- shared search per range

MIXED_POINTS = (RatePoint("p8", 8, 3), RatePoint("p12", 12, 5),
                RatePoint("p16", 16, 3), RatePoint("p12b", 12, 3))


def test_interleaved_rate_points_match_one_run_per_point(tmp_path):
    """Rate points at mixed search ranges, run together with a search pass
    shared per range, give each point's lone run's tallies and rows, in
    config order."""
    source = accel_source(frames=5)
    frames = source.load()
    together = evaluation._run_rate_points(frames, MIXED_POINTS, MODES, 32)
    alone = [evaluation._run_rate_point(frames, rp, MODES, 32) for rp in MIXED_POINTS]
    assert together == alone
    rows = run_experiment(make_config(tmp_path, source, rate_points=MIXED_POINTS)).rows
    assert [(r.rate_point, r.mode) for r in rows] == [
        (rp.label, m) for rp in MIXED_POINTS for m in MODES]
    lone_rows = [row for rp in MIXED_POINTS
                 for row in run_experiment(make_config(tmp_path / rp.label, source,
                                                       rate_points=(rp,))).rows]
    assert rows == lone_rows


def test_rate_points_at_one_range_share_one_search_pass(monkeypatch):
    """Four block sizes at range 2 search each frame pair in one shared
    ``_search_blocks`` pass, with every size's tiling; the runner scores
    each prediction with one abs-difference plane per rate point and mode."""
    searches, planes = [], []
    search_blocks, block_sads = predictor._search_blocks, evaluation._block_sads

    def counting_search(*args, **kwargs):
        searches.append((args[6], args[7]))
        return search_blocks(*args, **kwargs)

    def counting_planes(*args, **kwargs):
        planes.append(1)
        return block_sads(*args, **kwargs)

    monkeypatch.setattr(predictor, "_search_blocks", counting_search)
    monkeypatch.setattr(evaluation, "_block_sads", counting_planes)
    frames = accel_source(frames=4).load()
    points = tuple(RatePoint(f"b{bs}", bs, 2) for bs in (8, 12, 16, 32))
    evaluation._run_rate_points(frames, points, ("uniform",), 32)
    tiles = [(bs, bs) for bs in (8, 12, 16, 32)]
    assert searches == [(tiles, 2)] * (len(frames) - 1)
    assert len(planes) == (len(frames) - 1) * len(points)


# ------------------------------------------------ frame pass vs block loop

def _per_block_rate_point(frames, rp, modes, delta_max):
    """The block-at-a-time runner ``_run_rate_point`` replaced, as its oracle:
    every block is predicted and tallied on its own, in tiling order."""
    width, height = frames[0].width, frames[0].height
    tallies = {m: _ModeTally() for m in modes}

    empty = MotionField.empty(frames[0].poc, width, height)
    older, newer = empty, empty
    for k in range(1, len(frames)):
        src, ref = frames[k], frames[k - 1]
        ref_field = FieldParams.unavailable(empty)
        if "uamm" in modes and k >= 2:
            ref_field = derive_field_params(newer, older)

        bs = rp.block_size
        [field_k] = search_fields(src, ref, [bs], rp.search_range)
        # The tiling row by row, edge blocks clipped, each with its searched vector.
        searched = [(BlockSpec(x, y, min(bs, width - x), min(bs, height - y)),
                     MotionVector(*field_k.mv[y // CELL_SIZE, x // CELL_SIZE].tolist()))
                    for y in range(0, height, bs) for x in range(0, width, bs)]
        pred_frames = {m: np.empty((height, width), dtype=np.uint8) for m in modes}
        prev_mv = {m: MotionVector(0, 0) for m in modes}
        for block, initial in searched:
            for m in modes:
                if m == "uniform":
                    result = predict_uniform(src, ref, block, rp.search_range,
                                             initial_mv=initial)
                else:
                    result = predict_uamm(src, ref, ref_field, block, rp.search_range, t2=1,
                                          delta_max=delta_max, initial_mv=initial)
                tally = tallies[m]
                target = src.luma[block.y:block.y + block.h, block.x:block.x + block.w]
                sad = int(predictor._block_sads(target, result.pred, block.h, block.w)[0, 0])
                tally.sad_total += sad
                tally.blocks += 1
                tally.mv_bits += _signed_exp_golomb_bits(initial.x - prev_mv[m].x)
                tally.mv_bits += _signed_exp_golomb_bits(initial.y - prev_mv[m].y)
                prev_mv[m] = initial
                tally.residual_bits += math.log2(sad + 1)
                tally.corrected += int(result.corrected[0, 0])
                tally.subblocks += (block.w // CELL_SIZE) * (block.h // CELL_SIZE)
                pred_frames[m][block.y:block.y + block.h,
                               block.x:block.x + block.w] = result.pred
        for m in modes:
            tallies[m].frame_psnrs.append(psnr(src.luma, pred_frames[m]))
        older, newer = newer, field_k
    return tallies


def _two_layer_clip(w, h, n, seed, levels, back_motion, front_motion, rect):
    """``n`` frames of w x h: the ``rect`` (x0, y0, x1, y1) of one noise
    texture over another (values below ``levels``), each rolled by its own
    integer-pel accelerating displacement (vx, vy, ax, ay), with a few
    changed pixels."""
    rng = np.random.default_rng(seed)
    textures = [rng.integers(0, levels, (h, w), dtype=np.uint8) for _ in range(2)]
    x0, y0, x1, y1 = rect
    frames = []
    for k in range(n):
        back, front = (np.roll(t, (vy * k + ay * k * k // 2, vx * k + ax * k * k // 2),
                               axis=(0, 1))
                       for t, (vx, vy, ax, ay) in zip(textures, (back_motion, front_motion)))
        back[y0:y1, x0:x1] = front[y0:y1, x0:x1]
        back[rng.random((h, w)) < 0.05] = 7
        frames.append(FrameBuffer(poc=k, luma=back))
    return frames


@st.composite
def _moving_clip(draw):
    """A ``_two_layer_clip`` of 2-5 frames, 8-40 px a side, at one rate
    point, in one or both modes. Band widths 0, 8 (where majority resets
    are common), 32 and one that never clamps."""
    w, h = 4 * draw(st.integers(2, 10)), 4 * draw(st.integers(2, 10))
    motion = st.tuples(*[st.integers(-4, 4)] * 4)
    x0, x1 = sorted(draw(st.integers(0, w)) for _ in range(2))
    y0, y1 = sorted(draw(st.integers(0, h)) for _ in range(2))
    frames = _two_layer_clip(w, h, draw(st.integers(2, 5)), draw(st.integers(0, 2**32 - 1)),
                             draw(st.sampled_from([3, 256])), draw(motion), draw(motion),
                             (x0, y0, x1, y1))
    rp = RatePoint("rp", draw(st.sampled_from([4, 8, 12, 16, 20])), draw(st.sampled_from([0, 1, 3])))
    modes = draw(st.sampled_from([("uniform", "uamm"), ("uamm",), ("uniform",)]))
    return frames, rp, modes, draw(st.sampled_from([0, 8, 32, 10**6]))


@settings(max_examples=60, deadline=None)
@given(_moving_clip())
@example((_two_layer_clip(28, 24, 5, 640561, 256, (-1, 4, 3, 3), (4, 0, -4, 4), (14, 0, 15, 23)),
          RatePoint("rp", 8, 3), ("uniform", "uamm"), 32))   # resets in some blocks only
def test_rate_point_tallies_match_the_block_loop(clip):
    """Every tally field, the float residual bits and frame PSNRs included,
    equals the block loop's exactly. Every tally has a PSNR and at least
    2 vector bits per block, so the report's means and rates are defined."""
    frames, rp, modes, delta_max = clip
    got = evaluation._run_rate_point(frames, rp, modes, delta_max)
    assert got == _per_block_rate_point(frames, rp, modes, delta_max)
    for tally in got.values():
        assert tally.mv_bits >= 2 * tally.blocks > 0
        assert tally.frame_psnrs


# ------------------------------------------------------------------ decoder

@st.composite
def _field_chain(draw):
    """A drawn pixel size (w, h), often not a multiple of 4, and 1-4
    fields of it, pocs 1-2 apart, each with vectors of up to 5 pels on a
    random share of its cells and ref distances 1-2 there, so chains
    meet in time or break."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain, poc = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 4))):
        poc += draw(st.integers(1, 2))
        f = MotionField.empty(poc, w, h)
        has_mv = rng.random(f.ref_distance.shape) < draw(st.sampled_from([0, 0.5, 0.9, 1]))
        f.mv[...] = rng.integers(-80, 81, f.mv.shape) * has_mv[..., None]
        f.ref_distance[...] = rng.integers(1, 3, f.ref_distance.shape) * has_mv
        chain.append(f)
    return (w, h), chain


@given(_field_chain())
def test_decoder_advance_derives_each_field_against_the_one_before(drawn):
    """``advance`` over a chain of fields equals ``derive_field_params(f_k,
    f_{k-1})`` plane for plane, with an empty field before the first."""
    (w, h), chain = drawn
    prev = MotionField.empty(chain[0].poc - 1, w, h)
    decoder = Decoder(prev.poc, w, h)
    for f in chain:
        got, want = decoder.advance(f), derive_field_params(f, prev)
        assert got is decoder.params and got.field is f
        for plane in dataclasses.fields(FieldParams)[1:]:
            a, b = getattr(got, plane.name), getattr(want, plane.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), plane.name
        prev = f


@pytest.mark.parametrize("delta_max", [0, 8, 32])
def test_decoder_decode_is_predict_frame_with_the_held_parameters_in_uamm_only(delta_max):
    """Uniform decodes without parameters and uamm with the held ones:
    none before the first advance, then those the last advance returned."""
    frames = accel_source(frames=4).load()
    decoder = Decoder(frames[0].poc, frames[0].width, frames[0].height)
    held = None
    inherited = []
    for k in range(1, len(frames)):
        ref, bs = frames[k - 1], 8
        [field_k] = search_fields(frames[k], ref, [bs], 3)
        assert decoder.params is held
        for mode, params in (("uniform", None), ("uamm", held)):
            got = decoder.decode(ref, field_k, bs, mode, delta_max)
            want = predictor.predict_frame(ref, field_k, bs, params, delta_max)
            for plane in dataclasses.fields(got):
                assert np.array_equal(getattr(got, plane.name),
                                      getattr(want, plane.name)), (k, mode, plane.name)
            kind = (ParamKind.UNAVAILABLE if params is None else gather_params(
                params, 0, 0, 32, 32, field_k.mv[..., 0], field_k.mv[..., 1])[2])
            inherited.append(bool(np.any(kind != ParamKind.UNAVAILABLE)))
        held = decoder.advance(field_k)
    # Only uamm on frames 2 and 3 reads parameters that a sub-block inherits.
    assert inherited == [False, False, False, True, False, True]


# ------------------------------------------------------------ decoder replay

PRESETS = Path(__file__).resolve().parents[1] / "scripts" / "presets"


def _assert_a_decoder_replays(frames, rate_points, modes, delta_max):
    """Run ``_run_rate_points``, recording each ``predict_frame`` call, then
    replay every prediction as a decoder would, from the frames and the
    recorded fields alone: rate point i's uamm mode reads the parameters
    derived from its fields of the two frames before, an empty field
    standing in before the first, and none on frame 1. No frame plane and
    no recorded field may change in the run or the replay."""
    calls, reconstruct = [], evaluation.predict_frame

    def fingerprint(field):
        return field.mv.tobytes() + field.ref_distance.tobytes()

    def recording(ref, field, block_size, ref_params=None,
                  delta_max=predictor.DEFAULT_DELTA_MAX):
        snapshot = fingerprint(field)
        frame = reconstruct(ref, field, block_size, ref_params, delta_max)
        calls.append((ref.poc, field, block_size, ref_params is not None,
                      frame.pred.tobytes(), snapshot))
        return frame

    def planes():
        return [p.tobytes() for f in frames for p in (f.luma, f.chroma_u, f.chroma_v)
                if p is not None]

    def assert_untouched():
        assert planes() == before
        assert all(fingerprint(call[1]) == call[-1] for call in calls)

    before = planes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "predict_frame", recording)
        evaluation._run_rate_points(frames, rate_points, modes, delta_max)
    assert_untouched()
    assert len(calls) == (len(frames) - 1) * len(rate_points) * len(modes)

    recorded = iter(calls)
    fields = [[MotionField.empty(frames[0].poc, frames[0].width, frames[0].height)]
              for _ in rate_points]
    for k in range(1, len(frames)):
        for i, rp in enumerate(rate_points):
            for m in modes:
                ref_poc, field, block_size, with_params, pred, _ = next(recorded)
                assert (ref_poc, block_size, with_params) == (
                    frames[k - 1].poc, rp.block_size, m == "uamm" and k >= 2)
                if len(fields[i]) == k:
                    fields[i].append(field)
                assert field is fields[i][k]
                params = None
                if m == "uamm" and k >= 2:
                    params = derive_field_params(fields[i][k - 1], fields[i][k - 2])
                replayed = predictor.predict_frame(frames[k - 1], field, rp.block_size,
                                                   params, delta_max)
                assert replayed.pred.tobytes() == pred
    assert_untouched()


@pytest.mark.parametrize("preset", ["accel_sweep.ini", "demo_field.ini"])
def test_a_decoder_replays_every_prediction_of_a_preset(preset):
    """Both shipped presets, both modes; demo_field.ini at its one
    [predict] point."""
    config = load_config(str(PRESETS / preset))
    _assert_a_decoder_replays(config.source.load(), config.rate_points, MODES,
                              config.delta_max)


@st.composite
def _replay_clip(draw):
    """A ``_two_layer_clip`` of 3-4 frames, 32-64 px a side, at 1-3 rate
    points of block size 8 or 16 and search range 1-4."""
    w, h = 4 * draw(st.integers(8, 16)), 4 * draw(st.integers(8, 16))
    motion = st.tuples(*[st.integers(-4, 4)] * 4)
    x0, x1 = sorted(draw(st.integers(0, w)) for _ in range(2))
    y0, y1 = sorted(draw(st.integers(0, h)) for _ in range(2))
    frames = _two_layer_clip(w, h, draw(st.integers(3, 4)), draw(st.integers(0, 2**32 - 1)),
                             256, draw(motion), draw(motion), (x0, y0, x1, y1))
    points = draw(st.lists(st.tuples(st.sampled_from([8, 16]), st.integers(1, 4)),
                           min_size=1, max_size=3))
    return frames, tuple(RatePoint(f"p{i}", bs, r) for i, (bs, r) in enumerate(points))


@settings(max_examples=30, deadline=None)
@given(_replay_clip())
def test_a_decoder_replays_every_prediction_of_a_moving_clip(clip):
    frames, rate_points = clip
    _assert_a_decoder_replays(frames, rate_points, MODES, 32)

"""Acceptance gate: the headline guarantees, one visible verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Every test prints [PASS]/[FAIL] with its claim before asserting,
so a red run still names exactly which guarantee broke.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np

from uamm import (
    PARAM_SCALE,
    BlockSpec,
    FieldParams,
    MotionField,
    MotionVector,
    ParamKind,
    TimeInterval,
    TrajectorySpec,
    UammParams,
    cli,
    derive_field_params,
    derive_params,
    displacement,
    extrapolate_mv,
    field_from_global_mv,
    synth_sequence,
    tmvp_scale,
    velocity_at,
)
from uamm.evaluation import RdPoint, bd_rate
from uamm.interp import sample_block
from uamm.predictor import (_block_sads, correct_mvs, full_search_me, predict_uamm,
                            predict_uniform)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail and not ok else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def _simulate(v0x, v0y, ax, ay, t0, t1):
    """Quantized two-segment observation of an exact trajectory.

    Velocities and accelerations are integer 1/16-pel units per tick;
    the kinematics layer works on the same values pre-scaled by 64.
    """
    p0 = UammParams.classify(v0x * PARAM_SCALE, v0y * PARAM_SCALE,
                             ax * PARAM_SCALE, ay * PARAM_SCALE)
    mv0 = displacement(p0, TimeInterval(t0))
    vx, vy = velocity_at(p0, TimeInterval(t0))
    p_adv = UammParams.classify(vx, vy, p0.ax, p0.ay)
    mv1 = displacement(p_adv, TimeInterval(t1))
    return mv0, mv1


def _rational_params(mv0, mv1, t0, t1):
    """Exact rational solution for the quantized observation pair."""
    den = t0 * t1 * (t0 + t1)
    out = []
    for c0, c1 in ((mv0.x, mv1.x), (mv0.y, mv1.y)):
        a = Fraction(2 * (c1 * t0 - c0 * t1) * PARAM_SCALE, den)
        v = Fraction((c0 * t1 * (2 * t0 + t1) - c1 * t0 * t0) * PARAM_SCALE, den)
        out.append((v, a))
    return out


def test_round_trip_holds_over_randomized_parameters():
    """Derived parameters solve the quantized observations exactly."""
    rng = np.random.default_rng(2024)
    n = 10_000
    v0s = rng.integers(-64, 65, size=(n, 2))
    accs = rng.integers(-32, 33, size=(n, 2))
    ticks = rng.integers(1, 5, size=(n, 2))
    cases = [tuple(int(v) for v in row)
             for row in np.hstack([v0s, accs, ticks])]

    observations = []
    start = time.perf_counter()
    for v0x, v0y, ax, ay, t0, t1 in cases:
        mv0, mv1 = _simulate(v0x, v0y, ax, ay, t0, t1)
        observations.append(derive_params(mv0, mv1, TimeInterval(t0),
                                          TimeInterval(t1)))
    elapsed = time.perf_counter() - start

    failures = 0
    for (v0x, v0y, ax, ay, t0, t1), got in zip(cases, observations):
        mv0, mv1 = _simulate(v0x, v0y, ax, ay, t0, t1)
        (rvx, rax), (rvy, ray) = _rational_params(mv0, mv1, t0, t1)
        exact_x = (ax * t0 * t0) % 2 == 0 and (ax * t1 * t1) % 2 == 0
        exact_y = (ay * t0 * t0) % 2 == 0 and (ay * t1 * t1) % 2 == 0
        ok = (abs(Fraction(got.v0x) - rvx) <= Fraction(1, 2)
              and abs(Fraction(got.ax) - rax) <= Fraction(1, 2)
              and abs(Fraction(got.v0y) - rvy) <= Fraction(1, 2)
              and abs(Fraction(got.ay) - ray) <= Fraction(1, 2))
        if exact_x:
            ok = ok and got.v0x == v0x * PARAM_SCALE and got.ax == ax * PARAM_SCALE
        if exact_y:
            ok = ok and got.v0y == v0y * PARAM_SCALE and got.ay == ay * PARAM_SCALE
        failures += not ok
    _report(
        f"parameter round-trip ({n} randomized cases, {elapsed:.2f}s)",
        failures == 0 and elapsed < 1.0,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_zero_acceleration_degenerates_to_tmvp():
    """With a = 0 the extrapolation equals plain temporal MV scaling."""
    mismatches = 0
    checked = 0
    for v0 in range(-64, 65):
        for t0 in range(1, 5):
            for t1 in range(1, 5):
                mv0 = MotionVector(v0 * t0, -v0 * t0)
                mv1 = MotionVector(v0 * t1, -v0 * t1)
                p = derive_params(mv0, mv1, TimeInterval(t0), TimeInterval(t1))
                if p.ax != 0 or p.ay != 0:
                    mismatches += 1
                    continue
                for t2 in range(1, 9):
                    got = extrapolate_mv(p, TimeInterval(t0), TimeInterval(t1),
                                         TimeInterval(t2))
                    want = tmvp_scale(mv1, TimeInterval(t2), TimeInterval(t1))
                    checked += 1
                    mismatches += got != want
    _report(
        f"zero-acceleration degeneration ({checked} exhaustive cases)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def _footprint(pos, w_units, h_units):
    x0 = pos.x // 16
    y0 = pos.y // 16
    x1 = -((-(pos.x + w_units * 16)) // 16)
    y1 = -((-(pos.y + h_units * 16)) // 16)
    return x0, y0, x1 - x0, y1 - y0


def test_accelerating_object_is_predicted_losslessly():
    """Ground-truth fields drive the refined mode to zero residual."""
    spec = TrajectorySpec(start_x=32, start_y=0, v0x=16, v0y=0, ax=32, ay=16,
                          patch_kind="noise", patch_seed=3,
                          background="flat", background_value=20)
    start = time.perf_counter()
    frames, gt = synth_sequence(spec, 6, 64, 64)
    tick = TimeInterval(1)
    ok = True
    detail = []
    for k in (3, 4, 5):
        f_prev2 = field_from_global_mv(
            k - 2, 64, 64, MotionVector(-gt[k - 3].x, -gt[k - 3].y), tick)
        f_prev1 = field_from_global_mv(
            k - 1, 64, 64, MotionVector(-gt[k - 2].x, -gt[k - 2].y), tick)
        ref_field = derive_field_params(f_prev1, f_prev2)
        ox, oy, ow, oh = _footprint(
            MotionVector(spec.start_x + 16 * k + 16 * k * k,
                         spec.start_y + 8 * k * k),
            spec.patch_width, spec.patch_height)
        sad_uamm = sad_uni = 0
        for by in range(0, 64, 16):
            for bx in range(0, 64, 16):
                block = BlockSpec(bx, by, 16, 16)
                ix0, ix1 = max(bx, ox), min(bx + 16, ox + ow)
                iy0, iy1 = max(by, oy), min(by + 16, oy + oh)
                if ix0 >= ix1 or iy0 >= iy1:
                    continue
                res = predict_uamm(frames[k], frames[k - 1], ref_field, block, 12, 1)
                base = predict_uniform(frames[k], frames[k - 1], block, 12)
                src_obj = frames[k].luma[iy0:iy1, ix0:ix1].astype(np.int64)
                for result, bucket in ((res, "uamm"), (base, "uni")):
                    pred_obj = result.pred[iy0 - by:iy1 - by, ix0 - bx:ix1 - bx]
                    sad = int(np.abs(src_obj - pred_obj.astype(np.int64)).sum())
                    if bucket == "uamm":
                        sad_uamm += sad
                    else:
                        sad_uni += sad
        detail.append(f"k={k}: uamm={sad_uamm} uniform={sad_uni}")
        ok = ok and sad_uamm == 0 and sad_uni > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(
        f"lossless recovery of an accelerating object ({elapsed:.2f}s)",
        ok,
        "; ".join(detail) + f"; {elapsed:.2f}s",
    )


def test_unavailable_field_degrades_to_the_baseline():
    """An empty reference field makes both modes bit-identical."""
    rng = np.random.default_rng(7)
    luma_src = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    luma_ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    from uamm import FrameBuffer
    src = FrameBuffer(poc=1, luma=luma_src)
    ref = FrameBuffer(poc=0, luma=luma_ref)
    empty = FieldParams.unavailable(MotionField.empty(0, 64, 64))
    mismatches = 0
    for _ in range(100):
        size = int(rng.choice([4, 8, 16, 32]))
        bx = int(rng.integers(0, 64 - size + 1))
        by = int(rng.integers(0, 64 - size + 1))
        block = BlockSpec(bx, by, size, size)
        a = predict_uamm(src, ref, empty, block, 4, 1)
        b = predict_uniform(src, ref, block, 4)
        target = luma_src[by:by + size, bx:bx + size]
        sads = [_block_sads(target, r.pred, size, size).tolist() for r in (a, b)]
        same = (a.refined.tolist() == b.refined.tolist() == [[False]]
                and np.array_equal(a.subblock_mvs, b.subblock_mvs)
                and np.array_equal(a.pred, b.pred)
                and sads[0] == sads[1]
                and a.corrected.tolist() == b.corrected.tolist())
        mismatches += not same
    _report(
        "empty field degrades to the uniform baseline (100 random blocks)",
        mismatches == 0,
        f"{mismatches} mismatching blocks",
    )


def test_full_search_matches_brute_force():
    """The vectorized search equals a per-candidate reference search.

    Block sides run from 4 to 64, square or not, at search ranges 0, 1, 8
    and 24; each block origin is drawn at a frame edge or in between, so
    blocks touch every edge and corner. The search works on copies in
    place and must leave both frames untouched.
    """
    rng = np.random.default_rng(11)
    from uamm import FrameBuffer
    width, height = 80, 72
    mismatches = altered = 0
    for trial in range(400):
        luma_src = rng.integers(0, 256, (height, width), dtype=np.uint8)
        luma_ref = rng.integers(0, 256, (height, width), dtype=np.uint8)
        src = FrameBuffer(poc=1, luma=luma_src.copy())
        ref = FrameBuffer(poc=0, luma=luma_ref.copy())
        w = 4 * int(rng.integers(1, 17))
        h = 4 * int(rng.integers(1, 17))
        bx = (0, width - w, int(rng.integers(0, width - w + 1)))[rng.integers(3)]
        by = (0, height - h, int(rng.integers(0, height - h + 1)))[rng.integers(3)]
        r = 24 if trial % 40 == 0 else (0, 1, 8)[trial % 3]
        got = full_search_me(src, ref, BlockSpec(bx, by, w, h), r)
        altered += not (np.array_equal(src.luma, luma_src)
                        and np.array_equal(ref.luma, luma_ref))

        src_block = luma_src[by:by + h, bx:bx + w].astype(np.int64)
        best = None
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                cand = sample_block(luma_ref, bx, by, w, h, (dx * 16, dy * 16))
                sad = int(np.abs(src_block - cand.astype(np.int64)).sum())
                key = (sad, abs(dx) + abs(dy), dy, dx)
                if best is None or key < best[0]:
                    best = (key, MotionVector(dx * 16, dy * 16))
        mismatches += got != best[1]
    _report(
        "full search equals brute force (400 random blocks, 4..64 px, r 0..24)",
        mismatches == 0 and altered == 0,
        f"{mismatches} mismatching searches, {altered} searches altered a frame",
    )


def test_bd_rate_reference_values():
    """Identity is exactly zero; a 10% rate saving reads as -10%."""
    curve = [RdPoint(100.0, 30.0), RdPoint(180.0, 33.0),
             RdPoint(330.0, 36.0), RdPoint(600.0, 39.0)]
    cheaper = [RdPoint(p.rate * 0.9, p.psnr) for p in curve]
    identity = bd_rate(curve, curve)
    saving = bd_rate(curve, cheaper)
    ok = identity == 0.0 and math.isclose(saving, -10.0, abs_tol=0.01)
    _report(
        "bd-rate reference values (identity 0.0, x0.9 -> -10%)",
        ok,
        f"identity={identity!r}, x0.9={saving:.4f}",
    )


def test_correction_is_idempotent_and_majority_resets():
    """Exhaustive 2x2 grids on the +-3-pel lattice obey the band rules."""
    initial = MotionVector(5, -7)
    delta = 32
    offsets = np.arange(-48, 49, 16, dtype=np.int64)  # 7 per axis
    combo = np.stack(np.meshgrid(offsets, offsets, indexing="ij"),
                     axis=-1).reshape(49, 2)  # 49 (dx, dy) pairs
    init = np.array([initial.x, initial.y], dtype=np.int64)

    violations = 0
    total = 0
    for i0 in range(49):
        grids = np.empty((49, 49, 49, 2, 2, 2), dtype=np.int64)
        grids[..., 0, 0, :] = init + combo[i0]
        grids[..., 0, 1, :] = (init + combo)[:, None, None, :]
        grids[..., 1, 0, :] = (init + combo)[None, :, None, :]
        grids[..., 1, 1, :] = (init + combo)[None, None, :, :]
        out, counts = correct_mvs(grids, initial, delta)
        total += out.shape[0] * out.shape[1] * out.shape[2]

        # independent oracle on the raw grids
        lo, hi = init - delta, init + delta
        clamped = np.clip(grids, lo, hi)
        changed = np.any(clamped != grids, axis=-1)
        want_counts = changed.sum(axis=(-2, -1))
        reset = want_counts * 2 > 4
        want = np.where(reset[..., None, None, None], init, clamped)
        violations += int(np.any(want != out)) + int(np.any(want_counts != counts))

        # idempotence on the corrected output
        again, again_counts = correct_mvs(out, initial, delta)
        violations += int(np.any(again != out)) + int(np.any(again_counts != 0))
    _report(
        f"correction band: exhaustive lattice grids ({total} grids)",
        violations == 0,
        f"{violations} violating chunks",
    )


def test_prediction_runs_are_reproducible(tmp_path):
    """Two identical CLI runs produce byte-identical CSV reports."""
    ini = """\
[input]
kind = synth
width = 32
height = 32
frames = 4

[trajectory]
start_x = 16
start_y = 16
v0x = 16
ax = 2
ay = 2
patch_width = 8
patch_height = 8

[predict]
block_size = 8
search_range = 4

[rate_points]
labels = a, b
block_sizes = 8, 16
"""
    cfg = tmp_path / "repro.ini"
    cfg.write_text(ini)
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        rc = cli.main(["predict", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    report_same = ((outs[0] / "report.csv").read_bytes()
                   == (outs[1] / "report.csv").read_bytes())
    bd_same = ((outs[0] / "bd_summary.csv").read_bytes()
               == (outs[1] / "bd_summary.csv").read_bytes())
    _report(
        "prediction runs are byte-reproducible",
        report_same and bd_same,
        f"report identical: {report_same}, bd summary identical: {bd_same}",
    )

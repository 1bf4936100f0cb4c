#!/usr/bin/env python3
"""Show the refined mode predicting an accelerating object losslessly.

Renders a noise patch under constant acceleration, hands the predictor
ground-truth motion fields for the two preceding frames, and prints the
per-frame object residual of both modes from the first frame where the
two-segment derivation chain exists. The refined mode should read zero
on every line; the single-vector baseline cannot, because the true
displacement is sub-pel and outside the integer search lattice.

Run from the repository root: python3 scripts/accel_demo.py
"""

import numpy as np

from uamm import (
    MV_UNITS_PER_PEL,
    MotionVector,
    TimeInterval,
    TrajectorySpec,
    derive_field_params,
    field_from_global_mv,
    predict_frame,
    search_fields,
    synth_sequence,
)

SIZE = 64
BLOCK = 16
SEARCH = 12

SPEC = TrajectorySpec(start_x=32, start_y=0, v0x=16, v0y=0, ax=32, ay=16,
                      patch="noise", patch_seed=3,
                      background="flat", background_value=20)


def footprint(k):
    """Pixel rectangle the patch covers at frame k, edges widened."""
    pos_x, pos_y = SPEC.position(k)
    x0, y0 = pos_x // MV_UNITS_PER_PEL, pos_y // MV_UNITS_PER_PEL
    x1 = -((-(pos_x + SPEC.patch_width * MV_UNITS_PER_PEL)) // MV_UNITS_PER_PEL)
    y1 = -((-(pos_y + SPEC.patch_height * MV_UNITS_PER_PEL)) // MV_UNITS_PER_PEL)
    return x0, y0, x1, y1


def object_sad(frame, pred, rect):
    """SAD between the frame and its prediction over the patch footprint."""
    x0, y0, x1, y1 = rect
    src = frame.luma[y0:y1, x0:x1].astype(np.int64)
    return int(np.abs(src - pred[y0:y1, x0:x1]).sum())


def main():
    frames, gt = synth_sequence(SPEC, 6, SIZE, SIZE)
    tick = TimeInterval(1)
    print(f"{'frame':>5} {'true mv':>12} {'uniform sad':>12} {'uamm sad':>9}")
    for k in range(3, 6):
        f_prev2 = field_from_global_mv(
            k - 2, SIZE, SIZE, MotionVector(-gt[k - 3].x, -gt[k - 3].y), tick)
        f_prev1 = field_from_global_mv(
            k - 1, SIZE, SIZE, MotionVector(-gt[k - 2].x, -gt[k - 2].y), tick)
        ref_params = derive_field_params(f_prev1, f_prev2)
        field = search_fields(frames[k], frames[k - 1], [BLOCK], SEARCH)[0]
        base = predict_frame(frames[k - 1], field, BLOCK)
        refined = predict_frame(frames[k - 1], field, BLOCK, ref_params)
        rect = footprint(k)
        sad_uni = object_sad(frames[k], base.pred, rect)
        sad_uamm = object_sad(frames[k], refined.pred, rect)
        mv = f"({gt[k - 1].x}, {gt[k - 1].y})"
        print(f"{k:>5} {mv:>12} {sad_uni:>12} {sad_uamm:>9}")


if __name__ == "__main__":
    main()

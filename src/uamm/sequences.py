"""Frame I/O and synthetic test sequences.

Frames are 8-bit YUV 4:2:0. Only luma participates in prediction; chroma
planes are carried for file round-trips.

The synthetic generator moves a textured patch along an exact
constant-acceleration trajectory on the 1/16-pel grid over a static
background. Frame 0 places the patch directly; every later frame renders
the patch footprint by resampling the previous frame with the bilinear
motion-compensation kernel and the exact per-frame displacement. That
makes the sequence self-consistent under motion compensation: a predictor
that recovers the exact displacement reproduces the object region bit for
bit, including chained sub-pel steps where the patch accumulates
interpolation blur. For pure integer-pel trajectories the rendering is an
exact patch copy at every frame.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .interp import sample_block
from .kinematics import MV_UNITS_PER_PEL, MotionVector

_CHROMA_FILL = 128


@dataclass
class FrameBuffer:
    """One decoded frame: planes plus display order (poc)."""

    poc: int
    width: int
    height: int
    luma: np.ndarray
    chroma_u: Optional[np.ndarray] = None
    chroma_v: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad frame dimensions {self.width}x{self.height}")
        if self.luma.shape != (self.height, self.width):
            raise ValueError(
                f"luma shape {self.luma.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if self.luma.dtype != np.uint8:
            raise ValueError(f"luma must be uint8, got {self.luma.dtype}")
        for name, plane in (("chroma_u", self.chroma_u), ("chroma_v", self.chroma_v)):
            if plane is None:
                continue
            if plane.shape != (self.height // 2, self.width // 2):
                raise ValueError(f"{name} shape {plane.shape} is not 4:2:0")
            if plane.dtype != np.uint8:
                raise ValueError(f"{name} must be uint8, got {plane.dtype}")


def read_yuv(path: str, width: int, height: int, count: int) -> list[FrameBuffer]:
    """Read ``count`` planar YUV 4:2:0 frames. Dimensions must be even."""
    if width < 2 or height < 2 or width % 2 or height % 2:
        raise ValueError(f"4:2:0 needs positive even dimensions, got {width}x{height}")
    if count < 0:
        raise ValueError(f"frame count must be non-negative, got {count}")
    frame_size = width * height * 3 // 2
    needed = frame_size * count
    actual = os.path.getsize(path)
    if actual < needed:
        raise ValueError(
            f"{path}: expected at least {needed} bytes for {count} frames "
            f"of {width}x{height}, found {actual}"
        )
    data = np.fromfile(path, dtype=np.uint8, count=needed)
    frames = []
    cw, ch = width // 2, height // 2
    for k in range(count):
        base = k * frame_size
        luma = data[base:base + width * height].reshape(height, width).copy()
        u0 = base + width * height
        u = data[u0:u0 + cw * ch].reshape(ch, cw).copy()
        v = data[u0 + cw * ch:u0 + 2 * cw * ch].reshape(ch, cw).copy()
        frames.append(FrameBuffer(poc=k, width=width, height=height,
                                  luma=luma, chroma_u=u, chroma_v=v))
    return frames


def write_yuv(frames: list[FrameBuffer], path: str) -> None:
    """Write frames as planar YUV 4:2:0. Missing chroma writes mid-grey."""
    with open(path, "wb") as fh:
        for f in frames:
            fh.write(f.luma.tobytes())
            for plane in (f.chroma_u, f.chroma_v):
                if plane is None:
                    plane = np.full((f.height // 2, f.width // 2),
                                    _CHROMA_FILL, dtype=np.uint8)
                fh.write(plane.tobytes())


@dataclass(frozen=True)
class TrajectorySpec:
    """Constant-acceleration trajectory of a patch, all in 1/16-pel units.

    Position at frame k is start + v0*k + a*k*k/2. Accelerations must be
    even so every frame lands on the 1/16-pel grid. Backgrounds: ``flat``
    (background_value), ``noise`` (seeded uniform), ``ramp`` (value = x
    mod 256). Patches: ``noise``, ``checker``, ``solid``.
    """

    start_x: int
    start_y: int
    v0x: int = 0
    v0y: int = 0
    ax: int = 0
    ay: int = 0
    patch_width: int = 16
    patch_height: int = 16
    patch_kind: str = "noise"
    patch_seed: int = 0
    patch_value: int = 200
    background: str = "flat"
    background_value: int = 128
    background_seed: int = 1

    def __post_init__(self):
        if self.patch_width < 1 or self.patch_height < 1:
            raise ValueError("patch must be at least 1x1")
        if self.patch_kind not in ("noise", "checker", "solid"):
            raise ValueError(f"unknown patch kind {self.patch_kind!r}")
        if self.background not in ("flat", "noise", "ramp"):
            raise ValueError(f"unknown background {self.background!r}")

    def position(self, k: int) -> tuple[int, int]:
        """Exact patch position at frame k, in 1/16-pel units."""
        return (
            self.start_x + self.v0x * k + self.ax * k * k // 2,
            self.start_y + self.v0y * k + self.ay * k * k // 2,
        )


def _make_patch(spec: TrajectorySpec) -> np.ndarray:
    h, w = spec.patch_height, spec.patch_width
    if spec.patch_kind == "noise":
        rng = np.random.default_rng(spec.patch_seed)
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    if spec.patch_kind == "checker":
        yy, xx = np.indices((h, w))
        return np.where((yy // 2 + xx // 2) % 2 == 0, 220, 35).astype(np.uint8)
    return np.full((h, w), spec.patch_value, dtype=np.uint8)


def _make_background(spec: TrajectorySpec, width: int, height: int) -> np.ndarray:
    if spec.background == "flat":
        return np.full((height, width), spec.background_value, dtype=np.uint8)
    if spec.background == "noise":
        rng = np.random.default_rng(spec.background_seed)
        return rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    return (np.arange(width, dtype=np.int64) % 256).astype(np.uint8) * np.ones(
        (height, 1), dtype=np.uint8
    )


def _footprint(pos: tuple[int, int], w: int, h: int) -> tuple[int, int, int, int]:
    """Pixel rect (x, y, w, h) covered by a patch at a 1/16-pel position."""
    ix, fx = pos[0] // MV_UNITS_PER_PEL, pos[0] % MV_UNITS_PER_PEL
    iy, fy = pos[1] // MV_UNITS_PER_PEL, pos[1] % MV_UNITS_PER_PEL
    return ix, iy, w + (1 if fx else 0), h + (1 if fy else 0)


def trajectory_positions(
    spec: TrajectorySpec, n_frames: int, width: int, height: int
) -> list[tuple[int, int]]:
    """The patch position at each of ``n_frames`` frames, in 1/16-pel units.

    Raises ValueError if the object ever leaves the frame or the
    trajectory falls off the 1/16-pel grid.
    """
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    if n_frames >= 2 and (spec.ax % 2 or spec.ay % 2):
        raise ValueError(
            "acceleration must be even in 1/16-pel units so every frame "
            "stays on the 1/16-pel grid"
        )
    positions = [spec.position(k) for k in range(n_frames)]
    for k, pos in enumerate(positions):
        fx, fy, fw, fh = _footprint(pos, spec.patch_width, spec.patch_height)
        if fx < 0 or fy < 0 or fx + fw > width or fy + fh > height:
            raise ValueError(
                f"object leaves the {width}x{height} frame at frame {k} "
                f"(footprint {fw}x{fh} at pixel ({fx}, {fy}))"
            )
    return positions


def synth_sequence(
    spec: TrajectorySpec, n_frames: int, width: int, height: int
) -> tuple[list[FrameBuffer], list[MotionVector]]:
    """Generate frames plus the exact per-frame object displacements.

    The returned vectors are position differences: ``mvs[k-1]`` is the
    displacement of the object from frame k-1 to frame k. Predictors that
    fetch the reference block use the negated value. Raises ValueError
    where ``trajectory_positions`` does.
    """
    positions = trajectory_positions(spec, n_frames, width, height)
    background = _make_background(spec, width, height)
    patch = _make_patch(spec)
    ch, cw = height // 2, width // 2

    def with_chroma(luma: np.ndarray, poc: int) -> FrameBuffer:
        return FrameBuffer(
            poc=poc, width=width, height=height, luma=luma,
            chroma_u=np.full((ch, cw), _CHROMA_FILL, dtype=np.uint8),
            chroma_v=np.full((ch, cw), _CHROMA_FILL, dtype=np.uint8),
        )

    # Frame 0: paste the patch at the integer anchor, then resolve any
    # sub-pel fraction by sampling that sharp canvas with the MC kernel.
    x0, y0 = positions[0]
    ix, iy = x0 // 16, y0 // 16
    fx, fy = x0 % 16, y0 % 16
    canvas = background.copy()
    canvas[iy:iy + spec.patch_height, ix:ix + spec.patch_width] = patch
    if fx or fy:
        rx, ry, rw, rh = _footprint(positions[0], spec.patch_width, spec.patch_height)
        luma = background.copy()
        luma[ry:ry + rh, rx:rx + rw] = sample_block(canvas, rx, ry, rw, rh, (-fx, -fy))
    else:
        luma = canvas
    frames = [with_chroma(luma, 0)]

    mvs: list[MotionVector] = []
    for k in range(1, n_frames):
        dx = positions[k][0] - positions[k - 1][0]
        dy = positions[k][1] - positions[k - 1][1]
        mvs.append(MotionVector(dx, dy))
        rx, ry, rw, rh = _footprint(positions[k], spec.patch_width, spec.patch_height)
        luma = background.copy()
        luma[ry:ry + rh, rx:rx + rw] = sample_block(
            frames[k - 1].luma, rx, ry, rw, rh, (-dx, -dy)
        )
        frames.append(with_chroma(luma, k))
    return frames, mvs

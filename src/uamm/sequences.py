"""Frame I/O and synthetic test sequences.

Frames are 8-bit YUV 4:2:0, sized by their luma plane. Only luma
participates in prediction; chroma planes are carried for file round-trips.

The synthetic generator moves a textured patch along an exact
constant-acceleration trajectory on the 1/16-pel grid over a static
background. Every frame is the background with the patch footprint
resampled from the picture before it, by the bilinear motion-compensation
kernel and the exact position difference; the picture before frame 0 is
the background with the patch pasted at the whole-pel anchor of the start.
That makes the sequence self-consistent under motion compensation: a
predictor that recovers the exact displacement reproduces the object
region bit for bit, including chained sub-pel steps where the patch
accumulates interpolation blur. For pure integer-pel trajectories the
rendering is an exact patch copy at every frame. Synthetic frames carry no
chroma.
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
    """One decoded frame: planes plus display order (poc). Its size is the
    luma plane's."""

    poc: int
    luma: np.ndarray
    chroma_u: Optional[np.ndarray] = None
    chroma_v: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.luma.ndim != 2 or self.luma.size == 0 or self.luma.dtype != np.uint8:
            raise ValueError(f"luma must be a non-empty 2-D uint8 plane, got "
                             f"{self.luma.dtype} of shape {self.luma.shape}")
        for name, plane in (("chroma_u", self.chroma_u), ("chroma_v", self.chroma_v)):
            if plane is not None and (plane.dtype != np.uint8 or
                                      plane.shape != (self.height // 2, self.width // 2)):
                raise ValueError(f"{name} must be a 4:2:0 uint8 plane, got "
                                 f"{plane.dtype} of shape {plane.shape}")

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


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
    data = np.fromfile(path, dtype=np.uint8, count=needed).reshape(count, frame_size)
    cw, ch = width // 2, height // 2
    u0, v0 = width * height, width * height + cw * ch
    return [FrameBuffer(poc=k, luma=f[:u0].reshape(height, width),
                        chroma_u=f[u0:v0].reshape(ch, cw), chroma_v=f[v0:].reshape(ch, cw))
            for k, f in enumerate(data)]


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
    patch: str = "noise"
    patch_seed: int = 0
    patch_value: int = 200
    background: str = "flat"
    background_value: int = 128
    background_seed: int = 1

    def __post_init__(self):
        if self.patch_width < 1 or self.patch_height < 1:
            raise ValueError("patch must be at least 1x1")
        if self.patch not in ("noise", "checker", "solid"):
            raise ValueError(f"unknown patch kind {self.patch!r}")
        if self.background not in ("flat", "noise", "ramp"):
            raise ValueError(f"unknown background {self.background!r}")
        for name in ("patch_value", "background_value"):
            if not 0 <= getattr(self, name) <= 255:
                raise ValueError(f"{name} must be 0 to 255, got {getattr(self, name)}")
        for name in ("patch_seed", "background_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def position(self, k: int) -> tuple[int, int]:
        """Exact patch position at frame k, in 1/16-pel units."""
        return (
            self.start_x + self.v0x * k + self.ax * k * k // 2,
            self.start_y + self.v0y * k + self.ay * k * k // 2,
        )


def _make_patch(spec: TrajectorySpec) -> np.ndarray:
    h, w = spec.patch_height, spec.patch_width
    if spec.patch == "noise":
        rng = np.random.default_rng(spec.patch_seed)
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    if spec.patch == "checker":
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
    w, h = spec.patch_width, spec.patch_height
    ix, iy, _, _ = _footprint(positions[0], w, h)
    picture = background.copy()
    picture[iy:iy + h, ix:ix + w] = _make_patch(spec)
    anchor = (ix * MV_UNITS_PER_PEL, iy * MV_UNITS_PER_PEL)

    frames = []
    for k, (before, pos) in enumerate(zip([anchor] + positions, positions)):
        rx, ry, rw, rh = _footprint(pos, w, h)
        luma = background.copy()
        luma[ry:ry + rh, rx:rx + rw] = sample_block(
            picture, rx, ry, rw, rh, (before[0] - pos[0], before[1] - pos[1]))
        frames.append(FrameBuffer(poc=k, luma=luma))
        picture = luma
    mvs = [MotionVector(b[0] - a[0], b[1] - a[1]) for a, b in zip(positions, positions[1:])]
    return frames, mvs

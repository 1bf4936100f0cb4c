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

Noise textures are numpy's PCG64 byte stream, the bytes that
``np.random.default_rng(seed).integers(0, 256, dtype=np.uint8)`` draws,
generated in this module, so no run imports ``numpy.random``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), all uint32.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875        # hashing the seed into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED        # hashing the pool into the state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4                           # pool words, and uint64 words PCG64 draws
# PCG64's 128-bit LCG multiplier (O'Neill, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _pcg64_start(seed: int) -> tuple[int, int]:
    """The (state, increment) of ``np.random.PCG64(seed)``: SeedSequence
    hashes the seed's 32-bit words, low first, into four uint64."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, mult = _INIT_B, _MULT_B
    out = [hashmix(pool[i % _POOL]) for i in range(2 * _POOL)]
    w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 2 * _POOL, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    # From state 0: one step, add the initial state, one step.
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc


def _mul_hi64(a: int, x: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a`` times each uint64 of ``x``, from 32-bit halves."""
    a1, a0 = np.uint64(a >> 32), np.uint64(a & _MASK32)
    half, low = np.uint64(32), np.uint64(_MASK32)
    x1, x0 = x >> half, x & low
    p01, p10 = a0 * x1, a1 * x0
    mid = (a0 * x0 >> half) + (p01 & low) + (p10 & low)
    return a1 * x1 + (p01 >> half) + (p10 >> half) + (mid >> half)


def _noise(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """``np.random.default_rng(seed).integers(0, 256, size=shape,
    dtype=np.uint8)``, without importing ``numpy.random``.

    Those bytes are the little-endian bytes of PCG64's consecutive 64-bit
    outputs, a stream numpy guarantees: XSL-RR of each state of a 128-bit
    LCG. The states are built by leapfrog doubling on (hi, lo) uint64
    limbs: each round maps all states so far by s -> A*s + C mod 2**128,
    which steps them as far as there are states, then squares that step.
    Only uint64 arrays wrap, never numpy scalars, so no overflow warns.
    """
    n = math.prod(shape)
    count = -(-n // 8)
    hi, lo = np.empty(count, np.uint64), np.empty(count, np.uint64)
    state, inc = _pcg64_start(seed)
    step, add = _PCG_MULT, inc
    state = (state * step + add) & _MASK128
    hi[0], lo[0] = state >> 64, state & _MASK64
    done = 1
    while done < count:
        m = min(done, count - done)
        a_hi, a_lo = np.uint64(step >> 64), np.uint64(step & _MASK64)
        prod_lo = lo[:m] * a_lo
        prod_hi = _mul_hi64(step & _MASK64, lo[:m]) + hi[:m] * a_lo + lo[:m] * a_hi
        new_lo = lo[done:done + m]
        np.add(prod_lo, np.uint64(add & _MASK64), out=new_lo)
        hi[done:done + m] = prod_hi + np.uint64(add >> 64) + (new_lo < prod_lo)
        step, add = step * step & _MASK128, (step * add + add) & _MASK128
        done += m
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    out = xored >> rot | xored << (-rot & np.uint64(63))      # rotate right
    return out.astype("<u8").view(np.uint8)[:n].reshape(shape)


def _make_patch(spec: TrajectorySpec) -> np.ndarray:
    h, w = spec.patch_height, spec.patch_width
    if spec.patch == "noise":
        return _noise(spec.patch_seed, (h, w))
    if spec.patch == "checker":
        yy, xx = np.indices((h, w))
        return np.where((yy // 2 + xx // 2) % 2 == 0, 220, 35).astype(np.uint8)
    return np.full((h, w), spec.patch_value, dtype=np.uint8)


def _make_background(spec: TrajectorySpec, width: int, height: int) -> np.ndarray:
    if spec.background == "flat":
        return np.full((height, width), spec.background_value, dtype=np.uint8)
    if spec.background == "noise":
        return _noise(spec.background_seed, (height, width))
    return (np.arange(width, dtype=np.int64) % 256).astype(np.uint8) * np.ones(
        (height, 1), dtype=np.uint8
    )


def _footprint(pos: tuple[int, int], w: int, h: int) -> tuple[int, int, int, int]:
    """Pixel rect (x, y, w, h) covered by a patch at a 1/16-pel position."""
    ix, fx = pos[0] // MV_UNITS_PER_PEL, pos[0] % MV_UNITS_PER_PEL
    iy, fy = pos[1] // MV_UNITS_PER_PEL, pos[1] % MV_UNITS_PER_PEL
    return ix, iy, w + (1 if fx else 0), h + (1 if fy else 0)


def _first_outside(pos: Callable[[int], int], a: int, n_frames: int, limit: int) -> int:
    """The first frame k below ``n_frames`` whose position on one axis,
    ``pos(k)`` = start + v0*k + a*k*k//2, lies outside [0, limit];
    ``n_frames`` if none.

    The steps between frames, v0 + a*(2k+1)/2 for an even ``a``, are
    monotone in k, so they change sign at most once, at ``turn``: the
    position is monotone up to it and from it on. A monotone run that
    starts inside leaves at most once, so bisecting it finds that frame.
    """
    def outside(k: int) -> bool:
        return not 0 <= pos(k) <= limit

    def steps_with_a(k: int) -> bool:      # False, then True from ``turn`` on
        return (pos(k + 1) - pos(k)) * a >= 0

    turn = bisect_left(range(n_frames - 1), True, key=steps_with_a)
    for lo, hi in ((0, turn + 1), (turn, n_frames)):
        if outside(lo):
            return lo
        k = lo + bisect_left(range(lo, hi), True, key=outside)
        if k < hi:
            return k
    return n_frames


def _check_trajectory(spec: TrajectorySpec, n_frames: int, width: int, height: int) -> None:
    """Raise ValueError if the object leaves the frame within ``n_frames``
    frames, naming the first frame that leaves, or if the trajectory falls
    off the 1/16-pel grid. Takes O(log n_frames) positions.

    On each axis the footprint stays inside while 0 <= pos <= 16 * (side -
    patch): a sub-pel position widens the footprint by one pixel, and its
    whole-pel part is below the bound's.
    """
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    if n_frames >= 2 and (spec.ax % 2 or spec.ay % 2):
        raise ValueError(
            "acceleration must be even in 1/16-pel units so every frame "
            "stays on the 1/16-pel grid"
        )
    w, h = spec.patch_width, spec.patch_height
    k = min(_first_outside(lambda k: spec.position(k)[0], spec.ax, n_frames,
                           MV_UNITS_PER_PEL * (width - w)),
            _first_outside(lambda k: spec.position(k)[1], spec.ay, n_frames,
                           MV_UNITS_PER_PEL * (height - h)))
    if k < n_frames:
        fx, fy, fw, fh = _footprint(spec.position(k), w, h)
        raise ValueError(
            f"object leaves the {width}x{height} frame at frame {k} "
            f"(footprint {fw}x{fh} at pixel ({fx}, {fy}))"
        )


def synth_sequence(
    spec: TrajectorySpec, n_frames: int, width: int, height: int
) -> tuple[list[FrameBuffer], list[MotionVector]]:
    """Generate frames plus the exact per-frame object displacements.

    The returned vectors are position differences: ``mvs[k-1]`` is the
    displacement of the object from frame k-1 to frame k. Predictors that
    fetch the reference block use the negated value. Raises ValueError
    where ``_check_trajectory`` does, before any frame is rendered.
    """
    _check_trajectory(spec, n_frames, width, height)
    background = _make_background(spec, width, height)
    w, h = spec.patch_width, spec.patch_height
    ix, iy, _, _ = _footprint(spec.position(0), w, h)
    picture = background.copy()
    picture[iy:iy + h, ix:ix + w] = _make_patch(spec)
    before = (ix * MV_UNITS_PER_PEL, iy * MV_UNITS_PER_PEL)

    frames, mvs = [], []
    for k in range(n_frames):
        pos = spec.position(k)
        rx, ry, rw, rh = _footprint(pos, w, h)
        luma = background.copy()
        luma[ry:ry + rh, rx:rx + rw] = sample_block(
            picture, rx, ry, rw, rh, (before[0] - pos[0], before[1] - pos[1]))
        frames.append(FrameBuffer(poc=k, luma=luma))
        if k:
            mvs.append(MotionVector(pos[0] - before[0], pos[1] - before[1]))
        picture, before = luma, pos
    return frames, mvs

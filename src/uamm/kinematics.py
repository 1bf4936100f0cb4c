"""Integer kinematics for constant-acceleration block motion.

Motion vectors are integers in 1/16-pel units. Model parameters (initial
velocity and acceleration) are integers scaled by ``PARAM_SCALE`` so the
derivation keeps sub-unit precision. Every operation runs in exact widened
integer arithmetic and applies a single half-away-from-zero rounding to
each result; intermediates that would leave the signed 64-bit range raise
``OverflowError`` instead of wrapping. The solve, the extrapolation and
the rounding are each written once, with plain operators, and take ints
or whole int64 arrays: ints are checked on every numerator, arrays once
against a bound before any array arithmetic.

The model: an object moving with initial velocity v0 and constant
acceleration a covers a displacement of ``v0*t + a*t*t/2`` in t ticks and
has velocity ``v0 + a*t`` afterwards. Two consecutive displacement
measurements over t0 and t1 ticks determine (v0, a) uniquely; the solved
parameters can then be extrapolated over a further t2 ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# Fixed-point scale for velocity/acceleration values (2**6).
PARAM_SCALE = 64

# Largest motion vector magnitude, in 1/16-pel units.
MV_MAX = 2**15 - 1

# 1/16-pel grid.
MV_UNITS_PER_PEL = 16

_INT64_MAX = 2**63 - 1


class ParamKind(IntEnum):
    """Motion model classes, from no information to full acceleration."""

    UNAVAILABLE = 0
    CONSTANT = 1
    LINEAR = 2
    ACCELERATED = 3


def param_kind(v0x, v0y, ax, ay):
    """The ParamKind value implied by which solved values are zero, of ints
    or elementwise of integer arrays: any acceleration gives ACCELERATED,
    else any velocity LINEAR, else CONSTANT."""
    accelerated = (ax != 0) | (ay != 0)
    return ParamKind.CONSTANT + (accelerated | (v0x != 0) | (v0y != 0)) + accelerated


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_i64(*values: int) -> None:
    for v in values:
        if v > _INT64_MAX or v < -_INT64_MAX - 1:
            raise OverflowError(
                f"intermediate {v} exceeds the signed 64-bit range"
            )


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in 1/16-pel units, bounded by MV_MAX per axis."""

    x: int
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", _as_int(self.x, "x"))
        object.__setattr__(self, "y", _as_int(self.y, "y"))
        if abs(self.x) > MV_MAX or abs(self.y) > MV_MAX:
            raise ValueError(
                f"motion vector ({self.x}, {self.y}) outside +-{MV_MAX} units"
            )


@dataclass(frozen=True)
class TimeInterval:
    """A strictly positive whole number of ticks (one tick = one frame)."""

    ticks: int

    def __post_init__(self):
        object.__setattr__(self, "ticks", _as_int(self.ticks, "ticks"))
        if self.ticks < 1:
            raise ValueError(f"interval must be at least 1 tick, got {self.ticks}")


@dataclass(frozen=True)
class UammParams:
    """Solved motion parameters, scaled by PARAM_SCALE.

    An available kind is the one ``param_kind`` gives the values;
    kind=UNAVAILABLE is all zeros and marks a block for which no
    parameters could be derived.
    """

    v0x: int
    v0y: int
    ax: int
    ay: int
    kind: ParamKind

    def __post_init__(self):
        for field in ("v0x", "v0y", "ax", "ay"):
            object.__setattr__(self, field, _as_int(getattr(self, field), field))
        implied = ParamKind(param_kind(self.v0x, self.v0y, self.ax, self.ay))
        if self.kind != implied and not (self.kind == ParamKind.UNAVAILABLE
                                         and implied == ParamKind.CONSTANT):
            raise ValueError(f"kind={self.kind.name} does not fit values of "
                             f"kind {implied.name}")

    @classmethod
    def unavailable(cls) -> "UammParams":
        return cls(0, 0, 0, 0, ParamKind.UNAVAILABLE)

    @classmethod
    def classify(cls, v0x: int, v0y: int, ax: int, ay: int) -> "UammParams":
        """Build params with the kind ``param_kind`` gives the values."""
        return cls(v0x, v0y, ax, ay, ParamKind(param_kind(v0x, v0y, ax, ay)))


def div_round_half_away(num, den):
    """Divide and round half away from zero. ``den`` must be positive.

    This is the single rounding rule used everywhere in the package, so a
    change here would show up in every frozen expected value. An int
    ``num`` is divided exactly, whatever its size. Any other ``num`` is
    taken as an int64 array, divided elementwise by ``den``, a positive
    int or int array broadcasting against it; its entries must lie within
    +-(2**63 - 1), which callers check beforehand.
    """
    if isinstance(num, int):
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
    else:
        num = np.asarray(num, dtype=np.int64)
        if np.any(den <= 0):
            raise ValueError(f"denominator must be positive, got {np.min(den)}")
    # |num| = q*den + r rounds up from r >= ceil(den/2), with no sum that
    # could leave the int64 range.
    mag, r = divmod(abs(num), den)
    mag += r >= den - den // 2
    mag *= 2 * (num >= 0) - 1
    return mag


def displacement(p: UammParams, t: TimeInterval) -> MotionVector:
    """Displacement accumulated over ``t`` ticks, as a motion vector.

    Computed per axis as round((v0*t + a*t*t/2) / PARAM_SCALE) with a
    single rounding: the extrapolation over ``t`` ticks from an empty
    derivation window.
    """
    return MotionVector(*_extrapolate_scaled(p.v0x, p.v0y, p.ax, p.ay, 0, 0, t.ticks))


def velocity_at(p: UammParams, t: TimeInterval) -> tuple[int, int]:
    """Velocity after ``t`` ticks, exact in scaled units: v0 + a*t."""
    ticks = t.ticks
    vx = p.v0x + p.ax * ticks
    vy = p.v0y + p.ay * ticks
    _check_i64(vx, vy)
    return vx, vy


def _max_abs(*arrays: np.ndarray) -> int:
    """Largest magnitude in integer arrays as an int, 0 if empty (no abs() wrap)."""
    return max(max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays)


def _derive_scaled(mv0x, mv0y, mv1x, mv1y, t0, t1):
    """Solve the two-segment system for scaled (v0, a), one rounding each.

    Eliminating v1 from
        mv0 = v0*t0 + a*t0*t0/2
        mv1 = (v0 + a*t0)*t1 + a*t1*t1/2
    gives
        a  = 2*(mv1*t0 - mv0*t1) / (t0*t1*(t0+t1))
        v0 = (mv0*t1*(2*t0+t1) - mv1*t0*t0) / (t0*t1*(t0+t1))
    where the v0 form is the a-substituted fraction over the common
    denominator, so each parameter is the exact rational solution rounded
    once rather than a rounded value fed through a second division.

    The vectors and the window (``t0``, ``t1``) are ints, or integer
    arrays broadcasting together, solved elementwise in int64, one axis at
    a time; returns (v0x, v0y, ax, ay). An array call first checks that
    T0*T1*(T0+T1), 2*PARAM_SCALE*(M1*T0 + M0*T1) and
    PARAM_SCALE*(M0*T1*(2*T0+T1) + M1*T0*T0) fit in int64, with M0, M1,
    T0, T1 the largest |mv0|, |mv1|, |t0|, |t1|, and raises OverflowError
    otherwise.
    """
    array = isinstance(mv0x, np.ndarray)
    if array:
        t0, t1 = np.asarray(t0, dtype=np.int64), np.asarray(t1, dtype=np.int64)
        m0, m1, tm, s1 = _max_abs(mv0x, mv0y), _max_abs(mv1x, mv1y), _max_abs(t0), _max_abs(t1)
        _check_i64(tm * s1 * (tm + s1), 2 * PARAM_SCALE * (m1 * tm + m0 * s1),
                   PARAM_SCALE * (m0 * s1 * (2 * tm + s1) + m1 * tm * tm))
    den = t0 * t1 * (t0 + t1)
    def solve_axis(mv0, mv1):
        if array:
            mv0, mv1 = mv0.astype(np.int64), mv1.astype(np.int64)
        nv = PARAM_SCALE * (mv0 * t1 * (2 * t0 + t1) - mv1 * t0 * t0)
        na = 2 * PARAM_SCALE * (mv1 * t0 - mv0 * t1)
        if not array:
            _check_i64(nv, na)
        return div_round_half_away(nv, den), div_round_half_away(na, den)
    (v0x, ax), (v0y, ay) = solve_axis(mv0x, mv1x), solve_axis(mv0y, mv1y)
    return v0x, v0y, ax, ay


def derive_params(
    mv0: MotionVector, mv1: MotionVector, t0: TimeInterval, t1: TimeInterval
) -> UammParams:
    """Derive motion parameters from two consecutive displacements.

    ``mv0`` covers the earlier ``t0`` ticks and ``mv1`` the following
    ``t1`` ticks of the same trajectory. The result is classified by which
    solved values round to zero (``param_kind``).
    """
    v0x, v0y, ax, ay = _derive_scaled(mv0.x, mv0.y, mv1.x, mv1.y, t0.ticks, t1.ticks)
    return UammParams.classify(v0x, v0y, ax, ay)


def _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2):
    """Raw extrapolated displacement over t2 ticks past the t0+t1 segments.

    Per axis: v0*t2 + a*t2*(t0+t1) + a*t2*t2/2, i.e. the displacement of
    the velocity advanced to the end of the derivation window, with its
    numerator doubled so the halving stays exact and rounded once. No
    motion vector range check is applied here.

    The parameters and the distances (t0, t1, t2) are ints, or integer
    arrays broadcasting together, extrapolated elementwise into int64 by
    the same code. An int call checks each numerator; an array call checks
    once, before any array arithmetic, that the tick coefficient of its
    largest distances and the numerator bound from its largest |v0| and
    |a| fit in int64. Either raises OverflowError, so numpy never wraps.
    """
    array = isinstance(v0x, np.ndarray)
    if array:
        v0x, v0y, ax, ay, t0, t1, t2 = (np.asarray(a, dtype=np.int64)
                                        for a in (v0x, v0y, ax, ay, t0, t1, t2))
        m2 = _max_abs(t2)
        coeff = m2 * (2 * (_max_abs(t0) + _max_abs(t1)) + m2)
        _check_i64(coeff, 2 * m2 * _max_abs(v0x, v0y) + coeff * _max_abs(ax, ay))
    # Doubled numerator 2*v0*t2 + 2*a*t2*(t0+t1) + a*t2*t2, grouped per parameter.
    cv = 2 * t2
    ca = t2 * (2 * (t0 + t1) + t2)
    nx, ny = cv * v0x, cv * v0y
    nx += ca * ax
    ny += ca * ay
    if not array:
        _check_i64(nx, ny)
    den = 2 * PARAM_SCALE
    return div_round_half_away(nx, den), div_round_half_away(ny, den)


def extrapolate_mv(
    p: UammParams, t0: TimeInterval, t1: TimeInterval, t2: TimeInterval
) -> MotionVector:
    """Extrapolate the displacement for t2 ticks after the derivation span.

    ``t0``/``t1`` must be the intervals the parameters were derived from.
    Raises ValueError for UNAVAILABLE parameters.
    """
    if p.kind == ParamKind.UNAVAILABLE:
        raise ValueError("cannot extrapolate unavailable parameters")
    x, y = _extrapolate_scaled(p.v0x, p.v0y, p.ax, p.ay, t0.ticks, t1.ticks, t2.ticks)
    return MotionVector(x, y)


def tmvp_scale(
    col_mv: MotionVector, curr_ref_distance: TimeInterval, col_ref_distance: TimeInterval
) -> MotionVector:
    """Uniform-speed temporal MV scaling: col_mv * curr_dist / col_dist.

    This is the baseline the accelerated model degenerates to when the
    solved acceleration rounds to zero.
    """
    curr = curr_ref_distance.ticks
    col = col_ref_distance.ticks
    nx = col_mv.x * curr
    ny = col_mv.y * curr
    _check_i64(nx, ny)
    return MotionVector(div_round_half_away(nx, col), div_round_half_away(ny, col))

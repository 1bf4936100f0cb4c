"""Fixed-point kinematics: frozen values, algebraic properties, validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm import (
    MV_MAX,
    PARAM_SCALE,
    MotionVector,
    ParamKind,
    TimeInterval,
    UammParams,
    derive_params,
    displacement,
    div_round_half_away,
    extrapolate_mv,
    tmvp_scale,
    velocity_at,
)
from uamm.kinematics import _derive_scaled, _extrapolate_scaled

P = PARAM_SCALE
I64_MAX = 2**63 - 1


def params(v0x, v0y, ax, ay):
    return UammParams.classify(v0x, v0y, ax, ay)


def tick(n):
    return TimeInterval(n)


def _round_half_away(q):
    """The exact rational ``q`` rounded half away from zero."""
    magnitude = math.floor(abs(q) + Fraction(1, 2))
    return magnitude if q >= 0 else -magnitude


def _fits_i64(*values):
    return all(-I64_MAX - 1 <= v <= I64_MAX for v in values)


# ---------------------------------------------------------------- rounding

@pytest.mark.parametrize("num,den,expected", [
    (3, 2, 2),      # 1.5 away from zero
    (-3, 2, -2),
    (1, 2, 1),
    (-1, 2, -1),
    (2, 4, 1),      # 0.5 away from zero
    (7, 3, 2),      # plain nearest
    (-7, 3, -2),
    (0, 5, 0),
    (10, 5, 2),
    (-2**31, 16, -2**27),  # abs() of the int32 minimum would wrap
    (2**64 + 3, 2, 2**63 + 2),  # ints above int64 stay exact
    (-(2**80 + 2**79), 2**80, -2),  # -1.5 away from zero
])
def test_rounding_frozen_cases(num, den, expected):
    got = div_round_half_away(num, den)
    assert type(got) is int and got == expected
    if not _fits_i64(num):
        return
    # The same call rounds int64 arrays, and int32 ones widened to int64.
    assert div_round_half_away(np.array([num]), den).tolist() == [expected]
    assert div_round_half_away(np.array([num]), np.array([den])).tolist() == [expected]
    if -2**31 <= num < 2**31:
        got = div_round_half_away(np.array([num], dtype=np.int32), den)
        assert got.dtype == np.int64 and got.tolist() == [expected]


@given(st.one_of(st.integers(-10**12, 10**12), st.integers(-I64_MAX, I64_MAX)),
       st.integers(1, 10**9))
def test_rounding_matches_rational_half_away(num, den):
    expected = _round_half_away(Fraction(num, den))
    assert div_round_half_away(num, den) == expected
    # An int64 array rounds elementwise, without wrapping at the extremes.
    got = div_round_half_away(np.array([num, -num], dtype=np.int64), den)
    assert got.dtype == np.int64
    assert got.tolist() == [expected, -expected]
    # and with one denominator per entry
    got = div_round_half_away(np.array([num, num, 1], dtype=np.int64),
                              np.array([den, 1, den], dtype=np.int64))
    assert got.tolist() == [expected, num, div_round_half_away(1, den)]


def test_rounding_rejects_bad_denominator():
    with pytest.raises(ValueError):
        div_round_half_away(1, 0)
    with pytest.raises(ValueError):
        div_round_half_away(1, -2)
    with pytest.raises(ValueError):
        div_round_half_away(np.array([1]), 0)
    for bad in (0, -2):
        with pytest.raises(ValueError):
            div_round_half_away(np.array([1, 1]), np.array([3, bad]))


# ------------------------------------------------------------ value types

def test_motion_vector_bounds():
    MotionVector(MV_MAX, -MV_MAX)  # at the limit is fine
    with pytest.raises(ValueError):
        MotionVector(MV_MAX + 1, 0)
    with pytest.raises(ValueError):
        MotionVector(0, -(MV_MAX + 1))


def test_motion_vector_rejects_non_integers():
    with pytest.raises(TypeError):
        MotionVector(1.5, 0)
    with pytest.raises(TypeError):
        MotionVector(True, 0)


def test_time_interval_must_be_positive():
    assert TimeInterval(1).ticks == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            TimeInterval(bad)


def test_params_kind_invariants():
    with pytest.raises(ValueError):
        UammParams(0, 0, 1, 0, ParamKind.LINEAR)
    with pytest.raises(ValueError):
        UammParams(1, 0, 0, 0, ParamKind.CONSTANT)
    with pytest.raises(ValueError):
        UammParams(1, 2, 3, 4, ParamKind.UNAVAILABLE)
    # a kind the values do not imply is rejected the other way round too
    for values, kind in (((0, 0, 0, 0), ParamKind.ACCELERATED),
                         ((0, 0, 0, 0), ParamKind.LINEAR),
                         ((1, 0, 0, 0), ParamKind.ACCELERATED)):
        with pytest.raises(ValueError):
            UammParams(*values, kind)
    # and the valid shapes construct fine
    UammParams(5, 5, 0, 0, ParamKind.LINEAR)
    UammParams(0, 0, 0, 0, ParamKind.CONSTANT)
    assert UammParams.unavailable().kind == ParamKind.UNAVAILABLE


def test_classify_kinds():
    assert params(0, 0, 0, 0).kind == ParamKind.CONSTANT
    assert params(3, 0, 0, 0).kind == ParamKind.LINEAR
    assert params(0, 0, 0, 1).kind == ParamKind.ACCELERATED
    assert params(1, 1, 1, 1).kind == ParamKind.ACCELERATED


# --------------------------------------------------------- frozen examples

def test_displacement_frozen():
    assert displacement(params(P, 0, 2 * P, 0), tick(1)) == MotionVector(2, 0)
    assert displacement(params(0, 0, 0, 0), tick(5)) == MotionVector(0, 0)
    assert displacement(params(0, P, 0, 2 * P), tick(2)) == MotionVector(0, 6)


def test_velocity_frozen():
    assert velocity_at(params(P, 0, 2 * P, 0), tick(1)) == (3 * P, 0)
    p = params(17, -9, 0, 0)
    assert velocity_at(p, tick(9)) == (17, -9)
    assert velocity_at(params(0, 0, 0, -P), tick(3)) == (0, -3 * P)


def test_derive_frozen():
    p = derive_params(MotionVector(4, 4), MotionVector(4, 4), tick(1), tick(1))
    assert (p.v0x, p.v0y, p.ax, p.ay) == (4 * P, 4 * P, 0, 0)
    assert p.kind == ParamKind.LINEAR

    p = derive_params(MotionVector(2, 0), MotionVector(4, 0), tick(1), tick(1))
    assert (p.v0x, p.v0y, p.ax, p.ay) == (P, 0, 2 * P, 0)
    assert p.kind == ParamKind.ACCELERATED

    p = derive_params(MotionVector(0, 0), MotionVector(0, 0), tick(2), tick(3))
    assert p == UammParams(0, 0, 0, 0, ParamKind.CONSTANT)


def test_extrapolate_frozen():
    p = params(P, 0, 2 * P, 0)
    assert extrapolate_mv(p, tick(1), tick(1), tick(1)) == MotionVector(6, 0)

    linear = UammParams(4 * P, 4 * P, 0, 0, ParamKind.LINEAR)
    assert extrapolate_mv(linear, tick(1), tick(1), tick(3)) == MotionVector(12, 12)

    const = UammParams(0, 0, 0, 0, ParamKind.CONSTANT)
    for t in (1, 2, 7):
        assert extrapolate_mv(const, tick(t), tick(t), tick(t)) == MotionVector(0, 0)


def test_extrapolate_rejects_unavailable():
    with pytest.raises(ValueError):
        extrapolate_mv(UammParams.unavailable(), tick(1), tick(1), tick(1))


def test_tmvp_frozen():
    assert tmvp_scale(MotionVector(8, -4), tick(2), tick(2)) == MotionVector(8, -4)
    assert tmvp_scale(MotionVector(8, -4), tick(1), tick(2)) == MotionVector(4, -2)
    # 1.5 rounds away from zero
    assert tmvp_scale(MotionVector(3, 0), tick(1), tick(2)) == MotionVector(2, 0)


@given(st.integers(-MV_MAX, MV_MAX), st.integers(-MV_MAX, MV_MAX),
       st.integers(1, 64))
def test_tmvp_equal_distances_is_identity(x, y, t):
    assert tmvp_scale(MotionVector(x, y), tick(t), tick(t)) == MotionVector(x, y)


# -------------------------------------------------------------- round-trip

def _simulate(v0x, v0y, ax, ay, t0, t1):
    """Two chained displacement measurements of one exact trajectory.

    Takes plain 1/16-pel-per-tick values, returns the (mv0, mv1) pair a
    motion buffer would hold: the first covers t0 ticks from rest state,
    the second covers the following t1 ticks.
    """
    p = params(v0x * P, v0y * P, ax * P, ay * P)
    mv0 = displacement(p, tick(t0))
    vx, vy = velocity_at(p, tick(t0))
    mv1 = displacement(params(vx, vy, p.ax, p.ay), tick(t1))
    return mv0, mv1


def _solution_numerators(mv0x, mv0y, mv1x, mv1y, t0, t1):
    """Exact numerators of scaled (v0x, v0y, ax, ay) over t0*t1*(t0+t1)."""
    return (P * (mv0x * t1 * (2 * t0 + t1) - mv1x * t0 * t0),
            P * (mv0y * t1 * (2 * t0 + t1) - mv1y * t0 * t0),
            2 * P * (mv1x * t0 - mv0x * t1),
            2 * P * (mv1y * t0 - mv0y * t1))


def _rational_solution(mv0, mv1, t0, t1):
    """Exact rational (v0, a) solving the two-segment system, scaled."""
    den = t0 * t1 * (t0 + t1)
    return tuple(Fraction(n, den)
                 for n in _solution_numerators(mv0.x, mv0.y, mv1.x, mv1.y, t0, t1))


@given(st.integers(-64, 64), st.integers(-64, 64),
       st.integers(-32, 32), st.integers(-32, 32),
       st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=300)
def test_round_trip_recovery(v0x, v0y, ax, ay, t0, t1):
    """Derivation inverts simulation: exact when the forward displacements
    divide exactly, otherwise the correctly rounded rational solution of
    the quantized pair (so within half a scaled unit per component)."""
    mv0, mv1 = _simulate(v0x, v0y, ax, ay, t0, t1)
    got = derive_params(mv0, mv1, tick(t0), tick(t1))
    rat = _rational_solution(mv0, mv1, t0, t1)
    half = Fraction(1, 2)
    for axis, (v0_true, a_true, v0_got, a_got, v0_rat, a_rat) in enumerate([
        (v0x, ax, got.v0x, got.ax, rat[0], rat[2]),
        (v0y, ay, got.v0y, got.ay, rat[1], rat[3]),
    ]):
        exact = (a_true * t0 * t0) % 2 == 0 and (a_true * t1 * t1) % 2 == 0
        if exact:
            assert v0_got == v0_true * P and a_got == a_true * P, (
                f"axis {axis}: exact case not recovered"
            )
        assert abs(Fraction(v0_got) - v0_rat) <= half
        assert abs(Fraction(a_got) - a_rat) <= half


@given(st.integers(-64, 64), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 8))
def test_zero_acceleration_degenerates_to_temporal_scaling(v0, t0, t1, t2):
    mv0 = MotionVector(v0 * t0, -v0 * t0)
    mv1 = MotionVector(v0 * t1, -v0 * t1)
    p = derive_params(mv0, mv1, tick(t0), tick(t1))
    assert p.ax == 0 and p.ay == 0
    assert extrapolate_mv(p, tick(t0), tick(t1), tick(t2)) == tmvp_scale(
        mv1, tick(t2), tick(t1)
    )


# ---------------------------------------------------------- other algebra

_SCALED = st.integers(-2000, 2000)
_TICKS = st.integers(1, 8)


@given(_SCALED, _SCALED, _SCALED, _SCALED, _TICKS, _TICKS, _TICKS)
def test_axes_extrapolate_independently(v0x, v0y, ax, ay, t0, t1, t2):
    full = extrapolate_mv(params(v0x, v0y, ax, ay),
                          tick(t0), tick(t1), tick(t2))
    x_only = extrapolate_mv(params(v0x, 0, ax, 0), tick(t0), tick(t1), tick(t2))
    y_only = extrapolate_mv(params(0, v0y, 0, ay), tick(t0), tick(t1), tick(t2))
    assert full == MotionVector(x_only.x, y_only.y)


@given(_SCALED, _SCALED, _SCALED, _SCALED, _TICKS)
def test_axes_displace_independently(v0x, v0y, ax, ay, t):
    full = displacement(params(v0x, v0y, ax, ay), tick(t))
    x_only = displacement(params(v0x, 0, ax, 0), tick(t))
    y_only = displacement(params(0, v0y, 0, ay), tick(t))
    assert full == MotionVector(x_only.x, y_only.y)


@given(_SCALED, _SCALED, _SCALED, _SCALED, _TICKS, _TICKS, _TICKS)
def test_extrapolation_is_displacement_of_advanced_velocity(
    v0x, v0y, ax, ay, t0, t1, t2
):
    """The extrapolated vector equals v2*t2 + a*t2^2/2 with v2 advanced to
    the end of the derivation window. Same numerator, so exactly."""
    p = params(v0x, v0y, ax, ay)
    v2x, v2y = velocity_at(p, tick(t0 + t1))
    expected = MotionVector(
        div_round_half_away(2 * v2x * t2 + p.ax * t2 * t2, 2 * P),
        div_round_half_away(2 * v2y * t2 + p.ay * t2 * t2, 2 * P),
    )
    assert extrapolate_mv(p, tick(t0), tick(t1), tick(t2)) == expected


_PARAM = st.one_of(_SCALED, st.integers(-2**62, 2**62))


@given(st.lists(st.tuples(_PARAM, _PARAM, _PARAM, _PARAM), min_size=1, max_size=12),
       _TICKS, _TICKS, st.one_of(_TICKS, st.integers(1, 2**40)))
@example([(0, 0, 0, 0)], 1, 1, 2**40)
def test_array_extrapolation_matches_the_scalar_call(rows, t0, t1, t2):
    """Ints and arrays both extrapolate to the exact rational displacement
    rounded half away, and raise OverflowError, never wrap: an int call
    whenever its numerator leaves int64, an array call whenever any row's
    numerator or the documented bound does."""
    expected, fits = [], True
    for v0x, v0y, ax, ay in rows:
        # v0*t2 + a*t2*(t0+t1) + a*t2*t2/2 over PARAM_SCALE, doubled.
        nums = [2 * v * t2 + 2 * a * t2 * (t0 + t1) + a * t2 * t2
                for v, a in ((v0x, ax), (v0y, ay))]
        want = tuple(_round_half_away(Fraction(n, 2 * P)) for n in nums)
        if _fits_i64(*nums):
            assert _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2) == want
        else:
            with pytest.raises(OverflowError):
                _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2)
            fits = False
        expected.append(want)
    # The array call's documented bound: the acceleration coefficient, and
    # the numerator from its largest |v0| and |a|.
    coeff = t2 * (2 * (t0 + t1) + t2)
    bound = max(coeff, 2 * t2 * max(abs(v) for r in rows for v in r[:2])
                + coeff * max(abs(a) for r in rows for a in r[2:]))
    for dtype in (np.int64, np.int32):
        if dtype == np.int32 and any(abs(v) >= 2**31 for r in rows for v in r):
            continue
        v0x, v0y, ax, ay = (np.array(col, dtype=dtype) for col in zip(*rows))
        if not fits or bound > I64_MAX:
            with pytest.raises(OverflowError):
                _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2)
            continue
        x, y = _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2)
        assert x.dtype == y.dtype == np.int64
        assert list(zip(x.tolist(), y.tolist())) == expected


@st.composite
def _windowed_cells(draw):
    """A grid of 1-6 x 1-6 cells, each with its own scaled parameters, small
    enough that the extrapolated vector stays a MotionVector, its own
    window of 1-8 ticks, then 1-8 ticks, and its own distance t2 of 1-8
    ticks."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v0 = rng.integers(-64 * P, 64 * P + 1, (2, rows, cols))
    acc = rng.integers(-16 * P, 16 * P + 1, (2, rows, cols)) * (rng.random((rows, cols)) < 0.7)
    t0, t1, t2 = rng.integers(1, 9, (3, rows, cols))
    return v0, acc, t0, t1, t2


@given(_windowed_cells(), st.one_of(st.integers(1, 8), st.just("per cell")))
def test_array_extrapolation_reads_each_cells_window(cells, t2):
    """An array call with per-cell windows, and one t2 or each cell's own,
    gives, in each cell, the scalar ``extrapolate_mv`` of the cell's
    parameters over its own window and distance."""
    (v0x, v0y), (ax, ay), t0, t1, cell_t2 = cells
    if t2 == "per cell":
        t2 = cell_t2
    x, y = _extrapolate_scaled(v0x, v0y, ax, ay, t0, t1, t2)
    for c in np.ndindex(t0.shape):
        p = params(int(v0x[c]), int(v0y[c]), int(ax[c]), int(ay[c]))
        want = extrapolate_mv(p, tick(int(t0[c])), tick(int(t1[c])),
                              tick(int(np.broadcast_to(t2, t0.shape)[c])))
        assert (x[c], y[c]) == (want.x, want.y)


def test_array_extrapolation_bound_reads_the_largest_window():
    """One cell's window or distance alone can push a numerator past
    int64. With a = 2**40 and t2 = 4, windows of (1, 1) extrapolate
    exactly to a * 32 / (2 * P); one cell at (2**30, 1) needs a numerator
    near 2**73, one cell at t2 = 2**30 one near 2**100, so the array call
    raises OverflowError instead of wrapping."""
    a, t2 = 2**40, 4
    v0, acc = np.zeros((3, 4), dtype=np.int64), np.full((3, 4), a)
    t0, t1 = np.ones((2, 3, 4), dtype=np.int64)
    x, y = _extrapolate_scaled(v0, v0, acc, acc, t0, t1, t2)
    assert x.tolist() == y.tolist() == [[a * 32 // (2 * P)] * 4] * 3
    t0[1, 2] = 2**30
    assert not _fits_i64(2 * a * t2 * (2**30 + 1) + a * t2 * t2)
    with pytest.raises(OverflowError):
        _extrapolate_scaled(v0, v0, acc, acc, t0, t1, t2)
    t0[1, 2], cell_t2 = 1, np.full((3, 4), t2)
    same = _extrapolate_scaled(v0, v0, acc, acc, t0, t1, cell_t2)
    assert [p.tolist() for p in same] == [x.tolist(), y.tolist()]
    cell_t2[0, 1] = 2**30
    assert not _fits_i64(2 * a * 2**30 * 2 + a * 2**60)
    with pytest.raises(OverflowError):
        _extrapolate_scaled(v0, v0, acc, acc, t0, t1, cell_t2)


_MV = st.one_of(st.integers(-MV_MAX, MV_MAX), st.integers(-2**62, 2**62))


@given(st.lists(st.tuples(_MV, _MV, _MV, _MV, st.one_of(_TICKS, st.integers(1, 2**40)),
                          _TICKS), min_size=1, max_size=12))
@example([(2**55, 0, 0, 0, 1, 1), (0, 0, 0, 0, 32, 1)])  # each row fits, the bound does not
@example([(MV_MAX, -MV_MAX, -MV_MAX, MV_MAX, 2**20, 8)])
@example([(2**55, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 8)])  # nor here, from the largest t1
def test_array_derivation_matches_the_scalar_call(rows):
    """Ints and arrays both derive the exact rational solution rounded half
    away, and raise OverflowError, never wrap: an int call whenever one of
    its numerators leaves int64, an array call whenever any row's
    numerators or the documented bound do. Each row (mv0x, mv0y, mv1x,
    mv1y, t0, t1) has its own window; rows sharing one t1 are also solved
    with that t1 as one number."""
    expected, fits = [], True
    for row in rows:
        nums = _solution_numerators(*row)
        t0, t1 = row[4:]
        want = tuple(_round_half_away(Fraction(n, t0 * t1 * (t0 + t1))) for n in nums)
        if _fits_i64(*nums):
            assert _derive_scaled(*row) == want
        else:
            with pytest.raises(OverflowError):
                _derive_scaled(*row)
            fits = False
        expected.append(want)
    # The array call's documented bound, from the largest |mv0|, |mv1|, t0 and t1.
    m0 = max(abs(v) for r in rows for v in r[:2])
    m1 = max(abs(v) for r in rows for v in r[2:4])
    tm = max(r[4] for r in rows)
    s1 = max(r[5] for r in rows)
    bound = max(tm * s1 * (tm + s1), 2 * P * (m1 * tm + m0 * s1),
                P * (m0 * s1 * (2 * tm + s1) + m1 * tm * tm))
    shared_t1 = [rows[0][5]] if len({r[5] for r in rows}) == 1 else []
    for dtype in (np.int64, np.int32):
        if dtype == np.int32 and any(abs(v) >= 2**31 for r in rows for v in r):
            continue
        *columns, t1s = [np.array(col, dtype=dtype) for col in zip(*rows)]
        for t1 in [t1s, *shared_t1]:
            if not fits or bound > I64_MAX:
                with pytest.raises(OverflowError):
                    _derive_scaled(*columns, t1)
                continue
            solved = _derive_scaled(*columns, t1)
            assert all(a.dtype == np.int64 for a in solved)
            assert list(zip(*(a.tolist() for a in solved))) == expected


# ---------------------------------------------------------------- overflow

def test_displacement_overflow_raises():
    with pytest.raises(OverflowError):
        displacement(params(2**61, 0, 0, 0), tick(4))


def test_velocity_overflow_raises():
    with pytest.raises(OverflowError):
        velocity_at(params(0, 0, 2**61, 0), tick(8))


def test_extrapolate_overflow_raises():
    with pytest.raises(OverflowError):
        extrapolate_mv(params(0, 2**61, 0, 0), tick(1), tick(1), tick(4))

"""Quantified comparison of the prediction modes.

The runner drives both modes over the same frames with shared motion
search, accumulates quality and a rate proxy per operating point, and
reduces mode pairs to a Bjontegaard delta rate.

Rate points sweep block size and search range rather than a quantiser:
there is no residual coding here, so the proxy rate is motion vector bits
(signed exp-Golomb against the previous block's vector) plus a residual
energy term, log2(block SAD + 1) summed over blocks. Proxy rates are only
comparable between modes of the same run, never to real bitrates.

Reference frames are the source frames themselves (lossless
reconstruction), so prediction quality isolates the motion model.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import astuple, dataclass, field, fields
from typing import IO, Optional

import numpy as np

from .motion_field import CELL_SIZE, FieldParams, MotionField, derive_field_params
from .predictor import (
    DEFAULT_DELTA_MAX,
    BlockSpec,
    FramePrediction,
    _block_sads,
    _check_search_range,
    predict_frame,
    search_fields,
)
from .sequences import (
    FrameBuffer,
    TrajectorySpec,
    _check_trajectory,
    read_yuv,
    synth_sequence,
)

MODES = ("uniform", "uamm")


class BdRateError(ValueError):
    """Raised when two curves cannot be reduced to a BD-rate."""


@dataclass(frozen=True)
class RdPoint:
    """One (rate, quality) sample of an RD curve."""

    rate: float
    psnr: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two 8-bit planes, in dB.

    Identical planes return +inf. The |differences| stay uint8 and their
    squares are summed in float64, exactly: the sum is an integer below
    2**53, so the mean is the one an int64 tally would give.
    """
    if a.shape != b.shape or a.size == 0:
        raise ValueError(f"planes must share one non-empty shape, got {a.shape} vs {b.shape}")
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    d = diff.ravel().astype(np.float64)
    mse = float(np.dot(d, d)) / d.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def _validate_curve(name: str, curve) -> tuple[np.ndarray, np.ndarray]:
    if len(curve) != 4:
        raise BdRateError(f"{name} must have exactly 4 points, got {len(curve)}")
    rates = np.array([p.rate for p in curve], dtype=np.float64)
    quals = np.array([p.psnr for p in curve], dtype=np.float64)
    if not np.all(np.isfinite(rates)) or not np.all(np.isfinite(quals)):
        raise BdRateError(f"{name} has non-finite values")
    if np.any(np.diff(rates) <= 0):
        raise BdRateError(f"{name} rates must be strictly increasing")
    if np.any(np.diff(quals) <= 0):
        raise BdRateError(f"{name} is not monotonic: psnr must increase with rate")
    return rates, quals


def bd_rate(curve_a, curve_b) -> float:
    """Average rate difference of curve_b against curve_a, in percent.

    Classic cubic-fit Bjontegaard metric: fit log10(rate) as a cubic in
    PSNR for both curves, integrate over the common PSNR interval and map
    the mean log offset back to a ratio. Negative means curve_b reaches
    the same quality cheaper than curve_a.
    """
    rates_a, quals_a = _validate_curve("curve_a", curve_a)
    rates_b, quals_b = _validate_curve("curve_b", curve_b)
    lo = max(quals_a.min(), quals_b.min())
    hi = min(quals_a.max(), quals_b.max())
    if hi <= lo:
        raise BdRateError(
            f"no PSNR overlap: [{quals_a.min():.3f}, {quals_a.max():.3f}] vs "
            f"[{quals_b.min():.3f}, {quals_b.max():.3f}]"
        )
    fit_a = np.polyfit(quals_a, np.log10(rates_a), 3)
    fit_b = np.polyfit(quals_b, np.log10(rates_b), 3)
    int_a = np.polyint(fit_a)
    int_b = np.polyint(fit_b)
    area_a = np.polyval(int_a, hi) - np.polyval(int_a, lo)
    area_b = np.polyval(int_b, hi) - np.polyval(int_b, lo)
    avg_diff = (area_b - area_a) / (hi - lo)
    return float((10.0 ** avg_diff - 1.0) * 100.0)


@dataclass(frozen=True)
class SequenceSource:
    """Where a sequence's frames come from: the yuv file at ``path`` or the
    generator's ``trajectory``, exactly one of them."""

    name: str
    width: int
    height: int
    frames: int
    path: Optional[str] = None
    trajectory: Optional[TrajectorySpec] = None

    def __post_init__(self):
        if self.frames < 2:
            raise ValueError(f"need at least 2 frames to predict, got {self.frames}")
        if any(side < CELL_SIZE or side % CELL_SIZE for side in (self.width, self.height)):
            raise ValueError(f"frame dimensions must be positive multiples of 4, "
                             f"got {self.width}x{self.height}")
        if bool(self.path) == (self.trajectory is not None):
            raise ValueError("a sequence needs a path or a trajectory, exactly one")
        if self.trajectory is not None:
            _check_trajectory(self.trajectory, self.frames, self.width, self.height)

    def load(self) -> list[FrameBuffer]:
        if self.path:
            return read_yuv(self.path, self.width, self.height, self.frames)
        frames, _ = synth_sequence(self.trajectory, self.frames, self.width, self.height)
        return frames


@dataclass(frozen=True)
class RatePoint:
    """One operating point: square blocks of ``block_size`` searched over
    +-``search_range`` pel."""

    label: str
    block_size: int
    search_range: int

    def __post_init__(self):
        BlockSpec(0, 0, self.block_size, self.block_size)
        _check_search_range(self.search_range)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: a sequence, the rate points to sweep, the modes to compare.

    ``point`` is the [predict] operating point: ``demo-field`` estimates
    its fields at it. Without an ``output_dir`` nothing is written.
    """

    source: SequenceSource
    rate_points: tuple[RatePoint, ...]
    modes: tuple[str, ...] = MODES
    delta_max: int = DEFAULT_DELTA_MAX
    point: RatePoint = RatePoint("base", 16, 8)
    output_dir: Optional[str] = None
    write_rd_curves: bool = False

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one mode is required")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}, valid modes: {', '.join(MODES)}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate modes: {list(self.modes)}")
        if not self.rate_points:
            raise ValueError("at least one rate point is required")
        if self.delta_max < 0:
            raise ValueError(f"delta_max must be non-negative, got {self.delta_max}")
        labels = [rp.label for rp in self.rate_points]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate rate point labels: {labels}")
        if self.output_dir == "":
            raise ValueError("[output] dir must name a directory, got ''")


@dataclass
class ReportRow:
    sequence: str
    rate_point: str
    mode: str
    mean_sad: float
    pred_psnr_db: float
    rate_proxy: float
    corrected_pct: float


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    # uamm's BD-rate over uniform, why there is none as a str, or None.
    bd_summary: float | str | None = None

    def rd_curve(self, mode: str) -> list[RdPoint]:
        """The RD curve of ``mode``: one point per row of it, sorted by rate."""
        return sorted((RdPoint(r.rate_proxy, r.pred_psnr_db) for r in self.rows
                       if r.mode == mode), key=lambda p: p.rate)


def _signed_exp_golomb_bits(v: np.ndarray) -> np.ndarray:
    """Length of the signed exp-Golomb code of each entry of an int64
    array; values must lie within +-2**52."""
    u = 2 * np.abs(v) - (v > 0)       # 2v - 1 for v > 0, -2v otherwise
    # u + 1 = m * 2**e with 0.5 <= m < 1: e is its bit length, exact below 2**53.
    return 2 * np.frexp(u + 1)[1] - 1


@dataclass
class _ModeTally:
    sad_total: int = 0
    blocks: int = 0
    mv_bits: int = 0
    residual_bits: float = 0.0
    corrected: int = 0
    subblocks: int = 0
    frame_psnrs: list = field(default_factory=list)


def _mv_bits(field: MotionField, block_size: int) -> int:
    """Bits of the block vectors in tiling order, each coded against the
    previous block's vector and the first against zero."""
    step = block_size // CELL_SIZE
    mvs = field.mv[::step, ::step].reshape(-1, 2).astype(np.int64)
    deltas = np.diff(mvs, axis=0, prepend=np.zeros((1, 2), dtype=np.int64))
    return int(_signed_exp_golomb_bits(deltas).sum())


class Decoder:
    """What a decoder keeps between the frames of one rate point: the last
    field it advanced over, at first an empty one at ``poc``, ``width`` x
    ``height``, and the parameters derived for it, None until then."""

    def __init__(self, poc: int, width: int, height: int):
        self.field = MotionField.empty(poc, width, height)
        self.params: Optional[FieldParams] = None

    def decode(self, ref: FrameBuffer, field: MotionField, block_size: int, mode: str,
               delta_max: int) -> FramePrediction:
        """``predict_frame`` of ``field`` from ``ref``; only uamm reads the held parameters."""
        return predict_frame(ref, field, block_size, self.params if mode == "uamm" else None,
                             delta_max)

    def advance(self, field: MotionField) -> FieldParams:
        """Derive ``field``'s parameters chained into the held field; hold and return them."""
        self.params = derive_field_params(field, self.field)
        self.field = field
        return self.params


def _run_rate_points(
    frames: list[FrameBuffer], rate_points: tuple[RatePoint, ...],
    modes: tuple[str, ...], delta_max: int
) -> list[dict[str, _ModeTally]]:
    """Predict every frame after the first at every operating point.

    Frames run in order. Each frame is searched once per distinct search
    range, for all rate points at that range, then decoded and scored
    once per rate point and mode, every block at a time. Each rate point
    keeps its own tallies, returned in rate point order, and its own
    ``Decoder``, which advances over a frame's field only when a later
    frame's uamm mode reads the result; the first frame's uamm decode has
    no parameters yet. The tallies add the blocks in tiling order.
    """
    tallies = [{m: _ModeTally() for m in modes} for _ in rate_points]
    by_range: dict[int, list[int]] = {}
    for i, rp in enumerate(rate_points):
        by_range.setdefault(rp.search_range, []).append(i)

    decoders = [Decoder(frames[0].poc, frames[0].width, frames[0].height) for _ in rate_points]
    for k in range(1, len(frames)):
        src, ref = frames[k], frames[k - 1]
        searched: dict[int, MotionField] = {}
        for search_range, points in by_range.items():
            sizes = [rate_points[i].block_size for i in points]
            searched.update(zip(points, search_fields(src, ref, sizes, search_range)))
        for i, rp in enumerate(rate_points):
            field_k = searched[i]
            mv_bits = _mv_bits(field_k, rp.block_size)
            for m, tally in tallies[i].items():
                frame = decoders[i].decode(ref, field_k, rp.block_size, m, delta_max)
                sads = _block_sads(src.luma, frame.pred, rp.block_size,
                                   rp.block_size).ravel().tolist()
                tally.sad_total += sum(sads)
                tally.blocks += len(sads)
                tally.mv_bits += mv_bits
                for sad in sads:   # one float at a time, in tiling order
                    tally.residual_bits += math.log2(sad + 1)
                tally.corrected += int(frame.corrected.sum())
                tally.subblocks += frame.subblock_mvs[..., 0].size
                tally.frame_psnrs.append(psnr(src.luma, frame.pred))
            if "uamm" in modes and k + 1 < len(frames):
                decoders[i].advance(field_k)
    return tallies


def _run_rate_point(
    frames: list[FrameBuffer], rp: RatePoint, modes: tuple[str, ...], delta_max: int
) -> dict[str, _ModeTally]:
    """``_run_rate_points`` at one operating point: a tracer hook until the
    tracer wraps the frame kernels."""
    return _run_rate_points(frames, (rp,), modes, delta_max)[0]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sequence at every rate point in every mode.

    Returns the report and, when an output directory is configured, makes
    it before any search and writes report.csv, bd_summary.csv and
    optional RD curve dumps there. Output is a pure function of the
    config: no timestamps, stable ordering.
    """
    report = ExperimentReport()
    frames = config.source.load()
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
    runs = _run_rate_points(frames, config.rate_points, config.modes, config.delta_max)
    # Each tally has a frame of blocks, each block a vector of 2 bits or more.
    for rp, tallies in zip(config.rate_points, runs):
        for m in config.modes:
            t = tallies[m]
            report.rows.append(ReportRow(
                sequence=config.source.name,
                rate_point=rp.label,
                mode=m,
                mean_sad=t.sad_total / t.blocks,
                pred_psnr_db=sum(t.frame_psnrs) / len(t.frame_psnrs),
                rate_proxy=t.mv_bits + t.residual_bits,
                corrected_pct=100.0 * t.corrected / t.subblocks,
            ))

    if "uniform" in config.modes and "uamm" in config.modes:
        report.bd_summary = _try_bd(report.rd_curve("uniform"), report.rd_curve("uamm"))

    _maybe_write(config, report)
    return report


def _try_bd(curve_a: list[RdPoint], curve_b: list[RdPoint]) -> float | str:
    try:
        return bd_rate(curve_a, curve_b)
    except ValueError as exc:      # BdRateError included
        return str(exc)


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def write_report_csv(report: ExperimentReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(f.name for f in fields(ReportRow))
    for r in report.rows:
        writer.writerow(_fmt(v) if isinstance(v, float) else v for v in astuple(r))


def write_bd_summary_csv(report: ExperimentReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["sequence", "bd_rate_pct"])
    if (value := report.bd_summary) is not None:
        writer.writerow([report.rows[0].sequence,
                         _fmt(value) if isinstance(value, float) else "NA"])


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _maybe_write(config: ExperimentConfig, report: ExperimentReport) -> None:
    if config.output_dir is None:
        return
    with open(os.path.join(config.output_dir, "report.csv"), "w") as fh:
        write_report_csv(report, fh)
    with open(os.path.join(config.output_dir, "bd_summary.csv"), "w") as fh:
        write_bd_summary_csv(report, fh)
    if config.write_rd_curves:
        for mode in config.modes:
            fname = f"rd_{_safe_name(config.source.name)}_{mode}.dat"
            with open(os.path.join(config.output_dir, fname), "w") as fh:
                fh.write("# rate_proxy pred_psnr_db\n")
                for p in report.rd_curve(mode):
                    fh.write(f"{_fmt(p.rate)} {_fmt(p.psnr)}\n")

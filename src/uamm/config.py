"""Experiment configuration: one INI-style file, flag overrides on top.

Sections: [input] names the sequence (a yuv file or the synthetic
generator), [trajectory] configures the generator, [predict] the block
pipeline, [rate_points] the sweep, [output] where CSVs go, [run] the
seed. Every value has a default, so a minimal synthetic config is just an
[input] section with kind, dimensions and a frame count.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from typing import Optional

from .evaluation import (
    DEFAULT_RATE_POINTS,
    MODES,
    ExperimentConfig,
    RatePoint,
    SequenceSource,
)
from .sequences import TrajectorySpec


class ConfigError(ValueError):
    """A configuration value is missing or malformed."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one `predict` run needs."""

    source: SequenceSource
    block_size: int = 16
    search_range: int = 8
    delta_max: int = 32
    modes: tuple[str, ...] = MODES
    rate_points: tuple[RatePoint, ...] = DEFAULT_RATE_POINTS
    output_dir: str = "out"
    write_rd_curves: bool = False
    seed: int = 0
    # (patch_seed, background_seed) as [trajectory] gives them; None follows seed.
    trajectory_seeds: tuple[Optional[int], Optional[int]] = (None, None)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            sequences=(self.source,),
            rate_points=self.rate_points,
            modes=self.modes,
            delta_max=self.delta_max,
            output_dir=self.output_dir,
            write_rd_curves=self.write_rd_curves,
        )


def _get(parser, section, key, conv, default, where):
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] {key} is required {where}")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {conv.__name__}"
        ) from None


_REQUIRED = object()


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _to_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_modes(raw: str) -> tuple[str, ...]:
    modes = tuple(_to_list(raw))
    if not modes:
        raise ConfigError("[predict] modes must name at least one mode")
    for m in modes:
        if m not in MODES:
            raise ConfigError(
                f"[predict] modes: unknown mode {m!r}, valid modes: {', '.join(MODES)}"
            )
    return modes


def _seeded(trajectory: TrajectorySpec, explicit: tuple[Optional[int], Optional[int]],
            seed: int) -> TrajectorySpec:
    """Resolve the texture seeds: explicit values win, else seed and seed + 1."""
    patch_seed, background_seed = explicit
    return replace(
        trajectory,
        patch_seed=seed if patch_seed is None else patch_seed,
        background_seed=seed + 1 if background_seed is None else background_seed,
    )


def _parse_trajectory(
    parser: configparser.ConfigParser, seed: int
) -> tuple[TrajectorySpec, tuple[Optional[int], Optional[int]]]:
    """The [trajectory] section, plus the texture seeds it sets explicitly."""
    sec = "trajectory"
    if not parser.has_section(sec):
        raise ConfigError("[trajectory] section is required for synthetic input")
    geti = lambda key, default: _get(parser, sec, key, int, default, "for synthetic input")
    explicit = (geti("patch_seed", None), geti("background_seed", None))
    try:
        spec = TrajectorySpec(
            start_x=geti("start_x", _REQUIRED),
            start_y=geti("start_y", _REQUIRED),
            v0x=geti("v0x", 0),
            v0y=geti("v0y", 0),
            ax=geti("ax", 0),
            ay=geti("ay", 0),
            patch_width=geti("patch_width", 16),
            patch_height=geti("patch_height", 16),
            patch_kind=_get(parser, sec, "patch", str, "noise", ""),
            patch_value=geti("patch_value", 200),
            background=_get(parser, sec, "background", str, "flat", ""),
            background_value=geti("background_value", 128),
        )
    except ValueError as exc:
        raise ConfigError(f"[trajectory] {exc}") from None
    return _seeded(spec, explicit, seed), explicit


def _parse_rate_points(parser: configparser.ConfigParser,
                       block_size: int, search_range: int) -> tuple[RatePoint, ...]:
    sec = "rate_points"
    if not parser.has_section(sec):
        return (RatePoint("base", block_size, search_range),)
    labels = _to_list(_get(parser, sec, "labels", str, _REQUIRED, "in [rate_points]"))
    sizes = _to_list(_get(parser, sec, "block_sizes", str, _REQUIRED, "in [rate_points]"))
    ranges = _to_list(_get(parser, sec, "search_ranges", str,
                           ", ".join([str(search_range)] * len(labels)), ""))
    if not (len(labels) == len(sizes) == len(ranges)):
        raise ConfigError(
            "[rate_points] labels, block_sizes and search_ranges must have "
            f"matching lengths, got {len(labels)}/{len(sizes)}/{len(ranges)}"
        )
    try:
        return tuple(
            RatePoint(lab, int(sz), int(rng))
            for lab, sz, rng in zip(labels, sizes, ranges)
        )
    except ValueError as exc:
        raise ConfigError(f"[rate_points] {exc}") from None


def load_config(path: str) -> RunConfig:
    """Parse a config file. Raises FileNotFoundError or ConfigError."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    if not parser.has_section("input"):
        raise ConfigError("[input] section is required")
    kind = _get(parser, "input", "kind", str, "synth", "")
    if kind not in ("yuv", "synth"):
        raise ConfigError(f"[input] kind must be 'yuv' or 'synth', got {kind!r}")
    width = _get(parser, "input", "width", int, _REQUIRED, "")
    height = _get(parser, "input", "height", int, _REQUIRED, "")
    frames = _get(parser, "input", "frames", int, _REQUIRED, "")
    seed = _get(parser, "run", "seed", int, 0, "") if parser.has_section("run") else 0

    if kind == "yuv":
        seq_path = _get(parser, "input", "path", str, _REQUIRED, "for yuv input")
        default_name = os.path.splitext(os.path.basename(seq_path))[0]
        trajectory, trajectory_seeds = None, (None, None)
    else:
        seq_path = None
        default_name = "synthetic"
        trajectory, trajectory_seeds = _parse_trajectory(parser, seed)
    name = _get(parser, "input", "name", str, default_name, "")

    try:
        source = SequenceSource(name=name, width=width, height=height,
                                frames=frames, kind=kind, path=seq_path,
                                trajectory=trajectory)
    except ValueError as exc:
        raise ConfigError(f"[input] {exc}") from None

    block_size = _get(parser, "predict", "block_size", int, 16, "")
    search_range = _get(parser, "predict", "search_range", int, 8, "")
    delta_max = _get(parser, "predict", "delta_max", int, 32, "")
    modes = (_parse_modes(parser.get("predict", "modes"))
             if parser.has_option("predict", "modes") else MODES)

    return RunConfig(
        source=source,
        block_size=block_size,
        search_range=search_range,
        delta_max=delta_max,
        modes=modes,
        rate_points=_parse_rate_points(parser, block_size, search_range),
        output_dir=_get(parser, "output", "dir", str, "out", ""),
        write_rd_curves=_get(parser, "output", "write_rd_curves", _to_bool, False, ""),
        seed=seed,
        trajectory_seeds=trajectory_seeds,
    )


def apply_overrides(
    cfg: RunConfig,
    out: Optional[str] = None,
    frames: Optional[int] = None,
    block_size: Optional[int] = None,
    search_range: Optional[int] = None,
    modes: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    """Command line flags win over file values."""
    if frames is not None:
        try:
            cfg = replace(cfg, source=replace(cfg.source, frames=frames))
        except ValueError as exc:
            raise ConfigError(f"--frames: {exc}") from None
    if block_size is not None or search_range is not None:
        bs = block_size if block_size is not None else cfg.block_size
        sr = search_range if search_range is not None else cfg.search_range
        try:
            cfg = replace(cfg, block_size=bs, search_range=sr,
                          rate_points=(RatePoint("base", bs, sr),))
        except ValueError as exc:
            raise ConfigError(f"block size / search range: {exc}") from None
    if modes is not None:
        cfg = replace(cfg, modes=_parse_modes(modes))
    if out is not None:
        cfg = replace(cfg, output_dir=out)
    if seed is not None:
        trajectory = cfg.source.trajectory
        if trajectory is not None:
            trajectory = _seeded(trajectory, cfg.trajectory_seeds, seed)
        cfg = replace(cfg, seed=seed, source=replace(cfg.source, trajectory=trajectory))
    return cfg

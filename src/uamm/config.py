"""Experiment configuration: one INI-style file, command line flags written into it.

Sections: [input] names the sequence (a yuv file or the synthetic
generator), [trajectory] configures the generator, [predict] the block
pipeline, [rate_points] the sweep, [output] where CSVs go, [run] the
seed. Every value has a default, so a minimal synthetic config is just an
[input] section with kind, dimensions and a frame count. Values are read
literally: ``%`` has no special meaning. A section or key outside the
format (``KNOWN_KEYS``) is an error.
"""

from __future__ import annotations

import configparser
import os

from .evaluation import ExperimentConfig, RatePoint, SequenceSource
from .sequences import TrajectorySpec


class ConfigError(ValueError):
    """A configuration value is missing or malformed."""


# Every section and key of the format, whatever the input kind; anything
# else is an error rather than a silently ignored typo.
KNOWN_KEYS = {
    "input": {"kind", "width", "height", "frames", "name", "path"},
    "trajectory": {"start_x", "start_y", "v0x", "v0y", "ax", "ay", "patch_width",
                   "patch_height", "patch", "patch_value", "patch_seed", "background",
                   "background_value", "background_seed"},
    "predict": {"block_size", "search_range", "delta_max", "modes"},
    "rate_points": {"labels", "block_sizes", "search_ranges"},
    "output": {"dir", "write_rd_curves"},
    "run": {"seed"},
}

# The (section, key) each command line flag replaces.
FLAG_KEYS = {
    "out": ("output", "dir"),
    "frames": ("input", "frames"),
    "block_size": ("predict", "block_size"),
    "search_range": ("predict", "search_range"),
    "modes": ("predict", "modes"),
    "seed": ("run", "seed"),
}


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


def _build(where: str, cls, **kwargs):
    """``cls(**kwargs)``, with its validation error reported against ``where``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _parse_trajectory(parser: configparser.ConfigParser, seed: int) -> TrajectorySpec:
    """The [trajectory] section; texture seeds not given follow ``seed``."""
    sec = "trajectory"
    if not parser.has_section(sec):
        raise ConfigError("[trajectory] section is required for synthetic input")
    geti = lambda key, default: _get(parser, sec, key, int, default, "for synthetic input")
    return _build(
        "[trajectory]", TrajectorySpec,
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
        patch_seed=geti("patch_seed", seed),
        background=_get(parser, sec, "background", str, "flat", ""),
        background_value=geti("background_value", 128),
        background_seed=geti("background_seed", seed + 1),
    )


def _parse_rate_points(parser: configparser.ConfigParser,
                       block_size: int, search_range: int) -> tuple[RatePoint, ...]:
    sec = "rate_points"
    if not parser.has_section(sec):
        return (_build("[predict]", RatePoint, label="base", block_size=block_size,
                       search_range=search_range),)
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


def load_config(path: str, **flags) -> ExperimentConfig:
    """Parse a config file into the config of one run.

    Each flag that is not None (``out``, ``frames``, ``block_size``,
    ``search_range``, ``modes``, ``seed``) is first written over its key
    in the file, see ``FLAG_KEYS``; a block size or search range flag also
    drops [rate_points], leaving the one ``base`` point of [predict].
    Raises FileNotFoundError or ConfigError, also for an unknown section
    or key.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if parser.defaults():  # keys there would show up in every section
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
    for name, value in flags.items():
        if value is None:
            continue
        section, key = FLAG_KEYS[name]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))
        if name in ("block_size", "search_range"):
            parser.remove_section("rate_points")

    if not parser.has_section("input"):
        raise ConfigError("[input] section is required")
    kind = _get(parser, "input", "kind", str, "synth", "")
    if kind not in ("yuv", "synth"):
        raise ConfigError(f"[input] kind must be 'yuv' or 'synth', got {kind!r}")
    width = _get(parser, "input", "width", int, _REQUIRED, "")
    height = _get(parser, "input", "height", int, _REQUIRED, "")
    frames = _get(parser, "input", "frames", int, _REQUIRED, "")

    if kind == "yuv":
        seq_path = _get(parser, "input", "path", str, _REQUIRED, "for yuv input")
        default_name = os.path.splitext(os.path.basename(seq_path))[0]
        trajectory = None
    else:
        seq_path = None
        default_name = "synthetic"
        trajectory = _parse_trajectory(parser, _get(parser, "run", "seed", int, 0, ""))
    source = _build("[input]", SequenceSource,
                    name=_get(parser, "input", "name", str, default_name, ""),
                    width=width, height=height, frames=frames, kind=kind,
                    path=seq_path, trajectory=trajectory)

    block_size = _get(parser, "predict", "block_size", int, ExperimentConfig.block_size, "")
    search_range = _get(parser, "predict", "search_range", int,
                        ExperimentConfig.search_range, "")
    return _build(
        f"{path}:", ExperimentConfig,
        source=source,
        rate_points=_parse_rate_points(parser, block_size, search_range),
        modes=tuple(_to_list(_get(parser, "predict", "modes", str,
                                  ", ".join(ExperimentConfig.modes), ""))),
        delta_max=_get(parser, "predict", "delta_max", int, ExperimentConfig.delta_max, ""),
        block_size=block_size,
        search_range=search_range,
        output_dir=_get(parser, "output", "dir", str, "out", ""),
        write_rd_curves=_get(parser, "output", "write_rd_curves", _to_bool, False, ""),
    )

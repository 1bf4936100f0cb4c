"""Command line front end.

Subcommands: ``predict`` runs the experiment pipeline from a config file,
``demo-field`` dumps derived motion fields as CSV, ``bd-rate`` compares
two rate/psnr curve files, ``synth`` renders a synthetic sequence to a
YUV file. Exit codes: 0 success, 1 runtime failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Optional

from .config import FLAG_KEYS, ConfigError, load_config
from .evaluation import Decoder, RdPoint, bd_rate, run_experiment
from .motion_field import dump_field_csv
from .predictor import search_fields
from .sequences import write_yuv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uamm",
        description="Accelerated-motion inter-prediction laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser(
        "predict", help="run prediction and write report CSVs",
        epilog="Each flag value is parsed as the file's value would be. "
               "--block-size and --search-range also drop [rate_points].")
    predict.add_argument("--config", required=True, help="experiment config file")
    for name, (section, key) in FLAG_KEYS.items():
        predict.add_argument("--" + name.replace("_", "-"), help=f"replaces [{section}] {key}")
    predict.set_defaults(func=cmd_predict)

    demo = sub.add_parser("demo-field", help="dump derived motion fields as CSV")
    demo.add_argument("--config", required=True, help="experiment config file")
    demo.add_argument("--out", help="replaces [output] dir")
    demo.set_defaults(func=cmd_demo_field)

    bd = sub.add_parser("bd-rate", help="BD-rate of curve B against curve A")
    bd.add_argument("csv_a", help="anchor curve CSV with rate,psnr columns")
    bd.add_argument("csv_b", help="test curve CSV with rate,psnr columns")
    bd.set_defaults(func=cmd_bd_rate)

    synth = sub.add_parser("synth", help="render a synthetic sequence to YUV")
    synth.add_argument("--spec", required=True,
                       help="config file with [input] and [trajectory]")
    synth.add_argument("--out", required=True, help="output .yuv path")
    synth.set_defaults(func=cmd_synth)
    return parser


def cmd_predict(args) -> int:
    cfg = load_config(args.config, **{name: getattr(args, name) for name in FLAG_KEYS})
    report = run_experiment(cfg)
    for row in report.rows:
        print(f"{row.sequence} rp={row.rate_point} {row.mode}: "
              f"mean_sad={row.mean_sad:.2f} psnr={row.pred_psnr_db:.3f} "
              f"rate={row.rate_proxy:.1f} corrected={row.corrected_pct:.2f}%")
    if (value := report.bd_summary) is not None:
        shown = f"{value:+.3f}%" if isinstance(value, float) else f"NA ({value})"
        print(f"{cfg.source.name}: bd-rate (uamm vs uniform) = {shown}")
    print(f"report written to {cfg.output_dir}")
    return 0


def cmd_demo_field(args) -> int:
    """Dump the parameters one ``Decoder`` derives as it advances over the
    field of each frame after the first, searched at the [predict] point."""
    cfg = load_config(args.config, out=args.out)
    frames = cfg.source.load()
    os.makedirs(cfg.output_dir, exist_ok=True)
    decoder = Decoder(frames[0].poc, cfg.source.width, cfg.source.height)
    for k in range(1, len(frames)):
        searched = search_fields(frames[k], frames[k - 1], [cfg.point.block_size],
                                 cfg.point.search_range)
        params = decoder.advance(searched[0])
        path = os.path.join(cfg.output_dir, f"field_{k:04d}.csv")
        with open(path, "w") as fh:
            dump_field_csv(params, fh)
    print(f"wrote {len(frames) - 1} field CSVs to {cfg.output_dir}")
    return 0


def _read_curve(path: str) -> list[RdPoint]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"rate", "psnr"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected a CSV with rate,psnr columns")
        points = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            try:
                rate, quality = float(row["rate"]), float(row["psnr"])
            except (TypeError, ValueError):     # a short row reads None
                raise ValueError(f"{where}: missing or unparsable rate,psnr value") from None
            try:
                points.append(RdPoint(rate, quality))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return sorted(points, key=lambda p: p.rate)


def cmd_bd_rate(args) -> int:
    value = bd_rate(_read_curve(args.csv_a), _read_curve(args.csv_b))
    print(f"bd-rate: {value:+.4f}%")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.spec)
    if cfg.source.trajectory is None:
        raise ConfigError("[input] kind must be synth for the synth command")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    open(args.out, "ab").close()    # an unwritable --out fails before rendering
    frames = cfg.source.load()
    write_yuv(frames, args.out)
    print(f"wrote {len(frames)} frames ({cfg.source.width}x{cfg.source.height}) "
          f"to {args.out}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

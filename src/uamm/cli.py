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

from .config import ConfigError, load_config
from .evaluation import RdPoint, bd_rate, run_experiment
from .motion_field import MotionField, derive_field_params, dump_field_csv
from .predictor import search_fields
from .sequences import synth_sequence, write_yuv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uamm",
        description="Accelerated-motion inter-prediction laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="run prediction and write report CSVs")
    predict.add_argument("--config", required=True, help="experiment config file")
    predict.add_argument("--out", help="replaces [output] dir")
    predict.add_argument("--frames", type=int, help="replaces [input] frames")
    predict.add_argument("--block-size", type=int,
                         help="replaces [predict] block_size, drops [rate_points]")
    predict.add_argument("--search-range", type=int,
                         help="replaces [predict] search_range, drops [rate_points]")
    predict.add_argument("--modes", help="replaces [predict] modes, comma separated")
    predict.add_argument("--seed", type=int, help="replaces [run] seed")

    demo = sub.add_parser("demo-field", help="dump derived motion fields as CSV")
    demo.add_argument("--config", required=True, help="experiment config file")
    demo.add_argument("--out", help="replaces [output] dir")

    bd = sub.add_parser("bd-rate", help="BD-rate of curve B against curve A")
    bd.add_argument("csv_a", help="anchor curve CSV with rate,psnr columns")
    bd.add_argument("csv_b", help="test curve CSV with rate,psnr columns")

    synth = sub.add_parser("synth", help="render a synthetic sequence to YUV")
    synth.add_argument("--spec", required=True,
                       help="config file with [input] and [trajectory]")
    synth.add_argument("--out", required=True, help="output .yuv path")
    return parser


def cmd_predict(args) -> int:
    cfg = load_config(args.config, out=args.out, frames=args.frames,
                      block_size=args.block_size, search_range=args.search_range,
                      modes=args.modes, seed=args.seed)
    report = run_experiment(cfg)
    for row in report.rows:
        print(f"{row.sequence} rp={row.rate_point} {row.mode}: "
              f"mean_sad={row.mean_sad:.2f} psnr={row.pred_psnr_db:.3f} "
              f"rate={row.rate_proxy:.1f} corrected={row.corrected_pct:.2f}%")
    for name, value in report.bd_summary:
        shown = "NA" if value is None else f"{value:+.3f}%"
        print(f"{name}: bd-rate (uamm vs uniform) = {shown}")
    print(f"report written to {cfg.output_dir}")
    return 0


def cmd_demo_field(args) -> int:
    cfg = load_config(args.config, out=args.out)
    frames = cfg.source.load()
    os.makedirs(cfg.output_dir, exist_ok=True)
    field = MotionField.empty(frames[0].poc, cfg.source.width, cfg.source.height)
    for k in range(1, len(frames)):
        searched = search_fields(frames[k], frames[k - 1], [cfg.block_size], cfg.search_range)
        params = derive_field_params(searched[0], field)
        field = params.field
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
        points = [RdPoint(float(row["rate"]), float(row["psnr"])) for row in reader]
    return sorted(points, key=lambda p: p.rate)


def cmd_bd_rate(args) -> int:
    value = bd_rate(_read_curve(args.csv_a), _read_curve(args.csv_b))
    print(f"bd-rate: {value:+.4f}%")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.spec)
    if cfg.source.trajectory is None:
        raise ConfigError("[input] kind must be synth for the synth command")
    frames, _ = synth_sequence(cfg.source.trajectory, cfg.source.frames,
                               cfg.source.width, cfg.source.height)
    write_yuv(frames, args.out)
    print(f"wrote {len(frames)} frames ({cfg.source.width}x{cfg.source.height}) "
          f"to {args.out}")
    return 0


_COMMANDS = {
    "predict": cmd_predict,
    "demo-field": cmd_demo_field,
    "bd-rate": cmd_bd_rate,
    "synth": cmd_synth,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

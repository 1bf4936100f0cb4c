"""Config parsing and the command line front end."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uamm import (
    RatePoint,
    bd_rate,
    cli,
    read_yuv,
    synth_sequence,
)
from uamm.config import ConfigError, load_config
from uamm.evaluation import RdPoint

MINIMAL = """\
[input]
kind = synth
width = 32
height = 32
frames = 4

[trajectory]
start_x = 16
start_y = 16
"""

FULL = """\
[input]
kind = synth
width = 64
height = 64
frames = 5
name = demo

[trajectory]
start_x = 0
start_y = 256
v0x = 16
ax = 32
patch = noise
patch_width = 32
patch_height = 32
patch_seed = 2
background = flat
background_value = 25

[predict]
block_size = 16
search_range = 8
delta_max = 48
modes = uniform, uamm

[rate_points]
labels = lo, hi
block_sizes = 8, 16
search_ranges = 6, 8

[output]
dir = results
write_rd_curves = yes

[run]
seed = 11
"""


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config

def test_load_minimal_synthetic_config(tmp_path):
    cfg = load_config(write_ini(tmp_path, MINIMAL))
    assert cfg.source.kind == "synth"
    assert (cfg.source.width, cfg.source.height, cfg.source.frames) == (32, 32, 4)
    assert cfg.source.name == "synthetic"
    assert cfg.block_size == 16 and cfg.search_range == 8
    assert cfg.rate_points == (RatePoint("base", 16, 8),)
    assert cfg.output_dir == "out"
    assert (cfg.source.trajectory.patch_seed,
            cfg.source.trajectory.background_seed) == (0, 1)


def test_load_full_config(tmp_path):
    cfg = load_config(write_ini(tmp_path, FULL))
    assert cfg.source.name == "demo"
    assert cfg.source.trajectory.ax == 32
    assert cfg.delta_max == 48
    assert cfg.rate_points == (RatePoint("lo", 8, 6), RatePoint("hi", 16, 8))
    assert cfg.output_dir == "results"
    assert cfg.write_rd_curves is True
    # the file's explicit patch_seed wins; background_seed follows [run] seed
    assert cfg.source.trajectory.patch_seed == 2
    assert cfg.source.trajectory.background_seed == 12


def test_load_yuv_config_names_after_the_file(tmp_path):
    text = "[input]\nkind = yuv\npath = clips/foreman.yuv\n" \
           "width = 32\nheight = 32\nframes = 3\n"
    cfg = load_config(write_ini(tmp_path, text))
    assert cfg.source.kind == "yuv"
    assert cfg.source.name == "foreman"
    assert cfg.source.path == "clips/foreman.yuv"


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_ini(tmp_path, example))
    assert cfg.source.trajectory.ax == 32
    assert cfg.delta_max == 32
    assert [rp.label for rp in cfg.rate_points] == ["22", "27", "32", "37"]


def test_known_keys_load_whatever_the_input_kind(tmp_path):
    yuv = "[input]\nkind = yuv\npath = clip.yuv\nwidth = 32\nheight = 32\nframes = 3\n"
    assert load_config(write_ini(tmp_path, yuv + "\n[trajectory]\nstart_x = 0\n"))
    assert load_config(write_ini(tmp_path, MINIMAL.replace("kind = synth",
                                                           "kind = synth\npath = x.yuv")))


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        load_config(str(tmp_path / "absent.ini"))
    assert "absent.ini" in str(err.value)


def test_load_requires_input_width(tmp_path):
    text = "[input]\nkind = synth\nheight = 32\nframes = 4\n"
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert "width is required" in str(err.value)


def test_load_rejects_unparsable_numbers(tmp_path):
    text = MINIMAL.replace("width = 32", "width = wide")
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert "cannot parse" in str(err.value)


def test_load_rejects_unknown_input_kind(tmp_path):
    text = MINIMAL.replace("kind = synth", "kind = raw")
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, text))


def test_load_rejects_unknown_mode(tmp_path):
    text = MINIMAL + "\n[predict]\nmodes = uniform, hevc\n"
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert "uniform, uamm" in str(err.value)


def test_load_rejects_mismatched_rate_point_lists(tmp_path):
    text = MINIMAL + "\n[rate_points]\nlabels = a, b\nblock_sizes = 8\n"
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert "matching lengths" in str(err.value)


def test_rate_points_default_search_range_repeats(tmp_path):
    text = MINIMAL + "\n[rate_points]\nlabels = a, b\nblock_sizes = 8, 16\n"
    cfg = load_config(write_ini(tmp_path, text))
    assert cfg.rate_points == (RatePoint("a", 8, 8), RatePoint("b", 16, 8))


def test_synthetic_input_requires_a_trajectory_section(tmp_path):
    text = "[input]\nkind = synth\nwidth = 32\nheight = 32\nframes = 4\n"
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert "trajectory" in str(err.value)


def test_overrides_replace_frames_and_collapse_rate_points(tmp_path):
    over = load_config(write_ini(tmp_path, FULL), frames=3, block_size=8,
                       out="elsewhere", seed=99, modes="uamm")
    assert over.source.frames == 3
    assert over.block_size == 8 and over.search_range == 8
    assert over.rate_points == (RatePoint("base", 8, 8),)
    assert over.output_dir == "elsewhere"
    assert over.modes == ("uamm",)
    # the file's explicit patch_seed wins; background_seed follows the seed
    assert over.source.trajectory.patch_seed == 2
    assert over.source.trajectory.background_seed == 100


def test_overrides_reject_invalid_frames(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, MINIMAL), frames=1)


def test_values_are_read_literally(tmp_path):
    cfg = write_ini(tmp_path, MINIMAL.replace("kind = synth",
                                              "kind = synth\nname = 100%")
                    + "\n[output]\ndir = out%x\n")
    loaded = load_config(cfg)
    assert (loaded.source.name, loaded.output_dir) == ("100%", "out%x")
    out = tmp_path / "out"
    assert cli.main(["predict", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.csv").read_text().splitlines()[1].startswith("100%,")


# -------------------------------------------------------------- cli: predict

def test_predict_writes_reports(tmp_path, capsys):
    cfg = write_ini(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    rc = cli.main(["predict", "--config", cfg, "--out", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert f"report written to {out}" in captured
    assert "mean_sad=" in captured
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[0] == ("sequence,rate_point,mode,mean_sad,pred_psnr_db,"
                         "rate_proxy,corrected_pct")
    assert len(report) == 3  # one rate point, two modes
    assert (tmp_path / "out" / "bd_summary.csv").exists()


def test_predict_seed_flag_equals_the_run_seed(tmp_path):
    noisy = MINIMAL.replace("start_y = 16",
                            "start_y = 16\nv0x = 8\nbackground = noise")
    plain = write_ini(tmp_path, noisy)
    seeded = write_ini(tmp_path, noisy + "\n[run]\nseed = 7\n", "seeded.ini")

    def report(*args):
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        assert cli.main(["predict", *args, "--out", str(out)]) == 0
        return (out / "report.csv").read_bytes()

    by_flag = report("--config", plain, "--seed", "7")
    assert by_flag == report("--config", seeded)
    assert by_flag != report("--config", plain)


def test_predict_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["predict", "--config", str(tmp_path / "gone.ini")])
    assert rc == 2
    assert "gone.ini" in capsys.readouterr().err


def test_predict_bad_mode_exits_2(tmp_path, capsys):
    cfg = write_ini(tmp_path, MINIMAL + "\n[predict]\nmodes = fast\n")
    rc = cli.main(["predict", "--config", cfg])
    assert rc == 2
    assert "uniform, uamm" in capsys.readouterr().err


# 4 pel a frame: the 16x16 patch fits 4 frames and leaves the 32x32 frame at frame 4
FAST = MINIMAL.replace("start_y = 16", "start_y = 16\nv0x = 64")


@pytest.mark.parametrize("text, flags", [
    pytest.param(MINIMAL + "\n[predict]\nblock_size = 6\n", [], id="block_size-file"),
    pytest.param(MINIMAL, ["--block-size", "6"], id="block_size-flag"),
    pytest.param(MINIMAL + "\n[predict]\nsearch_range = -1\n", [],
                 id="search_range-file"),
    pytest.param(MINIMAL, ["--search-range", "-1"], id="search_range-flag"),
    pytest.param(MINIMAL + "\n[rate_points]\nlabels = a, a\nblock_sizes = 8, 16\n",
                 [], id="duplicate_labels-file"),
    pytest.param(MINIMAL + "\n[rate_points]\nlabels =\nblock_sizes =\n", [],
                 id="no_rate_points-file"),
    pytest.param(MINIMAL + "\n[predict]\ndelta_max = -5\n", [], id="delta_max-file"),
    pytest.param(MINIMAL.replace("frames = 4", "frames = 2")
                 + "\n[predict]\ndelta_max = -5\nmodes = uniform\n", [],
                 id="delta_max-file-uniform-two-frames"),
    pytest.param(MINIMAL + "ax = 3\n", [], id="odd_acceleration-file"),
    pytest.param(FAST.replace("frames = 4", "frames = 6"), [], id="patch_leaves-file"),
    pytest.param(FAST, ["--frames", "6"], id="patch_leaves-flag"),
])
def test_predict_invalid_value_exits_2(tmp_path, capsys, text, flags):
    out = tmp_path / "out"
    rc = cli.main(["predict", "--config", write_ini(tmp_path, text),
                   "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    pytest.param("[predict]\nblock_szie = 8\n", "[predict] block_szie", id="key"),
    pytest.param("[predcit]\nblock_size = 8\n", "[predcit]", id="section"),
    pytest.param("[DEFAULT]\nseed = 1\n", "[DEFAULT]", id="default-section"),
])
def test_predict_unknown_section_or_key_exits_2(tmp_path, capsys, extra, named):
    out = tmp_path / "out"
    rc = cli.main(["predict", "--config", write_ini(tmp_path, MINIMAL + "\n" + extra),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_predict_missing_yuv_exits_2(tmp_path, capsys):
    text = (f"[input]\nkind = yuv\npath = {tmp_path}/void.yuv\n"
            "width = 32\nheight = 32\nframes = 3\n")
    rc = cli.main(["predict", "--config", write_ini(tmp_path, text),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "void.yuv" in capsys.readouterr().err


# sha256 of every file the shipped presets write. The outputs stay
# byte-identical unless a change sets out to move them, and that change
# records the new digests here.
PRESETS = Path(__file__).resolve().parents[1] / "scripts" / "presets"
PRESET_DIGESTS = {
    "predict/report.csv":
        "15a86380aae7d5d80c0c39006c4feba270f0289bdd9be18670a9ace259b866c6",
    "predict/bd_summary.csv":
        "142e707fdb9504e92d40febd791158ca78730e336a3165ceacf7155690b24110",
    "predict/rd_accel_uamm.dat":
        "9c710174c6539f36d33ae72b0b3acc3f627f56a565ce9ef089a72a94e60ec0b3",
    "predict/rd_accel_uniform.dat":
        "d0bae4458957cbc8e9de5b717e7a12208273939614d8a14031c744bde896f198",
    "fields/field_0001.csv":
        "94c6073b314cb18cc615f65bf9c4e603b6efa49c1c757b4f9f66953a778b426a",
    "fields/field_0002.csv":
        "4107b5544311b5d4a669d08613ec6b5a9ba51599f99dffc6ab63b75488d57ecb",
    "fields/field_0003.csv":
        "d1bb874b5f293565c584b5489c88a756c48e7fd12768e938dfe4c3f3d4533e2e",
    "fields/field_0004.csv":
        "c7371759047ccd693dbb05745717c29ee8ea2433ee14ae6f25ac1b9cf0168229",
}


def test_shipped_presets_reproduce_their_frozen_digests(tmp_path):
    assert cli.main(["predict", "--config", str(PRESETS / "accel_sweep.ini"),
                     "--out", str(tmp_path / "predict")]) == 0
    assert cli.main(["demo-field", "--config", str(PRESETS / "demo_field.ini"),
                     "--out", str(tmp_path / "fields")]) == 0
    written = {f"{path.parent.name}/{path.name}":
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*/*")}
    assert written == PRESET_DIGESTS


def _run_traced(tmp_path, command, preset, out_name):
    """Run perfbench/traced_cli.py on a shipped preset; return the digests
    of what it wrote under ``out_name``, the span names and the counters."""
    root = PRESETS.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    spans, counts = tmp_path / "spans.csv", tmp_path / "counts.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans), str(counts),
         command, "--config", str(PRESETS / preset), "--out", str(tmp_path / out_name)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = {f"{out_name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / out_name).iterdir()}
    with open(spans, newline="") as fh:
        names = {row["name"] for row in csv.DictReader(fh)}
    return written, names, json.loads(counts.read_text())


def test_traced_cli_reproduces_the_preset_digests(tmp_path):
    # perfbench/traced_cli.py wraps functions of uamm by name; a rename
    # under src/ breaks the benchmark's traced runs, and this test
    written, names, counts = _run_traced(tmp_path, "predict", "accel_sweep.ini", "predict")
    assert written == {k: v for k, v in PRESET_DIGESTS.items()
                       if k.startswith("predict/")}
    # The frame-outer runner opens no rate point span; the derivation span
    # shows the tracer's patch of evaluation still reaches the runner.
    assert {"config.load", "sequences.load", "motion_field.derive_field_params",
            "evaluation.write"} <= names
    # The frame kernels reach _extrapolate_scaled through predictor's global.
    assert counts["kinematics.extrapolations"] > 0


def test_traced_cli_reproduces_the_field_digests(tmp_path):
    # The same guard for the demo-field path: the derivation and dump spans
    # and the solver counter the tracer takes by name.
    written, names, counts = _run_traced(tmp_path, "demo-field", "demo_field.ini", "fields")
    assert written == {k: v for k, v in PRESET_DIGESTS.items() if k.startswith("fields/")}
    assert {"motion_field.derive_field_params", "motion_field.dump_field_csv"} <= names
    assert counts["kinematics.solves"] > 0


# ----------------------------------------------------------- cli: demo-field

def test_demo_field_writes_one_csv_per_predicted_frame(tmp_path):
    cfg = write_ini(tmp_path, FULL)
    out = str(tmp_path / "fields")
    assert cli.main(["demo-field", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == [f"field_{k:04d}.csv" for k in (1, 2, 3, 4)]
    with open(os.path.join(out, "field_0001.csv")) as fh:
        header = fh.readline().strip()
    assert header == "poc,cx,cy,mvx,mvy,ref_dist,kind,v0x,v0y,ax,ay"


def test_demo_field_static_scene_is_all_constant(tmp_path):
    text = MINIMAL.replace("start_y = 16", "start_y = 16\npatch = solid")
    cfg = write_ini(tmp_path, text)
    out = str(tmp_path / "fields")
    assert cli.main(["demo-field", "--config", cfg, "--out", out]) == 0
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as fh:
            kinds = {row["kind"] for row in csv.DictReader(fh)}
        assert kinds == {"Constant"}


def test_demo_field_reports_the_configured_acceleration(tmp_path):
    # integer-pel trajectory: the searched fields are exact, so interior
    # cells solve back to the configured motion in fetch convention
    cfg = write_ini(tmp_path, FULL)
    out = str(tmp_path / "fields")
    assert cli.main(["demo-field", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "field_0003.csv")) as fh:
        rows = {(r["cx"], r["cy"]): r for r in csv.DictReader(fh)}
    cell = rows[("5", "5")]
    assert cell["kind"] == "Accelerated"
    assert (cell["mvx"], cell["mvy"]) == ("-96", "0")
    assert (cell["v0x"], cell["ax"]) == ("-3072", "-2048")
    assert (cell["v0y"], cell["ay"]) == ("0", "0")


# -------------------------------------------------------------- cli: bd-rate

def write_curve(path, points):
    with open(path, "w") as fh:
        fh.write("rate,psnr\n")
        for p in points:
            fh.write(f"{p.rate},{p.psnr}\n")


CURVE = [RdPoint(100.0, 30.0), RdPoint(180.0, 33.0),
         RdPoint(330.0, 36.0), RdPoint(600.0, 39.0)]


def test_bd_rate_command_matches_the_library(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_curve(a, CURVE)
    write_curve(b, [RdPoint(p.rate * 0.9, p.psnr) for p in CURVE])
    assert cli.main(["bd-rate", a, b]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("bd-rate: ")
    shown = float(out.removeprefix("bd-rate: ").rstrip("%"))
    direct = bd_rate(CURVE, [RdPoint(p.rate * 0.9, p.psnr) for p in CURVE])
    assert shown == pytest.approx(direct, abs=5e-5)


def test_bd_rate_command_rejects_short_curves(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_curve(a, CURVE[:3])
    write_curve(b, CURVE[:3])
    assert cli.main(["bd-rate", a, b]) == 1
    assert "4 points" in capsys.readouterr().err


def test_bd_rate_command_missing_file_exits_2(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    write_curve(a, CURVE)
    assert cli.main(["bd-rate", a, str(tmp_path / "nothing.csv")]) == 2
    assert "nothing.csv" in capsys.readouterr().err


def test_bd_rate_command_rejects_wrong_columns(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for path in (a, b):
        with open(path, "w") as fh:
            fh.write("kbps,quality\n100,30\n")
    assert cli.main(["bd-rate", a, b]) == 1
    assert "rate,psnr" in capsys.readouterr().err


# ---------------------------------------------------------------- cli: synth

def test_synth_round_trips_through_yuv(tmp_path):
    cfg = write_ini(tmp_path, MINIMAL)
    out = str(tmp_path / "clip.yuv")
    assert cli.main(["synth", "--spec", cfg, "--out", out]) == 0
    assert os.path.getsize(out) == 4 * 32 * 32 * 3 // 2
    loaded = read_yuv(out, 32, 32, 4)
    run_cfg = load_config(cfg)
    frames, _ = synth_sequence(run_cfg.source.trajectory, 4, 32, 32)
    for got, want in zip(loaded, frames):
        assert np.array_equal(got.luma, want.luma)


def test_synth_rejects_yuv_input_kind(tmp_path, capsys):
    text = (f"[input]\nkind = yuv\npath = {tmp_path}/x.yuv\n"
            "width = 32\nheight = 32\nframes = 3\n")
    rc = cli.main(["synth", "--spec", write_ini(tmp_path, text),
                   "--out", str(tmp_path / "o.yuv")])
    assert rc == 2
    assert "synth" in capsys.readouterr().err


# -------------------------------------------------------------------- parser

def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2

#!/usr/bin/env python3
"""Benchmark of the uamm command line on three fixed synthetic workloads.

    python3 perfbench/run.py --workload sweep_noise256 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --record-digests 0-19

Run it from the repository root. Each run is a closed loop of one CLI
process at a time (``python3 -m uamm.cli``, sources from ``src/``) on
inputs generated from ``--seed``; the seed goes into the workload's INI
file as ``[run] seed``. The loop runs for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, all
medians over the run's invocations, with the CLI in its default
environment (``UAMM_THREADS`` unset, so the pool uses every CPU):

- ``wall_s``: launch to exit of one invocation, interpreter start included;
- ``setup_s``: launch to exit of ``setup_probe.py``, which stops once the
  input frames are in memory;
- ``mpix_per_s``: luma pixels processed / (wall_s - setup_s);
- ``peak_rss_mb``: peak resident set of the invocation's process.

``--trace 1`` alternates invocations under ``traced_cli.py``, which
records a span around every call into a layer, with untraced ones, all
with one worker thread so layer self times add up to the wall time. It
reports the ``per_layer`` metrics, medians over the traced invocations.

Every invocation's CSVs are checked: every expected file, row and cell
must be there, and their sha256 digests must equal the ones recorded in
``digests.json`` for this workload and seed, or, for a seed without a
record, those of the run's first invocation. A change meant to move the
numbers rewrites ``digests.json`` with ``--record-digests``. An invocation
that exits non-zero or fails the check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench/<workload>/``; the latest traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

REPORT_COLUMNS = ["sequence", "rate_point", "mode", "mean_sad", "pred_psnr_db",
                  "rate_proxy", "corrected_pct"]
FIELD_COLUMNS = ["poc", "cx", "cy", "mvx", "mvy", "ref_dist", "kind",
                 "v0x", "v0y", "ax", "ay"]
FIELD_KINDS = {"Unavailable", "Constant", "Linear", "Accelerated"}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation's inputs. Trajectory units are 1/16 pel."""

    name: str
    command: str                      # "predict" or "demo-field"
    width: int
    height: int
    frames: int
    trajectory: dict
    predict: dict
    rate_points: Optional[dict] = None
    write_rd_curves: bool = False
    yuv_input: bool = False           # render with `uamm synth` first

    @property
    def modes(self) -> list[str]:
        return [m.strip() for m in self.predict.get("modes", "uniform, uamm").split(",")]

    @property
    def labels(self) -> list[str]:
        return [s.strip() for s in self.rate_points["labels"].split(",")]

    @property
    def pixels(self) -> int:
        """Luma pixels one invocation predicts."""
        per_pass = (self.frames - 1) * self.width * self.height
        if self.command == "demo-field":
            return per_pass
        return per_pass * len(self.labels) * len(self.modes)

    def workers(self) -> int:
        """Worker threads uamm's pool picks with UAMM_THREADS unset."""
        if self.command != "predict":
            return 1
        return max(1, min(os.cpu_count() or 1, len(self.labels)))


# The ROADMAP's large clip: a 64x64 noise patch at (16, 16) px accelerating
# over a noise background.
_CLIP_256 = dict(start_x=256, start_y=256, v0x=16, v0y=8, ax=4, ay=2,
                 patch="noise", patch_width=64, patch_height=64, background="noise")

WORKLOADS = {w.name: w for w in (
    # Both modes at four block sizes: the only workload where sub-block
    # compensation, inheritance and correction run, with small blocks so
    # per-call overhead dominates (interp is the largest layer).
    Workload("sweep_noise256", "predict", 256, 256, 6, _CLIP_256,
             dict(search_range=8, modes="uniform, uamm"),
             dict(labels="22, 27, 32, 37", block_sizes="8, 16, 32, 64"),
             write_rd_curves=True),
    # Uniform only, few large blocks, range 24: isolates full search,
    # bypasses compensation and inheritance, and guards memory against a
    # search that materialises every offset at once.
    Workload("search_wide", "predict", 256, 256, 4, _CLIP_256,
             dict(search_range=24, modes="uniform"),
             dict(labels="32, 37", block_sizes="32, 64", search_ranges="24, 24")),
    # demo-field on a YUV file: field derivation and per-cell CSV output,
    # never touches interp.
    Workload("field_dump", "demo-field", 512, 512, 6,
             dict(start_x=512, start_y=512, v0x=16, v0y=8, ax=2, ay=2,
                  patch="noise", patch_width=384, patch_height=384,
                  background="noise"),
             dict(block_size=32, search_range=4), yuv_input=True),
)}


# ---------------------------------------------------------------- inputs

def _ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {str(v).lower() if isinstance(v, bool) else v}"
                  for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_env(threads: Optional[int]) -> dict:
    env = dict(os.environ)
    env.pop("UAMM_THREADS", None)
    if threads is not None:
        env["UAMM_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC
    return env


def prepare_inputs(wl: Workload, seed: int, work: str) -> str:
    """Write the workload's INI (and YUV input) under ``work``; return the INI."""
    synth_input = dict(kind="synth", width=wl.width, height=wl.height,
                       frames=wl.frames, name=wl.name)
    run = dict(seed=seed)
    out = dict(dir=os.path.join(work, "out"), write_rd_curves=wl.write_rd_curves)
    if wl.yuv_input:
        spec = _write(os.path.join(work, "synth.ini"),
                      _ini(dict(input=synth_input, trajectory=wl.trajectory, run=run)))
        yuv = os.path.join(work, "input.yuv")
        subprocess.run([sys.executable, "-m", "uamm.cli", "synth", "--spec", spec,
                        "--out", yuv], env=_cli_env(None), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        sections = dict(input=dict(kind="yuv", width=wl.width, height=wl.height,
                                   frames=wl.frames, name=wl.name, path=yuv),
                        predict=wl.predict, output=out)
    else:
        sections = dict(input=synth_input, trajectory=wl.trajectory,
                        predict=wl.predict, output=out, run=run)
        if wl.rate_points:
            sections["rate_points"] = wl.rate_points
    return _write(os.path.join(work, f"{wl.name}.ini"), _ini(sections))


# ---------------------------------------------------------------- checks

def _floats(cells: list[str]) -> bool:
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return True


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_predict(wl: Workload, out: str) -> list[str]:
    problems = []
    rows = _read_csv(os.path.join(out, "report.csv"))
    expected = [(lab, m) for lab in wl.labels for m in wl.modes]
    if rows[0] != REPORT_COLUMNS:
        problems.append(f"report.csv header {rows[0]}")
    if [tuple(r[1:3]) for r in rows[1:]] != expected:
        problems.append(f"report.csv rows {[r[1:3] for r in rows[1:]]}, want {expected}")
    for r in rows[1:]:
        if len(r) != len(REPORT_COLUMNS) or r[0] != wl.name or not _floats(r[3:]):
            problems.append(f"report.csv bad row {r}")
    bd = _read_csv(os.path.join(out, "bd_summary.csv"))
    want_bd = 1 if {"uniform", "uamm"} <= set(wl.modes) else 0
    if bd[0] != ["sequence", "bd_rate_pct"] or len(bd) != 1 + want_bd or any(
            len(r) != 2 or r[0] != wl.name or not (r[1] == "NA" or _floats(r[1:]))
            for r in bd[1:]):
        problems.append(f"bd_summary.csv {bd}")
    for m in wl.modes if wl.write_rd_curves else ():
        with open(os.path.join(out, f"rd_{wl.name}_{m}.dat")) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "# rate_proxy pred_psnr_db" or len(lines) != 1 + len(wl.labels) or any(
                len(line.split()) != 2 or not _floats(line.split()) for line in lines[1:]):
            problems.append(f"rd_{wl.name}_{m}.dat {lines}")
    return problems


def _check_field(wl: Workload, path: str, poc: int) -> list[str]:
    rows = _read_csv(path)
    cells_x, cells_y = wl.width // 4, wl.height // 4
    if rows[0] != FIELD_COLUMNS or len(rows) != 1 + cells_x * cells_y:
        return [f"{path}: header {rows[0]}, {len(rows) - 1} rows"]
    for i, r in enumerate(rows[1:]):
        ok = (len(r) == len(FIELD_COLUMNS)
              and r[:3] == [str(poc), str(i % cells_x), str(i // cells_x)]
              and r[6] in FIELD_KINDS
              and all(c.lstrip("-").isdigit() for c in r[7:])
              and all(c == "" or c.lstrip("-").isdigit() for c in r[3:6]))
        if not ok:
            return [f"{path}: bad row {r}"]
    return []


def expected_files(wl: Workload) -> list[str]:
    if wl.command == "demo-field":
        return [f"field_{k:04d}.csv" for k in range(1, wl.frames)]
    files = ["bd_summary.csv", "report.csv"]
    if wl.write_rd_curves:
        files += [f"rd_{wl.name}_{m}.dat" for m in wl.modes]
    return sorted(files)


def check_outputs(wl: Workload, out: str) -> tuple[list[str], dict]:
    """Structural problems of one invocation's CSVs, and their sha256 digests."""
    found = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if found != expected_files(wl):
        return [f"output files {found}, want {expected_files(wl)}"], {}
    try:
        if wl.command == "demo-field":
            problems = [p for k, name in enumerate(found, start=1)
                        for p in _check_field(wl, os.path.join(out, name), k)]
        else:
            problems = _check_predict(wl, out)
    except (IndexError, UnicodeDecodeError, csv.Error) as exc:  # empty or garbled file
        problems = [f"unreadable output: {exc!r}"]
    digests = {}
    for name in found:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return problems, digests


# ---------------------------------------------------------------- running

@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    digests: dict
    problems: list
    traced: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def timed(argv: list[str], env: dict, limit_s: float, stdout) -> tuple[float, float, int]:
    """Run ``argv`` to completion: wall seconds, peak RSS in MB, exit code.

    The process is killed if it outlives ``limit_s``; it is always reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout,
                            stderr=subprocess.STDOUT)
    killer = threading.Timer(max(limit_s, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Runs one workload's invocations and checks their outputs."""

    def __init__(self, wl: Workload, seed: int, work: str, reference: Optional[dict]):
        self.wl, self.work, self.reference = wl, work, reference
        self.config = prepare_inputs(wl, seed, work)
        self.out = os.path.join(work, "out")
        self.spans_path = os.path.join(work, "spans.csv")
        self.counts_path = os.path.join(work, "counts.json")
        self.started = time.perf_counter()
        self.runs: list[Invocation] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def setup(self, env: dict) -> float:
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.config]
        wall, _, code = timed(argv, env, self.remaining(), subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        return wall

    def invoke(self, env: dict, traced: bool = False) -> Invocation:
        shutil.rmtree(self.out, ignore_errors=True)
        cli = [self.wl.command, "--config", self.config]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    self.spans_path, self.counts_path] + cli
        else:
            argv = [sys.executable, "-m", "uamm.cli"] + cli
        with open(os.path.join(self.work, "cli.log"), "wb") as log:
            wall, rss, code = timed(argv, env, self.remaining(), log)
        problems, digests = check_outputs(self.wl, self.out) if code == 0 else (
            [f"exit code {code}"], {})
        want = self.reference or (self.runs[0].digests if self.runs else digests)
        if not problems and digests != want:
            problems.append("digests differ from "
                            + ("digests.json" if self.reference else "the first invocation"))
        inv = Invocation(wall, rss, digests, problems, traced)
        self.runs.append(inv)
        return inv


# ---------------------------------------------------------------- layers

# Leaf layers (no traced callee) report busy_s; callers report self_s.
_BUSY = ("predictor.full_search_me", "interp.sample_block", "motion_field.inherit_params",
         "motion_field.derive_field_params", "motion_field.dump_field_csv",
         "predictor.correct_mvs", "sequences.load", "config.load", "evaluation.write")
_SELF = ("predictor.predict_uamm", "predictor.predict_uniform", "evaluation.run_rate_point")
_CALLS = ("predictor.full_search_me", "interp.sample_block", "motion_field.inherit_params",
          "motion_field.derive_field_params", "motion_field.dump_field_csv",
          "predictor.predict_uamm", "predictor.correct_mvs", "predictor.predict_uniform")
_COUNTS = ("predictor.full_search_me.candidates", "predictor.full_search_me.sad_ops",
           "predictor.full_search_me.bytes_computed", "interp.sample_block.pixels",
           "motion_field.inherit_params.subblocks", "motion_field.derive_field_params.cells",
           "motion_field.dump_field_csv.bytes", "kinematics.motion_vectors",
           "kinematics.solves", "kinematics.extrapolations", "sequences.load.bytes",
           "evaluation.write.bytes")
_RATIOS = {  # metric: (numerator count, denominator count or span name)
    "interp.sample_block.subblock_share": ("interp.sample_block.subblock_calls",
                                           "interp.sample_block"),
    "motion_field.inherit_params.unavailable_ratio": (
        "motion_field.inherit_params.unavailable", "motion_field.inherit_params.subblocks"),
    "motion_field.derive_field_params.accelerated_ratio": (
        "motion_field.derive_field_params.accelerated", "motion_field.derive_field_params.cells"),
    "predictor.predict_uamm.refined_ratio": ("predictor.predict_uamm.refined",
                                             "predictor.predict_uamm"),
    "predictor.correct_mvs.clamped_ratio": ("predictor.correct_mvs.clamped",
                                            "predictor.correct_mvs.subblocks"),
}


def layer_metrics(spans_path: str, counts_path: str, wall_s: float) -> dict:
    """Per-layer metrics of one traced invocation.

    A span's self time is its duration minus its direct children's, which
    all ran on its own thread. The remainder of the wall time that no
    layer's self time covers (interpreter start, imports, CLI glue) is
    ``trace.unattributed_s``.
    """
    name_of, duration, child, threads = {}, {}, defaultdict(int), set()
    with open(spans_path, newline="") as fh:
        for sid, name, start, end, parent, thread, _job in csv.reader(fh):
            if sid == "id":
                continue
            d = int(end) - int(start)
            name_of[sid], duration[sid] = name, d
            threads.add(thread)
            if parent != "-1":
                child[parent] += d
    self_ns, calls = defaultdict(int), defaultdict(int)
    for sid, name in name_of.items():
        self_ns[name] += duration[sid] - child[sid]
        calls[name] += 1
    with open(counts_path) as fh:
        counts = defaultdict(int, json.load(fh))

    m = {f"{n}.calls": calls[n] for n in _CALLS}
    m.update({f"{n}.busy_s": self_ns[n] / 1e9 for n in _BUSY})
    m.update({f"{n}.self_s": self_ns[n] / 1e9 for n in _SELF})
    m.update({n: counts[n] for n in _COUNTS})
    for metric, (num, den) in _RATIOS.items():
        base = counts[den] if den in counts else calls[den]
        m[metric] = counts[num] / base if base else 0.0
    attributed = sum(v for n, v in self_ns.items() if n != "cli.main") / 1e9
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - attributed
    m["trace.threads"] = len(threads)
    return m


# ---------------------------------------------------------------- main

def environment(workers) -> dict:
    def cache(index: int) -> Optional[str]:
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                return fh.read().strip()
        except OSError:
            return None

    return dict(nproc=os.cpu_count(), python=platform.python_version(),
                numpy=metadata.version("numpy"), workers=workers,
                l2=cache(2), l3=cache(3))


def load_reference(name: str, seed: int) -> Optional[dict]:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    return (f"median {_median(values):.4f} over {len(values)}: "
            + " ".join(f"{v:.3f}" for v in values))


def _fresh_workdir(wl: Workload) -> str:
    work = os.path.join(ROOT, ".perfbench", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def bench(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    runner = Runner(wl, seed, _fresh_workdir(wl), load_reference(wl.name, seed))
    env = _cli_env(1 if trace else None)
    deadline = time.perf_counter() + seconds
    runner.setup(env)  # untimed: fills file caches and src/ bytecode
    # Set-up cost drifts with the machine's load, so probes are spread over
    # the run: a few up front, then one before every invocation.
    setups = [runner.setup(env) for _ in range(0 if trace else SETUP_PROBES)]
    layers = []
    while True:
        if not trace:
            setups.append(runner.setup(env))
        traced = trace and len(runner.runs) % 2 == 1
        inv = runner.invoke(env, traced)
        if traced and inv.ok:
            layers.append(layer_metrics(runner.spans_path, runner.counts_path, inv.wall_s))
        walls = [r.wall_s for r in runner.runs]
        if runner.remaining() < 2 * max(walls):
            break
        # Start no invocation that would likely end past the deadline.
        if (time.perf_counter() + statistics.median(walls) > deadline
                and len(runner.runs) >= (2 if trace else 1)):
            break

    failed = [r for r in runner.runs if not r.ok]
    for r in failed:
        print(f"FAILED invocation: {'; '.join(r.problems)}")
    plain = [r for r in runner.runs if not r.traced and r.ok]
    walls = [r.wall_s for r in plain]
    if not trace:
        wall, setup = _median(walls), _median(setups)
        metrics = {
            "wall_s": wall,
            "setup_s": setup,
            "mpix_per_s": wl.pixels / 1e6 / (wall - setup) if wall > setup else 0.0,
            "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
        }
        workers = wl.workers()
    else:
        metrics = {k: _median([m[k] for m in layers]) for k in (layers[0] if layers else {})}
        if layers and walls:
            metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"] / _median(walls) - 1)
        workers = int(metrics.get("trace.threads", 0))

    print(f"workload {wl.name} seed {seed}: {len(runner.runs)} invocations, "
          f"failed_pct {100.0 * len(failed) / len(runner.runs):.1f}, "
          f"reference digests: {'yes' if runner.reference else 'no'}")
    print(f"env {json.dumps(environment(workers), sort_keys=True)}")
    if setups:
        print(f"setup_s {_spread(setups)}")
    if walls:
        print(f"wall_s {_spread(walls)}")
    if trace and "trace.wall_s" in metrics:
        for name, value in sorted(metrics.items()):
            share = (f"  {100 * value / metrics['trace.wall_s']:5.1f} % of traced wall"
                     if name.endswith("_s") and name != "trace.wall_s" else "")
            print(f"  {name:52s} {value:14.4f}{share}")
    return metrics, len(runner.runs), len(failed)


def record_digests(names: list[str], seeds: list[int]) -> int:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    for name in names:
        wl = WORKLOADS[name]
        for seed in seeds:
            runner = Runner(wl, seed, _fresh_workdir(wl), None)
            inv = runner.invoke(_cli_env(None))
            if not inv.ok:
                print(f"{name} seed {seed}: {'; '.join(inv.problems)}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = inv.digests
            print(f"{name} seed {seed}: {inv.wall_s:.2f} s", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI",
                        help="rewrite digests.json for these seeds and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uamm", "cli.py")):
        print(f"error: no uamm sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        return record_digests(names, _seed_range(args.record_digests))
    if not args.workload:
        parser.error("--workload is required")

    declared = _declared_metrics(bool(args.trace))
    values, attempted, failed = bench(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    missing = [m["name"] for m in declared if m["name"] not in values]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    if missing:
        print(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

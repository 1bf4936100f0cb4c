"""Run the uamm command line with spans recorded around each layer call.

    python3 perfbench/traced_cli.py SPANS_CSV COUNTS_JSON uamm-args...

Before ``uamm.cli.main`` runs, ``install`` replaces every layer function
by a timing wrapper in each module that looks the name up, because the
modules import one another by name (``evaluation`` calls its own
``full_search_me`` binding, not ``predictor.full_search_me``). Nothing
under ``src/`` is edited.

Each call becomes one span: id, name, start and end (perf_counter ns), the
id of the enclosing span on the same thread (-1 at the top), the thread
id and the job: ``sequence/rate point`` inside a rate point,
``sequence/command`` elsewhere, empty before the input is loaded. Spans
stay in memory and are written to SPANS_CSV when the command returns.
Work counters (candidates, pixels, ratios' numerators and denominators)
go to COUNTS_JSON.

The kinematics counters are taken where ``motion_field`` and
``predictor`` call into ``kinematics``; they are counts only, their time
stays in the caller's self time.

Counters are plain dict updates, exact only with one worker thread, so
the benchmark runs this with ``UAMM_THREADS=1``.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, start_ns, end_ns, parent, thread, job)
        self.counts = Counter()
        self.sequence = ""
        self.command = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.job = self.sequence
        return local

    def set_job(self, job: str) -> str:
        """Label this thread's next spans with ``job``; return the old label."""
        local = self._state()
        previous, local.job = local.job, job
        return previous

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording one span per call and feeding ``count``."""
        spans, ids, clock, state = self.spans, self._ids, time.perf_counter_ns, self._state
        counts = self.counts

        def traced(*args, **kwargs):
            local = state()
            stack, job = local.stack, local.job
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(), job))
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        return traced

    def counted(self, key, fn):
        """Return ``fn`` counting its calls under ``key``, without a span."""
        counts = self.counts

        def tally(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return tally

    def write(self, spans_path: str, counts_path: str) -> None:
        with open(spans_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "thread", "job"))
            writer.writerows(sorted(self.spans))
        with open(counts_path, "w") as fh:
            json.dump(dict(self.counts), fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------- counters

def _count_search(counts, mv, src, ref, block, search_range):
    cand = (2 * search_range + 1) ** 2
    counts["predictor.full_search_me.candidates"] += cand
    counts["predictor.full_search_me.sad_ops"] += cand * block.w * block.h
    # The int32 candidate stack full_search_me materialises per call.
    counts["predictor.full_search_me.bytes_computed"] += cand * block.w * block.h * 4


def _count_sample(counts, out, plane, x0, y0, width, height, mv):
    counts["interp.sample_block.pixels"] += width * height
    if width == 4 and height == 4:
        counts["interp.sample_block.subblock_calls"] += 1


def _count_inherit(counts, grid, ref_field, block, mv):
    counts["motion_field.inherit_params.subblocks"] += sum(len(row) for row in grid)
    counts["motion_field.inherit_params.unavailable"] += sum(
        p.kind == 0 for row in grid for p in row)


def _count_derive(counts, field, curr, prev):
    counts["motion_field.derive_field_params.cells"] += field.kind.size
    counts["motion_field.derive_field_params.accelerated"] += int((field.kind == 3).sum())


def _count_correct(counts, result, subblock_mvs, initial_mv, delta_max=None):
    counts["predictor.correct_mvs.subblocks"] += subblock_mvs[..., 0].size
    counts["predictor.correct_mvs.clamped"] += int(np.sum(result[1]))


def _count_uamm(counts, result, *args, **kwargs):
    if result.mode.value == "uamm":
        counts["predictor.predict_uamm.refined"] += 1


def _count_dump(counts, _, field_obj, stream):
    counts["motion_field.dump_field_csv.bytes"] += stream.tell()


def _count_load(counts, frames, source):
    counts["sequences.load.bytes"] += sum(
        plane.nbytes for f in frames
        for plane in (f.luma, f.chroma_u, f.chroma_v) if plane is not None)


def _count_write(counts, _, config, report):
    if config.output_dir is None:
        return
    counts["evaluation.write.bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(config.output_dir) if entry.is_file())


def install(tracer: Tracer) -> None:
    """Swap every layer function for its traced wrapper, where it is looked up."""
    from uamm import cli, evaluation, motion_field, predictor

    def patch(name, fn, modules, count=None):
        wrapped = tracer.wrap(name, fn, count)
        for module, attr in modules:
            setattr(module, attr, wrapped)

    patch("predictor.full_search_me", predictor.full_search_me,
          [(evaluation, "full_search_me"), (cli, "full_search_me"),
           (predictor, "full_search_me")], _count_search)
    patch("interp.sample_block", predictor.sample_block,
          [(predictor, "sample_block")], _count_sample)
    patch("motion_field.inherit_params", predictor.inherit_params,
          [(predictor, "inherit_params")], _count_inherit)
    patch("motion_field.derive_field_params", motion_field.derive_field_params,
          [(evaluation, "derive_field_params"), (cli, "derive_field_params")],
          _count_derive)
    patch("motion_field.dump_field_csv", cli.dump_field_csv,
          [(cli, "dump_field_csv")], _count_dump)
    patch("predictor.predict_uamm", predictor.predict_uamm,
          [(evaluation, "predict_uamm")], _count_uamm)
    patch("predictor.correct_mvs", predictor.correct_mvs,
          [(predictor, "correct_mvs")], _count_correct)
    patch("predictor.predict_uniform", predictor.predict_uniform,
          [(evaluation, "predict_uniform"), (predictor, "predict_uniform")])
    patch("config.load", cli.load_config, [(cli, "load_config")])
    patch("evaluation.write", evaluation._maybe_write,
          [(evaluation, "_maybe_write")], _count_write)

    # Jobs are set before the span opens, so a span carries the job it ran for.
    load = tracer.wrap("sequences.load", evaluation.SequenceSource.load, _count_load)

    def load_as_job(source):
        tracer.sequence = source.name
        tracer.set_job(f"{source.name}/{tracer.command}")
        return load(source)

    evaluation.SequenceSource.load = load_as_job
    run_rate_point = tracer.wrap("evaluation.run_rate_point", evaluation._run_rate_point)

    def rate_point_as_job(frames, rp, modes, delta_max):
        outer = tracer.set_job(f"{tracer.sequence}/{rp.label}")
        try:
            return run_rate_point(frames, rp, modes, delta_max)
        finally:
            tracer.set_job(outer)

    evaluation._run_rate_point = rate_point_as_job

    predictor.MotionVector = tracer.counted("kinematics.motion_vectors",
                                            predictor.MotionVector)
    motion_field.MotionVector = tracer.counted("kinematics.motion_vectors",
                                               motion_field.MotionVector)
    motion_field._derive_scaled = tracer.counted("kinematics.solves",
                                                 motion_field._derive_scaled)
    predictor._extrapolate_scaled = tracer.counted("kinematics.extrapolations",
                                                   predictor._extrapolate_scaled)


def main() -> int:
    spans_path, counts_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.command = argv[0]
    install(tracer)
    from uamm import cli

    status = tracer.wrap("cli.main", cli.main)(argv)
    tracer.write(spans_path, counts_path)
    return status


if __name__ == "__main__":
    sys.exit(main())

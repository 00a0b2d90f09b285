"""The benchmark command: set up, measure, check, report.

One invocation runs one workload in this process.  Order of events:

1. set-up, repeated ``SETUP_REPEATS`` times in fresh directories
   (``setup_s`` is the median);
2. the timed window, tracing off;
3. with ``--trace 1``: the same window again with spans on, then the
   per-layer probes (and miniature runs of the workloads that own the
   layers this one does not reach);
4. the correctness check against the exact oracle, computed now,
   outside every timed window;
5. the report: a table with every metric's unit and sample count,
   then one JSON result line.  Metrics are printed only when every
   correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from .metrics import Report, StepClock, peak_rss_mb
from .tracing import Tracer
from .workloads import (
    WORKLOADS,
    QueueSweep,
    ServeMixed,
    SweepExact,
    Window,
)

SETUP_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end and per-layer benchmark of ReSim.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print per-layer metrics of a traced "
                             "run instead of end-to-end metrics")
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full",
                        help="input sizes (tiny: smoke test)")
    return parser.parse_args(argv)


def _miniature(cls, seed: int, directory: Path, tracer: Tracer
               ) -> Window:
    """A tiny-sized run of another workload, for the layers it owns."""
    mini = cls(seed, "tiny", tracer)
    window = Window()
    try:
        with tracer.span(f"miniature.{cls.name}"):
            mini.setup(directory)
            mini.run_window(0.0, window)
    finally:
        mini.close()
    return window


def _end_to_end(report: Report, window: Window, setup_times: list[float],
                rss_mb: float, ipc_error: float) -> None:
    report.add("setup_s", statistics.median(setup_times), "s",
               len(setup_times))
    rounds = [round_ for round_ in window.rounds
              if round_.hits and round_.misses]
    count = len(rounds)
    busy = [round_.reference_s("hits") + round_.reference_s("misses")
            for round_ in rounds]
    report.add("points_per_s", statistics.median(
        round_.points / seconds
        for round_, seconds in zip(rounds, busy, strict=True)),
        "1/s", count, "median over rounds")
    report.add("sim_records_per_s", statistics.median(
        round_.records / seconds
        for round_, seconds in zip(rounds, busy, strict=True)),
        "1/s", count, "median over rounds")
    for kind, name in (("hits", "hit_latency_ms"),
                       ("misses", "miss_latency_ms")):
        report.add(name, statistics.median(
            round_.latency_ms(kind) for round_ in rounds), "ms", count,
            "median over rounds of the round mean")
    kernel = [sample for round_ in rounds
              for sample in round_.kernel_samples]
    report.add_extra("kernel_ms", 1000.0 * statistics.median(kernel), "ms",
                     len(kernel), "calibration kernel, wall")
    report.add_extra("wall_points_per_s",
                     window.counts["points"] / window.busy_s, "1/s",
                     window.counts["points"], "whole window, wall")
    for kind in ("hit", "miss"):
        report.percentiles(f"{kind}_latency",
                           window.samples[f"{kind}_ms"])
    report.add("peak_rss_mb", rss_mb, "MB", 1)
    report.add_extra("ipc_error_pct", ipc_error, "%",
                     window.counts["points"])


def _per_layer(report: Report, workload, window: Window, traced: Window,
               ipc_error: float, scratch: Path, tracer: Tracer) -> None:
    from .layers import (
        probe_cache_layers,
        probe_engine_layers,
        probe_trace_layers,
    )

    scratch.mkdir(parents=True, exist_ok=True)
    inputs = workload.layer_inputs(scratch)
    found = {}
    found.update(probe_trace_layers(inputs, scratch, tracer))
    found.update(probe_engine_layers(inputs, tracer))
    with tracer.span("probe.exec.units"):
        units = workload.probe_units(scratch)
    found["exec.unit_busy_p50_ms"] = (
        1000.0 * statistics.median(units.unit_seconds), "ms",
        len(units.unit_seconds))
    found["exec.coordinator_overhead_pct"] = (units.overhead_pct, "%",
                                              units.repeats)
    found.update(probe_cache_layers(units, scratch, tracer))

    in_process = window.counts["units"]
    found["engine.specialized_unit_pct"] = (
        100.0 * window.counts["specialized_units"] / in_process
        if in_process else 0.0, "%", in_process)
    queue = window if workload.owns_queue else _miniature(
        QueueSweep, workload.seed, scratch / "mini-queue", tracer)
    intervals = queue.samples["unit_interval_ms"]
    found["queue.unit_interval_p50_ms"] = (
        statistics.median(intervals), "ms", len(intervals))

    sweep = window if workload.owns_resume else _miniature(
        SweepExact, workload.seed, scratch / "mini-sweep", tracer)
    resumes = sweep.samples["resume_s"]
    found["sweep.resume_s"] = (statistics.median(resumes), "s",
                               len(resumes))

    serve = traced if workload.owns_serve else _miniature(
        ServeMixed, workload.seed, scratch / "mini-serve", tracer)
    for name in ("http_rtt_ms", "submit_ms", "event_wait_ms",
                 "result_ms"):
        values = serve.samples[name]
        found[f"serve.{name}"] = (statistics.median(values), "ms",
                                  len(values))
    lookups = serve.counts["cache_hits"] + serve.counts["cache_misses"]
    found["serve.cache_hit_pct"] = (
        100.0 * serve.counts["cache_hits"] / lookups, "%", lookups)

    found["ipc_error_pct"] = (ipc_error, "%", 1)
    untraced = window.busy_s / window.counts["points"]
    traced_cost = traced.busy_s / traced.counts["points"]
    found["tracing.overhead_pct"] = (
        100.0 * (traced_cost - untraced) / untraced, "%",
        traced.counts["points"])
    for name in sorted(found):
        value, unit, samples = found[name]
        report.add(name, value, unit, samples)


def _print_self_times(tracer: Tracer) -> None:
    rows = sorted(tracer.self_times().items(),
                  key=lambda item: -item[1][1])
    print(f"{'span (layer call)':34s} {'count':>6s} {'self s':>10s}",
          file=sys.stderr)
    for name, (count, seconds) in rows:
        print(f"{name:34s} {count:6d} {seconds:10.4f}", file=sys.stderr)


def main(argv: list[str], *, root: Path) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("--seconds must be >= 0", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(False)
    workload = WORKLOADS[args.workload](args.seed, args.size, tracer)
    report = Report(args.workload)
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            workload.close()
            clock = StepClock()
            workload.setup(work / f"setup{repeat}", clock.step)
            setup_times.append(clock.stop())
        window = Window()
        workload.run_window(args.seconds, window)
        rss_mb = peak_rss_mb()
        traced = None
        if args.trace:
            tracer.enabled = True
            traced = Window()
            workload.run_window(args.seconds, traced)
        problems, ipc_error = workload.check(work)
        report.problems.extend(problems)
        for observed in (window, traced):
            if observed is not None:
                report.attempted += observed.counts["attempted"]
                report.failed += observed.counts["failed"]
        if report.correct:
            if args.trace:
                _per_layer(report, workload, window, traced, ipc_error,
                           work / "layers", tracer)
            else:
                _end_to_end(report, window, setup_times, rss_mb,
                            ipc_error)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"window {args.seconds:g}s  trace {args.trace}  "
          f"size {args.size}")
    if report.correct:
        print(report.table())
    else:
        for problem in report.problems:
            print(f"CORRECTNESS FAILURE: {problem}", file=sys.stderr)
    if args.trace:
        _print_self_times(tracer)
        spans = root / ".perfbench-out" / (
            f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans)
        print(f"spans written to {spans}", file=sys.stderr)
    print(json.dumps(report.result_line(), sort_keys=True))
    return 0 if report.correct else 1

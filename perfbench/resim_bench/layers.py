"""Per-layer probes: time calls into one layer's public functions.

The probes run after the timed window of a traced run, on the
workload's own inputs (:class:`~.workloads.LayerInputs`): its trace
file and its configurations; the cache probes use the work units
``Workload.probe_units`` timed.
Each returns ``{metric: (value, unit, samples)}``.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.core.specialize import clear_codegen_cache, compile_engine
from repro.exec import WorkUnit, execute_unit, plan_regions, region_units
from repro.exec.regions import merge_region_documents
from repro.serialize import config_to_dict
from repro.serve.cache import CacheStore
from repro.serve.canon import cache_key, trace_digest
from repro.session import Simulation
from repro.trace import analyze_trace
from repro.trace.fileio import iter_trace_records, read_trace_header
from repro.workloads.tracegen import write_workload_trace

from .metrics import timed_median
from .tracing import Tracer
from .workloads import REGION_WARMUP, REGIONS, LayerInputs, UnitProbe

REPEATS = 3


def probe_trace_layers(inputs: LayerInputs, scratch: Path,
                       tracer: Tracer) -> dict:
    """workloads.tracegen, trace.fileio, trace.analyze, exec.regions."""
    records = read_trace_header(inputs.trace_path).record_count
    out = {}
    with tracer.span("probe.tracegen"):
        seconds, written = timed_median(
            lambda: write_workload_trace(
                inputs.workload, inputs.base_config,
                scratch / "tracegen.rtrc", budget=inputs.budget,
                seed=inputs.trace_seed,
                segment_records=inputs.segment_records),
            REPEATS)
    out["tracegen.records_per_s"] = (written.record_count / seconds,
                                     "1/s", REPEATS)
    with tracer.span("probe.fileio"):
        seconds, _ = timed_median(
            lambda: sum(1 for _ in iter_trace_records(inputs.trace_path)),
            REPEATS)
    out["fileio.decode_records_per_s"] = (records / seconds, "1/s",
                                          REPEATS)
    with tracer.span("probe.analyze"):
        seconds, profile = timed_median(
            lambda: analyze_trace(inputs.trace_path), REPEATS)
    out["analyze.records_per_s"] = (records / seconds, "1/s", REPEATS)
    with tracer.span("probe.regions.plan"):
        seconds, plan = timed_median(
            lambda: plan_regions(inputs.trace_path, profile,
                                 regions=REGIONS,
                                 warmup_segments=REGION_WARMUP),
            REPEATS)
    out["regions.plan_s"] = (seconds, "s", REPEATS)
    out["regions.coverage_pct"] = (100.0 * plan.coverage, "%", 1)
    # Reduce cost: the region documents of one design point, merged.
    base = WorkUnit.for_trace(
        "reduce", inputs.trace_path, config_to_dict(inputs.configs[0]),
        scratch / "reduce.json", engine=inputs.engine)
    with tracer.span("probe.regions.units"):
        documents = [execute_unit(unit)
                     for unit in region_units(base, plan)]
    merges = 20
    with tracer.span("probe.regions.reduce"):
        seconds, _ = timed_median(
            lambda: merge_region_documents(documents), merges)
    out["regions.reduce_ms_per_point"] = (seconds * 1000.0, "ms", merges)
    return out


def probe_engine_layers(inputs: LayerInputs, tracer: Tracer) -> dict:
    """core.engine and core.specialize, in memory (decode excluded)."""
    out = {}
    config = inputs.base_config
    for tier in ("reference", "specialized"):
        simulation = Simulation.for_trace_file(
            inputs.trace_path, config, streaming=False).with_engine(tier)
        simulation.prepare()
        simulation.run()  # compiles the specialized engine once
        with tracer.span(f"probe.engine.{tier}"):
            seconds, session = timed_median(simulation.run, REPEATS)
        records = int(session.stats.trace_records_consumed)
        out[f"engine.{tier}_records_per_s"] = (records / seconds, "1/s",
                                               REPEATS)
    clear_codegen_cache()
    durations = []
    with tracer.span("probe.codegen"):
        for grid_config in inputs.configs:
            start = time.perf_counter()
            compile_engine(grid_config)
            durations.append(time.perf_counter() - start)
    out["engine.codegen_ms_per_config"] = (
        statistics.median(durations) * 1000.0, "ms", len(durations))
    return out


def probe_cache_layers(probe: UnitProbe, scratch: Path,
                       tracer: Tracer) -> dict:
    """serve.canon key derivation and serve.cache store reads, on the
    workload's own unit specs and results."""
    digests = {}
    rounds = 10
    key_times = []
    keys = []
    with tracer.span("probe.spec_key"):
        for _ in range(rounds):
            for unit in probe.units:
                trace_file = unit.spec.get("trace_file")
                if trace_file is not None and trace_file not in digests:
                    digests[trace_file] = trace_digest(trace_file)
                start = time.perf_counter()
                key = cache_key(unit.spec,
                                trace_digest=digests.get(trace_file))
                key_times.append(time.perf_counter() - start)
                keys.append(key)
    store = CacheStore(scratch / "cache")
    stored = keys[:len(probe.documents)]
    for key, document in zip(stored, probe.documents, strict=True):
        store.put(key, config=document["config"],
                  stats=document["stats"], trace_digest=None)
    get_times = []
    with tracer.span("probe.cache_get"):
        for _ in range(rounds):
            for key in stored:
                start = time.perf_counter()
                if store.get(key) is None:
                    raise RuntimeError(f"cache entry {key} vanished")
                get_times.append(time.perf_counter() - start)
    return {
        "serve.spec_key_ms": (statistics.median(key_times) * 1000.0,
                              "ms", len(key_times)),
        "serve.cache_get_ms": (statistics.median(get_times) * 1000.0,
                               "ms", len(get_times)),
    }

"""The four benchmark workloads.

Each workload has a set-up (timed, repeated in fresh directories), a
timed window that loops over whole operations until the requested
seconds have passed, and a correctness check that runs after the
window against an oracle computed outside it.  Operations are either
*misses* (a design point simulated) or *hits* (a design point answered
from stored results):

* the sweep workloads run campaigns: a fresh pass over the grid (every
  point a miss) and then a rerun over the completed results directory
  (every point revived from its checkpoint, a hit);
* serve-mixed runs a closed-loop client over the campaign service in
  which every other request repeats an earlier one (a cache hit) and
  the rest are new (a miss).

Every input is derived from the workload seed; nothing else is random.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.specialize import codegen_cache_info
from repro.exec import (
    DirectoryQueueBackend,
    ExecError,
    SerialBackend,
    WorkUnit,
    execute_unit,
    plan_regions,
    region_units,
)
from repro.exec.queue import queue_paths
from repro.exec.worker import LeaseHeartbeat
from repro.serialize import canonical_digest, config_to_dict, \
    stats_from_dict, stats_to_dict
from repro.serve import BackgroundServer, CampaignService, ServiceClient
from repro.session import CONFIGS, Simulation
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.progress import SweepProgress
from repro.sweep.runner import MANIFEST_FILENAME
from repro.sweep.spec import SweepError
from repro.trace import ensure_profile
from repro.trace.fileio import read_trace_header
from repro.workloads.profiles import SPECINT_PROFILES

from .metrics import Interval, Stopwatch, kernel_seconds
from .tracing import Tracer

#: Per-size parameters.  ``full`` is what BENCHMARK.json runs; ``tiny``
#: is the smoke-test size and the size of the miniature runs a traced
#: run uses to measure layers its own workload does not reach.
SIZES = {
    "full": {
        "sweep_budget": 5_000,
        "sampled_budget": 7_000,
        "sampled_segment_records": 128,
        "serve_budget": 1_500,
        "min_rounds": 3,
    },
    "tiny": {
        "sweep_budget": 1_000,
        "sampled_budget": 1_500,
        "sampled_segment_records": 64,
        "serve_budget": 300,
        "min_rounds": 1,
    },
}

#: The sweep grid shared by sweep-exact, sampled-campaign and
#: queue-sweep: 2 x 2 = 4 design points.
AXES = {"rob_entries": [16, 64], "width": [2, 4]}

#: Region-sampling parameters of sampled-campaign (the runner's
#: defaults, stated here so the layer probe plans identically).
REGIONS = 8
REGION_WARMUP = 1

#: The registered configurations serve-mixed requests cycle through.
SERVE_CONFIGS = ("4wide-perfect", "2wide-cache")

#: Cold requests a new campaign server answers during set-up, before
#: the measured stream starts: every profile under both configs once.
PRIME_REQUESTS = 10


#: Requests per serve-mixed round: ten new ones (every profile under
#: both configs) interleaved with ten repeats.
ROUND_REQUESTS = 20


@dataclass
class Round:
    """One full pass over a workload's mix: a sweep campaign (fresh
    pass plus rerun), or ``ROUND_REQUESTS`` serve requests.  Every
    round of a workload has the same composition, so per-round figures
    are comparable samples.

    ``hits``/``misses`` hold each measured interval with the number of
    points it answered and the calibration kernel time that applies
    to it.  The machine switches between fast and slow spells lasting
    a fraction of a second to seconds, so that kernel time comes from
    samples taken right around the interval (and, for a sweep's fresh
    pass, after every point in it); ``kernel_samples`` keeps them
    all."""

    points: int = 0
    records: int = 0
    kernel_samples: list[float] = field(default_factory=list)
    hits: list[tuple[Interval, int, float]] = field(default_factory=list)
    misses: list[tuple[Interval, int, float]] = field(default_factory=list)

    def add(self, kind: str, interval: Interval, points: int,
            kernel_s: float) -> None:
        getattr(self, kind).append((interval, points, kernel_s))

    def reference_s(self, kind: str) -> float:
        return sum(interval.reference(kernel_s)
                   for interval, _, kernel_s in getattr(self, kind))

    def latency_ms(self, kind: str) -> float:
        """Mean reference latency of one point of ``kind``."""
        points = sum(count for _, count, _ in getattr(self, kind))
        return 1000.0 * self.reference_s(kind) / points


@dataclass
class Window:
    """Raw observations of one timed window."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    busy_s: float = 0.0
    rounds: list[Round] = field(default_factory=list)

    def new_round(self) -> Round:
        self.rounds.append(Round(kernel_samples=[kernel_seconds()]))
        return self.rounds[-1]

    @staticmethod
    def calibrate(round_: Round) -> tuple[float, float]:
        """Time the calibration kernel after a measured interval;
        returns the samples before and after it."""
        round_.kernel_samples.append(kernel_seconds())
        return round_.kernel_samples[-2], round_.kernel_samples[-1]


class Workload:
    """One benchmark workload (see module docstring)."""

    name = ""
    #: Whether a traced run of this workload measures the layer
    #: without a miniature run of another workload.
    owns_queue = False
    owns_serve = False
    owns_resume = False

    def __init__(self, seed: int, size: str, tracer: Tracer) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.tracer = tracer
        self.rng = random.Random(seed)

    def setup(self, directory: Path, step=lambda: None) -> None:
        """Build everything the window needs; call ``step`` between
        parts of the work (the set-up clock calibrates there)."""
        raise NotImplementedError

    def run_window(self, seconds: float, window: Window) -> None:
        raise NotImplementedError

    def check(self, directory: Path) -> tuple[list[str], float]:
        """Correctness problems found, and the largest IPC error
        against the exact oracle in percent."""
        raise NotImplementedError

    def layer_inputs(self, directory: Path) -> LayerInputs:
        raise NotImplementedError

    def probe_units(self, directory: Path) -> UnitProbe:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and thread this workload started."""


@dataclass
class LayerInputs:
    """What the per-layer probes run on: the workload's own trace,
    configurations and work units."""

    workload: str
    trace_path: Path
    base_config: object
    configs: list
    budget: int
    trace_seed: int
    segment_records: int
    engine: str


@dataclass
class UnitProbe:
    """Work units timed one by one in this process, right after (or
    around) the same work timed through the workload's coordinator, so
    that both sides see the same machine speed."""

    units: list[WorkUnit]
    unit_seconds: list[float]
    documents: list[dict]
    overhead_pct: float
    repeats: int


# ---------------------------------------------------------------------
# Sweep workloads


class _PointClock(SweepProgress):
    """Timestamps every design point as the runner reports it and,
    when ``calibrate`` is on, times the calibration kernel after each
    one.  Point intervals exclude the kernel's own time."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float, float, bool]] = []
        self.kernel: list[float] = []
        self.failures: list[str] = []
        self._calibrate = False
        self._last = 0.0

    def begin(self, calibrate: bool) -> None:
        self.events = []
        self.kernel = []
        self.failures = []
        self._calibrate = calibrate
        self._last = time.perf_counter()

    def point(self, outcome) -> None:
        now = time.perf_counter()
        self.events.append((outcome.key, self._last, now,
                            outcome.from_checkpoint))
        if self._calibrate:
            self.kernel.append(kernel_seconds())
        self._last = time.perf_counter()

    def unit_failed(self, unit_id: str, message: str) -> None:
        self.failures.append(f"{unit_id}: {message}")


@dataclass
class _GridTrace:
    """One trace of a sweep workload, with the runner that sweeps the
    grid over it and what its campaigns produced."""

    runner: SweepRunner
    results_dir: Path
    path: Path
    start_pc: int | None
    records: int
    plan: object = None
    digests: dict[str, str] | None = None
    estimates: dict[str, float] = field(default_factory=dict)

    def records_per_point(self) -> int:
        if self.plan is not None:
            return self.plan.executed_records
        return self.records


class SweepWorkload(Workload):
    """A grid swept over ``TRACES`` traces of the same profile, each
    from its own seed.  One seed's synthetic program can be 10-15%
    cheaper or dearer to simulate than another's; a round covers every
    trace, so a run's figures average over several programs."""

    base_name = "4wide-perfect"
    sampling = "full"
    owns_resume = True
    TRACES = 4

    def __init__(self, seed: int, size: str, tracer: Tracer) -> None:
        super().__init__(seed, size, tracer)
        self.trace_seeds = [self.rng.randrange(1, 1 << 31)
                            for _ in range(self.TRACES)]

    def _budget(self) -> int:
        return self.size["sweep_budget"]

    def _segment_records(self) -> int:
        return 4096

    def _backend(self, directory: Path):
        return SerialBackend()

    def setup(self, directory: Path, step=lambda: None) -> None:
        self.spec = SweepSpec(axes=AXES, base=CONFIGS.get(self.base_name))
        self.points = self.spec.expand().points
        self.clock = _PointClock()
        self.backend = self._backend(directory)
        self.problems: list[str] = []
        self.traces = [self._prepare(directory / f"trace{index}", seed,
                                     step)
                       for index, seed in enumerate(self.trace_seeds)]

    def _prepare(self, results_dir: Path, seed: int, step) -> _GridTrace:
        runner = SweepRunner(
            self.spec, "gzip", results_dir=results_dir,
            budget=self._budget(), seed=seed,
            backend=self.backend, progress=self.clock,
            segment_records=self._segment_records(),
            engine="specialized", sampling=self.sampling,
            regions=REGIONS, region_warmup=REGION_WARMUP)
        with self.tracer.span("sweep.prepare_trace"):
            trace = runner.prepare_trace(self.spec.base.predictor)
        step()
        plan = None
        if self.sampling == "regions":
            with self.tracer.span("trace.analyze"):
                profile = ensure_profile(trace.path)
            with self.tracer.span("regions.plan"):
                plan = plan_regions(trace.path, profile, regions=REGIONS,
                                    warmup_segments=REGION_WARMUP)
            step()
        return _GridTrace(
            runner=runner, results_dir=results_dir, path=trace.path,
            start_pc=trace.start_pc,
            records=read_trace_header(trace.path).record_count, plan=plan)

    def _in_process_units(self) -> bool:
        return True

    def _reset(self, trace: _GridTrace) -> None:
        """Drop every result of the trace's previous campaign, keeping
        the trace, its profile and the manifest."""
        for path in trace.results_dir.glob("*.json"):
            if path.name != MANIFEST_FILENAME:
                path.unlink()

    def _pass(self, trace: _GridTrace, label: str, kind: str,
              window: Window, round_: Round) -> bool:
        clock = self.clock
        with self.tracer.span(f"sweep.run.{kind}", group=label):
            clock.begin(calibrate=kind == "miss")
            with Stopwatch() as watch:
                try:
                    trace.runner.run()
                    ok = True
                except (SweepError, ExecError) as error:
                    self.problems.append(f"{label} {kind}: {error}")
                    ok = False
            for key, lo, hi, _ in clock.events:
                self.tracer.record(f"point.{kind}", lo, hi,
                                   group=f"{label}/{key}")
        done = len(clock.events)
        # The kernel runs inside the pass; take its time back out.
        spent = sum(clock.kernel)
        watch.interval.wall -= spent
        watch.interval.cpu -= spent
        before, after = window.calibrate(round_)
        samples = [before, *clock.kernel]
        if done and len(clock.kernel) == done:
            # Each point is bracketed by the samples on either side;
            # the pass's kernel time is the one that scales the sum of
            # the points' durations the same way.
            walls = [hi - lo for _, lo, hi, _ in clock.events]
            kernel_s = sum(walls) / sum(
                wall * 2.0 / (samples[index] + samples[index + 1])
                for index, wall in enumerate(walls))
        else:
            kernel_s = (before + after) / 2.0
        round_.kernel_samples[-1:-1] = clock.kernel
        window.busy_s += watch.interval.wall
        window.counts["attempted"] += len(self.points)
        window.counts["failed"] += len(self.points) - done
        window.counts["points"] += done
        round_.points += done
        if done:
            round_.add("misses" if kind == "miss" else "hits",
                       watch.interval, done, kernel_s)
        latencies = [(hi - lo) * 1000.0 for _, lo, hi, _ in clock.events]
        window.samples[f"{kind}_ms"].extend(latencies)
        revived = sum(1 for event in clock.events if event[3])
        if kind == "miss":
            window.samples["unit_interval_ms"].extend(latencies)
            records = trace.records_per_point() * done
            window.counts["records"] += records
            round_.records += records
            if revived:
                self.problems.append(f"{label}: {revived} point(s) "
                                     f"revived from checkpoints in a "
                                     f"fresh pass")
        else:
            window.samples["resume_s"].append(watch.interval.wall)
            if revived != done:
                self.problems.append(f"{label}: the rerun simulated "
                                     f"{done - revived} point(s)")
        return ok

    def _record_outcomes(self, trace: _GridTrace, label: str) -> None:
        """Per-point statistics digests of the pass just run; every
        campaign must reproduce the trace's first one."""
        digests = {}
        for point in self.points:
            path = trace.results_dir / f"{point.key}.json"
            document = json.loads(path.read_text())
            if self.sampling == "regions" and "sampled" not in document:
                self.problems.append(
                    f"{label}: sampled document {path.name} carries no "
                    f"'sampled' marker")
            digests[point.key] = canonical_digest(document["stats"])
            trace.estimates[point.key] = \
                stats_from_dict(document["stats"]).ipc
        if trace.digests is None:
            trace.digests = digests
        elif digests != trace.digests:
            self.problems.append(
                f"{label}: statistics differ from the first campaign")

    def run_window(self, seconds: float, window: Window) -> None:
        before = codegen_cache_info()
        start = time.perf_counter()
        campaign = 0
        while (campaign < self.size["min_rounds"]
               or time.perf_counter() - start < seconds):
            round_ = window.new_round()
            for index, trace in enumerate(self.traces):
                label = f"c{campaign}t{index}"
                self._reset(trace)
                if self._pass(trace, label, "miss", window, round_):
                    self._record_outcomes(trace, label)
                    self._pass(trace, label, "hit", window, round_)
                if self._in_process_units():
                    window.counts["units"] += len(self.points) * (
                        trace.plan.count if trace.plan else 1)
            campaign += 1
        after = codegen_cache_info()
        window.counts["specialized_units"] += (
            after["hits"] + after["misses"]
            - before["hits"] - before["misses"])

    def _base_unit(self, trace: _GridTrace, point, directory: Path,
                   engine: str) -> WorkUnit:
        return WorkUnit.for_trace(
            point.key, trace.path, config_to_dict(point.config),
            directory / f"{point.key}.json", start_pc=trace.start_pc,
            engine=engine)

    def oracle(self, directory: Path) -> list[dict[str, dict]]:
        """Reference-tier full replay of every grid point, per trace."""
        documents = []
        for index, trace in enumerate(self.traces):
            oracle_dir = directory / "oracle" / f"trace{index}"
            oracle_dir.mkdir(parents=True, exist_ok=True)
            documents.append({
                point.key: execute_unit(self._base_unit(
                    trace, point, oracle_dir, "reference"))["stats"]
                for point in self.points})
        return documents

    def check(self, directory: Path) -> tuple[list[str], float]:
        problems = list(self.problems)
        if any(trace.digests is None for trace in self.traces):
            return problems + ["a trace completed no campaign"], 0.0
        error = 0.0
        for index, (trace, oracle) in enumerate(
                zip(self.traces, self.oracle(directory), strict=True)):
            for key, stats in oracle.items():
                exact = stats_from_dict(stats).ipc
                error = max(error, abs(trace.estimates[key] - exact)
                            / exact * 100.0)
                if self.sampling == "full" and \
                        canonical_digest(stats) != trace.digests[key]:
                    problems.append(
                        f"trace {index} point {key}: statistics digest "
                        f"{trace.digests[key]} differs from the "
                        f"reference oracle {canonical_digest(stats)}")
        return problems, error

    def layer_inputs(self, directory: Path) -> LayerInputs:
        return LayerInputs(
            workload="gzip", trace_path=self.traces[0].path,
            base_config=self.spec.base,
            configs=[point.config for point in self.points],
            budget=self._budget(), trace_seed=self.trace_seeds[0],
            segment_records=self._segment_records(),
            engine="specialized")

    def _observers(self, directory: Path) -> tuple:
        """What the executor attaches to each unit."""
        return ()

    def probe_units(self, directory: Path) -> UnitProbe:
        """A fresh pass over the first trace through the backend, then
        each of its units executed alone; three times over.  The
        coordinator overhead is the share of the pass not spent in
        its units."""
        trace = self.traces[0]
        units = []
        for point in self.points:
            base = self._base_unit(trace, point, directory, "specialized")
            units.extend(region_units(base, trace.plan)
                         if trace.plan is not None else [base])
        passes, totals, seconds, documents = [], [], [], []
        for _ in range(3):
            self._reset(trace)
            self.clock.begin(calibrate=False)
            with Stopwatch() as watch:
                trace.runner.run()
            passes.append(watch.interval.wall)
            documents = []
            for unit in units:
                start = time.perf_counter()
                documents.append(execute_unit(
                    unit, observers=self._observers(directory)))
                seconds.append(time.perf_counter() - start)
            totals.append(sum(seconds[-len(units):]))
        overhead = 1.0 - statistics.median(totals) / statistics.median(passes)
        return UnitProbe(units, seconds, documents, 100.0 * overhead, 3)


class SweepExact(SweepWorkload):
    """Exact grid, specialized tier, serial backend, one streamed
    trace: decode and the compiled engine do almost all the work."""

    name = "sweep-exact"


class SampledCampaign(SweepWorkload):
    """Region-sampled grid on the cache config over a trace of many
    short segments: many warmup-prefixed region units, which the
    specialized tier declines (they fall back to the reference tier),
    and an estimate whose error against full replay is reported."""

    name = "sampled-campaign"
    base_name = "2wide-cache"
    sampling = "regions"
    # Which segments a plan picks varies with the seed too: average
    # over more programs than the exact sweeps need.
    TRACES = 6

    def _budget(self) -> int:
        return self.size["sampled_budget"]

    def _segment_records(self) -> int:
        return self.size["sampled_segment_records"]


class QueueSweep(SweepWorkload):
    """The sweep-exact grid through the directory queue with one local
    worker process.  The worker's lease heartbeat is an engine
    observer, so its units run the reference tier."""

    name = "queue-sweep"
    owns_queue = True

    def _backend(self, directory: Path):
        return DirectoryQueueBackend(directory / "queue", workers=1,
                                     timeout=120)

    def _in_process_units(self) -> bool:
        return False

    def _reset(self, trace: _GridTrace) -> None:
        # Every trace's grid uses the same unit ids, so the previous
        # pass's done markers must go before the next one enqueues.
        super()._reset(trace)
        for marker in queue_paths(self.backend.queue_dir).done.glob(
                "*.json"):
            marker.unlink()

    def _observers(self, directory: Path) -> tuple:
        """The worker's lease heartbeat, which makes the specialized
        tier decline the unit."""
        lease = directory / "probe.lease"
        lease.touch()
        return (LeaseHeartbeat(lease, interval_seconds=1.0),)

    def close(self) -> None:
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()


# ---------------------------------------------------------------------
# Campaign service


class ServeMixed(Workload):
    """One closed-loop client over the campaign service's HTTP API,
    waiting for each reply before sending the next request."""

    name = "serve-mixed"
    owns_serve = True

    def __init__(self, seed: int, size: str, tracer: Tracer) -> None:
        super().__init__(seed, size, tracer)
        self._server = None
        self._used_seeds: set[int] = set()

    def _fresh_seed(self) -> int:
        while True:
            candidate = self.rng.randrange(1, 1 << 31)
            if candidate not in self._used_seeds:
                self._used_seeds.add(candidate)
                return candidate

    def _fresh_spec(self, index: int) -> dict:
        """New request ``index`` cycles through every profile under
        both configs (10 combinations), so every run sees the same mix
        of miss costs."""
        profiles = list(SPECINT_PROFILES)
        return {"workload": profiles[index % len(profiles)],
                "config": SERVE_CONFIGS[index % len(SERVE_CONFIGS)],
                "budget": self.size["serve_budget"],
                "seed": self._fresh_seed()}

    def setup(self, directory: Path, step=lambda: None) -> None:
        self.close()
        self.service = CampaignService(directory / "campaign",
                                       concurrency=1)
        self._server = BackgroundServer(self.service)
        with self.tracer.span("serve.start"):
            self._server.__enter__()
        step()
        self.client = ServiceClient(*self._server.address)
        self.fresh: list[tuple[dict, str]] = []  # (spec, result bytes)
        self.problems: list[str] = []
        self.verify: list[tuple[dict, dict]] = []
        # A new server's first requests are cold; they are not part of
        # the measured stream.
        for index in range(PRIME_REQUESTS):
            self._request(self._fresh_spec(index), group="prime")
            step()

    def _request(self, spec: dict, group: str
                 ) -> tuple[dict | None, float, float, float]:
        """Submit, wait for the terminal event, fetch the result.
        Returns the envelope (None on failure) and the three phase
        durations in seconds."""
        client, tracer = self.client, self.tracer
        with tracer.span("serve.request", group=group):
            t0 = time.perf_counter()
            with tracer.span("serve.submit", group=group):
                answer = client.submit({"kind": "simulate", "spec": spec})
            t1 = time.perf_counter()
            with tracer.span("serve.event_wait", group=group):
                status = client.wait(answer["job_id"])
            t2 = time.perf_counter()
            envelope = None
            if status.get("state") == "done":
                with tracer.span("serve.result", group=group):
                    envelope = client.result(answer["job_id"])
            t3 = time.perf_counter()
        return envelope, t1 - t0, t2 - t1, t3 - t2

    def run_window(self, seconds: float, window: Window) -> None:
        before = codegen_cache_info()
        start = time.perf_counter()
        index = 0
        fresh_index = 0
        while (index % ROUND_REQUESTS
               or len(window.rounds) < self.size["min_rounds"]
               or time.perf_counter() - start < seconds):
            if index % ROUND_REQUESTS == 0:
                round_ = window.new_round()
            repeat = index % 2 == 1
            if repeat:
                origin = self.rng.randrange(len(self.fresh))
                spec = self.fresh[origin][0]
            else:
                spec = self._fresh_spec(fresh_index)
                fresh_index += 1
            with Stopwatch() as watch:
                envelope, submit_s, wait_s, result_s = \
                    self._request(spec, f"r{index}")
            kernel_s = sum(window.calibrate(round_)) / 2.0
            latency_ms = watch.interval.wall * 1000.0
            window.busy_s += watch.interval.wall
            window.counts["attempted"] += 1
            index += 1
            if envelope is None:
                window.counts["failed"] += 1
                continue
            window.counts["points"] += 1
            round_.points += 1
            window.samples["submit_ms"].append(submit_s * 1000.0)
            window.samples["result_ms"].append(result_s * 1000.0)
            cache = envelope.get("cache", {})
            window.counts["cache_hits"] += cache.get("hits", 0)
            window.counts["cache_misses"] += cache.get("misses", 0)
            document = json.dumps(envelope["result"], sort_keys=True)
            if repeat:
                window.samples["hit_ms"].append(latency_ms)
                round_.add("hits", watch.interval, 1, kernel_s)
                window.samples["event_wait_ms"].append(wait_s * 1000.0)
                if cache != {"hits": 1, "misses": 0}:
                    self.problems.append(
                        f"request {index - 1}: a repeat was not served "
                        f"from the cache ({cache})")
                if document != self.fresh[origin][1]:
                    self.problems.append(
                        f"request {index - 1}: cache-served result "
                        f"differs from the miss that filled the cache")
            else:
                window.samples["miss_ms"].append(latency_ms)
                round_.add("misses", watch.interval, 1, kernel_s)
                window.counts["units"] += 1
                stats = envelope["result"]["stats"]
                records = int(stats_from_dict(stats).trace_records_consumed)
                window.counts["records"] += records
                round_.records += records
                if cache != {"hits": 0, "misses": 1}:
                    self.problems.append(
                        f"request {index - 1}: a new request was not a "
                        f"cache miss ({cache})")
                self.fresh.append((spec, document))
                if len(self.verify) < 3:
                    self.verify.append((spec, stats))
        after = codegen_cache_info()
        window.counts["specialized_units"] += (
            after["hits"] + after["misses"]
            - before["hits"] - before["misses"])
        if self.tracer.enabled:
            for _ in range(30):
                t0 = time.perf_counter()
                self.client.health()
                window.samples["http_rtt_ms"].append(
                    (time.perf_counter() - t0) * 1000.0)

    def check(self, directory: Path) -> tuple[list[str], float]:
        """Hits must equal their misses byte for byte (checked in the
        window); the first misses must equal an in-process reference
        replay of the same spec."""
        problems = list(self.problems)
        if not self.verify:
            return problems + ["no request completed"], 0.0
        error = 0.0
        for spec, served in self.verify:
            exact = stats_to_dict(Simulation.from_spec(spec).run().stats)
            if canonical_digest(exact) != canonical_digest(served):
                problems.append(f"served statistics for {spec} differ "
                                f"from the reference replay")
            exact_ipc = stats_from_dict(exact).ipc
            error = max(error, abs(stats_from_dict(served).ipc
                                   - exact_ipc) / exact_ipc * 100.0)
        return problems, error

    def layer_inputs(self, directory: Path) -> LayerInputs:
        """The probes need a stored trace: the first new request's
        workload and config, written with small segments."""
        from repro.workloads.tracegen import write_workload_trace

        spec = self.fresh[0][0] if self.fresh else self._fresh_spec(0)
        config = CONFIGS.get(spec["config"])
        trace_path = directory / "probe.rtrc"
        write_workload_trace(spec["workload"], config, trace_path,
                             budget=spec["budget"], seed=spec["seed"],
                             segment_records=64)
        return LayerInputs(
            workload=spec["workload"], trace_path=trace_path,
            base_config=config,
            configs=[CONFIGS.get(name) for name in SERVE_CONFIGS],
            budget=spec["budget"], trace_seed=spec["seed"],
            segment_records=64, engine="reference")

    def probe_units(self, directory: Path) -> UnitProbe:
        """New requests through the service, each followed by the same
        simulation executed alone in this process."""
        units, seconds, documents = [], [], []
        latency = 0.0
        for index in range(len(SERVE_CONFIGS) * 3):
            spec = self._fresh_spec(index)
            with Stopwatch() as watch:
                envelope, *_ = self._request(spec, f"probe{index}")
            if envelope is None:
                raise RuntimeError(f"probe request {spec} failed")
            latency += watch.interval.wall
            unit = WorkUnit(unit_id=f"probe{index}", spec=spec,
                            result_path=str(directory
                                            / f"probe{index}.json"))
            start = time.perf_counter()
            documents.append(execute_unit(unit))
            seconds.append(time.perf_counter() - start)
            units.append(unit)
        overhead = 1.0 - sum(seconds) / latency
        return UnitProbe(units, seconds, documents, 100.0 * overhead,
                         len(units))

    def close(self) -> None:
        if self._server is not None:
            server, self._server = self._server, None
            server.__exit__(None, None, None)


WORKLOADS = {workload.name: workload for workload in
             (SweepExact, SampledCampaign, ServeMixed, QueueSweep)}


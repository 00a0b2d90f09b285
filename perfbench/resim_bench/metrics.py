"""Sample statistics, host-time calibration, and the result document
of one benchmark run.

**Reference seconds.**  The machines this benchmark runs on are
shared: the same CPU-bound work runs fast or up to 1.8x slower in
spells lasting a fraction of a second to seconds, so a wall-clock
median over one run moves by 10-30% between runs.  Every end-to-end
host time is therefore reported in *reference seconds*: the interval's
waiting time (wall minus CPU) plus its CPU time scaled by the current
speed of the machine, which :func:`kernel_seconds` measures by timing
a fixed pure-Python kernel right around each measured interval.  On a
machine where the kernel takes ``REFERENCE_KERNEL_S`` a reference
second is a wall second.  The kernel is independent of ReSim, so a
change to ReSim's speed moves the figures exactly as it moves wall
time.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Iterations of the calibration kernel (about 4 ms on a 2.1 GHz
#: core): short enough to time after every design point or request.
KERNEL_ITERATIONS = 15_000

#: The kernel's duration on the reference machine, in seconds.
REFERENCE_KERNEL_S = 0.004

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def calibration_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Fixed interpreter work of the kind a simulator loop does: small
    integer arithmetic, dict stores and a bounded deque."""
    table = {}
    acc = 0
    window: deque[int] = deque()
    for index in range(iterations):
        acc = (acc * 31 + index) & 0xFFFFFFFF
        table[acc & 1023] = index
        window.append(acc)
        if len(window) > 64:
            acc ^= window.popleft()
    return acc


def kernel_seconds() -> float:
    """Wall seconds of one calibration kernel run, now."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def _children_cpu_seconds() -> float:
    """CPU seconds of this process's live child processes (Linux
    /proc; 0 where it is unavailable)."""
    total = 0
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            pids = Path(f"/proc/self/task/{task}/children").read_text()
        except OSError:
            continue
        for pid in pids.split():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text() \
                    .rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def cpu_seconds() -> float:
    """CPU seconds used so far by this process (all threads) and its
    live children."""
    return time.process_time() + _children_cpu_seconds()


@dataclass
class Interval:
    """Wall and CPU seconds of one measured interval."""

    wall: float = 0.0
    cpu: float = 0.0

    def reference(self, kernel_s: float) -> float:
        """This interval in reference seconds (module docstring)."""
        cpu = min(self.cpu, self.wall)
        return self.wall - cpu + cpu * REFERENCE_KERNEL_S / kernel_s


class Stopwatch:
    """``with Stopwatch() as watch: ...`` measures ``watch.interval``."""

    def __enter__(self) -> Stopwatch:
        self.interval = Interval()
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.interval.wall = time.perf_counter() - self._wall
        self.interval.cpu = cpu_seconds() - self._cpu


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count: int, fraction: float) -> bool:
    """A percentile is reported only with at least ten samples
    beyond it."""
    return count * (1.0 - fraction) >= 10


def timed_median(call: Callable[[], object], repeats: int
                 ) -> tuple[float, object]:
    """Median wall seconds of ``repeats`` calls, plus the last result."""
    durations = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), result


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """Reference seconds of consecutive steps (one set-up), with the
    calibration kernel timed between every two steps."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._kernel = kernel_seconds()
        self._watch = Stopwatch().__enter__()

    def step(self) -> None:
        self._watch.__exit__(None, None, None)
        kernel = kernel_seconds()
        self.seconds += self._watch.interval.reference(
            (self._kernel + kernel) / 2.0)
        self._kernel = kernel
        self._watch = Stopwatch().__enter__()

    def stop(self) -> float:
        self.step()
        return self.seconds


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Report:
    """What one run prints: named metrics with unit and sample count,
    operations attempted and failed, and the correctness verdict."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    extra: dict[str, Metric] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def add_extra(self, name: str, value: float, unit: str, samples: int,
                  note: str = "") -> None:
        """A figure printed in the table but not in the result line."""
        self.extra[name] = Metric(float(value), unit, samples, note)

    def percentiles(self, prefix: str, samples_ms: Sequence[float]
                    ) -> None:
        """Per-operation p50 in the table, and p90 when at least ten
        samples lie beyond it."""
        self.add_extra(f"{prefix}_p50_ms", statistics.median(samples_ms),
                       "ms", len(samples_ms), "per operation")
        if tail_supported(len(samples_ms), 0.9):
            self.add_extra(f"{prefix}_p90_ms",
                           percentile(samples_ms, 0.9), "ms",
                           len(samples_ms), "per operation")

    @property
    def correct(self) -> bool:
        return not self.problems

    def table(self) -> str:
        lines = [f"{'metric':34s} {'value':>14s} {'unit':7s} samples"]
        for name, metric in [*self.metrics.items(), *self.extra.items()]:
            note = f"  ({metric.note})" if metric.note else ""
            lines.append(f"{name:34s} {metric.value:14.4f} "
                         f"{metric.unit:7s} {metric.samples}{note}")
        failed_pct = 100.0 * self.failed / max(self.attempted, 1)
        lines.append(f"{'failed_pct':34s} {failed_pct:14.4f} "
                     f"{'%':7s} {self.attempted}")
        return "\n".join(lines)

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": ({name: {"value": metric.value,
                                "unit": metric.unit}
                         for name, metric in self.metrics.items()}
                        if self.correct else {}),
        }

"""Simulation statistics unit.

Mirrors Section V.B: ReSim collects the counters found in
SimpleScalar's ``sim-outorder`` — total instructions, memory ops,
branches, cache hits, IFQ/ROB/LSQ occupancy, detailed branch outcomes
— in **64-bit hardware registers** ("To avoid overflow problems we use
64-bits registers for statistics").  :class:`Counter64` reproduces the
register width, wrapping modulo 2^64 exactly as the hardware would.

Statistics are *mergeable*: :meth:`SimulationStatistics.merge` reduces
the per-shard results of a design point that was split into segment
ranges (see :mod:`repro.exec.partition`) into one document — counters sum
(modulo 2^64, like the registers they model), occupancy samplers pool
their raw ``(total, samples)`` state so the merged average is the
cycle-weighted mean of the shards, derived rates (IPC, misprediction
and miss rates) recompute from the merged raw counters, and the
:attr:`~SimulationStatistics.shards` field records the provenance of
how the result was produced.

Merges may be **weighted** (``merge(weights=...)``): each part's
counter contributions scale by a non-negative *integer* weight before
summing (still modulo 2^64), and samplers pool weight-scaled raw
state.  The unweighted merge is weight 1 on every part; weight 0
erases a part.  Region-sampled simulation
(:mod:`repro.exec.regions`) uses this to extrapolate a cluster of
statistically similar trace segments from one simulated
representative.  Weights are integers by contract — resim-lint rule
X304 rejects float weight expressions, for the same reason X301
rejects float counter arithmetic: one float in the sum breaks the
exact-arithmetic contract every reducer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Iterable, Sequence

_MASK64 = (1 << 64) - 1


def _validate_weights(weights: Sequence[int], parts: int) -> tuple[int, ...]:
    """Coerce merge weights to a tuple of plain non-negative ints.

    Weights scale exact 64-bit counter sums, so they must be integers:
    a float weight would silently round large counts (X301's failure
    mode, one level up).  ``bool`` is rejected too — ``True`` works
    arithmetically but almost always means a caller passed a predicate
    where a multiplicity belongs.
    """
    cleaned = []
    for weight in weights:
        if isinstance(weight, bool) or not isinstance(weight, int):
            raise TypeError(
                f"merge weights must be plain ints (counters are exact "
                f"64-bit registers; float weights would round), got "
                f"{weight!r}")
        if weight < 0:
            raise ValueError(
                f"merge weights must be >= 0, got {weight}")
        cleaned.append(weight)
    if len(cleaned) != parts:
        raise ValueError(
            f"got {len(cleaned)} weight(s) for {parts} part(s); pass "
            f"exactly one weight per merged statistics object")
    return tuple(cleaned)


class Counter64:
    """A 64-bit hardware statistics register (wraps modulo 2^64)."""

    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        self._value = value & _MASK64

    @property
    def value(self) -> int:
        return self._value

    def increment(self, amount: int = 1) -> None:
        self._value = (self._value + amount) & _MASK64

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counter64):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"Counter64({self._value})"


@dataclass
class OccupancySampler:
    """Accumulates per-cycle occupancy of one hardware structure."""

    total: int = 0
    samples: int = 0
    peak: int = 0

    def sample(self, occupancy: int) -> None:
        self.total += occupancy
        self.samples += 1
        if occupancy > self.peak:
            self.peak = occupancy

    @property
    def average(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def raw(self) -> tuple[int, int]:
        """The merge-safe raw state ``(total, samples)``.

        Reducers pool these sums instead of averaging averages, so a
        merged :attr:`average` is the sample-weighted (i.e.
        cycle-weighted) mean of the merged parts.
        """
        return (self.total, self.samples)

    def merge(self, others: Iterable[OccupancySampler],
              weights: Sequence[int] | None = None) -> OccupancySampler:
        """Pool this sampler with others into a new sampler.

        Totals and sample counts add (every part sampled once per
        cycle, so the pooled average weights each part by its cycles);
        the peak is the maximum of the parts' peaks.  ``weights`` (one
        per part, ``self`` first; all ones when None) scale each
        part's raw state, and a zero-weight part's peak is ignored.
        """
        parts = (self, *others)
        total = samples = peak = 0
        scale = [1] * len(parts) if weights is None else weights
        for weight, part in zip(scale, parts, strict=True):
            part_total, part_samples = part.raw()
            total += weight * part_total
            samples += weight * part_samples
            if weight and part.peak > peak:
                peak = part.peak
        return OccupancySampler(total=total, samples=samples, peak=peak)


@dataclass
class SimulationStatistics:
    """Everything ReSim counts during a run."""

    # Headline counters.
    major_cycles: Counter64 = field(default_factory=Counter64)
    committed_instructions: Counter64 = field(default_factory=Counter64)
    fetched_instructions: Counter64 = field(default_factory=Counter64)
    fetched_wrong_path: Counter64 = field(default_factory=Counter64)
    discarded_wrong_path: Counter64 = field(default_factory=Counter64)
    trace_records_consumed: Counter64 = field(default_factory=Counter64)

    # Instruction classes (committed).
    committed_branches: Counter64 = field(default_factory=Counter64)
    committed_loads: Counter64 = field(default_factory=Counter64)
    committed_stores: Counter64 = field(default_factory=Counter64)

    # Branch behaviour.
    mispredictions: Counter64 = field(default_factory=Counter64)
    misfetches: Counter64 = field(default_factory=Counter64)
    taken_branches: Counter64 = field(default_factory=Counter64)
    prediction_divergence: Counter64 = field(default_factory=Counter64)

    # Memory behaviour.
    load_forwards: Counter64 = field(default_factory=Counter64)
    dcache_accesses: Counter64 = field(default_factory=Counter64)
    dcache_misses: Counter64 = field(default_factory=Counter64)
    icache_accesses: Counter64 = field(default_factory=Counter64)
    icache_misses: Counter64 = field(default_factory=Counter64)

    # Stall accounting (fetch).
    fetch_stall_cycles: Counter64 = field(default_factory=Counter64)
    misfetch_stall_cycles: Counter64 = field(default_factory=Counter64)
    recovery_stall_cycles: Counter64 = field(default_factory=Counter64)

    # Structure occupancy (Section V.B: "statistics about IFQ,
    # Reorder Buffer and LSQ").
    ifq_occupancy: OccupancySampler = field(default_factory=OccupancySampler)
    rob_occupancy: OccupancySampler = field(default_factory=OccupancySampler)
    lsq_occupancy: OccupancySampler = field(default_factory=OccupancySampler)

    # Provenance: ``None`` for a monolithic run; a list of one
    # JSON-safe dict per merged part (segment range, records, cycles)
    # when this object was produced by :meth:`merge`.
    shards: list | None = None

    @property
    def sharded(self) -> bool:
        """True when these statistics were merged from shard runs."""
        return bool(self.shards)

    # -- reduction -----------------------------------------------------

    def merge(self, others: Sequence[SimulationStatistics] = (), *,
              weights: Sequence[int] | None = None,
              shards: Sequence[dict] | None = None,
              ) -> SimulationStatistics:
        """Reduce this object and ``others`` into one new statistics
        object (none of the parts is mutated).

        Semantics, per field kind:

        * **counters** sum modulo 2^64 — exactly the arithmetic of the
          64-bit registers they model, which makes the merge
          associative and order-insensitive;
        * **occupancy samplers** pool their raw ``(total, samples)``
          state (:meth:`OccupancySampler.raw`), so merged averages are
          cycle-weighted means and merged peaks are maxima;
        * **derived rates** (IPC, misprediction/miss rates) need no
          handling — they are properties recomputed from the merged
          raw counters;
        * **shards provenance**: ``shards`` (a sequence of JSON-safe
          dicts) overrides; otherwise the parts' own provenance lists
          concatenate, so merging merged results keeps a flat record
          of every original shard.

        ``weights`` (one non-negative **integer** per part, ``self``
        first) scales each part's contribution: counters add
        ``weight * value`` (still modulo 2^64), samplers pool
        ``weight``-scaled raw state, and a zero-weight part's peaks
        are ignored.  ``weights=None`` *is* all-ones weights (one code
        path, so the two are bit-identical): the exact merge.
        Region-sampled runs use weights to extrapolate a cluster of
        similar trace segments from one representative.

        Merging with no ``others`` and no ``shards`` is the identity
        (a copy that compares equal to ``self``).  Which counters of a
        *sharded simulation* sum exactly to the monolithic run's and
        which are approximate is a property of the engine, documented
        in :mod:`repro.exec.shard`.
        """
        parts = (self, *others)
        scale = _validate_weights(
            [1] * len(parts) if weights is None else weights, len(parts))
        merged = SimulationStatistics()
        for spec in fields(self):
            if spec.name == "shards":
                continue
            values = [getattr(part, spec.name) for part in parts]
            if isinstance(values[0], Counter64):
                setattr(merged, spec.name, Counter64(
                    sum(weight * int(value) for weight, value
                        in zip(scale, values, strict=True))))
            else:
                setattr(merged, spec.name,
                        values[0].merge(values[1:], weights=scale))
        if shards is not None:
            merged.shards = [dict(entry) for entry in shards]
        else:
            combined = [entry for part in parts
                        for entry in (part.shards or ())]
            merged.shards = combined or None
        return merged

    # -- derived -------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed instructions per major cycle."""
        cycles = int(self.major_cycles)
        return int(self.committed_instructions) / cycles if cycles else 0.0

    @property
    def fetch_throughput(self) -> float:
        """Fetched (correct + wrong path) instructions per major cycle."""
        cycles = int(self.major_cycles)
        return int(self.fetched_instructions) / cycles if cycles else 0.0

    @property
    def trace_throughput(self) -> float:
        """All trace records consumed (fetched or discarded) per cycle.

        This is the Table 3 notion of throughput: the *total trace
        instruction demands*, counting wrong-path records that ReSim
        skips at recovery as well as the ones it actually fetched.
        """
        cycles = int(self.major_cycles)
        return int(self.trace_records_consumed) / cycles if cycles else 0.0

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per committed branch."""
        branches = int(self.committed_branches)
        return int(self.mispredictions) / branches if branches else 0.0

    @property
    def dcache_miss_rate(self) -> float:
        accesses = int(self.dcache_accesses)
        return int(self.dcache_misses) / accesses if accesses else 0.0

    @property
    def icache_miss_rate(self) -> float:
        accesses = int(self.icache_accesses)
        return int(self.icache_misses) / accesses if accesses else 0.0

    def report(self) -> str:
        """Multi-line human-readable statistics dump.

        Every :class:`Counter64` field's value appears verbatim in the
        rendered text (a drift-guard test asserts it, mirroring lint
        rule X303): a counter the report silently drops is a counter
        nobody ever reads.
        """
        lines = [
            f"major cycles            : {int(self.major_cycles)}",
            f"committed instructions  : {int(self.committed_instructions)}"
            f"  (IPC {self.ipc:.3f})",
            f"fetched instructions    : {int(self.fetched_instructions)}"
            f"  ({int(self.fetched_wrong_path)} wrong-path)",
            f"trace records consumed  : {int(self.trace_records_consumed)}"
            f"  ({int(self.discarded_wrong_path)} discarded)",
            f"branches                : {int(self.committed_branches)}"
            f"  ({int(self.taken_branches)} taken)",
            f"mispredictions          : {int(self.mispredictions)}"
            f"  (rate {self.misprediction_rate:.4f})",
            f"misfetches              : {int(self.misfetches)}",
            f"prediction divergence   : "
            f"{int(self.prediction_divergence)}",
            f"loads / stores          : {int(self.committed_loads)} /"
            f" {int(self.committed_stores)}"
            f"  ({int(self.load_forwards)} forwarded)",
            f"I-cache                 : {int(self.icache_accesses)} accesses,"
            f" {int(self.icache_misses)} misses"
            f" (rate {self.icache_miss_rate:.4f})",
            f"D-cache                 : {int(self.dcache_accesses)} accesses,"
            f" {int(self.dcache_misses)} misses"
            f" (rate {self.dcache_miss_rate:.4f})",
            f"IFQ / ROB / LSQ avg occ : {self.ifq_occupancy.average:.2f} /"
            f" {self.rob_occupancy.average:.2f} /"
            f" {self.lsq_occupancy.average:.2f}",
            f"IFQ / ROB / LSQ peak occ: {self.ifq_occupancy.peak} /"
            f" {self.rob_occupancy.peak} /"
            f" {self.lsq_occupancy.peak}",
            f"fetch stalls (cycles)   : {int(self.fetch_stall_cycles)}"
            f"  (misfetch {int(self.misfetch_stall_cycles)},"
            f" recovery {int(self.recovery_stall_cycles)})",
        ]
        if self.sharded:
            # Weighted (region-sampled) provenance entries carry a
            # "weight" key; exact shard merges never do.
            weighted = any(isinstance(entry, dict) and "weight" in entry
                           for entry in self.shards)
            noun = "regions" if weighted else "shards"
            lines.append(
                f"merged from {noun:12s}: {len(self.shards)}")
        return "\n".join(lines)

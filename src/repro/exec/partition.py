"""One partition layer: split a design point into segment-range
slices, reduce the slices' results back into one point result.

The paper's bulk mode replays one prepared trace across a whole design
grid.  A :class:`Partition` describes how one design point's run
divides into **slices** of the trace's v2 segment table; two planners
produce it:

* :func:`~repro.exec.shard.plan_shards` — **exact**: the slices tile
  the whole table, each with weight 1 and no warmup (a *shard*), so
  the merged exact-sum counters equal the monolithic run's;
* :func:`~repro.exec.regions.plan_regions` — **sampled**: one
  representative slice per behaviour cluster, prefixed by warmup
  segments that are replayed but not counted, weighted by the number
  of segments it stands for (a *region*), so the merge is an estimate.

Everything after planning is shared.  :func:`partition_units` builds
one ordinary :class:`~repro.exec.unit.WorkUnit` per slice, runnable on
any backend; :func:`merge_documents` reduces slice result documents
through the weighted :meth:`SimulationStatistics.merge
<repro.core.stats.SimulationStatistics.merge>`; and
:class:`PartitionReducer` collects one point's slices and writes the
merged document as the point's checkpoint.

Exact vs. sampled is data, not code: the partition's ``sampled`` flag
selects a :class:`Scheme`, which names the slice units (``.sKofN`` /
``.rKofN``), the slice tag (``shard`` / ``region``), the merged
document's top-level marker (``sharded`` / ``sampled``) and the spec
keys that describe a slice rather than the run.  A standalone merge
(``resim stats merge``) reads the scheme off the documents' tags, so
region results always merge weighted and come out marked ``sampled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.stats import SimulationStatistics
from repro.exec.unit import (
    ExecError,
    RESULT_SCHEMA,
    WorkUnit,
    atomic_write_json,
)
from repro.serialize import stats_from_dict, stats_to_dict


@dataclass(frozen=True)
class Scheme:
    """How one kind of partition names, tags and marks its slices."""

    tag: str                      # slice tag key on units and results
    marker: str                   # top-level key of a merged document
    letter: str                   # unit id infix: <unit>.<letter>KofN
    slice_keys: tuple[str, ...]   # spec keys owned by the slice


#: Exact shards: weight 1, no warmup, only the segment range differs.
EXACT = Scheme(tag="shard", marker="sharded", letter="s",
               slice_keys=("segments",))
#: Sampled regions: weighted, warmup-prefixed representatives.
SAMPLED = Scheme(tag="region", marker="sampled", letter="r",
                 slice_keys=("segments", "warmup_instructions"))


@dataclass(frozen=True)
class Slice:
    """One segment range of a partition plus the weight it carries.

    ``[lo, hi)`` is the measured range (statistics counted);
    ``[warm_lo, lo)`` is the warmup prefix (replayed, not counted),
    ``warmup_instructions`` its committed count; ``weight`` is how many
    times the measured range counts in the merge — 1 for a shard, the
    number of segments a region's representative stands for.
    """

    index: int
    lo: int
    hi: int
    warm_lo: int
    warmup_instructions: int
    weight: int
    records: int            # records executed: warmup + measured
    measured_records: int   # records in [lo, hi) only

    def __post_init__(self) -> None:
        if not 0 <= self.warm_lo <= self.lo < self.hi:
            raise ExecError(
                f"slice needs 0 <= warm_lo <= lo < hi, got "
                f"({self.warm_lo}, {self.lo}, {self.hi})")
        if self.weight < 1:
            raise ExecError(
                f"slice weight must be >= 1 (it counts the segments "
                f"the slice stands for), got {self.weight}")
        if self.warmup_instructions < 0:
            raise ExecError("slice warmup_instructions must be >= 0")


@dataclass(frozen=True)
class Partition:
    """How one trace file splits into slices (see module docstring).

    ``total_segments``/``total_records`` describe the whole trace, so
    coverage — the fraction of records the slices execute — is a
    property of the partition.  ``trace_digest`` and ``seed`` record
    what a sampled plan was computed from.
    """

    trace_path: str
    total_segments: int
    total_records: int
    slices: tuple[Slice, ...]
    sampled: bool = False
    trace_digest: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.slices:
            raise ExecError("malformed partition: no slices")
        previous_hi = 0
        for position, piece in enumerate(self.slices):
            if piece.index != position:
                raise ExecError(
                    f"slice {position} carries index {piece.index}")
            if piece.lo < previous_hi:
                raise ExecError(
                    "slice measured ranges must be disjoint and "
                    "ascending")
            if piece.hi > self.total_segments:
                raise ExecError(
                    f"slice {position} ends at segment {piece.hi}, "
                    f"table holds {self.total_segments}")
            if not self.sampled and (piece.weight != 1
                                     or piece.warm_lo != piece.lo):
                raise ExecError(
                    "an exact partition's slices carry weight 1 and "
                    "no warmup")
            previous_hi = piece.hi
        if sum(piece.weight * (piece.hi - piece.lo)
               for piece in self.slices) != self.total_segments:
            raise ExecError(
                "slice weights must sum to the trace's segment count "
                "(every segment is counted by exactly one slice)")

    @property
    def scheme(self) -> Scheme:
        return SAMPLED if self.sampled else EXACT

    @property
    def count(self) -> int:
        return len(self.slices)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The measured ``(lo, hi)`` segment range of every slice."""
        return tuple((piece.lo, piece.hi) for piece in self.slices)

    @property
    def executed_records(self) -> int:
        """Records the slices replay (warmup included)."""
        return sum(piece.records for piece in self.slices)

    @property
    def coverage(self) -> float:
        """Executed fraction of the trace's records."""
        if not self.total_records:
            return 0.0
        return self.executed_records / self.total_records

    def describe(self) -> str:
        spans = ", ".join(
            f"{piece.lo}..{piece.hi - 1} (w={piece.weight}, "
            f"{piece.records} records)" for piece in self.slices)
        return (f"Partition({self.count} {self.scheme.tag}(s) of "
                f"{self.total_segments} segment(s), "
                f"{100.0 * self.coverage:.1f}% of records: {spans})")

    __repr__ = describe


def partition_units(base: WorkUnit,
                    partition: Partition) -> tuple[WorkUnit, ...]:
    """Split one monolithic work unit into one unit per slice.

    Each slice unit keeps the base spec (config, trace, start PC and
    any run controls ride along) plus its ``segments`` range, warmup
    prefix included, and the prefix's ``warmup_instructions`` so the
    engine replays it warm but uncounted.  Its result lands next to
    the base unit's result, and a slice tag records which slice of
    which unit it is (plus the weight, for a sampled slice) — the
    identity :class:`PartitionReducer` and resume checks match on.
    The slice count is part of the unit id, so re-planning with other
    parameters can never revive a previous plan's slice results.
    Because ``segments`` and ``warmup_instructions`` survive
    :meth:`Simulation.canonical_spec`, slice units never share a
    campaign-cache entry with a full-trace run.
    """
    scheme = partition.scheme
    for key in scheme.slice_keys:
        if key in base.spec:
            raise ExecError(
                f"unit {base.unit_id!r} is already segment-restricted "
                f"or warmed (it carries {key!r}); partition the "
                f"unrestricted unit instead")
    units = []
    base_path = Path(base.result_path)
    for piece in partition.slices:
        spec = dict(base.spec)
        spec["segments"] = [piece.warm_lo, piece.hi]
        if piece.warmup_instructions:
            spec["warmup_instructions"] = piece.warmup_instructions
        tag: dict = {"index": piece.index, "of": partition.count,
                     "unit": base.unit_id}
        if partition.sampled:
            tag["weight"] = piece.weight
        suffix = f"{scheme.letter}{piece.index}of{partition.count}"
        result_path = base_path.with_name(
            f"{base_path.stem}.{suffix}{base_path.suffix}")
        units.append(WorkUnit(unit_id=f"{base.unit_id}.{suffix}",
                              spec=spec, result_path=str(result_path),
                              tags={**base.tags, scheme.tag: tag}))
    return tuple(units)


def _weight(payload: dict, scheme: Scheme) -> int:
    """A slice result's merge weight: the region tag's integer
    ``weight``; 1 for a shard (or a plain, untagged result)."""
    if scheme is EXACT:
        return 1
    tag = payload.get(scheme.tag)
    weight = tag.get("weight") if isinstance(tag, dict) else None
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise ExecError(
            f"document {payload.get('unit_id')!r} carries no integer "
            f"region weight; was it produced by partition_units()?")
    return weight


def _provenance(payload: dict, stats: SimulationStatistics,
                position: int, weight: int,
                scheme: Scheme) -> list[dict]:
    """Provenance entries one part contributes to a merged document.

    A part that is itself a merged document contributes its flattened
    slice list (so ``resim stats merge`` composes associatively); a
    slice result contributes one entry describing its slice.
    """
    if stats.shards:
        return [dict(entry) for entry in stats.shards]
    tag = payload.get(scheme.tag)
    entry: dict = {
        "index": (tag.get("index", position)
                  if isinstance(tag, dict) else position),
        "records": int(stats.trace_records_consumed),
        "cycles": int(stats.major_cycles),
        "instructions": int(stats.committed_instructions),
    }
    spec = payload.get("spec") or {}
    segments = spec.get("segments")
    if segments is not None:
        entry["segments"] = [int(segments[0]), int(segments[1])]
    if scheme is SAMPLED:
        entry["weight"] = weight
        warmup = spec.get("warmup_instructions")
        if warmup is not None:
            entry["warmup"] = int(warmup)
    return [entry]


def merge_documents(
    payloads: list[dict],
    *,
    unit_id: str | None = None,
    spec: dict | None = None,
    tags: dict | None = None,
) -> dict:
    """Reduce slice result documents into one merged point document.

    Every payload must be a successful result document
    (:data:`~repro.exec.unit.RESULT_SCHEMA`, a ``stats`` dict, no
    ``error``), and all must describe the **same configuration** and
    the same run (their specs agree on everything but the slice keys)
    — merging different design points would produce statistics of no
    machine at all.  Documents carrying a ``region`` tag merge as a
    sampled estimate: every one needs an integer weight, the merged
    statistics scale each part by it, and the document is marked
    ``sampled``.  Otherwise every part counts once and the document is
    marked ``sharded``.  A sampled estimate already stands for the
    whole trace, so it is refused as a part.  Given the monolithic
    ``unit_id``/``spec``/``tags``, the result is a drop-in sweep
    checkpoint.
    """
    if not payloads:
        raise ExecError("nothing to merge: no result documents")
    scheme = SAMPLED if any(
        isinstance(payload, dict) and SAMPLED.tag in payload
        for payload in payloads) else EXACT
    weights: list[int] = []
    for payload in payloads:
        if not isinstance(payload, dict) \
                or payload.get("schema") != RESULT_SCHEMA:
            raise ExecError(
                f"cannot merge: not a schema-{RESULT_SCHEMA} result "
                f"document")
        if "error" in payload:
            error = payload.get("error") or {}
            raise ExecError(
                f"cannot merge failed {scheme.tag} "
                f"{payload.get('unit_id')!r}: {error.get('type')}: "
                f"{error.get('message')}")
        if not isinstance(payload.get("stats"), dict):
            raise ExecError(
                f"cannot merge: document "
                f"{payload.get('unit_id')!r} has no statistics")
        if SAMPLED.marker in payload:
            raise ExecError(
                f"cannot merge {payload.get('unit_id')!r}: it is "
                f"already a sampled estimate of the whole trace")
        weights.append(_weight(payload, scheme))
    config = payloads[0].get("config")
    for payload in payloads[1:]:
        if payload.get("config") != config:
            raise ExecError(
                "cannot merge results of different design points: "
                f"{payloads[0].get('unit_id')!r} and "
                f"{payload.get('unit_id')!r} disagree on the "
                f"processor configuration")

    def run_identity(payload: dict) -> dict | None:
        # Everything but the slice.  None (no spec recorded) cannot
        # prove a mismatch.
        document_spec = payload.get("spec")
        if not isinstance(document_spec, dict):
            return None
        return {key: value for key, value in document_spec.items()
                if key not in scheme.slice_keys}

    known = [(payload, identity) for payload in payloads
             if (identity := run_identity(payload)) is not None]
    for payload, identity in known[1:]:
        if identity != known[0][1]:
            raise ExecError(
                "cannot merge results of different runs: "
                f"{known[0][0].get('unit_id')!r} and "
                f"{payload.get('unit_id')!r} disagree on the run "
                f"spec (trace, budget, seed, or windowing)")
    parts = [stats_from_dict(payload["stats"]) for payload in payloads]
    provenance: list[dict] = []
    for position, (payload, stats, weight) in enumerate(
            zip(payloads, parts, weights, strict=True)):
        provenance.extend(
            _provenance(payload, stats, position, weight, scheme))
    merged = parts[0].merge(parts[1:], weights=weights,
                            shards=provenance)
    summary = ({"regions": len(payloads), "segments": sum(weights)}
               if scheme is SAMPLED else
               {"shards": len(provenance), "documents": len(payloads)})
    document = {
        "schema": RESULT_SCHEMA,
        "unit_id": (unit_id if unit_id is not None
                    else payloads[0].get("unit_id")),
        "config": config,
        "stats": stats_to_dict(merged),
        scheme.marker: summary,
        **(tags or {}),
    }
    if spec is not None:
        document["spec"] = dict(spec)
    elif known:
        # Standalone merges keep the run identity (the shared spec
        # minus the slice keys), so a merged document can itself be
        # merged further without losing the cross-run guard.
        document["spec"] = known[0][1]
    return document


class PartitionReducer:
    """Collects one design point's slice results; emits the merged
    point result.

    Construction takes the **monolithic** unit (the spec without a
    slice — what an unsplit run would have executed) and the partition
    that split it.  Feed slice result documents to :meth:`add` in any
    order (resume paths feed previously persisted ones); once
    :attr:`complete`, :meth:`write` atomically writes the merged
    document to the monolithic unit's ``result_path`` — which makes it
    the design point's checkpoint, resumable like any other.
    """

    def __init__(self, unit: WorkUnit, partition: Partition) -> None:
        self._unit = unit
        self._partition = partition
        self._parts: dict[int, dict] = {}

    @property
    def complete(self) -> bool:
        return len(self._parts) == self._partition.count

    def add(self, payload: dict) -> None:
        """Accept one slice's result document."""
        scheme = self._partition.scheme
        count = self._partition.count
        uid = self._unit.unit_id
        tag = payload.get(scheme.tag) \
            if isinstance(payload, dict) else None
        if not isinstance(tag, dict) \
                or not isinstance(tag.get("index"), int):
            raise ExecError(
                f"result document for {uid!r} carries no "
                f"{scheme.tag} tag; was it produced by "
                f"partition_units()?")
        index = tag["index"]
        if tag.get("unit") != uid or tag.get("of") != count \
                or not 0 <= index < count:
            raise ExecError(
                f"{scheme.tag} tag {tag} does not belong to the "
                f"{count}-{scheme.tag} plan of {uid!r}")
        expected_weight = self._partition.slices[index].weight
        if _weight(payload, scheme) != expected_weight:
            raise ExecError(
                f"{scheme.tag} {index} of {uid!r} carries weight "
                f"{tag.get('weight')!r}, plan says {expected_weight}")
        if index in self._parts:
            raise ExecError(
                f"duplicate result for {scheme.tag} {index} of "
                f"{uid!r}")
        self._parts[index] = payload

    def merged(self) -> dict:
        """The merged point document (requires :attr:`complete`)."""
        if not self.complete:
            missing = sorted(set(range(self._partition.count))
                             - set(self._parts))
            raise ExecError(
                f"cannot merge {self._unit.unit_id!r}: "
                f"{self._partition.scheme.tag}(s) {missing} not "
                f"collected yet")
        return merge_documents(
            [self._parts[index]
             for index in range(self._partition.count)],
            unit_id=self._unit.unit_id,
            spec=dict(self._unit.spec),
            tags=dict(self._unit.tags),
        )

    def write(self) -> dict:
        """Merge and atomically persist to the monolithic unit's
        result path; returns the merged document."""
        document = self.merged()
        atomic_write_json(self._unit.result_path, document)
        return document

    def describe(self) -> str:
        return (f"PartitionReducer({self._unit.unit_id!r}, "
                f"{len(self._parts)}/{self._partition.count} "
                f"{self._partition.scheme.tag}(s))")

    __repr__ = describe

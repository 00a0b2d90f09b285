"""``repro.exec`` — pluggable execution backends for bulk simulation.

The paper's bulk mode prepares a trace off-line and simulates it
across a whole design grid; this package decides *where those
simulations run* without the simulation core knowing or caring.  The
pieces:

* :class:`~repro.exec.unit.WorkUnit` — one serializable run: a
  :meth:`Simulation.from_spec` dict (PR 2) over a shared trace file
  (PR 3, optionally a segment shard) plus a result destination;
* :class:`~repro.exec.backends.ExecutionBackend` — the
  submit/``run_units`` protocol every dispatcher implements;
* :class:`~repro.exec.backends.SerialBackend` /
  :class:`~repro.exec.backends.ProcessPoolBackend` — in-process and
  one-host fan-out (the sweep runner's historical behaviors);
* :class:`~repro.exec.queue.DirectoryQueueBackend` + ``resim worker``
  (:mod:`repro.exec.worker`) — multi-host execution over a shared
  filesystem with crash-tolerant atomic-rename leases;
* :class:`~repro.exec.partition.Partition` /
  :class:`~repro.exec.partition.PartitionReducer`
  (:mod:`repro.exec.partition`) — the one partition layer: split a
  design point into segment-range slice units and merge their
  statistics back into one point result.  A partition is either
  exact (:func:`~repro.exec.shard.plan_shards`: shards, i.e. weight-1
  slices with no warmup that tile the trace) or sampled
  (:func:`~repro.exec.regions.plan_regions`: one weighted,
  warmup-prefixed representative region per behaviour cluster, whose
  merge extrapolates the full-trace statistics).

Backends are named in :data:`~repro.exec.backends.BACKENDS`.  Because
work units are deterministic and results are written atomically,
every backend produces bit-identical result documents for the same
batch — the property the sweep and search layers build on.
"""

from repro.exec.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.queue import (
    DEFAULT_LEASE_SECONDS,
    DirectoryQueueBackend,
    enqueue,
    queue_paths,
    reclaim_stale,
)
from repro.exec.partition import (
    Partition,
    PartitionReducer,
    Slice,
    merge_documents,
    partition_units,
)
from repro.exec.regions import (
    DEFAULT_REGIONS,
    DEFAULT_WARMUP_SEGMENTS,
    IPC_ERROR_BOUND,
    plan_regions,
    region_units,
)
from repro.exec.shard import EXACT_SUM_COUNTERS, plan_shards
from repro.exec.unit import (
    ExecError,
    RESULT_SCHEMA,
    UnitExecutionError,
    WorkUnit,
    atomic_write_json,
    error_document,
    execute_unit,
    load_unit_result,
    result_matches_unit,
)
from repro.exec.worker import LeaseHeartbeat, run_worker

__all__ = [
    "BACKENDS",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_REGIONS",
    "DEFAULT_WARMUP_SEGMENTS",
    "DirectoryQueueBackend",
    "EXACT_SUM_COUNTERS",
    "ExecError",
    "ExecutionBackend",
    "IPC_ERROR_BOUND",
    "LeaseHeartbeat",
    "Partition",
    "PartitionReducer",
    "ProcessPoolBackend",
    "RESULT_SCHEMA",
    "SerialBackend",
    "Slice",
    "UnitExecutionError",
    "WorkUnit",
    "atomic_write_json",
    "enqueue",
    "error_document",
    "execute_unit",
    "load_unit_result",
    "merge_documents",
    "partition_units",
    "plan_regions",
    "plan_shards",
    "queue_paths",
    "reclaim_stale",
    "region_units",
    "result_matches_unit",
    "run_worker",
]

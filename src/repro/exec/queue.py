"""Shared-filesystem work queue: multi-host execution without a server.

The paper's bulk mode — one trace prepared off-line, simulated across
a whole design grid — outgrows a single host long before it outgrows
a single *filesystem*: a shared mount (NFS, Lustre, even a plain
directory for same-host processes) is the only infrastructure most
labs actually have.  This module implements a crash-tolerant work
queue on nothing but atomic ``rename(2)``:

::

    <queue_dir>/
        pending/<unit_id>.json          units awaiting a worker
        leases/<unit_id>.<nonce>.json   units some worker has claimed
        done/<unit_id>.json             units whose result was written

* **enqueue** — the coordinator atomically writes a
  :class:`~repro.exec.unit.WorkUnit` document into ``pending/``;
* **claim** — a worker renames ``pending/X.json`` to a
  claimant-unique ``leases/X.<nonce>.json``; rename is atomic on one
  filesystem, so exactly one claimant wins, with no locks and no
  server — and because the nonce is unique, holding a lease *path*
  proves ownership of the claim (a reclaimed worker's path stops
  existing; it cannot disturb its successor's lease);
* **complete** — the worker writes the unit's result file (atomic,
  at ``result_path``), then renames its lease into ``done/``;
* **crash** — a worker killed mid-unit leaves its lease behind.  A
  lease untouched for ``lease_seconds`` is *stale*; any worker or
  coordinator may reclaim it (rename back into ``pending/``), after
  which the unit runs again.  Long simulations stay claimed because
  the executing worker heartbeats its lease mtime from an engine
  observer (:class:`~repro.exec.worker.LeaseHeartbeat`).

Re-execution after a reclaim is safe because units are deterministic
and results are written atomically: the rerun produces byte-identical
output, so no design point is ever duplicated or lost — at worst some
CPU time is.  Workers also check for an existing valid result before
simulating, so a unit whose worker died *after* the result write but
*before* the lease rename costs one file read, not a re-simulation.

:class:`DirectoryQueueBackend` is the coordinator side: it enqueues a
batch, optionally spawns local ``resim worker`` processes, and polls
for result files.  Any number of additional workers on any number of
hosts (sharing the mount) drain the same queue concurrently.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.exec.backends import BACKENDS, ExecutionBackend, OnResult
from repro.exec.unit import (
    ExecError,
    UnitExecutionError,
    WorkUnit,
    atomic_write_json,
    load_unit_result,
    result_matches_unit,
)

#: Default seconds of lease silence after which a claimed unit is
#: presumed orphaned and becomes reclaimable.  Workers heartbeat well
#: inside this (every lease_seconds / 4), so only a dead worker's
#: lease ever goes stale.
DEFAULT_LEASE_SECONDS = 60.0


@dataclass(frozen=True)
class QueuePaths:
    """The three state directories of one queue."""

    root: Path
    pending: Path
    leases: Path
    done: Path


def queue_paths(queue_dir: str | Path, *, create: bool = True
                ) -> QueuePaths:
    """Resolve (and by default create) a queue's directory layout."""
    root = Path(queue_dir)
    paths = QueuePaths(root=root, pending=root / "pending",
                       leases=root / "leases", done=root / "done")
    if create:
        for directory in (paths.pending, paths.leases, paths.done):
            directory.mkdir(parents=True, exist_ok=True)
    return paths


def lease_unit_id(lease_path: Path) -> str:
    """The unit id a lease file names.

    Leases are claimant-unique — ``leases/<unit_id>.<nonce>.json`` —
    so a worker holding a lease path *owns* that claim: after a stale
    reclaim, the next claimant's lease is a different file, and the
    stalled worker's path simply stops existing.  The nonce never
    contains dots, so stripping the last dotted component recovers
    the unit id even when the id itself has dots.
    """
    return lease_path.name[:-len(".json")].rsplit(".", 1)[0]


def _claim_nonce() -> str:
    """Per-claim unique lease suffix (dot-free; see lease_unit_id)."""
    import uuid
    return f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"


def _leases_for(paths: QueuePaths, unit_id: str) -> Iterator[Path]:
    return paths.leases.glob(f"{unit_id}.*.json")


def enqueue(paths: QueuePaths, unit: WorkUnit) -> bool:
    """Publish one unit into ``pending/``; False if it is already
    anywhere in the queue (pending, leased, or done) — re-running a
    coordinator over a half-finished queue must not double-enqueue."""
    name = f"{unit.unit_id}.json"
    if (paths.pending / name).exists() or (paths.done / name).exists():
        return False
    if any(_leases_for(paths, unit.unit_id)):
        return False
    atomic_write_json(paths.pending / name, unit.to_dict())
    return True


def claim_next(paths: QueuePaths) -> Path | None:
    """Atomically claim one pending unit; the winning claimant gets
    its own (claimant-unique) lease path, losers (and an empty
    queue) get None."""
    for entry in sorted(paths.pending.glob("*.json")):
        unit_id = entry.name[:-len(".json")]
        target = paths.leases / f"{unit_id}.{_claim_nonce()}.json"
        try:
            os.rename(entry, target)
        except OSError:
            continue  # another claimant won this unit
        # The rename preserved the *enqueue* mtime; stamp claim time
        # or the lease would look stale the moment it is taken.
        touch_lease(target)
        return target
    return None


def touch_lease(lease_path: Path) -> None:
    """Refresh a lease's heartbeat (mtime = now)."""
    # Lease may be completed/reclaimed under us; that is harmless.
    with contextlib.suppress(OSError):
        os.utime(lease_path)


def read_unit(path: Path) -> WorkUnit:
    """Decode one queue descriptor file back into a WorkUnit."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ExecError(f"unreadable queue entry {path}: {error}") \
            from error
    return WorkUnit.from_dict(document)


def complete_lease(paths: QueuePaths, lease_path: Path) -> None:
    """Move a finished unit's lease into ``done/`` (idempotent: a
    racing duplicate completion simply overwrites the done marker;
    a reclaimed claimant's completion is a no-op because its lease
    path no longer exists)."""
    # Someone else may have completed/reclaimed it; the result exists.
    with contextlib.suppress(OSError):
        os.replace(lease_path,
                   paths.done / f"{lease_unit_id(lease_path)}.json")


def reclaim_stale(paths: QueuePaths,
                  lease_seconds: float = DEFAULT_LEASE_SECONDS) -> int:
    """Recover units orphaned by dead workers.

    A lease whose unit already has a valid result is completed in
    place (its worker died between the result write and the rename);
    a lease silent for ``lease_seconds`` goes back to ``pending/``.
    Returns the number of units made runnable again.  Safe to call
    from any worker or coordinator, concurrently: every transition is
    a rename, so racing reclaimers elect one winner.
    """
    now = time.time()
    reclaimed = 0
    for lease in sorted(paths.leases.glob("*.json")):
        try:
            unit = read_unit(lease)
        except ExecError:
            unit = None
        if unit is not None and result_matches_unit(
                load_unit_result(unit.result_path), unit):
            complete_lease(paths, lease)
            continue
        try:
            age = now - lease.stat().st_mtime
        except OSError:
            continue  # completed/reclaimed under us
        if age < lease_seconds:
            continue
        try:
            os.rename(lease,
                      paths.pending / f"{lease_unit_id(lease)}.json")
            reclaimed += 1
        except OSError:
            continue
    return reclaimed


@BACKENDS.register("queue", aliases=("directory-queue", "dirqueue"))
class DirectoryQueueBackend(ExecutionBackend):
    """Coordinator over a shared-filesystem queue (module docstring).

    Parameters
    ----------
    queue_dir:
        The queue root.  Every participating host must see it at the
        same path (unit documents carry absolute paths).
    workers:
        Local ``resim worker`` processes to spawn per drain; ``0``
        relies entirely on externally started workers (other
        terminals, other hosts).
    lease_seconds:
        Staleness horizon for crash recovery (see module docstring).
    poll_seconds:
        Coordinator polling cadence for result files.
    timeout:
        Raise :class:`ExecError` if no unit completes for this many
        seconds (None = wait forever; the right default when remote
        workers may come and go).
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        workers: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.1,
        timeout: float | None = None,
    ) -> None:
        super().__init__()
        if workers < 0:
            raise ExecError(f"workers must be >= 0, got {workers}")
        if lease_seconds <= 0:
            raise ExecError(
                f"lease_seconds must be positive, got {lease_seconds}")
        if poll_seconds <= 0:
            raise ExecError(
                f"poll_seconds must be positive, got {poll_seconds}")
        if timeout is not None and timeout <= 0:
            raise ExecError(
                f"timeout must be positive (or None to wait "
                f"forever), got {timeout}")
        self.queue_dir = Path(queue_dir).resolve()
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.timeout = timeout
        self._respawns_left = 0
        self._procs: list[subprocess.Popen] = []
        self._atexit_registered = False
        #: How long a coordinator-spawned worker keeps polling an
        #: empty queue before retiring.  Long enough that the small
        #: back-to-back batches of an adaptive search reuse the same
        #: worker processes (no interpreter restart per round), short
        #: enough that idle workers don't linger after a campaign.
        self.worker_idle_exit = 10.0

    # -- local worker processes ---------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        command = [
            sys.executable, "-m", "repro.exec",
            str(self.queue_dir),
            "--idle-exit", str(self.worker_idle_exit), "--quiet",
            "--lease-seconds", str(self.lease_seconds),
            "--poll-seconds", str(self.poll_seconds),
        ]
        # stdout swallowed (the exit summary must not interleave with
        # the coordinator's table output); stderr inherited so real
        # worker errors stay visible.
        return subprocess.Popen(command, stdout=subprocess.DEVNULL)

    def _ensure_worker_pool(self) -> None:
        """Top the persistent local pool back up to ``workers``.

        Workers are spawned with ``--idle-exit`` rather than
        ``--exit-when-drained`` so consecutive drains (an adaptive
        search's many small rounds) reuse live processes instead of
        paying interpreter startup per round; retired/dead ones are
        pruned and replaced here.
        """
        self._procs = [proc for proc in self._procs
                       if proc.poll() is None]
        while len(self._procs) < self.workers:
            self._procs.append(self._spawn_worker())
        if not self._atexit_registered:
            import atexit
            atexit.register(self.close)
            self._atexit_registered = True

    def close(self) -> None:
        """Terminate any locally spawned workers still running.

        Called automatically at interpreter exit (and on drain
        errors); idle workers also retire on their own after
        ``worker_idle_exit`` seconds, so calling this is optional.
        """
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()

    # -- drain ---------------------------------------------------------

    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        paths = queue_paths(self.queue_dir)
        results: dict[str, dict] = {}
        failures: list[tuple[WorkUnit, dict]] = []
        outstanding: dict[str, WorkUnit] = {}

        def collect(unit: WorkUnit, payload: dict) -> None:
            if "error" in payload:
                failures.append((unit, payload))
            else:
                results[unit.unit_id] = payload
            if on_result is not None:
                on_result(unit, payload)

        for unit in batch:
            payload = load_unit_result(unit.result_path)
            if payload is not None and "error" not in payload \
                    and result_matches_unit(payload, unit):
                # Already satisfied *by this exact unit* (a previous
                # drain, another coordinator, an eager worker):
                # deterministic units make reuse always correct.
                collect(unit, payload)
                continue
            if payload is not None:
                # The file holds either a stale error document (its
                # failure was reported then; re-submitting the unit
                # means the caller wants a retry — transient causes
                # like a missing mount get fixed between runs) or a
                # result from a *different* unit that happened to use
                # this path (e.g. a results directory reused after
                # its manifest was deleted).  Either way: clear the
                # document and its done marker and execute afresh —
                # reviving it would break the bit-identical contract.
                Path(unit.result_path).unlink(missing_ok=True)
                done_marker = paths.done / f"{unit.unit_id}.json"
                done_marker.unlink(missing_ok=True)
            enqueue(paths, unit)
            outstanding[unit.unit_id] = unit

        if outstanding and self.workers:
            # Spawn budget guard (reset per drain): a unit that
            # hard-crashes its worker (e.g. OOM kill) must not
            # respawn processes forever.
            self._respawns_left = 3 * self.workers
            self._ensure_worker_pool()
        try:
            self._poll(paths, outstanding, collect)
            if failures:
                unit, payload = failures[0]
                error = payload["error"]
                raise UnitExecutionError(
                    unit.unit_id, error.get("type", "Error"),
                    error.get("message", ""),
                    failed_units=len(failures))
        except BaseException:
            # Abandon the campaign's local workers on any error; on
            # success they stay warm for the next drain and retire
            # on their own once idle.
            self.close()
            raise
        return results

    def _poll(self, paths: QueuePaths,
              outstanding: dict[str, WorkUnit],
              collect: OnResult) -> None:
        last_progress = time.monotonic()
        last_full_scan = 0.0
        while outstanding:
            # Cheap completion signal first: one readdir of done/
            # instead of a read+parse per outstanding result path per
            # cycle (which hammers shared-mount metadata on big
            # grids).  A direct result-file sweep still runs about
            # once a second to catch results whose done marker is
            # delayed (e.g. an executor that died between its result
            # write and its lease rename, later completed by the
            # stale reclaim).
            candidates = {marker.name[:-len(".json")]
                          for marker in paths.done.glob("*.json")}
            now = time.monotonic()
            if now - last_full_scan >= 1.0:
                last_full_scan = now
                candidates = None  # sweep everything this cycle
            progressed = False
            for unit_id in list(outstanding):
                if candidates is not None and \
                        unit_id not in candidates:
                    continue
                unit = outstanding[unit_id]
                payload = load_unit_result(unit.result_path)
                if payload is None or \
                        not result_matches_unit(payload, unit):
                    continue  # not done yet (or a stale leftover a
                    #           worker is about to overwrite)
                if "error" in payload and \
                        self._lease_is_fresh(paths, unit_id):
                    # One executor reported failure while another
                    # still heartbeats a claim on the same unit (a
                    # stalled worker lost its lease and failed late):
                    # wait for the live retry's verdict instead of
                    # aborting the run on the loser's.
                    continue
                del outstanding[unit_id]
                collect(unit, payload)
                progressed = True
            if not outstanding:
                return
            if progressed:
                last_progress = time.monotonic()
                continue
            # No unit finished this pass: drive crash recovery, then
            # make sure somebody is still around to do the work.
            reclaim_stale(paths, self.lease_seconds)
            self._requeue_abandoned(paths, outstanding)
            self._ensure_workers(paths)
            if self.timeout is not None and \
                    time.monotonic() - last_progress > self.timeout:
                # A unit may have finished after this pass's scan (its
                # lease already completed, by its worker or by the
                # reclaim above): the next pass collects it.
                finished = any(
                    result_matches_unit(
                        load_unit_result(unit.result_path), unit)
                    for unit in outstanding.values())
                if finished or self._live_lease(paths):
                    # A worker is still heartbeating a claimed unit:
                    # slow is not dead.  Timeout only when nothing
                    # completes AND nobody is provably working.
                    last_progress = time.monotonic()
                else:
                    waiting = ", ".join(sorted(outstanding))
                    raise ExecError(
                        f"no unit completed within {self.timeout:.0f}s"
                        f" and no live worker holds a lease; still "
                        f"waiting for: {waiting} (queue "
                        f"{self.queue_dir}; are any workers running?)"
                    )
            time.sleep(self.poll_seconds)

    def _lease_is_fresh(self, paths: QueuePaths, unit_id: str) -> bool:
        """True while some claimant's lease on ``unit_id`` is fresher
        than the staleness horizon — i.e. a worker heartbeats it."""
        now = time.time()
        for lease in _leases_for(paths, unit_id):
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue
            if age < self.lease_seconds:
                return True
        return False

    def _live_lease(self, paths: QueuePaths) -> bool:
        """True while any claimed unit's lease is fresher than the
        staleness horizon — i.e. some worker heartbeats it."""
        now = time.time()
        # resim-lint: disable=D104 -- pure existence scan with early
        # exit; no iteration-order-dependent effect escapes.
        for lease in paths.leases.glob("*.json"):
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue
            if age < self.lease_seconds:
                return True
        return False

    @staticmethod
    def _requeue_abandoned(paths: QueuePaths,
                           outstanding: dict[str, WorkUnit]) -> None:
        """Re-enqueue units an executor gave up on.

        A ``done/`` marker without a valid result means a worker
        abandoned the unit (e.g. its queue descriptor was unreadable);
        the coordinator still holds the full unit in memory, so it
        rewrites a fresh descriptor instead of waiting forever.
        """
        for unit_id, unit in outstanding.items():
            marker = paths.done / f"{unit_id}.json"
            if not marker.exists():
                continue
            if result_matches_unit(load_unit_result(unit.result_path),
                                   unit):
                continue  # result is there; next pass collects it
            try:
                marker.unlink()
            except OSError:
                continue
            enqueue(paths, unit)

    def _ensure_workers(self, paths: QueuePaths) -> None:
        """Replace local workers that died while unclaimed work sits
        in ``pending/``.

        Only *pending* entries justify a respawn: leased units have a
        live claimant somewhere (and go back to pending via the stale
        reclaim if that claimant died), while an idle-retired local
        worker next to an empty pending directory needs no
        replacement.  The respawn budget bounds the pathological case
        of a unit that hard-crashes every executor it meets.
        """
        if not self.workers:
            return  # externally-managed workers; nothing to do
        if not any(paths.pending.glob("*.json")):
            return
        self._procs = [proc for proc in self._procs
                       if proc.poll() is None]
        while len(self._procs) < self.workers:
            if self._respawns_left <= 0:
                raise ExecError(
                    f"local queue workers keep dying with work "
                    f"outstanding; queue {self.queue_dir} likely has "
                    f"a unit that crashes its executor"
                )
            self._respawns_left -= 1
            self._procs.append(self._spawn_worker())

    def describe(self) -> str:
        return (f"DirectoryQueueBackend({str(self.queue_dir)!r}, "
                f"workers={self.workers})")

"""Executor backends of the window-shard runtime.

A :class:`WorkUnit` is one window's slice of a query batch; an
:class:`Executor` runs a list of them against a *shard state* — any
object exposing ``run_unit(unit) -> result`` — and returns the results
in unit order.  See :mod:`repro.runtime` for the protocol contract and
the window-affinity sharding rule.

This module holds the protocol, the two in-process backends
(:class:`SerialExecutor`, :class:`ThreadExecutor`) and the backend
registry; the one forked backend,
:class:`~repro.runtime.shm.ShmShardPool`, lives in
:mod:`repro.runtime.shm`.

Execution is **supervised**: every backend carries a
:class:`SupervisionConfig` (unit retries, an optional wall-clock unit
timeout, and a degradation ladder) and a :class:`FaultStats` counter
block.  Failures are handled where they happen — the forked pool
respawns a crashed or hung worker slot and re-dispatches only that
slot's unfinished units; the thread and serial backends retry the
failing unit inline — and only after ``max_retries`` consecutive
failures of the same unit does a backend walk one rung down the
degradation ladder (shm → thread → serial).  Results are
deterministic functions of the unit, so a retry is bit-safe, and
per-dispatch *tickets* discard any late result a killed worker managed
to emit.  Only when the serial rung itself fails does
:class:`~repro.errors.ExecutionError` reach the caller.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError, ValidationError, WorkerTimeoutError

logger = logging.getLogger("repro.runtime")

#: Auto-resolved worker counts are capped here; one worker per window
#: beyond this point just multiplies idle processes.
_DEFAULT_MAX_WORKERS = 8


@dataclass(frozen=True)
class WorkUnit:
    """One window's share of a query batch.

    ``rows`` are the positions of this unit's queries in the original
    batch (input order); executors never reorder results, so the
    scheduler can scatter ``result[i]`` straight back to ``rows`` of
    unit ``i``.  ``params`` must stay picklable — the forked pool ships
    them to its workers through a queue.
    """

    window: int                 # serving window id (shard affinity key)
    rows: np.ndarray            # (R,) input-order row positions
    kind: str                   # "knn" | "range"
    queries: np.ndarray         # (R, 3) this unit's queries
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-handling knobs shared by every executor backend.

    ``unit_timeout`` is the wall-clock budget (seconds) one work unit
    may spend on a worker before the worker is presumed hung — the
    forked pool kills and respawns the slot, the thread pool abandons
    the future; ``None`` disables hang detection (worker *death* is
    always detected).  ``max_retries`` bounds how many times one unit
    is re-dispatched on the *same* backend after a crash, hang, or
    in-unit exception before the backend walks the degradation ladder.
    ``degradation`` enables that ladder (shm → thread → serial; the
    forked pool also takes its first step when staging a batch's
    shared-memory segments fails); with it off, an exhausted unit raises
    :class:`~repro.errors.ExecutionError` immediately.
    """

    unit_timeout: Optional[float] = None
    max_retries: int = 2
    degradation: bool = True

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ValidationError(
                f"unit_timeout must be positive, got {self.unit_timeout}")
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be non-negative, got {self.max_retries}")


@dataclass
class FaultStats:
    """Recovery counters over an executor's lifetime.

    ``retries`` counts unit re-dispatches after any failure,
    ``respawns`` counts worker slots re-forked after a crash or hang,
    ``timeouts`` counts unit-timeout expiries, and ``degradations``
    records each ladder step taken (``"shm->thread"``, then
    ``"thread->serial"``), in order.  A degraded backend shares this
    object with its replacement, so the counters always describe the
    whole ladder.
    """

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degradations: List[str] = field(default_factory=list)

    def snapshot(self) -> tuple:
        """A comparable value snapshot: (retries, respawns, timeouts,
        ladder steps taken)."""
        return (self.retries, self.respawns, self.timeouts,
                len(self.degradations))


@dataclass
class RuntimeStats:
    """Data-movement / overlap counters over an executor's lifetime.

    The observability companion of :class:`FaultStats`, fed by the
    shared-memory backend (:class:`repro.runtime.shm.ShmShardPool`),
    the repair/query pipelining in
    :class:`~repro.runtime.scheduler.WindowScheduler`, and the bucketed
    grouping path in :mod:`repro.core.cotraining`:

    - ``state_bytes_shipped`` — bytes written into shared-memory
      segments (the only state that ever moves; a clean window ships 0).
    - ``forks_avoided`` — worker slots that survived a
      ``reset_workers`` / ``invalidate_windows`` because invalidation
      was a registry version bump instead of a teardown.
    - ``segments_live`` — gauge: shared segments currently allocated.
    - ``overlap_windows`` — dirty windows whose repair overlapped the
      execution of clean-window units (pipelined plan execution).
    - ``queue_fallback_units`` — units whose results rode the pickle
      queue because no shared output reservation fit (traced units,
      uncapped range queries, fused arena units).
    - ``bucket_sizes`` — histogram ``{group size: rows}`` of bucketed
      group batches (skew visibility for the grouping hot path).
    - ``arena_launches`` — fused arena traversals launched by the
      scheduler (each replaces ``group size`` per-window launches).
    - ``arena_units_fused`` — histogram ``{group size: launches}`` of
      arena fusion (the companion of ``bucket_sizes`` for the
      multi-window traversal arena).
    - ``arena_bytes_viewed`` — packed node bytes the fused launches
      viewed (window tree bytes, counted once per launch per member).
    """

    state_bytes_shipped: int = 0
    forks_avoided: int = 0
    segments_live: int = 0
    overlap_windows: int = 0
    queue_fallback_units: int = 0
    bucket_sizes: Dict[int, int] = field(default_factory=dict)
    arena_launches: int = 0
    arena_units_fused: Dict[int, int] = field(default_factory=dict)
    arena_bytes_viewed: int = 0

    def record_buckets(self, histogram: Dict[int, int]) -> None:
        """Merge one batch's ``{group size: rows}`` histogram."""
        for size, rows in histogram.items():
            key = int(size)
            self.bucket_sizes[key] = self.bucket_sizes.get(key, 0) \
                + int(rows)

    def record_fusion(self, group_size: int, bytes_viewed: int = 0) -> None:
        """Account one arena launch fusing *group_size* units."""
        self.arena_launches += 1
        key = int(group_size)
        self.arena_units_fused[key] = self.arena_units_fused.get(key, 0) + 1
        self.arena_bytes_viewed += int(bytes_viewed)

    def record_fused_sizes(self, histogram: Dict[int, int]) -> None:
        """Merge an ``{group size: launches}`` fusion histogram."""
        for size, launches in histogram.items():
            key = int(size)
            self.arena_units_fused[key] = \
                self.arena_units_fused.get(key, 0) + int(launches)

    def snapshot(self) -> Dict[str, Any]:
        """A value snapshot for per-frame delta accounting."""
        return {
            "state_bytes_shipped": self.state_bytes_shipped,
            "forks_avoided": self.forks_avoided,
            "segments_live": self.segments_live,
            "overlap_windows": self.overlap_windows,
            "queue_fallback_units": self.queue_fallback_units,
            "bucket_sizes": dict(self.bucket_sizes),
            "arena_launches": self.arena_launches,
            "arena_units_fused": dict(self.arena_units_fused),
            "arena_bytes_viewed": self.arena_bytes_viewed,
        }

    @staticmethod
    def delta(new: Dict[str, Any], old: Dict[str, Any]) -> Dict[str, Any]:
        """Per-frame view between two :meth:`snapshot` values.

        Counters are differenced; ``segments_live`` is a gauge and
        reports the current level; the two histograms are differenced
        per group size (sizes whose count did not grow are omitted).
        """
        out: Dict[str, Any] = {}
        for key in ("state_bytes_shipped", "forks_avoided",
                    "overlap_windows", "queue_fallback_units",
                    "arena_launches", "arena_bytes_viewed"):
            out[key] = int(new[key]) - int(old[key])
        out["segments_live"] = int(new["segments_live"])
        for key in ("bucket_sizes", "arena_units_fused"):
            old_hist = old.get(key, {})
            hist = {}
            for size, value in new.get(key, {}).items():
                grown = int(value) - int(old_hist.get(size, 0))
                if grown > 0:
                    hist[int(size)] = grown
            out[key] = hist
        return out


def resolve_worker_count(n_workers: Optional[int]) -> int:
    """Explicit count, or ``cpu_count`` capped at a small ceiling."""
    if n_workers is not None:
        if int(n_workers) <= 0:
            raise ValidationError("executor worker count must be positive")
        return int(n_workers)
    return max(1, min(os.cpu_count() or 1, _DEFAULT_MAX_WORKERS))


def _non_retryable(exc: BaseException) -> bool:
    """Deterministic input-contract violations must not be retried —
    the same bad unit fails the same way on every backend, and callers
    rely on seeing the original :class:`ValidationError`."""
    return isinstance(exc, ValidationError)


def run_unit_supervised(state, unit: WorkUnit,
                        supervision: SupervisionConfig,
                        fault_stats: FaultStats):
    """Run one unit inline with bounded retries (the serial rung).

    Retries transient failures up to ``max_retries`` times and raises
    :class:`~repro.errors.ExecutionError` (chaining the last failure)
    when the unit never succeeds.  :class:`ValidationError` passes
    through untouched — deterministic input errors are not faults.
    """
    attempts = supervision.max_retries + 1
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return state.run_unit(unit)
        except Exception as exc:
            if _non_retryable(exc):
                raise
            last = exc
            if attempt + 1 < attempts:
                fault_stats.retries += 1
                logger.warning(
                    "unit (window %d, %s) failed inline (%s: %s); "
                    "retry %d/%d", unit.window, unit.kind,
                    type(exc).__name__, exc, attempt + 1, attempts - 1)
    raise ExecutionError(
        f"work unit for window {unit.window} failed after {attempts} "
        f"attempt(s): {type(last).__name__}: {last}") from last


class Executor:
    """Protocol base: run work units against a bound shard state."""

    name = "base"

    def __init__(self, supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.fault_stats = fault_stats if fault_stats is not None \
            else FaultStats()
        self.runtime_stats = RuntimeStats()

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Execute *units*, returning their results in unit order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def reset_workers(self) -> None:
        """The whole shard state changed in place: drop any worker-side
        copy of it.

        Backends that read the live state on every unit (serial, thread)
        need do nothing; the forked pool marks every exported window
        stale so the next batch re-exports it (a version bump — workers
        stay resident).  Called by frame-streaming state owners
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`)
        after mutating state in place, keeping the executor — and any
        live worker pool — warm across frames.
        """

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Only *windows*' state changed: drop worker-side copies of
        those windows alone.

        The per-window refinement of :meth:`reset_workers`: streaming
        state owners that know exactly which windows' state changed
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`'s
        dirty-window fast path) call this so *clean* windows keep their
        exported state.  Backends that read live state need do nothing;
        the forked pool version-bumps only these windows' segments.
        """

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* permanently: their state will never be
        queried again (a streaming tenant detached).  Backends holding
        per-window resources (the shared-memory registry) free them
        here; the default treats retirement as invalidation.
        """
        self.invalidate_windows(windows)

    def fusion_slot(self, window: int) -> Optional[int]:
        """Arena-fusion eligibility: the dispatch slot *window* runs on.

        The scheduler may fuse compatible per-window units into one
        arena unit only when their windows report the **same** slot: a
        fused unit is dispatched — and its state invalidated — as a
        single unit pinned to its first member's window, so windows
        that live on different worker slots must never share one.
        ``None`` opts the backend out of fusion entirely; the default
        is conservative because the base class cannot know the
        backend's affinity scheme.
        """
        return None

    @property
    def effective(self) -> str:
        """The backend actually in force (differs under fallback)."""
        return self.name


class SerialExecutor(Executor):
    """Reference backend: an inline loop over the units.

    The last rung of the degradation ladder: failures are retried up to
    ``max_retries`` times, then raised as
    :class:`~repro.errors.ExecutionError`.
    """

    name = "serial"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        super().__init__(supervision, fault_stats)
        self._state = state

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        return [run_unit_supervised(self._state, unit, self.supervision,
                                    self.fault_stats)
                for unit in units]

    def fusion_slot(self, window: int) -> Optional[int]:
        """Everything runs inline — one slot, maximal fusion."""
        return 0


class ThreadExecutor(Executor):
    """``ThreadPoolExecutor``-backed backend (shared address space).

    Degrades to an inline serial loop — reported through
    :attr:`effective` and a logged warning, mirroring
    :class:`~repro.runtime.shm.ShmShardPool` — when the worker count
    resolves to ≤ 1.
    (Single-unit batches also run inline, but that is a per-call
    shortcut with identical semantics, not a backend fallback, so it
    does not change ``effective``.)

    Supervision: an in-unit exception is retried on a fresh pool slot;
    with ``unit_timeout`` set, a future that never resolves in time is
    abandoned (a thread cannot be killed — the orphaned slot is logged)
    and the unit retried.  After ``max_retries`` consecutive failures
    of one unit the whole backend degrades to the serial rung for the
    remaining units and every later batch.
    """

    name = "thread"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        super().__init__(supervision, fault_stats)
        self._state = state
        self._n_workers = resolve_worker_count(n_workers)
        self._pool = None
        self._degraded: Optional[SerialExecutor] = None
        if self._n_workers <= 1:
            logger.warning(
                "ThreadExecutor: worker count resolved to <= 1; "
                "running units inline (serial)")

    @property
    def effective(self) -> str:
        if self._degraded is not None or self._n_workers <= 1:
            return "serial"
        return "thread"

    def _degrade(self, detail: str) -> SerialExecutor:
        step = "thread->serial"
        logger.warning(
            "ThreadExecutor: degrading to serial execution (%s)", detail)
        self.fault_stats.degradations.append(step)
        self._degraded = SerialExecutor(
            self._state, supervision=self.supervision,
            fault_stats=self.fault_stats)
        return self._degraded

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if self._degraded is not None:
            return self._degraded.run(units)
        if self._n_workers <= 1 or len(units) <= 1:
            return [run_unit_supervised(self._state, unit,
                                        self.supervision, self.fault_stats)
                    for unit in units]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._n_workers,
                thread_name_prefix="repro-runtime")
        from concurrent.futures import TimeoutError as FuturesTimeout

        sup = self.supervision
        results: List[Any] = [_PENDING] * len(units)
        attempts = [1] * len(units)
        pending = {i: self._pool.submit(self._state.run_unit, unit)
                   for i, unit in enumerate(units)}
        while pending:
            for i in sorted(pending):
                future = pending[i]
                try:
                    results[i] = future.result(timeout=sup.unit_timeout)
                    del pending[i]
                    continue
                except (FuturesTimeout, TimeoutError):
                    self.fault_stats.timeouts += 1
                    future.cancel()
                    failure: BaseException = WorkerTimeoutError(
                        f"unit for window {units[i].window} exceeded the "
                        f"{sup.unit_timeout}s unit timeout on a worker "
                        "thread (thread abandoned)")
                except Exception as exc:
                    if _non_retryable(exc):
                        raise
                    failure = exc
                if attempts[i] <= sup.max_retries:
                    attempts[i] += 1
                    self.fault_stats.retries += 1
                    logger.warning(
                        "ThreadExecutor: unit (window %d) failed "
                        "(%s: %s); retry %d/%d", units[i].window,
                        type(failure).__name__, failure,
                        attempts[i] - 1, sup.max_retries)
                    pending[i] = self._pool.submit(
                        self._state.run_unit, units[i])
                    continue
                if not sup.degradation:
                    raise ExecutionError(
                        f"work unit for window {units[i].window} failed "
                        f"after {attempts[i]} attempt(s) on the thread "
                        f"backend: {failure}") from failure
                serial = self._degrade(
                    f"unit for window {units[i].window} failed "
                    f"{attempts[i]} time(s): {failure}")
                todo = sorted(pending)
                for j in todo:
                    pending[j].cancel()
                pending.clear()
                finished = serial.run([units[j] for j in todo])
                for j, value in zip(todo, finished):
                    results[j] = value
                break
        return results

    def fusion_slot(self, window: int) -> Optional[int]:
        """Threads read live state, so any grouping is *correct*; fuse
        per worker-count stripes to keep pool parallelism while still
        amortizing the per-window launch cost within each stripe."""
        if self._degraded is not None or self._n_workers <= 1:
            return 0
        return int(window) % self._n_workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


#: Sentinel distinguishing "no result yet" from a legitimate ``None``
#: result a custom shard state might return.
_PENDING = object()


#: Registry of named backends; new backends may be added here or passed
#: directly (class / factory / instance) as the ``executor=`` knob.
EXECUTOR_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
}


def resolve_executor(spec, state, n_workers: Optional[int] = None,
                     supervision: Optional[SupervisionConfig] = None
                     ) -> Executor:
    """Turn an ``executor=`` knob value into a bound :class:`Executor`.

    *spec* may be a backend name from :data:`EXECUTOR_BACKENDS`, an
    :class:`Executor` instance (used as-is — the caller already bound
    it), a factory callable ``(state, n_workers) -> Executor`` (called
    exactly once; anything it raises surfaces unchanged), or ``None``
    (serial).  Registered backends are called as ``backend(state,
    n_workers, supervision=...)``.  *supervision* (when given) is
    applied to the resolved backend — factories and instances that
    pre-configured their own supervision keep it only if none is
    passed here.
    """
    if isinstance(spec, Executor):
        return _supervise(spec, supervision)
    if spec is None:
        return SerialExecutor(state, supervision=supervision)
    if callable(spec) and spec not in EXECUTOR_BACKENDS.values():
        return _supervise(spec(state, n_workers), supervision)
    try:
        backend = EXECUTOR_BACKENDS[spec] if not callable(spec) else spec
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown executor {spec!r}; options: "
            f"{sorted(EXECUTOR_BACKENDS)} or an Executor instance"
        ) from None
    return backend(state, n_workers, supervision=supervision)


def _supervise(executor, supervision: Optional[SupervisionConfig]):
    """Attach *supervision* (and a stats block) to a resolved backend."""
    if supervision is not None:
        try:
            executor.supervision = supervision
        except AttributeError:
            pass
    if getattr(executor, "supervision", None) is None:
        executor.supervision = SupervisionConfig()
    if getattr(executor, "fault_stats", None) is None:
        executor.fault_stats = FaultStats()
    if getattr(executor, "runtime_stats", None) is None:
        executor.runtime_stats = RuntimeStats()
    return executor

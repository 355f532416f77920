"""Pluggable window-shard execution runtime.

Per-window neighbour-search batches are independent units of work: PR 1's
window-grouped dispatch made each window's sub-batch a single kd-tree
call, and this package separates *what* a window needs (a
:class:`~repro.runtime.executor.WorkUnit`) from *where* it runs (an
:class:`~repro.runtime.executor.Executor` backend).  Everything that used
to loop over windows inline — :class:`repro.spatial.neighbors.ChunkedIndex`,
:class:`repro.core.cotraining.GroupingContext`,
:class:`repro.core.splitting.CompulsorySplitter` — now *emits* work units
and delegates execution to a :class:`~repro.runtime.scheduler.WindowScheduler`.

The Executor protocol
---------------------
An executor backend is an object bound to a *shard state* (anything with
``run_unit(unit) -> result`` and ``window_is_empty(window) -> bool``)
that implements:

* ``run(units) -> list`` — execute a list of work units and return their
  results **in unit order** (the scheduler relies on this to scatter
  results back in input order);
* ``close()`` — release worker resources (idempotent);
* ``reset_workers()`` — the shard state was mutated in place: drop
  any worker-side copy of it while keeping the executor itself warm (a
  no-op for backends that read live state; the forked pool marks every
  exported window stale, a version bump).  Frame-streaming callers
  invoke this after mutating shard state;
* ``invalidate_windows(windows)`` — the per-window refinement of
  ``reset_workers``: only the given windows changed (the forked pool
  version-bumps just their segments).  Streaming callers with
  dirty-window tracking use this so clean windows' state never moves;
* ``name`` / ``effective`` — the requested backend name and the backend
  actually in force (they differ when a backend had to fall back);
* ``fusion_slot(window) -> Optional[int]`` — arena-fusion eligibility:
  the dispatch slot *window*'s units run on.  The scheduler fuses
  compatible per-window units into one multi-window
  :class:`~repro.spatial.kdtree.TraversalArena` launch only when their
  windows share a slot, so fused units respect worker affinity and
  per-slot invalidation exactly like per-window ones.  ``None`` (the
  base default) opts a backend out of fusion.

Arena fusion (one lockstep launch per batch)
--------------------------------------------
There is one lockstep traversal path: a
:class:`~repro.spatial.kdtree.TraversalArena`.  A single window's
lockstep batch is a one-member arena, and fusion is how the scheduler
always dispatches: every dispatch fuses compatible per-window units —
same kind and parameters, untraced, resolving to the traverse engine,
on the same executor slot — into single ``fused_knn`` /
``fused_range`` units whose queries run as *lanes* of one lockstep
traversal over the concatenated node arrays of all member windows.
The interpreter's fixed numpy cost per traversal iteration is paid
once per fused batch instead of once per window, which is the paper's
parallel traversal-unit dispatch amortized in software.  Results are
scattered back per member before anyone above the scheduler sees them,
and are **bit-equal** to each window's scalar per-query kernel on
every backend; the result cache, retry/ticket supervision and
pipelined-repair barriers are untouched.
:class:`~repro.runtime.executor.RuntimeStats` counts
``arena_launches`` / ``arena_units_fused`` / ``arena_bytes_viewed``.

Four interchangeable backends ship with the runtime:

* :class:`~repro.runtime.executor.SerialExecutor` (``"serial"``) — an
  inline loop, the reference backend;
* :class:`~repro.runtime.executor.ThreadExecutor` (``"thread"``) — a
  ``concurrent.futures.ThreadPoolExecutor``; wins when the per-window
  kernels release the GIL (the vectorized scan / lockstep engines);
* :class:`~repro.runtime.shm.ShmShardPool` (``"shm"``) — the one forked
  pool: supervised worker processes attached to shared-memory shard
  state.  Window kd-trees live in ``multiprocessing.shared_memory``
  segments under a versioned registry, workers **attach** instead of
  re-forking when state changes, query blocks ship through one shared
  input segment per batch, and fixed-width results come back through
  preallocated shared output reservations.  ``reset_workers`` /
  ``invalidate_windows`` are registry version bumps (dirty windows are
  rewritten in place; :class:`~repro.runtime.executor.RuntimeStats`
  counts the forks avoided and bytes shipped), and every segment is
  unlinked on ``close()`` / ``terminate_workers()`` / interpreter exit
  — no ``/dev/shm`` leaks.  The shard state must export its window
  trees (``shm_export_window``); one that does not runs on the thread
  backend instead (``effective == "thread"``);
* :class:`~repro.runtime.fleet.ShardFleet` (``"fleet"``) — the
  **multi-tenant** backend: sessions acquire a
  :class:`~repro.runtime.fleet.FleetLease` on one process-global
  supervised worker set (an ``shm`` pool by default) instead of
  constructing a pool of their own.  Unit window ids are rewritten
  into per-session namespaces
  (:func:`~repro.runtime.fleet.namespaced_window`), so the segment
  registry, worker affinity, and fault targeting key on
  ``(session_id, window)`` and tenants can never touch each other's
  state; cross-tenant dispatch is EDF-ordered by each batch's
  calibrated step budget, with admission control
  (:class:`~repro.runtime.fleet.FleetConfig`: ``max_sessions``,
  per-tenant in-flight caps, shed-or-queue) and exact per-tenant
  ``FaultStats`` / ``RuntimeStats`` attribution.

The window-affinity sharding rule
---------------------------------
:class:`~repro.runtime.shm.ShmShardPool` pins window ``w`` to worker
``w % n_workers``: every unit for a given window always lands on the
same process, so a worker only ever attaches (and caches the rebuilt
trees of) *its* windows and repeated batches reuse them.  Results are
matched back to units by sequence number, preserving the two batch
invariants — input-order stability of scattered results and
step-count parity with the per-query reference — for every backend.

Supervision and the degradation ladder
--------------------------------------
Every backend executes under a
:class:`~repro.runtime.executor.SupervisionConfig`: in-unit exceptions
are retried (``max_retries``) on the same backend — deterministic
results make retries bit-safe — and the forked pool additionally
detects worker *death* and, when ``unit_timeout`` is set, worker
*hangs*, recovering by killing and respawning only the affected slot
and re-dispatching that slot's unfinished units (per-dispatch tickets
discard anything the killed worker still emitted).  Only after a unit
exhausts its retries — or the forked pool fails to stage a batch's
shared-memory segments — does the backend walk the degradation ladder
— shm → thread → serial, each rung logged and recorded in
:class:`~repro.runtime.executor.FaultStats` — and only a failure on
the serial rung raises :class:`~repro.errors.ExecutionError`.
Deterministic input errors (:class:`~repro.errors.ValidationError`)
are never retried.  :mod:`repro.runtime.faults` provides a seeded
deterministic fault injector for exercising all of these paths.

Adding a backend
----------------
Subclass :class:`~repro.runtime.executor.Executor`, accept
``(state, n_workers=None, supervision=None, fault_stats=None)`` in the
constructor, implement ``run`` / ``close``, and either register the
class in :data:`~repro.runtime.executor.EXECUTOR_BACKENDS` under a new
name (it is then called as ``backend(state, n_workers,
supervision=...)``) or pass a ready instance directly as the
``executor=`` knob.  Any other callable is a *factory*: it is called
exactly once as ``factory(state, n_workers)`` and must return an
:class:`Executor`; an exception it raises (``TypeError`` included)
surfaces unchanged.  :meth:`repro.runtime.faults.FaultInjector.executor`
and :class:`~repro.runtime.fleet.ShardFleet` instances are factories.
"""

from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    FaultStats,
    RuntimeStats,
    SerialExecutor,
    SupervisionConfig,
    ThreadExecutor,
    WorkUnit,
    resolve_executor,
    resolve_worker_count,
    run_unit_supervised,
)
from repro.runtime.shm import ShmShardPool
from repro.runtime.fleet import (
    FleetConfig,
    FleetLease,
    ShardFleet,
    namespaced_window,
    reset_shared_fleet,
    shared_fleet,
    split_namespaced,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FaultyState,
    InjectedFaultError,
)
from repro.runtime.scheduler import (
    SingleWindowState,
    WeakShardState,
    WindowScheduler,
    fusion_signature,
    run_fused_unit,
    run_tree_unit,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "FaultStats",
    "RuntimeStats",
    "SerialExecutor",
    "ShmShardPool",
    "SupervisionConfig",
    "ThreadExecutor",
    "WorkUnit",
    "resolve_executor",
    "resolve_worker_count",
    "run_unit_supervised",
    "FleetConfig",
    "FleetLease",
    "ShardFleet",
    "namespaced_window",
    "reset_shared_fleet",
    "shared_fleet",
    "split_namespaced",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultyState",
    "InjectedFaultError",
    "SingleWindowState",
    "WeakShardState",
    "WindowScheduler",
    "fusion_signature",
    "run_fused_unit",
    "run_tree_unit",
]

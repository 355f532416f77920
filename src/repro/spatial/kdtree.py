"""A from-scratch kd-tree with step accounting and capped traversal.

This is the data structure at the center of the paper's *deterministic
termination* technique (Sec. 4.2): canonical kd-tree search takes an
input-dependent number of traversal steps (the paper profiles mean 8.4e3,
std 6.8e3 steps on KITTI at k=32), and StreamGrid caps every query at a
fixed step "deadline", returning the best-so-far neighbours.

Every query here therefore reports:

* ``steps`` — the number of tree nodes visited,
* ``trace`` — the visited node indices in order (drives the banked-SRAM
  conflict model in :mod:`repro.sim.memory`),
* ``terminated`` — whether the deadline expired before the search finished.

Batched engine (the grouping hot path)
--------------------------------------
:meth:`KDTree.knn_batch` / :meth:`KDTree.range_batch` answer a whole
``(Q, 3)`` query block at once, filling preallocated ``(Q, k)`` index /
distance arrays.  Two engines back them:

* ``"traverse"`` — the canonical node-by-node search.  Untraced batches
  of at least 32 queries run on the *lockstep* kernel, which advances
  every query's explicit traversal stack together with numpy array
  operations per iteration.  There is one lockstep path: the tree runs
  as a one-member :class:`TraversalArena`, the same arena the runtime
  scheduler fuses several windows into.  Everything else runs a scalar
  inner loop over packed Python tuples (no per-node numpy boxing).
  Either way, ``indices``, ``distances``, ``steps``, ``trace`` and
  ``terminated`` are *identical* to the per-query :meth:`knn` /
  :meth:`range_search` path: step accounting is the paper's core
  contribution and must not drift between the batched and per-query
  code paths.
* ``"scan"`` — a vectorized brute-force distance matrix, used when the
  tree is small enough that a full scan beats traversal.  It returns the
  same neighbours as an *uncapped* traversal (exact-tie ordering is by
  ascending point index), reports ``steps = len(tree)`` per query (a
  scan honestly visits every point) and never terminates early.  It is
  therefore only eligible when ``max_steps is None`` and no trace is
  requested.

``engine="auto"`` (the default) picks ``"scan"`` whenever it is
eligible, falling back to ``"traverse"`` otherwise — deterministic
termination always runs a real traversal.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError

_INF = float("inf")

# A full scan beats the Python traversal loop comfortably until the
# O(N log N) per-query sort dominates; beyond this point count the
# traversal engine takes over.
_DEFAULT_SCAN_MAX_POINTS = 262_144
# Pairwise-distance blocks are capped at ~4M float64 entries (~32 MB).
_DEFAULT_SCAN_BLOCK_ELEMS = 1 << 22


def _positive_int(name: str, value) -> int:
    if isinstance(value, (bool, float)):
        raise ValidationError(
            f"{name} must be a positive integer, got {value!r}")
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a positive integer, got {value!r}") from None
    if parsed <= 0:
        raise ValidationError(
            f"{name} must be a positive integer, got {value!r}")
    return parsed


def _env_tuning(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None:
        return default
    return _positive_int(env, raw)


# Live engine crossovers.  Initialised from the environment
# (REPRO_SCAN_MAX_POINTS / REPRO_SCAN_BLOCK_ELEMS) and adjustable per
# process through :func:`set_engine_tuning` — e.g. from
# ``StreamGridConfig(scan_max_points=..., scan_block_elems=...)``.
_SCAN_MAX_POINTS = _env_tuning("REPRO_SCAN_MAX_POINTS",
                               _DEFAULT_SCAN_MAX_POINTS)
_SCAN_BLOCK_ELEMS = _env_tuning("REPRO_SCAN_BLOCK_ELEMS",
                                _DEFAULT_SCAN_BLOCK_ELEMS)
# The lockstep engine pays a fixed numpy cost per traversal iteration;
# below this many queries the scalar kernel amortizes better.
_LOCKSTEP_MIN_QUERIES = 32


def engine_tuning() -> Dict[str, int]:
    """The live scan/traverse crossover knobs.

    ``scan_max_points`` is the tree size up to which ``engine="auto"``
    prefers the brute-force scan for uncapped, untraced batches;
    ``scan_block_elems`` bounds the working-set element count of every
    blocked engine (scan distance matrices and lockstep stacks alike).
    Both knobs only affect engine *selection and blocking* — results
    are bit-identical at any setting.
    """
    return {"scan_max_points": _SCAN_MAX_POINTS,
            "scan_block_elems": _SCAN_BLOCK_ELEMS}


def set_engine_tuning(scan_max_points: Optional[int] = None,
                      scan_block_elems: Optional[int] = None) -> None:
    """Override the engine crossovers process-wide (validated).

    ``None`` leaves a knob untouched; :func:`reset_engine_tuning`
    restores the environment/default values.
    """
    global _SCAN_MAX_POINTS, _SCAN_BLOCK_ELEMS
    if scan_max_points is not None:
        _SCAN_MAX_POINTS = _positive_int("scan_max_points",
                                         scan_max_points)
    if scan_block_elems is not None:
        _SCAN_BLOCK_ELEMS = _positive_int("scan_block_elems",
                                          scan_block_elems)


def reset_engine_tuning() -> None:
    """Restore the engine crossovers to their env/default values."""
    global _SCAN_MAX_POINTS, _SCAN_BLOCK_ELEMS
    _SCAN_MAX_POINTS = _env_tuning("REPRO_SCAN_MAX_POINTS",
                                   _DEFAULT_SCAN_MAX_POINTS)
    _SCAN_BLOCK_ELEMS = _env_tuning("REPRO_SCAN_BLOCK_ELEMS",
                                    _DEFAULT_SCAN_BLOCK_ELEMS)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a single kNN or range query."""

    indices: np.ndarray        # neighbour indices into the original points
    distances: np.ndarray      # matching Euclidean distances
    steps: int                 # nodes visited
    terminated: bool           # True when stopped by the step deadline
    trace: List[int] = field(default_factory=list)   # visited node ids


@dataclass(frozen=True)
class BatchQueryResult:
    """Outcome of a batch of queries in preallocated ``(Q, C)`` arrays.

    ``indices[i, :counts[i]]`` / ``distances[i, :counts[i]]`` are row
    *i*'s valid results (closest first); padding is ``-1`` / ``inf``.
    ``steps`` / ``terminated`` carry the per-query traversal accounting
    (for the scan engine, ``steps`` is the point count and
    ``terminated`` is always False).  ``traces`` is only present when
    traces were recorded (traversal engine).
    """

    indices: np.ndarray        # (Q, C) int64, -1 padded
    distances: np.ndarray      # (Q, C) float64, +inf padded
    counts: np.ndarray         # (Q,) valid entries per row
    steps: np.ndarray          # (Q,) nodes visited per query
    terminated: np.ndarray     # (Q,) deadline flags
    traces: Optional[List[List[int]]] = None

    @classmethod
    def empty(cls, n_queries: int = 0, width: int = 0
              ) -> "BatchQueryResult":
        """A well-formed all-padding result: ``n_queries`` rows, each
        with zero valid entries, zero steps, and no termination.

        The batch analogue of the empty :class:`QueryResult` an empty
        window returns — streaming callers use it for frames with no
        points (:meth:`repro.streaming.StreamSession.process`).
        """
        if n_queries < 0 or width < 0:
            raise ValidationError(
                "empty batch dimensions must be non-negative")
        return cls(np.full((n_queries, width), -1, dtype=np.int64),
                   np.full((n_queries, width), np.inf, dtype=np.float64),
                   np.zeros(n_queries, dtype=np.int64),
                   np.zeros(n_queries, dtype=np.int64),
                   np.zeros(n_queries, dtype=bool))

    def row(self, i: int) -> QueryResult:
        """Row *i* as a per-query :class:`QueryResult` (trimmed)."""
        c = int(self.counts[i])
        trace = list(self.traces[i]) if self.traces is not None else []
        return QueryResult(self.indices[i, :c].copy(),
                           self.distances[i, :c].copy(),
                           int(self.steps[i]), bool(self.terminated[i]),
                           trace)


# ----------------------------------------------------------------------
# Scalar traversal kernels
# ----------------------------------------------------------------------
# These loops run once per visited node, so they deliberately avoid all
# numpy calls: coordinates, child links and split planes live in flat
# Python lists and the arithmetic is plain-float.  The control flow is a
# line-for-line match of the original per-node numpy implementation —
# the comparisons happen in the same (unsquared) distance domain so the
# visit order, step counts and termination points are unchanged.

def _knn_traverse(qx, qy, qz, k, max_steps, trace, root, node_data):
    """One capped kNN traversal; returns (heap of (-d², idx), steps,
    terminated).

    All comparisons run in the squared-distance domain (squaring is
    monotone, so the heap ordering, pruning decisions and therefore the
    visit sequence are unchanged); square roots are taken once on the
    final results.  The near child is descended directly (instead of a
    push/pop pair): its split distance is 0, so its prune test can never
    fire.  Absent (-1) children are never pushed.  All three changes
    preserve the visit sequence, step counts and termination points of
    the canonical node-by-node search exactly.
    """
    heap: list = []
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    steps = 0
    cap = max_steps if max_steps is not None else _INF
    q = (qx, qy, qz)
    heap_len = 0
    # Cached k-th best squared distance (inf until the heap is full) —
    # updated on every heap mutation, so it equals -heap[0][0] when full.
    # It is non-increasing once the heap is full, which licenses the
    # push-time far-child filter below: a far child whose split distance
    # already exceeds `worst` can only be pruned harder at pop time, so
    # skipping its push drops zero visits from the sequence.
    worst = _INF
    # Stack of (far child, squared split distance).
    stack = [(root, 0.0)]
    pop = stack.pop
    push = stack.append
    record = trace.append if trace is not None else None
    while stack:
        node, split_d2 = pop()
        # Prune: the far subtree cannot contain anything closer.
        if split_d2 > worst:
            continue
        while True:
            if steps >= cap:
                return heap, steps, True
            steps += 1
            if record is not None:
                record(node)
            axis, left, right, pidx, x, y, z, split = node_data[node]
            dx = x - qx
            dy = y - qy
            dz = z - qz
            d2 = dx * dx + dy * dy + dz * dz
            if heap_len < k:
                heappush(heap, (-d2, pidx))
                heap_len += 1
                if heap_len == k:
                    worst = -heap[0][0]
            elif d2 < worst:
                heapreplace(heap, (-d2, pidx))
                worst = -heap[0][0]
            diff = q[axis] - split
            if diff < 0:
                near = left
                far = right
            else:
                near = right
                far = left
            if far != -1:
                f2 = diff * diff
                if f2 <= worst:
                    push((far, f2))
            if near == -1:
                break
            node = near
    return heap, steps, False


def _range_traverse(qx, qy, qz, radius, max_steps, trace, found,
                    root, node_data):
    """One capped ball-query traversal; appends (d², idx) to *found*.

    Comparisons run in the squared-distance domain (see
    :func:`_knn_traverse`); callers take square roots on the hits.
    """
    steps = 0
    cap = max_steps if max_steps is not None else _INF
    r2 = radius * radius
    q = (qx, qy, qz)
    hit = found.append
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        while True:
            if steps >= cap:
                return steps, True
            steps += 1
            if trace is not None:
                trace.append(node)
            axis, left, right, pidx, x, y, z, split = node_data[node]
            dx = x - qx
            dy = y - qy
            dz = z - qz
            d2 = dx * dx + dy * dy + dz * dz
            if d2 <= r2:
                hit((d2, pidx))
            diff = q[axis] - split
            if diff < 0:
                near = left
                if right != -1 and diff * diff <= r2:
                    push(right)
            else:
                near = right
                if left != -1 and diff * diff <= r2:
                    push(left)
            if near == -1:
                break
            node = near
    return steps, False


class KDTree:
    """Median-split kd-tree over ``(N, 3)`` points.

    Nodes are stored in flat arrays; node ``i`` holds one point
    (``self.point_index[i]``), a split axis, and child links.  One traversal
    *step* is one node visit, matching the paper's step-deadline unit.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(
                f"points must have shape (N, 3), got {points.shape}"
            )
        if len(points) == 0:
            raise ValidationError("cannot build a kd-tree over zero points")
        self.points = points
        n = len(points)
        self.axis = np.zeros(n, dtype=np.int8)
        self.left = np.full(n, -1, dtype=np.int64)
        self.right = np.full(n, -1, dtype=np.int64)
        self.point_index = np.zeros(n, dtype=np.int64)
        self._next_node = 0
        self.root = self._build(np.arange(n), depth=0)
        # Packed per-node records for the scalar traversal kernels (one
        # list index + tuple unpack per visit, no numpy-scalar boxing),
        # built lazily on the first traversal: scan-only trees — the
        # default uncapped grouping path — never pay the boxing cost.
        node_points = points[self.point_index]
        self._node_data: Optional[list] = None
        # Column views for the vectorized scan engine.
        self._col_x = points[:, 0]
        self._col_y = points[:, 1]
        self._col_z = points[:, 2]
        # Per-node numpy mirrors for the lockstep (vectorized capped
        # traversal) engine.
        self._node_xyz = node_points
        self._node_split = node_points[np.arange(n), self.axis]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, points: np.ndarray, axis: np.ndarray,
                    left: np.ndarray, right: np.ndarray,
                    point_index: np.ndarray, root: int) -> "KDTree":
        """Rebuild a tree from previously packed node arrays (no ``_build``).

        The arrays are adopted as-is — they may be views into a shared
        buffer (``repro.runtime.shm`` attaches them zero-copy from a
        ``multiprocessing.shared_memory`` segment).  Only the derived
        per-node mirrors (a gather of ``points`` by ``point_index``) are
        materialised locally; queries against the result are bit-equal
        to the original tree's because the node layout is identical.
        """
        tree = cls.__new__(cls)
        points = np.asarray(points, dtype=np.float64)
        n = len(points)
        tree.points = points
        tree.axis = np.asarray(axis, dtype=np.int8)
        tree.left = np.asarray(left, dtype=np.int64)
        tree.right = np.asarray(right, dtype=np.int64)
        tree.point_index = np.asarray(point_index, dtype=np.int64)
        tree._next_node = n
        tree.root = int(root)
        node_points = points[tree.point_index]
        tree._node_data = None
        tree._col_x = points[:, 0]
        tree._col_y = points[:, 1]
        tree._col_z = points[:, 2]
        tree._node_xyz = node_points
        tree._node_split = node_points[np.arange(n), tree.axis]
        return tree

    def packed_arrays(self):
        """The flat node arrays that fully determine this tree.

        ``(points, axis, left, right, point_index, root)`` — the exact
        inputs :meth:`from_arrays` needs to reconstruct a bit-equal tree.
        Used by the shared-memory executor backend to export window
        trees without pickling.
        """
        return (self.points, self.axis, self.left, self.right,
                self.point_index, self.root)

    def _build(self, indices: np.ndarray, depth: int) -> int:
        if len(indices) == 0:
            return -1
        coords = self.points[indices]
        # Split along the widest axis of this subset (classic heuristic).
        spans = coords.max(axis=0) - coords.min(axis=0)
        axis = int(np.argmax(spans))
        order = indices[np.argsort(coords[:, axis], kind="stable")]
        median = len(order) // 2
        node = self._next_node
        self._next_node += 1
        self.axis[node] = axis
        self.point_index[node] = order[median]
        self.left[node] = self._build(order[:median], depth + 1)
        self.right[node] = self._build(order[median + 1:], depth + 1)
        return node

    def __len__(self) -> int:
        return len(self.points)

    def _kernel_args(self):
        if self._node_data is None:
            node_points = self._node_xyz
            self._node_data = list(zip(
                self.axis.tolist(), self.left.tolist(),
                self.right.tolist(), self.point_index.tolist(),
                node_points[:, 0].tolist(), node_points[:, 1].tolist(),
                node_points[:, 2].tolist(), self._node_split.tolist()))
        return (self.root, self._node_data)

    # ------------------------------------------------------------------
    # k-nearest-neighbour search (per-query)
    # ------------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int,
            max_steps: Optional[int] = None,
            record_trace: bool = False) -> QueryResult:
        """Find the *k* nearest neighbours of *query*.

        ``max_steps`` is the deterministic-termination deadline: traversal
        halts after that many node visits and the best-so-far neighbours
        are returned.  ``max_steps=None`` runs the canonical search.
        """
        query = self._check_query(query)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        k = min(k, len(self.points))
        trace: Optional[List[int]] = [] if record_trace else None
        heap, steps, terminated = _knn_traverse(
            float(query[0]), float(query[1]), float(query[2]),
            k, max_steps, trace, *self._kernel_args())
        found = sorted(((-d, i) for d, i in heap))
        indices = np.array([i for _, i in found], dtype=np.int64)
        distances = np.sqrt(np.array([d for d, _ in found],
                                     dtype=np.float64))
        return QueryResult(indices, distances, steps, terminated,
                           trace if trace is not None else [])

    # ------------------------------------------------------------------
    # Range (ball) search (per-query)
    # ------------------------------------------------------------------
    def range_search(self, query: np.ndarray, radius: float,
                     max_steps: Optional[int] = None,
                     max_results: Optional[int] = None,
                     record_trace: bool = False) -> QueryResult:
        """All points within *radius* of *query* (ball query).

        ``max_steps`` caps node visits (deterministic termination);
        ``max_results`` caps the number of returned points, which is how
        PointNet++ ball queries bound group size.
        """
        query = self._check_query(query)
        if radius <= 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        found: List[tuple] = []
        trace: Optional[List[int]] = [] if record_trace else None
        steps, terminated = _range_traverse(
            float(query[0]), float(query[1]), float(query[2]),
            radius, max_steps, trace, found, *self._kernel_args())
        found.sort()
        if max_results is not None:
            found = found[:max_results]
        indices = np.array([i for _, i in found], dtype=np.int64)
        distances = np.sqrt(np.array([d for d, _ in found],
                                     dtype=np.float64))
        return QueryResult(indices, distances, steps, terminated,
                           trace if trace is not None else [])

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------
    def _resolve_engine(self, engine: str, max_steps: Optional[int],
                        record_traces: bool) -> str:
        if engine not in ("auto", "scan", "traverse"):
            raise ValidationError(
                f"engine must be 'auto', 'scan' or 'traverse', got {engine!r}"
            )
        if engine == "scan":
            if max_steps is not None:
                raise ValidationError(
                    "the scan engine cannot honour a step deadline; "
                    "use engine='traverse' with max_steps"
                )
            if record_traces:
                raise ValidationError(
                    "the scan engine visits no tree nodes and cannot "
                    "record traces"
                )
            return "scan"
        if engine == "auto":
            if (max_steps is None and not record_traces
                    and len(self.points) <= _SCAN_MAX_POINTS):
                return "scan"
            return "traverse"
        return "traverse"

    def _scan_sqdist(self, queries: np.ndarray) -> np.ndarray:
        """Exact squared distances ``(B, N)`` for a query block.

        The arithmetic mirrors the scalar kernel — per-axis differences,
        squared and summed in x, y, z order — so scan comparisons and
        (after the final square root) distances match the traversal
        engine bit-for-bit.
        """
        dx = queries[:, 0:1] - self._col_x[None, :]
        np.multiply(dx, dx, out=dx)
        dy = queries[:, 1:2] - self._col_y[None, :]
        np.multiply(dy, dy, out=dy)
        dx += dy
        dz = queries[:, 2:3] - self._col_z[None, :]
        np.multiply(dz, dz, out=dz)
        dx += dz
        return dx

    def knn_batch(self, queries: np.ndarray, k: int,
                  max_steps: Optional[int] = None,
                  engine: str = "auto",
                  record_traces: bool = False) -> BatchQueryResult:
        """kNN for a ``(Q, 3)`` query block into ``(Q, min(k, N))`` arrays.

        With the traversal engine the per-row results (including ``steps``
        and ``terminated``) are identical to calling :meth:`knn` per
        query; the scan engine returns the same neighbours as the
        uncapped traversal with ``steps = len(tree)``.
        """
        queries = self._check_queries(queries)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        n = len(self.points)
        k_eff = min(k, n)
        n_queries = len(queries)
        indices = np.full((n_queries, k_eff), -1, dtype=np.int64)
        distances = np.full((n_queries, k_eff), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        engine = self._resolve_engine(engine, max_steps, record_traces)
        if engine == "scan":
            block = max(1, _SCAN_BLOCK_ELEMS // n)
            for start in range(0, n_queries, block):
                stop = min(start + block, n_queries)
                sqdist = self._scan_sqdist(queries[start:stop])
                idx, dst = _smallest_k(sqdist, k_eff)
                indices[start:stop] = idx
                distances[start:stop] = np.sqrt(dst)
            counts[:] = k_eff
            steps[:] = n
            return BatchQueryResult(indices, distances, counts, steps,
                                    terminated)
        if not record_traces and n_queries >= _LOCKSTEP_MIN_QUERIES:
            # Untraced traversal runs lockstep as a one-member arena;
            # uncapped batches (the calibration profile path) use cap
            # doubling, bit-equal to the scalar kernel either way.
            return TraversalArena([self])._knn(
                queries, np.array([n_queries]), k_eff, max_steps)[0]
        traces: Optional[List[List[int]]] = [] if record_traces else None
        kernel_args = self._kernel_args()
        for qi in range(n_queries):
            trace: Optional[List[int]] = [] if record_traces else None
            heap, n_steps, term = _knn_traverse(
                queries[qi, 0], queries[qi, 1], queries[qi, 2],
                k_eff, max_steps, trace, *kernel_args)
            found = sorted(((-d, i) for d, i in heap))
            count = len(found)
            if count:
                indices[qi, :count] = [i for _, i in found]
                distances[qi, :count] = np.sqrt(
                    np.array([d for d, _ in found], dtype=np.float64))
            counts[qi] = count
            steps[qi] = n_steps
            terminated[qi] = term
            if traces is not None:
                traces.append(trace)
        return BatchQueryResult(indices, distances, counts, steps,
                                terminated, traces)

    def range_batch(self, queries: np.ndarray, radius: float,
                    max_steps: Optional[int] = None,
                    max_results: Optional[int] = None,
                    engine: str = "auto",
                    record_traces: bool = False) -> BatchQueryResult:
        """Ball queries for a ``(Q, 3)`` block into ``(Q, C)`` arrays.

        ``C`` is ``min(max_results, N)`` when ``max_results`` is given,
        otherwise the largest observed hit count.  Engine semantics match
        :meth:`knn_batch`.
        """
        queries = self._check_queries(queries)
        if radius <= 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        if max_results is not None and max_results <= 0:
            raise ValidationError("max_results must be positive when given")
        n = len(self.points)
        n_queries = len(queries)
        engine = self._resolve_engine(engine, max_steps, record_traces)
        if engine == "scan":
            cap = n if max_results is None else min(max_results, n)
            block = max(1, _SCAN_BLOCK_ELEMS // n)
            chunks = []
            counts = np.zeros(n_queries, dtype=np.int64)
            r2 = radius * radius
            for start in range(0, n_queries, block):
                stop = min(start + block, n_queries)
                sqdist = self._scan_sqdist(queries[start:stop])
                # Only the closest entries per row are needed: partition
                # to the result capacity, then order by (dist, index) —
                # the valid prefix of each row is exactly its hits.  With
                # a result cap, the hit count is recoverable from the
                # partitioned columns alone (min(total hits, cap) of the
                # cap closest distances lie within the radius), skipping
                # a full-matrix comparison.
                if max_results is not None:
                    idx, dst = _smallest_k(sqdist, cap)
                    counts[start:stop] = np.count_nonzero(
                        dst <= r2, axis=1)
                    chunks.append((idx, np.sqrt(dst)))
                    continue
                hits = np.count_nonzero(sqdist <= r2, axis=1)
                counts[start:stop] = hits
                width = int(hits.max()) if len(hits) else 0
                if width:
                    idx, dst = _smallest_k(sqdist, width)
                    chunks.append((idx, np.sqrt(dst)))
                else:
                    chunks.append((
                        np.zeros((stop - start, 0), dtype=np.int64),
                        np.zeros((stop - start, 0), dtype=np.float64)))
            cap_out = int(counts.max()) if n_queries else 0
            if max_results is not None:
                cap_out = min(max_results, n)
            indices = np.full((n_queries, cap_out), -1, dtype=np.int64)
            distances = np.full((n_queries, cap_out), np.inf,
                                dtype=np.float64)
            row = 0
            for idx, dst in chunks:
                width = min(idx.shape[1], cap_out)
                stop = row + len(idx)
                indices[row:stop, :width] = idx[:, :width]
                distances[row:stop, :width] = dst[:, :width]
                row = stop
            valid = np.arange(cap_out)[None, :] < counts[:, None]
            indices[~valid] = -1
            distances[~valid] = np.inf
            steps = np.full(n_queries, n, dtype=np.int64)
            terminated = np.zeros(n_queries, dtype=bool)
            return BatchQueryResult(indices, distances, counts, steps,
                                    terminated)
        if (max_steps is not None and not record_traces
                and n_queries >= _LOCKSTEP_MIN_QUERIES):
            return TraversalArena([self])._range(
                queries, np.array([n_queries]), radius, max_steps,
                max_results)[0]
        per_query: List[List[tuple]] = []
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        traces: Optional[List[List[int]]] = [] if record_traces else None
        kernel_args = self._kernel_args()
        for qi in range(n_queries):
            trace: Optional[List[int]] = [] if record_traces else None
            found: List[tuple] = []
            n_steps, term = _range_traverse(
                queries[qi, 0], queries[qi, 1], queries[qi, 2],
                radius, max_steps, trace, found, *kernel_args)
            found.sort()
            if max_results is not None:
                found = found[:max_results]
            per_query.append(found)
            steps[qi] = n_steps
            terminated[qi] = term
            if traces is not None:
                traces.append(trace)
        if max_results is not None:
            cap_out = min(max_results, n)
        else:
            cap_out = max((len(f) for f in per_query), default=0)
        indices = np.full((n_queries, cap_out), -1, dtype=np.int64)
        distances = np.full((n_queries, cap_out), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        for qi, found in enumerate(per_query):
            count = len(found)
            if count:
                indices[qi, :count] = [i for _, i in found]
                distances[qi, :count] = np.sqrt(
                    np.array([d for d, _ in found], dtype=np.float64))
            counts[qi] = count
        return BatchQueryResult(indices, distances, counts, steps,
                                terminated, traces)

    # ------------------------------------------------------------------
    # Profiling helpers
    # ------------------------------------------------------------------
    def profile_steps(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Full-traversal step counts for each query (Sec. 3 profile).

        Always runs the traversal engine — the whole point is measuring
        real node-visit counts, which a scan cannot report.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return self.knn_batch(queries, k, engine="traverse").steps

    def depth(self) -> int:
        """Maximum node depth (root = 1).

        A median split keeps ``n // 2`` points on the left and at most
        that many on the right, so the depth of an ``n``-point tree
        follows ``d(n) = 1 + d(n // 2)``, i.e. ``n.bit_length()``.
        """
        return len(self).bit_length()

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (3,):
            raise ValidationError(
                f"query must have shape (3,), got {query.shape}"
            )
        return query

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != 3:
            raise ValidationError(
                f"queries must have shape (Q, 3), got {queries.shape}"
            )
        return queries


# ----------------------------------------------------------------------
# Per-lane lockstep kernels
# ----------------------------------------------------------------------
# Every query advances its own explicit traversal stack, but all
# queries advance together — one stack pop per lane per iteration, with
# numpy array operations across the whole block.  Every lane carries its
# own root node (and, for kNN, its own effective k), so one launch serves
# a whole arena of concatenated trees (each lane's root points into its
# member's node range); a single tree is a one-member arena.  Lanes never
# interact — the per-lane visit sequence (pop order, pruning decisions,
# heap-eviction tie-breaking, push-time far-child filter), step counts
# and termination points replicate the scalar kernels exactly, whatever
# the roots are.

def _knn_lanes_block(arrays, q: np.ndarray, roots: np.ndarray,
                     k_lane: np.ndarray, width: int, cap: int,
                     stack_cap: int):
    axis_a, left_a, right_a, pidx_a, xyz_a, split_a = arrays
    n_q = len(q)
    stack_nodes = np.empty((n_q, stack_cap), dtype=np.int64)
    stack_d2 = np.empty((n_q, stack_cap), dtype=np.float64)
    stack_nodes[:, 0] = roots
    stack_d2[:, 0] = 0.0
    sp = np.ones(n_q, dtype=np.int64)
    steps = np.zeros(n_q, dtype=np.int64)
    terminated = np.zeros(n_q, dtype=bool)
    best_d2 = np.full((n_q, width), np.inf, dtype=np.float64)
    best_idx = np.full((n_q, width), -1, dtype=np.int64)
    # Lanes narrower than the block width (k_lane < width) mask their
    # padding columns to -inf during traversal: fills stop at k_lane, a
    # -inf column can never equal `worst` (real squared distances are
    # >= 0), and the row max over them equals the max over the lane's
    # real columns — so padding never influences the traversal.  The
    # columns are reset to +inf before the final sort, which pushes them
    # past every real entry, exactly where a width-k_lane kernel's
    # unfilled slots would sit.
    pad = np.arange(width)[None, :] >= k_lane[:, None]
    has_pad = bool(pad.any())
    if has_pad:
        best_d2[pad] = -np.inf
    count = np.zeros(n_q, dtype=np.int64)
    worst = np.full(n_q, np.inf, dtype=np.float64)
    alive = np.ones(n_q, dtype=bool)
    i64_max = np.iinfo(np.int64).max
    while True:
        act = np.nonzero(alive)[0]
        if not len(act):
            break
        top = sp[act] - 1
        sp[act] = top
        nd = stack_nodes[act, top]
        d2s = stack_d2[act, top]
        # Prune: the far subtree cannot contain anything closer.
        keep = d2s <= worst[act]
        act, nd = act[keep], nd[keep]
        if len(act):
            over = steps[act] >= cap
            if over.any():
                expired = act[over]
                terminated[expired] = True
                alive[expired] = False
                act, nd = act[~over], nd[~over]
        if len(act):
            steps[act] += 1
            node_pts = xyz_a[nd]
            dx = node_pts[:, 0] - q[act, 0]
            dy = node_pts[:, 1] - q[act, 1]
            dz = node_pts[:, 2] - q[act, 2]
            d2 = dx * dx + dy * dy + dz * dz
            pid = pidx_a[nd]
            filling = count[act] < k_lane[act]
            if filling.any():
                fill_rows = act[filling]
                slot = count[fill_rows]
                best_d2[fill_rows, slot] = d2[filling]
                best_idx[fill_rows, slot] = pid[filling]
                count[fill_rows] = slot + 1
                full_now = slot + 1 == k_lane[fill_rows]
                if full_now.any():
                    filled = fill_rows[full_now]
                    worst[filled] = best_d2[filled].max(axis=1)
            replace = ~filling & (d2 < worst[act])
            if replace.any():
                rep_rows = act[replace]
                # Evict the current worst entry; ties by lowest
                # point index — the heap's (-d², idx) ordering.
                at_worst = best_d2[rep_rows] == worst[rep_rows][:, None]
                tie_key = np.where(at_worst, best_idx[rep_rows],
                                   i64_max)
                slot = np.argmin(tie_key, axis=1)
                best_d2[rep_rows, slot] = d2[replace]
                best_idx[rep_rows, slot] = pid[replace]
                worst[rep_rows] = best_d2[rep_rows].max(axis=1)
            diff = q[act, axis_a[nd]] - split_a[nd]
            go_left = diff < 0
            near = np.where(go_left, left_a[nd], right_a[nd])
            far = np.where(go_left, right_a[nd], left_a[nd])
            f2 = diff * diff
            push_far = (far != -1) & (f2 <= worst[act])
            if push_far.any():
                rows = act[push_far]
                stack_nodes[rows, sp[rows]] = far[push_far]
                stack_d2[rows, sp[rows]] = f2[push_far]
                sp[rows] += 1
            push_near = near != -1
            if push_near.any():
                rows = act[push_near]
                stack_nodes[rows, sp[rows]] = near[push_near]
                stack_d2[rows, sp[rows]] = 0.0
                sp[rows] += 1
        alive &= sp > 0
    if has_pad:
        best_d2[pad] = np.inf
    order = np.lexsort((best_idx, best_d2))
    indices = np.take_along_axis(best_idx, order, axis=1)
    distances = np.sqrt(np.take_along_axis(best_d2, order, axis=1))
    return indices, distances, count, steps, terminated


def _range_lanes_block(arrays, q: np.ndarray, roots: np.ndarray,
                       radius: float, cap: int, stack_cap: int,
                       hit_cap: int):
    axis_a, left_a, right_a, pidx_a, xyz_a, split_a = arrays
    n_q = len(q)
    r2 = radius * radius
    # Range pruning is radius-fixed, so no split-distance stack.
    stack_nodes = np.empty((n_q, stack_cap), dtype=np.int64)
    stack_nodes[:, 0] = roots
    sp = np.ones(n_q, dtype=np.int64)
    steps = np.zeros(n_q, dtype=np.int64)
    terminated = np.zeros(n_q, dtype=bool)
    hit_d2 = np.full((n_q, hit_cap), np.inf, dtype=np.float64)
    hit_idx = np.full((n_q, hit_cap), -1, dtype=np.int64)
    hcount = np.zeros(n_q, dtype=np.int64)
    alive = np.ones(n_q, dtype=bool)
    while True:
        act = np.nonzero(alive)[0]
        if not len(act):
            break
        top = sp[act] - 1
        sp[act] = top
        nd = stack_nodes[act, top]
        over = steps[act] >= cap
        if over.any():
            expired = act[over]
            terminated[expired] = True
            alive[expired] = False
            act, nd = act[~over], nd[~over]
        if len(act):
            steps[act] += 1
            node_pts = xyz_a[nd]
            dx = node_pts[:, 0] - q[act, 0]
            dy = node_pts[:, 1] - q[act, 1]
            dz = node_pts[:, 2] - q[act, 2]
            d2 = dx * dx + dy * dy + dz * dz
            is_hit = d2 <= r2
            if is_hit.any():
                rows = act[is_hit]
                slot = hcount[rows]
                hit_d2[rows, slot] = d2[is_hit]
                hit_idx[rows, slot] = pidx_a[nd[is_hit]]
                hcount[rows] = slot + 1
            diff = q[act, axis_a[nd]] - split_a[nd]
            go_left = diff < 0
            near = np.where(go_left, left_a[nd], right_a[nd])
            far = np.where(go_left, right_a[nd], left_a[nd])
            push_far = (far != -1) & (diff * diff <= r2)
            if push_far.any():
                rows = act[push_far]
                stack_nodes[rows, sp[rows]] = far[push_far]
                sp[rows] += 1
            push_near = near != -1
            if push_near.any():
                rows = act[push_near]
                stack_nodes[rows, sp[rows]] = near[push_near]
                sp[rows] += 1
        alive &= sp > 0
    order = np.lexsort((hit_idx, hit_d2))
    indices = np.take_along_axis(hit_idx, order, axis=1)
    distances = np.sqrt(np.take_along_axis(hit_d2, order, axis=1))
    return indices, distances, hcount, steps, terminated


class TraversalArena:
    """Several kd-trees fused into one lockstep launch.

    The arena concatenates the packed node arrays of its member trees
    into contiguous buffers — child links are rebased by each member's
    node offset (absent ``-1`` links preserved), ``point_index`` stays
    window-local — and traverses all (query, member) lanes *together*:
    each lane's stack starts at its member's rebased root, so one numpy
    advance per iteration serves every member at once instead of one
    lockstep launch per window.  This is the paper's parallel
    traversal-unit dispatch, amortized in the interpreter: the fixed
    numpy cost per iteration is paid once per fused batch, not once per
    window.

    Lanes are grouped by member: ``knn_fused`` / ``range_fused`` take
    per-member query counts (``splits``) and return one
    :class:`BatchQueryResult` per member, **bit-equal** to running that
    member's queries through its own tree's batch engine with the same
    parameters — indices, distances, counts, steps and terminated flags
    alike.  A single tree's lockstep batch is a one-member arena, so
    this is the only lockstep path.  The concatenated layout is exactly
    what an opt-in compiled kernel (numba / Cython) would consume
    unchanged.

    Construction gathers the member arrays once (the sources may be
    zero-copy views over attached shared-memory segments; the gather is
    the only copy and is linear in total node count).
    """

    def __init__(self, trees: Sequence[KDTree]) -> None:
        if not trees:
            raise ValidationError("an arena needs at least one tree")
        self.trees = list(trees)
        sizes = np.array([len(tree) for tree in self.trees],
                         dtype=np.int64)
        offsets = np.concatenate(
            ([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        self.sizes = sizes
        self.offsets = offsets
        self.roots = offsets + np.array(
            [tree.root for tree in self.trees], dtype=np.int64)
        self.max_size = int(sizes.max())
        self.nodes_total = int(sizes.sum())
        axis = np.concatenate([tree.axis for tree in self.trees])
        left = np.concatenate(
            [np.where(tree.left >= 0, tree.left + off, -1)
             for tree, off in zip(self.trees, offsets)])
        right = np.concatenate(
            [np.where(tree.right >= 0, tree.right + off, -1)
             for tree, off in zip(self.trees, offsets)])
        pidx = np.concatenate(
            [tree.point_index for tree in self.trees])
        xyz = np.concatenate(
            [tree._node_xyz for tree in self.trees])
        split = np.concatenate(
            [tree._node_split for tree in self.trees])
        self._arrays = (axis, left, right, pidx, xyz, split)

    def _lane_layout(self, queries: np.ndarray, splits):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        splits = np.asarray(splits, dtype=np.int64)
        if len(splits) != len(self.trees):
            raise ValidationError(
                f"expected one split per member tree "
                f"({len(self.trees)}), got {len(splits)}")
        if (splits < 0).any():
            raise ValidationError("splits must be non-negative")
        if int(splits.sum()) != len(queries):
            raise ValidationError(
                "splits must partition the fused query block")
        return queries, splits

    def knn_fused(self, queries: np.ndarray, splits, k: int,
                  max_steps: Optional[int] = None
                  ) -> List[BatchQueryResult]:
        """Fused kNN: member *m* serves ``queries`` rows
        ``sum(splits[:m]) : sum(splits[:m+1])``; one result per member,
        bit-equal to ``trees[m].knn_batch(rows, k, max_steps=...,
        engine="traverse")``."""
        queries, splits = self._lane_layout(queries, splits)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        return self._knn(queries, splits, int(k), max_steps)

    def _knn(self, queries: np.ndarray, splits: np.ndarray, k: int,
             max_steps: Optional[int]) -> List[BatchQueryResult]:
        """:meth:`knn_fused` on validated inputs (also the lockstep
        path of :meth:`KDTree.knn_batch`, as a one-member arena)."""
        member_of = np.repeat(np.arange(len(splits)), splits)
        k_member = np.minimum(k, self.sizes)
        k_lane = k_member[member_of]
        width = int(k_member.max())
        if max_steps is not None:
            out = self._knn_lanes(queries, member_of, k_lane, width,
                                  int(max_steps))
        else:
            # Cap doubling.  A DFS pushes each node at most once, so a
            # cap of max_size can never expire on any lane.  Start from
            # a cheap optimistic cap (twice the deepest descent plus
            # k), then rerun only the lanes that hit it at double the
            # cap: every surviving lane's results and step counts come
            # from a run whose cap never fired, which is exactly the
            # canonical uncapped traversal.
            cap = min(self.max_size,
                      max(64, 2 * (self.max_size.bit_length() + k)))
            out = self._knn_lanes(queries, member_of, k_lane, width, cap)
            indices, distances, counts, steps, terminated = out
            while terminated.any() and cap < self.max_size:
                cap = min(self.max_size, 2 * cap)
                redo = np.nonzero(terminated)[0]
                sub = self._knn_lanes(queries[redo], member_of[redo],
                                      k_lane[redo], width, cap)
                (indices[redo], distances[redo], counts[redo],
                 steps[redo], terminated[redo]) = sub
        indices, distances, counts, steps, terminated = out
        results: List[BatchQueryResult] = []
        start = 0
        for m, n_rows in enumerate(splits):
            stop = start + int(n_rows)
            k_w = int(k_member[m])
            results.append(BatchQueryResult(
                indices[start:stop, :k_w].copy(),
                distances[start:stop, :k_w].copy(),
                counts[start:stop].copy(), steps[start:stop].copy(),
                terminated[start:stop].copy()))
            start = stop
        return results

    def _knn_lanes(self, queries: np.ndarray, member_of: np.ndarray,
                   k_lane: np.ndarray, width: int, cap: int):
        n_queries = len(queries)
        stack_cap = 2 * min(cap, self.max_size) + 2
        indices = np.full((n_queries, width), -1, dtype=np.int64)
        distances = np.full((n_queries, width), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        block = max(1, _SCAN_BLOCK_ELEMS // (3 * stack_cap
                                             + 2 * max(width, 1) + 8))
        roots = self.roots[member_of]
        for start in range(0, n_queries, block):
            stop = min(start + block, n_queries)
            out = _knn_lanes_block(
                self._arrays, queries[start:stop], roots[start:stop],
                k_lane[start:stop], width, cap, stack_cap)
            (indices[start:stop], distances[start:stop],
             counts[start:stop], steps[start:stop],
             terminated[start:stop]) = out
        return indices, distances, counts, steps, terminated

    def range_fused(self, queries: np.ndarray, splits, radius: float,
                    max_steps: int,
                    max_results: Optional[int] = None
                    ) -> List[BatchQueryResult]:
        """Fused ball queries; one result per member, bit-equal to
        ``trees[m].range_batch(rows, radius, max_steps=...,
        max_results=..., engine="traverse")``.

        ``max_steps`` is required: the capped hit buffer is what bounds
        the arena's working set (uncapped range queries stay on the
        per-tree engines).
        """
        queries, splits = self._lane_layout(queries, splits)
        if radius <= 0:
            raise ValidationError(
                f"radius must be positive, got {radius}")
        if max_steps is None or max_steps <= 0:
            raise ValidationError(
                "fused range queries need a positive max_steps")
        if max_results is not None and max_results <= 0:
            raise ValidationError("max_results must be positive when given")
        return self._range(queries, splits, radius, int(max_steps),
                           max_results)

    def _range(self, queries: np.ndarray, splits: np.ndarray,
               radius: float, cap: int, max_results: Optional[int]
               ) -> List[BatchQueryResult]:
        """:meth:`range_fused` on validated inputs (also the lockstep
        path of :meth:`KDTree.range_batch`, as a one-member arena)."""
        member_of = np.repeat(np.arange(len(splits)), splits)
        n_queries = len(queries)
        stack_cap = 2 * min(cap, self.max_size) + 2
        hit_cap = min(cap, self.max_size)
        block = max(1, _SCAN_BLOCK_ELEMS // (3 * stack_cap
                                             + 2 * hit_cap + 8))
        lane_idx = np.full((n_queries, hit_cap), -1, dtype=np.int64)
        lane_dst = np.full((n_queries, hit_cap), np.inf,
                           dtype=np.float64)
        hcount = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        roots = self.roots[member_of]
        for start in range(0, n_queries, block):
            stop = min(start + block, n_queries)
            out = _range_lanes_block(
                self._arrays, queries[start:stop], roots[start:stop],
                radius, cap, stack_cap, hit_cap)
            (lane_idx[start:stop], lane_dst[start:stop],
             hcount[start:stop], steps[start:stop],
             terminated[start:stop]) = out
        results: List[BatchQueryResult] = []
        start = 0
        for m, n_rows in enumerate(splits):
            stop = start + int(n_rows)
            n_w = int(self.sizes[m])
            hc = hcount[start:stop]
            # Per-member output assembly, sized exactly like the scalar
            # path of KDTree.range_batch.
            if max_results is not None:
                counts = np.minimum(hc, max_results)
                cap_out = min(int(max_results), n_w)
            else:
                counts = hc.copy()
                cap_out = int(counts.max()) if n_rows else 0
            indices = np.full((int(n_rows), cap_out), -1, dtype=np.int64)
            distances = np.full((int(n_rows), cap_out), np.inf,
                                dtype=np.float64)
            width = min(hit_cap, cap_out)
            indices[:, :width] = lane_idx[start:stop, :width]
            distances[:, :width] = lane_dst[start:stop, :width]
            valid = np.arange(cap_out)[None, :] < counts[:, None]
            indices[~valid] = -1
            distances[~valid] = np.inf
            results.append(BatchQueryResult(
                indices, distances, counts, steps[start:stop].copy(),
                terminated[start:stop].copy()))
            start = stop
        return results

def _smallest_k(dist: np.ndarray, k: int):
    """Per-row k smallest entries of a ``(B, N)`` distance matrix.

    Rows come back ordered by (distance, column index) ascending, the
    same output order the traversal produces after its final sort.
    """
    n = dist.shape[1]
    if k < n:
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        # Order the partition by column index first (stable), then by
        # distance (stable) — yielding (distance, index) ordering.
        part = np.sort(part, axis=1)
        vals = np.take_along_axis(dist, part, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        return (np.take_along_axis(part, order, axis=1),
                np.take_along_axis(vals, order, axis=1))
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


def nearest_point_indices(points: np.ndarray, queries: np.ndarray,
                          block_elems: Optional[int] = None
                          ) -> np.ndarray:
    """Index of the closest point for every query, in one blocked pass.

    Vectorized replacement for per-query ``argmin(norm(points - q))``
    loops; ties resolve to the lowest point index (argmin semantics).
    ``block_elems`` defaults to the live ``scan_block_elems`` knob
    (see :func:`engine_tuning`).
    """
    if block_elems is None:
        block_elems = _SCAN_BLOCK_ELEMS
    points = np.asarray(points, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError("points must be (N, 3)")
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValidationError("queries must be (Q, 3)")
    if len(points) == 0:
        raise ValidationError("cannot find neighbours in zero points")
    out = np.empty(len(queries), dtype=np.int64)
    px, py, pz = points[:, 0], points[:, 1], points[:, 2]
    block = max(1, block_elems // len(points))
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        q = queries[start:stop]
        d = q[:, 0:1] - px[None, :]
        d *= d
        dy = q[:, 1:2] - py[None, :]
        d += dy * dy
        dz = q[:, 2:3] - pz[None, :]
        d += dz * dz
        out[start:stop] = np.argmin(d, axis=1)
    return out


def brute_force_knn(points: np.ndarray, query: np.ndarray,
                    k: int) -> QueryResult:
    """Exact kNN by exhaustive scan — the oracle used in tests."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if k <= 0:
        raise ValidationError("k must be positive")
    k = min(k, len(points))
    dists = np.linalg.norm(points - query, axis=1)
    idx = np.argpartition(dists, k - 1)[:k]
    idx = idx[np.argsort(dists[idx], kind="stable")]
    return QueryResult(idx.astype(np.int64), dists[idx], steps=len(points),
                       terminated=False)


def brute_force_range(points: np.ndarray, query: np.ndarray,
                      radius: float,
                      max_results: Optional[int] = None) -> QueryResult:
    """Exact ball query by exhaustive scan — the oracle used in tests."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    dists = np.linalg.norm(points - query, axis=1)
    mask = dists <= radius
    idx = np.nonzero(mask)[0]
    order = np.argsort(dists[idx], kind="stable")
    idx = idx[order]
    if max_results is not None:
        idx = idx[:max_results]
    return QueryResult(idx.astype(np.int64), dists[idx], steps=len(points),
                       terminated=False)

"""Compulsory splitting (paper Sec. 4.1).

The technique partitions a point cloud into chunks and lets each
global-dependent operation see only a *stencil window* of chunks at a time,
trading a bounded accuracy relaxation for bounded line buffers and
chunk-level pipelining.  :class:`CompulsorySplitter` materialises the
partition for a given cloud under a :class:`~repro.core.config.SplittingConfig`
and serves windowed kNN / range searches through
:class:`~repro.spatial.neighbors.ChunkedIndex`.

``naive_partition`` builds the paper's strawman (fully independent chunks,
kernel = 1), used by the Fig. 8 comparison and the co-training study.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import SplittingConfig
from repro.errors import ValidationError
from repro.spatial.grid import (
    ChunkGrid,
    ChunkWindow,
    chunk_windows,
    serial_chunks,
    serial_windows,
)
from repro.spatial.kdtree import (
    BatchQueryResult,
    QueryResult,
    nearest_point_indices,
)
from repro.spatial.neighbors import ChunkedIndex


def partition_cloud(positions: np.ndarray, config: SplittingConfig):
    """Partition one cloud under *config*:
    ``(positions, grid, assignment, windows)``.

    The partition step of :class:`CompulsorySplitter`, factored out so
    frame-streaming callers (:mod:`repro.streaming`) can recompute a
    frame's partition without constructing a throwaway search index.
    The returned ``positions`` is the validated float64 view/copy of
    the input (so callers convert once); ``grid`` is ``None`` in
    serial mode.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValidationError("positions must be (N, 3)")
    if len(positions) == 0:
        raise ValidationError("cannot split an empty cloud")
    if config.mode == "spatial":
        grid: Optional[ChunkGrid] = ChunkGrid.fit(positions, config.shape)
        assignment = grid.assign(positions)
        windows: List[ChunkWindow] = chunk_windows(
            config.shape, config.kernel, config.stride)
    else:
        grid = None
        n_chunks = min(config.shape[0], len(positions))
        runs = serial_chunks(len(positions), n_chunks)
        assignment = np.empty(len(positions), dtype=np.int64)
        for chunk_id, run in enumerate(runs):
            assignment[run] = chunk_id
        kernel = min(config.kernel[0], n_chunks)
        windows = serial_windows(n_chunks, kernel, config.stride[0])
    return positions, grid, assignment, windows


def queries_to_chunks(queries: np.ndarray, grid: Optional[ChunkGrid],
                      positions: np.ndarray,
                      assignment: np.ndarray) -> np.ndarray:
    """Chunk id each query falls into (spatial) or nearest point's chunk
    (serial).

    Shared by :meth:`CompulsorySplitter.chunk_of_queries` and the
    streaming session, which routes queries against a reused index.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if grid is not None:
        return grid.assign(queries)
    # Serial mode: a query inherits the chunk of its nearest point,
    # matching the paper's LiDAR processing where queries are the
    # points themselves.  One blocked broadcast resolves the whole
    # query batch instead of an O(N) norm per query.
    nearest = nearest_point_indices(positions, queries)
    return assignment[nearest]


class CompulsorySplitter:
    """A chunk partition of one cloud plus its windowed search index.

    ``executor`` / ``executor_workers`` select the window-shard runtime
    backend (:mod:`repro.runtime`) the underlying
    :class:`~repro.spatial.neighbors.ChunkedIndex` dispatches batches
    on; results are identical across backends.
    """

    def __init__(self, positions: np.ndarray,
                 config: SplittingConfig,
                 executor="serial",
                 executor_workers: Optional[int] = None) -> None:
        (self.positions, self.grid, self.assignment,
         self.windows) = partition_cloud(positions, config)
        self.config = config
        self.index = ChunkedIndex(self.positions, self.assignment,
                                  self.windows, executor=executor,
                                  executor_workers=executor_workers)

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Total chunk count of the partition.

        Spatial mode counts every grid cell (``grid.n_chunks``) — trailing
        cells left empty by the cloud still exist in the partition, so the
        old occupancy-based ``assignment.max() + 1`` undercounted.  Serial
        mode keeps the occupancy count: serial chunks are defined by the
        points themselves and every chunk id is populated.
        """
        if self.grid is not None:
            return self.grid.n_chunks
        return int(self.assignment.max()) + 1

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def effective_executor(self) -> str:
        """The backend actually in force (``"serial"`` under fallback)."""
        return self.index.effective_executor

    def close(self) -> None:
        """Shut down any live executor workers (idempotent)."""
        self.index.close()

    def chunk_of_queries(self, queries: np.ndarray) -> np.ndarray:
        """Chunk id each query falls into (spatial) or nearest point's
        chunk (serial)."""
        return queries_to_chunks(queries, self.grid, self.positions,
                                 self.assignment)

    def knn(self, query: np.ndarray, k: int,
            max_steps: Optional[int] = None,
            query_chunk: Optional[int] = None) -> QueryResult:
        """Windowed kNN for one query (indices into the original cloud)."""
        if query_chunk is None:
            query_chunk = int(self.chunk_of_queries(query)[0])
        return self.index.query_knn(query, query_chunk, k,
                                    max_steps=max_steps)

    def range(self, query: np.ndarray, radius: float,
              max_steps: Optional[int] = None,
              max_results: Optional[int] = None,
              query_chunk: Optional[int] = None) -> QueryResult:
        """Windowed ball query for one query."""
        if query_chunk is None:
            query_chunk = int(self.chunk_of_queries(query)[0])
        return self.index.query_range(query, query_chunk, radius,
                                      max_steps=max_steps,
                                      max_results=max_results)

    def knn_batch(self, queries: np.ndarray, k: int,
                  max_steps: Optional[int] = None,
                  query_chunks: Optional[np.ndarray] = None,
                  engine: str = "auto",
                  record_traces: bool = False) -> BatchQueryResult:
        """Windowed kNN for a whole query block (window-grouped dispatch).

        Results come back in input order; indices refer to the original
        cloud.  See :meth:`ChunkedIndex.query_knn_batch`.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_chunks is None:
            query_chunks = self.chunk_of_queries(queries)
        return self.index.query_knn_batch(queries, query_chunks, k,
                                          max_steps=max_steps,
                                          engine=engine,
                                          record_traces=record_traces)

    def range_batch(self, queries: np.ndarray, radius: float,
                    max_steps: Optional[int] = None,
                    max_results: Optional[int] = None,
                    query_chunks: Optional[np.ndarray] = None,
                    engine: str = "auto",
                    record_traces: bool = False) -> BatchQueryResult:
        """Windowed ball queries for a whole query block."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_chunks is None:
            query_chunks = self.chunk_of_queries(queries)
        return self.index.query_range_batch(queries, query_chunks, radius,
                                            max_steps=max_steps,
                                            max_results=max_results,
                                            engine=engine,
                                            record_traces=record_traces)

    def window_point_counts(self) -> np.ndarray:
        """Points per window — the line-buffer working set of a global op.

        One bincount of the chunk assignment plus a chunk->window rollup
        (replaces per-window isin scans of the full cloud).
        """
        flat_ids = np.concatenate([
            np.asarray(window.chunk_ids, dtype=np.int64)
            for window in self.windows])
        window_ids = np.concatenate([
            np.full(len(window.chunk_ids), widx, dtype=np.int64)
            for widx, window in enumerate(self.windows)])
        chunk_counts = np.bincount(
            self.assignment, minlength=int(flat_ids.max()) + 1)
        rollup = np.bincount(window_ids,
                             weights=chunk_counts[flat_ids].astype(
                                 np.float64),
                             minlength=len(self.windows))
        return rollup.astype(np.int64)

    def max_window_points(self) -> int:
        """Worst-case window population: the buffer a windowed global op
        must hold, versus the full cloud without splitting."""
        return int(self.window_point_counts().max())


def naive_partition(config: SplittingConfig) -> SplittingConfig:
    """The paper's naive-splitting strawman: independent chunks.

    Same chunk count, but kernel 1 — each window is a single chunk, so all
    cross-chunk dependencies are severed (Fig. 8's accuracy-losing variant).
    """
    return SplittingConfig(shape=config.shape, kernel=(1, 1, 1),
                           stride=(1, 1, 1), mode=config.mode)


def splitting_for_chunks(n_chunks: int, mode: str = "spatial",
                         kernel_width: int = 2) -> SplittingConfig:
    """Build a config whose *equivalent* chunk count is ``n_chunks``.

    Used by the sensitivity sweeps (Fig. 16 / Fig. 19) which vary the chunk
    count directly.  For spatial mode this produces an
    ``(n+kw-1) x 1 x 1``-style 1D grid with a width-``kernel_width`` kernel
    so that the window count equals ``n_chunks``; ``n_chunks=1`` means no
    splitting (a single window covering everything).
    """
    if n_chunks <= 0:
        raise ValidationError("n_chunks must be positive")
    if kernel_width <= 0:
        raise ValidationError("kernel_width must be positive")
    if n_chunks == 1:
        return SplittingConfig(shape=(1, 1, 1), kernel=(1, 1, 1),
                               stride=(1, 1, 1), mode=mode)
    shape = (n_chunks + kernel_width - 1, 1, 1)
    return SplittingConfig(shape=shape, kernel=(kernel_width, 1, 1),
                           stride=(1, 1, 1), mode=mode)


def count_accessed_chunks(positions: np.ndarray, queries: np.ndarray,
                          k: int, grid_shape: Sequence[int]) -> np.ndarray:
    """Fig. 6 measurement: chunks touched per query during full kNN.

    Partitions *positions* into ``grid_shape`` chunks, runs a canonical
    (unsplit, uncapped) kd-tree kNN per query with traversal tracing, and
    counts the distinct chunks owning the visited tree nodes.
    """
    from repro.spatial.kdtree import KDTree  # local import to avoid cycle

    positions = np.asarray(positions, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    grid = ChunkGrid.fit(positions, grid_shape)
    assignment = grid.assign(positions)
    tree = KDTree(positions)
    counts = np.empty(len(queries), dtype=np.int64)
    # Blocked so full-traversal traces only live for one block at a time.
    block = 256
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        result = tree.knn_batch(queries[start:stop], k,
                                engine="traverse", record_traces=True)
        for i, trace in enumerate(result.traces):
            visited = tree.point_index[np.array(trace, dtype=np.int64)]
            counts[start + i] = len(np.unique(assignment[visited]))
    return counts

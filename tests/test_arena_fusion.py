"""Arena-fusion suite: one lockstep launch per batch must be invisible.

The contract of the fused multi-window traversal arena
(:class:`repro.spatial.kdtree.TraversalArena` +
:meth:`repro.runtime.WindowScheduler.execute_by_window` fusion): on
every backend and both splitting modes, fused dispatch is **bit-equal**
to a per-window oracle — each query run through the scalar per-query
kernel (:meth:`KDTree.knn` / :meth:`KDTree.range_search`) of a tree
built over its serving window's points — in indices, distances,
counts, steps and terminated flags, and the result cache counts one
lookup per window unit, while :class:`repro.runtime.RuntimeStats`
accounts each fused launch exactly.  Fault injection targeting a fused
unit's primary window must recover bit-safe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.errors import ValidationError
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    SupervisionConfig,
    WorkUnit,
    fusion_signature,
)
from repro.spatial import ChunkGrid, ChunkedIndex, KDTree, chunk_windows
from repro.spatial.kdtree import (
    QueryResult,
    TraversalArena,
    engine_tuning,
    reset_engine_tuning,
    set_engine_tuning,
)
from repro.spatial.neighbors import WindowResultCache
from repro.streaming import StreamSession

WORKERS = 2
BACKENDS = ["serial", "thread", "shm", "fleet"]


@pytest.fixture(autouse=True)
def _restore_engine_tuning():
    yield
    reset_engine_tuning()


def _splitting(mode):
    if mode == "spatial":
        return (3, 3, 1), (2, 2, 1)
    return (4, 1, 1), (2, 1, 1)


def _windowed_index(pts, backend, mode="spatial", **kwargs):
    shape, kernel = _splitting(mode)
    grid = ChunkGrid.fit(pts, shape)
    windows = chunk_windows(shape, kernel)
    return ChunkedIndex(pts, grid.assign(pts), windows,
                        executor=backend, executor_workers=WORKERS,
                        **kwargs), grid


def _scalar_oracle(index, queries, chunks, kind, **params):
    """Per-window oracle rows: every query against a fresh tree over its
    serving window's points, through the scalar per-query kernel, with
    indices mapped back to the original point array."""
    trees = {}
    rows = []
    for query, window in zip(queries, index.window_of_queries(chunks)):
        members = index._members[int(window)]
        if not len(members):
            rows.append(QueryResult(np.zeros(0, dtype=np.int64),
                                    np.zeros(0), 0, False))
            continue
        if window not in trees:
            trees[window] = KDTree(index.positions[members])
        if kind == "knn":
            local = trees[window].knn(query, **params)
        else:
            local = trees[window].range_search(query, **params)
        rows.append(QueryResult(members[local.indices], local.distances,
                                local.steps, local.terminated))
    return rows


def _assert_matches_oracle(got, rows):
    assert len(got.counts) == len(rows)
    for i, want in enumerate(rows):
        row = got.row(i)
        np.testing.assert_array_equal(row.indices, want.indices)
        np.testing.assert_array_equal(row.distances, want.distances)
        assert (row.steps, row.terminated) == (want.steps, want.terminated)
        count = int(got.counts[i])
        assert (got.indices[i, count:] == -1).all()
        assert np.isinf(got.distances[i, count:]).all()


def _assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.steps, want.steps)
    np.testing.assert_array_equal(got.terminated, want.terminated)


# ----------------------------------------------------------------------
# Fused dispatch vs the scalar oracle across the backend matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["spatial", "serial"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["knn", "range"])
def test_fused_bit_equal(rng, backend, mode, kind):
    pts = rng.uniform(0, 1, size=(420, 3))
    queries = rng.uniform(0, 1, size=(150, 3))
    fused, grid = _windowed_index(pts, backend, mode)
    chunks = grid.assign(queries)
    try:
        if kind == "knn":
            got = fused.query_knn_batch(queries, chunks, 5, max_steps=24)
            want = _scalar_oracle(fused, queries, chunks, "knn", k=5,
                                  max_steps=24)
        else:
            got = fused.query_range_batch(queries, chunks, 0.25,
                                          max_steps=30, max_results=7)
            want = _scalar_oracle(fused, queries, chunks, "range",
                                  radius=0.25, max_steps=30,
                                  max_results=7)
        _assert_matches_oracle(got, want)
        stats = fused._runtime().executor.runtime_stats
        assert stats.arena_launches >= 1
        assert sum(size * n for size, n
                   in stats.arena_units_fused.items()) >= 2
    finally:
        fused.close()


def test_fused_uncapped_knn_traverse_engine(rng):
    """Uncapped kNN fuses only under an explicit traverse engine (auto
    may resolve to the scan per window) and stays bit-equal."""
    pts = rng.uniform(0, 1, size=(400, 3))
    queries = rng.uniform(0, 1, size=(140, 3))
    fused, grid = _windowed_index(pts, "serial")
    chunks = grid.assign(queries)
    try:
        got = fused.query_knn_batch(queries, chunks, 4, engine="traverse")
        want = _scalar_oracle(fused, queries, chunks, "knn", k=4)
        _assert_matches_oracle(got, want)
        assert fused._runtime().executor.runtime_stats.arena_launches >= 1
    finally:
        fused.close()


def test_uncapped_auto_and_traced_units_never_fuse(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4], params={"k": 3, "max_steps": None})
    assert fusion_signature(unit) is None          # uncapped auto
    unit = WorkUnit(window=0, rows=np.arange(4), kind="range",
                    queries=pts[:4],
                    params={"radius": 0.2, "max_steps": None})
    assert fusion_signature(unit) is None          # uncapped range
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4],
                    params={"k": 3, "max_steps": 9, "record_traces": True})
    assert fusion_signature(unit) is None          # traced
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4], params={"k": 3, "max_steps": 9})
    assert fusion_signature(unit) is not None


# ----------------------------------------------------------------------
# Arena vs scalar oracle (fuzzed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arena_matches_per_tree_oracle_fuzzed(seed):
    """Direct arena launches match per-tree reference calls, including
    the scalar kernel (members with < 32 lanes) and k > n_w padding."""
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1, 120, size=4)]
    trees = [KDTree(rng.uniform(0, 1, size=(s, 3))) for s in sizes]
    arena = TraversalArena(trees)
    splits = [int(s) for s in rng.integers(1, 12, size=4)]
    queries = rng.uniform(0, 1, size=(sum(splits), 3))
    for k in (1, 4, 200):
        for cap in (3, 17, None):
            got = arena.knn_fused(queries, splits, k, max_steps=cap)
            start = 0
            for i, (tree, n_q) in enumerate(zip(trees, splits)):
                # The arena always traverses; pin the oracle's engine
                # too (uncapped auto resolves to the scan, whose step
                # counts mean something else — that is exactly why
                # fusion_signature refuses uncapped auto units).
                want = tree.knn_batch(queries[start:start + n_q], k,
                                      max_steps=cap, engine="traverse")
                _assert_batches_equal(got[i], want)
                start += n_q
    for radius in (0.1, 0.4):
        for max_results in (3, None):
            got = arena.range_fused(queries, splits, radius, 21,
                                    max_results=max_results)
            start = 0
            for i, (tree, n_q) in enumerate(zip(trees, splits)):
                want = tree.range_batch(
                    queries[start:start + n_q], radius, max_steps=21,
                    max_results=max_results)
                _assert_batches_equal(got[i], want)
                start += n_q


def test_arena_rejects_uncapped_range_and_bad_splits(rng):
    trees = [KDTree(rng.uniform(0, 1, size=(20, 3))) for _ in range(2)]
    arena = TraversalArena(trees)
    queries = rng.uniform(0, 1, size=(6, 3))
    with pytest.raises(ValidationError):
        arena.range_fused(queries, [3, 3], 0.2, None)
    with pytest.raises(ValidationError):
        arena.knn_fused(queries, [3, 2], 2, max_steps=5)


# ----------------------------------------------------------------------
# Degenerates: single window, empty batch
# ----------------------------------------------------------------------
def test_single_window_and_empty_batches_never_fuse(rng):
    pts = rng.uniform(0, 1, size=(120, 3))
    grid = ChunkGrid.fit(pts, (1, 1, 1))
    windows = chunk_windows((1, 1, 1), (1, 1, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows,
                         executor="serial")
    try:
        queries = rng.uniform(0, 1, size=(40, 3))
        got = index.query_knn_batch(queries, grid.assign(queries), 3,
                                    max_steps=16)
        assert got.indices.shape == (40, 3)
        empty = index.query_knn_batch(np.zeros((0, 3)),
                                      np.zeros(0, dtype=np.int64), 3,
                                      max_steps=16)
        assert empty.indices.shape == (0, 3)
        assert index._runtime().executor.runtime_stats.arena_launches == 0
    finally:
        index.close()


# ----------------------------------------------------------------------
# Cache counters are untouched by fusion
# ----------------------------------------------------------------------
def test_cache_counters_identical_under_fusion(rng):
    """The cache sees the per-window units, not the fused launch: one
    miss per served window, then one hit per window on the replay."""
    pts = rng.uniform(0, 1, size=(360, 3))
    queries = rng.uniform(0, 1, size=(130, 3))
    index, grid = _windowed_index(pts, "serial")
    index.result_cache = WindowResultCache(64)
    chunks = grid.assign(queries)
    try:
        served = {int(w) for w in index.window_of_queries(chunks)
                  if not index.window_is_empty(int(w))}
        first = index.query_knn_batch(queries, chunks, 4, max_steps=20)
        assert (index.cache_hits, index.cache_misses) == (0, len(served))
        replay = index.query_knn_batch(queries, chunks, 4, max_steps=20)
        _assert_batches_equal(replay, first)
        _assert_matches_oracle(replay, _scalar_oracle(
            index, queries, chunks, "knn", k=4, max_steps=20))
        assert (index.cache_hits, index.cache_misses) \
            == (len(served), len(served))
        # The replay is served by the cache: no second launch.
        assert index._runtime().executor.runtime_stats.arena_launches == 1
    finally:
        index.close()


# ----------------------------------------------------------------------
# Arena stats accounting
# ----------------------------------------------------------------------
def test_arena_stats_exact_on_serial(rng):
    pts = rng.uniform(0, 1, size=(400, 3))
    queries = rng.uniform(0, 1, size=(120, 3))
    index, grid = _windowed_index(pts, "serial")
    try:
        index.query_knn_batch(queries, grid.assign(queries), 4,
                              max_steps=18)
        stats = index._runtime().executor.runtime_stats
        # Serial has one fusion slot: all four windows fuse into one
        # launch whose viewed bytes are the packed node footprint.
        assert stats.arena_launches == 1
        assert stats.arena_units_fused == {4: 1}
        nodes = sum(len(index._members[w])
                    for w in range(len(index.windows)))
        assert stats.arena_bytes_viewed == nodes * 49
        snap = stats.snapshot()
        for key in ("arena_launches", "arena_units_fused",
                    "arena_bytes_viewed"):
            assert key in snap
    finally:
        index.close()


# ----------------------------------------------------------------------
# Fault injection targeting a fused unit
# ----------------------------------------------------------------------
def test_fused_unit_raise_retries_bit_safe(rng):
    """An in-unit raise on the fused unit's primary window retries the
    whole arena launch bit-safe with exact counters."""
    pts = np.random.default_rng(5).uniform(0, 1, size=(400, 3))
    queries = np.random.default_rng(6).uniform(0, 1, size=(120, 3))
    # Serial fuses every window into one unit carrying the lowest
    # member window id — target it.
    injector = FaultInjector([FaultSpec(kind="raise", window=0)])
    index, grid = _windowed_index(pts, injector.executor("serial"))
    chunks = grid.assign(queries)
    try:
        got = index.query_knn_batch(queries, chunks, 4, max_steps=18)
        _assert_matches_oracle(got, _scalar_oracle(
            index, queries, chunks, "knn", k=4, max_steps=18))
        assert injector.fire_counts == [1]
        assert index.fault_stats.retries == 1
        assert index.fault_stats.degradations == []
        assert index._runtime().executor.runtime_stats.arena_launches >= 1
    finally:
        index.close()


def test_fused_unit_crash_respawns_bit_safe(rng):
    """A worker crash mid-arena on the forked pool respawns the slot
    and re-dispatches the fused unit bit-safe."""
    pts = np.random.default_rng(7).uniform(0, 1, size=(400, 3))
    queries = np.random.default_rng(8).uniform(0, 1, size=(120, 3))
    injector = FaultInjector([FaultSpec(kind="crash", window=0)])
    index, grid = _windowed_index(pts, injector.executor("shm"),
                                  supervision=SupervisionConfig(
                                      unit_timeout=5.0))
    chunks = grid.assign(queries)
    try:
        got = index.query_knn_batch(queries, chunks, 4, max_steps=18)
        _assert_matches_oracle(got, _scalar_oracle(
            index, queries, chunks, "knn", k=4, max_steps=18))
        if index.effective_executor != "shm":
            pytest.skip("fork unavailable; pool fell back")
        assert injector.fire_counts == [1]
        assert index.fault_stats.retries == 1
        assert index.fault_stats.respawns == 1
    finally:
        index.close()


# ----------------------------------------------------------------------
# Uncapped lockstep calibration (profile_steps)
# ----------------------------------------------------------------------
def test_profile_steps_lockstep_matches_scalar(rng):
    pts = rng.uniform(0, 1, size=(500, 3))
    tree = KDTree(pts)
    queries = rng.uniform(0, 1, size=(96, 3))
    got = tree.profile_steps(queries, 8)        # lockstep cap-doubling
    want = np.concatenate([
        tree.profile_steps(queries[i:i + 8], 8)  # scalar kernel (< 32)
        for i in range(0, len(queries), 8)])
    np.testing.assert_array_equal(got, want)
    assert not tree.knn_batch(queries, 8, engine="traverse"
                              ).terminated.any()


# ----------------------------------------------------------------------
# Engine tuning knobs
# ----------------------------------------------------------------------
def test_engine_tuning_set_and_reset():
    base = engine_tuning()
    set_engine_tuning(scan_max_points=1024)
    assert engine_tuning()["scan_max_points"] == 1024
    assert engine_tuning()["scan_block_elems"] == base["scan_block_elems"]
    set_engine_tuning(scan_block_elems=2048)
    assert engine_tuning()["scan_block_elems"] == 2048
    reset_engine_tuning()
    assert engine_tuning() == base
    for bad in (0, -4, "nope", 2.5):
        with pytest.raises(ValidationError):
            set_engine_tuning(scan_max_points=bad)


def test_engine_tuning_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_SCAN_MAX_POINTS", "4096")
    monkeypatch.setenv("REPRO_SCAN_BLOCK_ELEMS", "8192")
    reset_engine_tuning()
    assert engine_tuning() == {"scan_max_points": 4096,
                               "scan_block_elems": 8192}
    monkeypatch.setenv("REPRO_SCAN_MAX_POINTS", "zero")
    with pytest.raises(ValidationError):
        reset_engine_tuning()


def test_config_engine_tuning_knobs():
    config = StreamGridConfig(scan_max_points=512, scan_block_elems=4096)
    config.apply_engine_tuning()
    assert engine_tuning() == {"scan_max_points": 512,
                               "scan_block_elems": 4096}
    reset_engine_tuning()
    # None/None is a pure no-op, not a reset to defaults.
    set_engine_tuning(scan_max_points=777)
    StreamGridConfig().apply_engine_tuning()
    assert engine_tuning()["scan_max_points"] == 777
    for bad in ({"scan_max_points": 0}, {"scan_block_elems": -1},
                {"scan_max_points": True}, {"scan_block_elems": "x"}):
        with pytest.raises(ValidationError):
            StreamGridConfig(**bad)


def test_tuning_never_changes_results(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    queries = rng.uniform(0, 1, size=(64, 3))
    tree = KDTree(pts)
    want = tree.knn_batch(queries, 5)
    set_engine_tuning(scan_max_points=1, scan_block_elems=4096)
    got = tree.knn_batch(queries, 5)
    reset_engine_tuning()
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------
def test_session_surfaces_arena_stats(rng):
    frames = [rng.uniform(-1, 1, size=(300, 3)) for _ in range(2)]
    config = StreamGridConfig(
        splitting=SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1)),
        termination=TerminationConfig(deadline_steps=40))
    with StreamSession(config, k=4) as session:
        fused_frames = []
        for frame in frames:
            out = session.process(frame)
            # Self-query frame: each point queries its own chunk's
            # serving window at the fixed deadline.
            index = session._index
            _assert_matches_oracle(out.result, _scalar_oracle(
                index, index.positions, index.assignment, "knn", k=4,
                max_steps=out.deadline))
            fused_frames.append(out)
        fused_stats = session.stats
    assert fused_stats.arena_launches >= 1
    assert fused_stats.arena_bytes_viewed > 0
    assert sum(fused_stats.arena_units_fused.values()) \
        == fused_stats.arena_launches
    assert "arena_launches" in fused_frames[0].runtime

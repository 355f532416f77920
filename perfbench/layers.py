"""Per-layer metrics from a traced run's spans and session counters.

Times are per warm frame (total over the traced warm frames divided by
their number).  Unless a metric says otherwise it is *self* time: a
span's duration minus its same-thread children, so the frame thread's
self times partition the frame.  Counts come from the public
``SessionStats`` fields, read before and after a fixed window of warm
frames, and are reported as integers per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from perfbench.tracer import Span, self_times

BUILD = "KDTree.__init__"
BUILD_WAIT = ("ChunkedIndex.finish_windows", "ChunkedIndex.max_tree_depth",
              "ChunkedIndex.snapshot_state")
KERNEL = ("KDTree.knn_batch", "KDTree.range_batch",
          "TraversalArena.__init__", "TraversalArena.knn_fused",
          "TraversalArena.range_fused")
CACHE = ("WindowResultCache.key", "WindowResultCache.lookup",
         "WindowResultCache.store")
PROFILE = "ChunkedIndex.query_knn_batch"
EXECUTE = "StreamSession.execute"
SCHEDULER = "WindowScheduler.execute_by_window"

#: Per-layer metric -> unit, in the order printed (definitions:
#: perfbench/README.md).
METRICS = {
    "session.self_ms": "ms",
    "splitting.partition_ms": "ms",
    "splitting.route_ms": "ms",
    "neighbors.ingest_ms": "ms",
    "neighbors.dispatch_ms": "ms",
    "neighbors.build_wait_ms": "ms",
    "neighbors.windows_rebuilt": "count",
    "neighbors.trees_reused": "count",
    "kdtree.build_ms": "ms",
    "kdtree.builds": "count",
    "kdtree.kernel_ms": "ms",
    "kdtree.arena_launches": "count",
    "kdtree.steps": "count",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "deadline.profile_ms": "ms",
    "deadline.calibrations": "count",
    "deadline.drift_checks": "count",
    "scheduler.execute_ms": "ms",
    "scheduler.overhead_ms": "ms",
    "runtime.bytes_shipped": "bytes",
    "runtime.queue_fallback_units": "count",
    "runtime.retries": "count",
    "runtime.respawns": "count",
    "service.wait_ms": "ms",
    "loadgen.late_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: SessionStats field behind each count metric.
STAT_FIELDS = {
    "neighbors.windows_rebuilt": "windows_rebuilt",
    "neighbors.trees_reused": "trees_reused",
    "kdtree.arena_launches": "arena_launches",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "deadline.calibrations": "calibrations",
    "deadline.drift_checks": "drift_checks",
    "runtime.bytes_shipped": "state_bytes_shipped",
    "runtime.queue_fallback_units": "queue_fallback_units",
    "runtime.retries": "retries",
    "runtime.respawns": "respawns",
}


def stats_counts(session_stats: Iterable) -> Dict[str, int]:
    """Sum the integer counters of several ``SessionStats``."""
    totals = {field: 0 for field in STAT_FIELDS.values()}
    for stats in session_stats:
        for field in totals:
            totals[field] += int(getattr(stats, field))
    return totals


def _descendants(span: Span, children: Dict[int, List[Span]]):
    stack = list(children.get(span.sid, ()))
    while stack:
        child = stack.pop()
        if child.thread == span.thread:
            yield child
            stack.extend(children.get(child.sid, ()))


def per_layer(spans: List[Span], warm: set, count_frames: set,
              counts_before: Dict[str, int], counts_after: Dict[str, int],
              wait_ms: float, late_ms: float,
              overhead_ratio: float) -> Dict[str, float]:
    """Every metric of :data:`METRICS` for one traced run.

    *warm* holds the frame ids timed; *count_frames* the (fixed) frame
    ids whose span counts are reported; the counter snapshots bracket
    that same window.
    """
    n = max(1, len(warm))
    own = self_times(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    ms: Dict[str, float] = {}

    def add(metric: str, value_ns: float) -> None:
        ms[metric] = ms.get(metric, 0.0) + value_ns / 1e6 / n

    names = {
        EXECUTE: "session.self_ms",
        "partition_cloud": "splitting.partition_ms",
        "queries_to_chunks": "splitting.route_ms",
        "ChunkedIndex.update_frame": "neighbors.ingest_ms",
        "ChunkedIndex.query_mixed_batch": "neighbors.dispatch_ms",
        SCHEDULER: "scheduler.overhead_ms",
    }
    names.update({name: "neighbors.build_wait_ms" for name in BUILD_WAIT})
    names.update({name: "kdtree.kernel_ms" for name in KERNEL})
    names.update({name: "cache.lookup_ms" for name in CACHE})
    builds = steps = 0
    for span in spans:
        if span.frame in count_frames:
            builds += span.name == BUILD
            steps += span.steps
        if span.frame not in warm:
            continue
        if span.name in names:
            add(names[span.name], own[span.sid])
        if span.name == BUILD:
            add("kdtree.build_ms", span.dur)
        elif span.name == SCHEDULER:
            add("scheduler.execute_ms", span.dur)
        elif span.name == PROFILE:
            charged = sum(child.dur for child in _descendants(span, children)
                          if child.name == BUILD
                          or child.name in BUILD_WAIT)
            add("deadline.profile_ms", span.dur - charged)
    out: Dict[str, float] = {}
    for metric, unit in METRICS.items():
        if unit == "ms":
            out[metric] = ms.get(metric, 0.0)
    for metric, field in STAT_FIELDS.items():
        out[metric] = counts_after[field] - counts_before[field]
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    out["kdtree.builds"] = builds
    out["kdtree.steps"] = steps
    out["service.wait_ms"] = wait_ms
    out["loadgen.late_ms"] = late_ms
    out["trace.overhead_ratio"] = overhead_ratio
    return {metric: out[metric] for metric in METRICS}


def frame_self_sums(spans: List[Span], frame_ids: Iterable[int]):
    """Per frame: (root span duration, sum of self times of every span
    of that frame on the root's thread), both in ns."""
    own = self_times(spans)
    roots = {span.frame: span for span in spans if span.name == EXECUTE}
    sums: Dict[int, int] = {}
    for span in spans:
        root = roots.get(span.frame)
        if root is not None and span.thread == root.thread:
            sums[span.frame] = sums.get(span.frame, 0) + own[span.sid]
    return {fid: (roots[fid].dur, sums.get(fid, 0))
            for fid in frame_ids if fid in roots}

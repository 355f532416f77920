"""In-memory span tracer that wraps the program's layer entry points.

The program carries no tracing of its own, so the benchmark records a
span around every call into a fixed list of public functions by
replacing them, for the traced run only, with timing wrappers
(:meth:`Tracer.install` / :meth:`Tracer.uninstall`).  A span records its
name, start and end (``perf_counter_ns``), parent span, thread and frame
id.  The parent is the innermost open span of the same logical context
(a ``contextvars`` variable, which ``asyncio.to_thread`` carries into its
worker thread); builds on the background repair pool have no parent and
take the frame id of the frame that was running when they started.

Spans are kept in a list and written once, at the end, as Chrome
trace-event JSON (:meth:`Tracer.write_chrome`), which Perfetto opens.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_CURRENT_FRAME: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_frame", default=None)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: int
    end: int
    thread: int
    frame: Optional[int]
    #: Traversal steps a kernel call returned (0 for other spans).
    steps: int = 0

    @property
    def dur(self) -> int:
        return self.end - self.start


def _result_steps(result) -> int:
    """Steps in a kernel's return value (one result or one per member)."""
    if isinstance(result, list):
        return sum(int(r.steps.sum()) for r in result)
    return int(result.steps.sum())


def targets():
    """``(owner, attribute, span name, counts steps)`` for every traced
    entry point.  Imported lazily so importing this module stays cheap."""
    import repro.streaming.session as session_mod
    from repro.runtime.scheduler import WindowScheduler
    from repro.spatial.kdtree import KDTree, TraversalArena
    from repro.spatial.neighbors import ChunkedIndex, WindowResultCache
    from repro.streaming.service import StreamService
    from repro.streaming.session import StreamSession

    return [
        (StreamSession, "execute", "StreamSession.execute", False),
        (StreamService, "submit", "StreamService.submit", False),
        # Patched where the session looks them up.
        (session_mod, "partition_cloud", "partition_cloud", False),
        (session_mod, "queries_to_chunks", "queries_to_chunks", False),
        (ChunkedIndex, "update_frame", "ChunkedIndex.update_frame", False),
        (ChunkedIndex, "query_mixed_batch",
         "ChunkedIndex.query_mixed_batch", False),
        (ChunkedIndex, "query_knn_batch", "ChunkedIndex.query_knn_batch",
         False),
        (ChunkedIndex, "finish_windows", "ChunkedIndex.finish_windows",
         False),
        (ChunkedIndex, "max_tree_depth", "ChunkedIndex.max_tree_depth",
         False),
        (ChunkedIndex, "snapshot_state", "ChunkedIndex.snapshot_state",
         False),
        (WindowResultCache, "key", "WindowResultCache.key", False),
        (WindowResultCache, "lookup", "WindowResultCache.lookup", False),
        (WindowResultCache, "store", "WindowResultCache.store", False),
        (KDTree, "__init__", "KDTree.__init__", False),
        (KDTree, "knn_batch", "KDTree.knn_batch", True),
        (KDTree, "range_batch", "KDTree.range_batch", True),
        (TraversalArena, "__init__", "TraversalArena.__init__", False),
        (TraversalArena, "knn_fused", "TraversalArena.knn_fused", True),
        (TraversalArena, "range_fused", "TraversalArena.range_fused", True),
        (WindowScheduler, "execute_by_window",
         "WindowScheduler.execute_by_window", False),
    ]


class Tracer:
    """Collects spans from wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patched: List[tuple] = []
        #: Span name -> the module (layer) defining the traced function.
        self._layers: Dict[str, str] = {}
        #: Frame id given to spans opened outside any frame context
        #: (background repair threads): the latest frame started.
        self._fallback_frame: Optional[int] = None
        self.origin = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, counts_steps in targets():
            original = inspect.getattr_static(owner, attr)
            fn = getattr(original, "__func__", original)
            self._layers[name] = fn.__module__.removeprefix("repro.")
            replacement = self._wrap(fn, name, counts_steps)
            if isinstance(original, staticmethod):
                replacement = staticmethod(replacement)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def frame(self, frame_id: int):
        """Attribute every span opened in this context to *frame_id*."""
        token = _CURRENT_FRAME.set(frame_id)
        self._fallback_frame = frame_id
        try:
            yield
        finally:
            _CURRENT_FRAME.reset(token)

    def _open(self):
        sid = next(self._ids)
        parent = _CURRENT_SPAN.get()
        frame = _CURRENT_FRAME.get()
        if frame is None:
            frame = self._fallback_frame
        return sid, parent, frame, _CURRENT_SPAN.set(sid)

    def _close(self, opened, name, start, result, counts_steps) -> None:
        end = time.perf_counter_ns()
        sid, parent, frame, token = opened
        _CURRENT_SPAN.reset(token)
        steps = _result_steps(result) \
            if counts_steps and result is not None else 0
        self.spans.append(Span(sid, parent, name, start, end,
                               threading.get_ident(), frame, steps))

    def _wrap(self, fn, name: str, counts_steps: bool):
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = self._open()
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._close(opened, name, start, result, counts_steps)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(opened, name, start, result, counts_steps)

        return traced

    # ------------------------------------------------------------------
    def write_chrome(self, path: str, frame_labels: Dict[int, str]) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "cat": self._layers.get(span.name, ""),
                "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - self.origin) / 1e3,
                "dur": span.dur / 1e3,
                "args": {"span": span.sid, "parent": span.parent,
                         "frame": frame_labels.get(span.frame,
                                                   span.frame),
                         "steps": span.steps},
            })
        for ident, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid,
                           "args": {"name": f"thread-{tid} ({ident})"}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> duration minus the durations of same-thread children."""
    by_id = {span.sid: span for span in spans}
    child_ns: Dict[int, int] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            child_ns[parent.sid] = child_ns.get(parent.sid, 0) + span.dur
    return {span.sid: span.dur - child_ns.get(span.sid, 0)
            for span in spans}


def nesting_errors(spans: List[Span]) -> List[str]:
    """Same-thread children that leave their parent's interval, and
    negative self times; empty when the trace is well formed."""
    by_id = {span.sid: span for span in spans}
    errors = []
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread and not (
                parent.start <= span.start and span.end <= parent.end):
            errors.append(f"{span.name}#{span.sid} escapes "
                          f"{parent.name}#{parent.sid}")
    for sid, own in self_times(spans).items():
        if own < 0:
            errors.append(f"{by_id[sid].name}#{sid} self time {own} ns")
    return errors

"""Load generators: session set-up, the closed loop, and the open loop.

A closed loop issues the next frame as soon as the previous one returns
(one caller). The open loop is a set of independent sensors: every frame
has a due time on a fixed schedule, is submitted as its own asyncio task
when it falls due, and is timed from that due time, so a stall shows as
waiting for every later frame. Each ladder rung starts with an empty
backlog.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import StreamGridConfig
from repro.errors import AdmissionError
from repro.runtime.fleet import FleetConfig
from repro.spatial.neighbors import reset_shared_result_cache
from repro.streaming import StreamSession
from repro.streaming.service import StreamService

from perfbench.gate import digest_frame


@dataclass
class FrameRecord:
    """One attempted frame, as the load generator saw it."""

    fid: int
    tenant: int
    index: int
    #: When the frame was due (open loop: its schedule slot; closed loop:
    #: the moment the caller issued it).
    due: float
    #: When ``execute`` / ``submit`` was called, and when it returned.
    issued: float = 0.0
    end: float = 0.0
    #: Closed loop: the caller's own time between the previous frame's
    #: return and this call (result digests, bookkeeping).
    gap: float = 0.0
    deadline: Optional[int] = None
    digests: Optional[Dict[str, tuple]] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.end > 0.0


def _outcome(record: FrameRecord, result) -> None:
    if not result.ok:
        record.error = f"quarantined: {result.error}"
        return
    record.deadline = result.deadline
    record.digests = digest_frame(result)


def _tracing(tracer, fid):
    return tracer.frame(fid) if tracer is not None \
        else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def open_session(workload, sizes, inputs):
    """Construct a session and run frame 0; returns (session, seconds)."""
    plan = workload.plan(sizes)
    start = time.perf_counter()
    session = StreamSession(
        StreamGridConfig(splitting=workload.splitting), k=sizes.k)
    session.execute(inputs.frames[0][0], plan, inputs.blocks[0][0])
    return session, time.perf_counter() - start


def closed_loop(session, plan, inputs, first: int, seconds: float,
                min_frames: int, ids, tracer=None,
                last: Optional[int] = None,
                period: int = 1) -> List[FrameRecord]:
    """Frames ``first..`` back to back for *seconds* (at least
    *min_frames*, and a multiple of *period*), or exactly frames
    ``first..last-1`` when *last* is given."""
    frames, blocks = inputs.frames[0], inputs.blocks[0]
    stop = len(frames) if last is None else last
    records: List[FrameRecord] = []
    stop_at = time.perf_counter() + seconds
    prev_end = time.perf_counter()
    for index in range(first, stop):
        now = time.perf_counter()
        if last is None and now >= stop_at and len(records) >= min_frames \
                and len(records) % period == 0:
            break
        record = FrameRecord(next(ids), 0, index, due=now,
                             gap=now - prev_end)
        with _tracing(tracer, record.fid):
            record.issued = time.perf_counter()
            try:
                result = session.execute(frames[index], plan,
                                         blocks[index])
            except Exception as exc:  # a failed frame is a measurement
                result = None
                record.error = f"{type(exc).__name__}: {exc}"
            record.end = time.perf_counter()
        if result is not None:
            _outcome(record, result)
        records.append(record)
        prev_end = record.end
    return records


# ----------------------------------------------------------------------
# Open loop (StreamService on a private ShardFleet)
# ----------------------------------------------------------------------
async def open_service(workload, sizes, inputs):
    """Construct the service (and its fleet) and run every tenant's
    frame 0 concurrently; returns (service, seconds)."""
    plan = workload.plan(sizes)
    reset_shared_result_cache()
    start = time.perf_counter()
    service = StreamService(
        StreamGridConfig(splitting=workload.splitting), k=sizes.k,
        fleet_config=FleetConfig(backend="shm", n_workers=sizes.workers),
        # Never block a submit: the backlog lives in the tenant's
        # frame-order queue, where it is measured.
        max_pending=1 << 16)
    try:
        await asyncio.gather(*(
            service.submit(tenant, inputs.frames[tenant][0], plan=plan,
                           blocks=inputs.blocks[tenant][0])
            for tenant in range(workload.tenants)))
    except BaseException:
        service.close()
        raise
    return service, time.perf_counter() - start


@dataclass
class Rung:
    rate: float
    records: List[FrameRecord] = field(default_factory=list)


async def open_loop_rung(service, plan, inputs, rate: float, n_frames: int,
                         first: int, ids, tracer=None,
                         timeout: float = 120.0) -> Rung:
    """Offer *n_frames* round-robin over the tenants at *rate* frames/s
    (aggregate); tenant frames ``first..`` in order."""
    tenants = len(inputs.frames)
    rung = Rung(rate)
    start = time.perf_counter() + 0.05

    async def one(record: FrameRecord) -> None:
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        with _tracing(tracer, record.fid):
            record.issued = time.perf_counter()
            try:
                result = await service.submit(
                    record.tenant, inputs.frames[record.tenant][record.index],
                    plan=plan,
                    blocks=inputs.blocks[record.tenant][record.index])
            except AdmissionError as exc:
                record.error = f"shed: {exc}"
                result = None
            except Exception as exc:  # a failed frame is a measurement
                record.error = f"{type(exc).__name__}: {exc}"
                result = None
            record.end = time.perf_counter()
        if result is not None:
            _outcome(record, result)

    tasks = []
    for j in range(n_frames):
        record = FrameRecord(next(ids), j % tenants, first + j // tenants,
                             due=start + j / rate)
        rung.records.append(record)
        tasks.append(asyncio.create_task(one(record)))
    done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in done:
        task.result()
    for record in rung.records:
        if not record.done and record.error is None:
            record.error = "unfinished at the end of the rung"
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    return rung


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: List[float]):
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it: the (n-10)-th smallest value.  Under 20
    samples that rank falls below the median, so the median is reported
    instead (the printed percentile says so)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n


def latency_summary(latencies_s: List[float]) -> Dict[str, float]:
    ms = [v * 1e3 for v in latencies_s]
    tail_ms, pct = tail(ms)
    return {"p50_ms": statistics.median(ms), "tail_ms": tail_ms,
            "tail_pct": pct, "n": len(ms)}


def rung_summary(rung: Rung, limit_ms: float) -> Dict[str, float]:
    """Latency from due time, achieved offered rate, and backlog growth."""
    ok = [r for r in rung.records if r.done and r.error is None]
    summary = latency_summary([r.end - r.due for r in ok]) if ok else \
        {"p50_ms": float("inf"), "tail_ms": float("inf"),
         "tail_pct": 100.0, "n": 0}
    issued = sorted(r.issued for r in rung.records if r.issued)
    summary["offered_fps"] = (len(issued) - 1) / (issued[-1] - issued[0]) \
        if len(issued) > 1 and issued[-1] > issued[0] else 0.0
    ends = sorted(r.end for r in ok)
    summary["completed_fps"] = (len(ends) - 1) / (ends[-1] - ends[0]) \
        if len(ends) > 1 and ends[-1] > ends[0] else 0.0
    # Frames outstanding (due, not yet returned) at each frame's due time.
    records = rung.records
    outstanding = [sum(1 for r in records[:j] if not r.done
                       or r.end > records[j].due)
                   for j in range(len(records))]
    third = max(1, len(records) // 3)
    growth = statistics.mean(outstanding[-third:]) \
        - statistics.mean(outstanding[:third])
    summary["backlog_growth"] = growth
    summary["ok"] = (len(ok) == len(records)
                     and summary["tail_ms"] <= limit_ms and growth <= 1.0)
    return summary

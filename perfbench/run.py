#!/usr/bin/env python3
"""Warm-frame benchmark of the StreamGrid streaming stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial-8w --seed 1 --seconds 8 \
        --trace 0

``--trace 0`` times untraced warm frames and prints the end-to-end
metrics; ``--trace 1`` runs the same inputs with every layer entry point
wrapped in a span and prints the per-layer metrics, writing the spans as
Chrome trace-event JSON under ``perfbench/out/``.  Either way every
timed frame is checked bit for bit against a cold serial rebuild, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    import numpy as np
    import repro  # noqa: F401  (the program under test, built from src/)
except ImportError as _exc:  # pragma: no cover - exercised by the CLI
    if __name__ == "__main__":
        print(f"perfbench: cannot import the program from {SRC}: {_exc}",
              file=sys.stderr)
        sys.exit(2)
    raise

from perfbench import gate, layers, loops
from perfbench.tracer import Tracer, nesting_errors
from perfbench.workloads import SCALES, WORKLOADS, frames_needed, make_inputs

#: End-to-end metric -> unit, in the order printed.
END_TO_END = {
    "frames_per_s": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Frame-thread self times must sum to the frame wall time the loop
#: measured around ``execute`` within this share plus this many ms.
SELF_SUM_TOLERANCE = (0.02, 0.5)

RUNG_NAMES = ("lo", "mid", "hi")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(args, workload, sizes, n_frames):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": sha,
        "src_sha1": digest.hexdigest(),
        "sizes": {"n_points": sizes.n_points, "n_queries": sizes.n_queries,
                  "k": sizes.k, "frames_generated": n_frames,
                  "tenants": workload.tenants,
                  "splitting": str(workload.splitting),
                  "plan": [op.name for op in workload.plan(sizes).ops]},
    }


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _checks(records, inputs):
    return [(f"{r.tenant}:{r.index}", inputs.frames[r.tenant][r.index],
             inputs.blocks[r.tenant][r.index], r.deadline, r.digests)
            for r in records if r.digests is not None]


def _gate(workload, sizes, inputs, records, perturb):
    """``(frame label, failure)``: failed frames, then mismatches."""
    failures = [(f"{r.tenant}:{r.index}", r.error)
                for r in records if r.error is not None]
    failures += gate.verify(workload.splitting, workload.plan(sizes),
                            _checks(records, inputs), perturb=perturb)
    return failures


def _leaks(grace: float = 5.0):
    """Leftover shm segments and live child processes after a run."""
    stop = time.monotonic() + grace
    while gate.child_pids() and time.monotonic() < stop:
        time.sleep(0.05)
    return ([f"leaked shm segment /dev/shm/{name}"
             for name in gate.shm_segments()]
            + [f"live child process {pid}" for pid in gate.child_pids()])


def _rss_mb(extra_kb: int = 0) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + extra_kb) / 1024.0


def _closed_e2e(records):
    ok = [r for r in records if r.error is None]
    wall = records[-1].end - records[0].issued
    summary = loops.latency_summary([r.end - r.issued for r in ok])
    return {"frames_per_s": len(ok) / wall,
            "frame_ms_p50": summary["p50_ms"],
            "frame_ms_tail": summary["tail_ms"]}, summary


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def run_closed(args, workload, sizes, inputs, report):
    plan = workload.plan(sizes)
    ids = itertools.count(1)
    if not args.trace:
        setups = []
        for i in range(sizes.setup_opens):
            session, seconds = loops.open_session(workload, sizes, inputs)
            setups.append(seconds)
            if i + 1 < sizes.setup_opens:
                session.close()
        try:
            records = loops.closed_loop(session, plan, inputs, 1,
                                        args.seconds, 2, ids,
                                        period=workload.period)
            rss = _rss_mb()
        finally:
            session.close()
        metrics, summary = _closed_e2e(records)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        report["setup_opens_s"] = setups
        report["tail"] = {"percentile": summary["tail_pct"],
                          "samples": summary["n"]}
        report["frames_exhausted"] = \
            records[-1].index + 1 == len(inputs.frames[0])
        return metrics, records, []

    # Traced run: a fixed window of warm frames for exact counts, then
    # more traced frames until the time is up.
    session, _ = loops.open_session(workload, sizes, inputs)
    tracer = Tracer()
    start = time.perf_counter()
    try:
        before = layers.stats_counts([session.stats])
        with tracer.installed():
            records = loops.closed_loop(
                session, plan, inputs, 1, 0.0, 0, ids, tracer,
                last=1 + sizes.count_frames)
            after = layers.stats_counts([session.stats])
            records += loops.closed_loop(
                session, plan, inputs, 1 + sizes.count_frames,
                args.seconds - (time.perf_counter() - start), 0, ids,
                tracer, period=workload.period)
    finally:
        session.close()
    traced, _ = _closed_e2e(records)
    # The same frames again, untraced, for the tracing overhead.
    session, _ = loops.open_session(workload, sizes, inputs)
    try:
        replay = loops.closed_loop(session, plan, inputs, 1, 0.0, 0, ids,
                                   last=records[-1].index + 1)
    finally:
        session.close()
    untraced, _ = _closed_e2e(replay)
    problems = [f"untraced replay of frame {a.index} differs from its "
                "traced run" for a, b in zip(records, replay)
                if a.digests != b.digests]
    problems += _trace_problems(tracer, records, closed=True)
    warm = {r.fid for r in records}
    counted = {r.fid for r in records[:sizes.count_frames]}
    metrics = layers.per_layer(
        tracer.spans, warm, counted, before, after,
        wait_ms=_span_wait_ms(tracer, records),
        late_ms=statistics.mean(r.gap for r in records) * 1e3,
        overhead_ratio=untraced["frames_per_s"] / traced["frames_per_s"])
    _write_trace(args, tracer, records, report)
    report["count_frames"] = sizes.count_frames
    report["traced_frames"] = len(records)
    return metrics, records, problems


def _span_wait_ms(tracer, records):
    """Mean time from a frame's due time to its execute span start."""
    starts = {span.frame: span.start for span in tracer.spans
              if span.name == layers.EXECUTE}
    waits = [starts[r.fid] / 1e9 - r.due
             for r in records if r.fid in starts]
    return statistics.mean(waits) * 1e3 if waits else 0.0


def _trace_problems(tracer, records, closed):
    problems = nesting_errors(tracer.spans)[:20]
    if closed:
        share, slack_ms = SELF_SUM_TOLERANCE
        sums = layers.frame_self_sums(tracer.spans,
                                      [r.fid for r in records])
        for record in records:
            root_ns, self_ns = sums.get(record.fid, (0, 0))
            wall_ms = (record.end - record.issued) * 1e3
            if root_ns != self_ns or abs(wall_ms - self_ns / 1e6) > \
                    share * wall_ms + slack_ms:
                problems.append(
                    f"frame {record.index}: self times sum to "
                    f"{self_ns / 1e6:.3f} ms, root span "
                    f"{root_ns / 1e6:.3f} ms, wall {wall_ms:.3f} ms")
    return problems


def _write_trace(args, tracer, records, report):
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir,
                        f"{args.workload}-seed{args.seed}.trace.json")
    tracer.write_chrome(path, {r.fid: f"{r.tenant}:{r.index}"
                               for r in records})
    report["trace_file"] = os.path.relpath(path, os.getcwd())


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
async def run_open(args, workload, sizes, inputs, report):
    plan = workload.plan(sizes)
    ids = itertools.count(1)
    setups = []
    opens = 1 if args.trace else sizes.fleet_setup_opens
    for i in range(opens):
        service, seconds = await loops.open_service(workload, sizes, inputs)
        setups.append(seconds)
        if i + 1 < opens:
            service.close()
    tracer = Tracer() if args.trace else None
    rungs = []
    try:
        sessions = [service.session(t) for t in range(workload.tenants)]
        before = layers.stats_counts(s.stats for s in sessions)
        first = 1
        with tracer.installed() if tracer else contextlib.nullcontext():
            for rate, n_frames in sizes.rungs:
                rungs.append(await loops.open_loop_rung(
                    service, plan, inputs, rate, n_frames, first, ids,
                    tracer))
                first += -(-n_frames // workload.tenants)
        after = layers.stats_counts(s.stats for s in sessions)
        untraced = None
        if tracer is not None:
            untraced = await loops.open_loop_rung(
                service, plan, inputs, *sizes.rungs[-1], first, ids)
        workers_kb = sum(gate.peak_rss_kb(pid) for pid in gate.child_pids())
        rss = _rss_mb(workers_kb)
    finally:
        service.close()
    summaries = [loops.rung_summary(r, sizes.latency_limit_ms)
                 for r in rungs]
    records = [rec for rung in rungs for rec in rung.records]
    ladder = {}
    for name, rung, summary in zip(RUNG_NAMES, rungs, summaries):
        ladder.update({
            f"frame_ms_p50.{name}": (summary["p50_ms"], "ms"),
            f"frame_ms_tail.{name}": (summary["tail_ms"], "ms"),
            f"tail_percentile.{name}": (summary["tail_pct"], "%"),
            f"samples.{name}": (summary["n"], "count"),
            f"rate.{name}": (rung.rate, "frames/s"),
            f"offered_fps.{name}": (summary["offered_fps"], "frames/s"),
            f"backlog_growth.{name}": (summary["backlog_growth"], "frames"),
        })
    passing = [s["offered_fps"] for s in summaries if s["ok"]]
    ladder["max_ok_fps"] = (max(passing) if passing else 0.0, "frames/s")
    ladder["latency_limit_ms"] = (sizes.latency_limit_ms, "ms")
    report["ladder"] = ladder
    if tracer is None:
        # Latency at the lowest rate: near saturation a tail mostly
        # measures how close to capacity the host happens to be.
        lo = summaries[0]
        metrics = {"frames_per_s": summaries[-1]["completed_fps"],
                   "frame_ms_p50": lo["p50_ms"],
                   "frame_ms_tail": lo["tail_ms"],
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss}
        report["setup_opens_s"] = setups
        report["tail"] = {"percentile": lo["tail_pct"],
                          "samples": lo["n"]}
        return metrics, records, []
    warm = {r.fid for r in records}
    waits = _span_wait_ms(tracer, records)
    late = statistics.mean(r.issued - r.due for r in records) * 1e3
    overhead = (loops.rung_summary(untraced, sizes.latency_limit_ms)
                ["completed_fps"] / summaries[-1]["completed_fps"])
    metrics = layers.per_layer(tracer.spans, warm, warm, before, after,
                               wait_ms=waits, late_ms=late,
                               overhead_ratio=overhead)
    _write_trace(args, tracer, records, report)
    return metrics, records + untraced.records, \
        _trace_problems(tracer, records, closed=False)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--out-dir",
                        default=os.path.join("perfbench", "out"))
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference frame (gate self-test)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sizes = SCALES[args.scale]
    n_frames = frames_needed(workload, sizes, args.seconds)
    inputs = make_inputs(workload, sizes, args.seed, n_frames)
    report = {"provenance": provenance(args, workload, sizes, n_frames)}
    if workload.loop == "open":
        metrics, records, problems = asyncio.run(
            run_open(args, workload, sizes, inputs, report))
    else:
        metrics, records, problems = run_closed(args, workload, sizes,
                                                inputs, report)
    # Frame failures count toward frame_fail_ratio; leaks and trace
    # inconsistencies fail the run on their own.
    leaks = _leaks()
    frame_failures = _gate(workload, sizes, inputs, records,
                           args.perturb_reference)
    failures = [f"frame {label}: {why}" for label, why in frame_failures]
    failures += leaks + problems
    failed_frames = {label for label, _ in frame_failures}
    n_failed = len(failed_frames) + len(failures) - len(frame_failures)
    report["failures"] = failures
    report["frame_fail_ratio"] = len(failed_frames) / len(records)
    units = layers.METRICS if args.trace else END_TO_END
    report["metrics"] = metrics

    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, (value, unit) in report.get("ladder", {}).items():
        print(f"{name} {value:.6g} {unit}")
    if report.get("frames_exhausted"):
        print("note: the generated frames ran out before --seconds")
    if "tail" in report:
        print(f"frame_ms_tail is p{report['tail']['percentile']:.1f} of "
              f"{report['tail']['samples']} warm frames")
    print(f"frame_fail_ratio {report['frame_fail_ratio']:.6g} ratio")
    for line in failures:
        print(f"FAILED {line}")
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    gate.stop_resource_tracker()
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate: timed frames against cold serial rebuilds.

While timing, the loop keeps only a SHA-1 digest of each field of each
op result (indices, distances, counts, steps, terminated), so memory
does not grow with the run.  After timing, every frame is rebuilt cold
on a serial :class:`~repro.core.splitting.CompulsorySplitter` at the
deadline that frame ran with, digested the same way, and compared field
by field.  The rebuilds run in two spawned worker processes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

FIELDS = ("indices", "distances", "counts", "steps", "terminated")

#: One frame to verify: (frame label, positions, per-op query blocks,
#: deadline, per-op per-field digests of the timed result).
Check = Tuple[str, np.ndarray, Dict[str, np.ndarray], Optional[int],
              Dict[str, Tuple[str, ...]]]


def digest(result) -> Tuple[str, ...]:
    """Per-field SHA-1 of one :class:`BatchQueryResult` (shape included)."""
    out = []
    for name in FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        h = hashlib.sha1(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
        out.append(h.hexdigest())
    return tuple(out)


def digest_frame(frame) -> Dict[str, Tuple[str, ...]]:
    return {name: digest(result)
            for name, result in frame.op_results.items()}


def _reference(splitting, plan, positions, blocks, deadline, perturb):
    from repro.core.splitting import CompulsorySplitter

    splitter = CompulsorySplitter(positions, splitting)
    try:
        out = {}
        for op in plan.ops:
            steps = deadline if op.use_deadline else None
            if op.kind == "knn":
                result = splitter.knn_batch(blocks[op.name], op.k,
                                            max_steps=steps)
            else:
                result = splitter.range_batch(
                    blocks[op.name], op.radius, max_steps=steps,
                    max_results=op.max_results)
            if perturb:
                # Flip the lowest bit of one distance: the gate must see it.
                result.distances.view(np.int64).flat[0] ^= 1
                perturb = False
            out[op.name] = digest(result)
        return out
    finally:
        splitter.close()


def _check_batch(splitting, plan, batch: Sequence[Check],
                 perturb_first: bool) -> List[Tuple[str, str]]:
    mismatches = []
    for i, (label, positions, blocks, deadline, got) in enumerate(batch):
        want = _reference(splitting, plan, positions, blocks, deadline,
                          perturb_first and i == 0)
        for op_name, fields in want.items():
            for field, a, b in zip(FIELDS, got.get(op_name, ()), fields):
                if a != b:
                    mismatches.append(
                        (label, f"op {op_name!r} field {field!r} differs "
                                "from the cold serial rebuild"))
            if op_name not in got:
                mismatches.append((label, f"op {op_name!r} missing"))
    return mismatches


def verify(splitting, plan, checks: List[Check], workers: int = 2,
           perturb: bool = False) -> List[Tuple[str, str]]:
    """``(frame label, mismatch)`` over *checks*; empty when every frame
    is bit-equal to its reference.

    ``perturb`` corrupts the reference of the first frame, to prove the
    gate fires.
    """
    if not checks:
        return []
    n_batches = max(1, min(workers, len(checks)))
    batches = [checks[i::n_batches] for i in range(n_batches)]
    if n_batches == 1:
        return _check_batch(splitting, plan, batches[0], perturb)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_batches,
                             mp_context=context) as pool:
        futures = [pool.submit(_check_batch, splitting, plan, batch,
                               perturb and i == 0)
                   for i, batch in enumerate(batches)]
        return [line for future in futures for line in future.result()]


def shm_segments() -> List[str]:
    """This process's live ``/dev/shm/repro-<pid>-*`` segments."""
    prefix = f"repro-{os.getpid()}-"
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(prefix))
    except FileNotFoundError:
        return []


def child_pids() -> List[int]:
    """Live (non-zombie) child processes of this process, except
    multiprocessing's resource tracker, which lives as long as its
    parent (see :func:`stop_resource_tracker`)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me and fields[0] != "Z" \
                and b"multiprocessing.resource_tracker" not in cmdline:
            children.append(int(entry))
    return children


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if running."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of *pid*, 0 if it has exited."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0

"""The four benchmark workloads: seeded inputs, configs and frame plans.

Every input is generated here from the workload seed, before any timing,
and reaches the program only as arrays: one ``(N, 3)`` cloud per frame
and one fixed query block per tenant (the same 512 frame rows every
frame, so a clean window's per-window sub-block repeats and the result
cache can replay it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.config import SplittingConfig
from repro.datasets import (
    make_drifting_frames,
    make_lidar_stream_frames,
    make_partial_drift_frames,
)
from repro.streaming.plan import FramePlan, QueryOp


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``FULL`` is what the benchmark measures."""

    n_points: int
    n_queries: int
    k: int
    radius: float
    range_cap: int
    #: Fleet ladder: (aggregate due rate in frames/s over both tenants,
    #: frames offered) per rung, and the latency limit on a rung's tail.
    #: The top rung saturates the fleet and measures its capacity, so it
    #: runs longer.
    rungs: tuple
    latency_limit_ms: float
    #: Fleet worker processes.
    workers: int
    #: Session opens per run; setup_s is their median.
    setup_opens: int
    fleet_setup_opens: int
    #: Warm frames whose counts a traced run reports (closed loops).
    count_frames: int


FULL = Sizes(n_points=8192, n_queries=512, k=16, radius=0.1, range_cap=32,
             rungs=((2.0, 32), (4.0, 32), (8.0, 48)), latency_limit_ms=1000.0,
             workers=2, setup_opens=5, fleet_setup_opens=3, count_frames=10)

#: A few-second configuration for the benchmark's own tests.
TINY = Sizes(n_points=600, n_queries=48, k=4, radius=0.2, range_cap=8,
             rungs=((20.0, 12), (40.0, 12), (80.0, 12)),
             latency_limit_ms=1000.0, workers=2, setup_opens=2,
             fleet_setup_opens=1, count_frames=4)

SCALES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    """One named workload (why each exists: ``BENCHMARK.json`` and
    ``perfbench/README.md``).

    ``max_fps`` bounds how many frames are generated for a timed section
    of a given length (a faster host simply runs out of frames early and
    the run says so).  ``tenants`` is 1 for the closed loops.  ``period``
    is the length of the scene's own frame cycle: a closed loop times a
    whole number of cycles, so every run has the same mix of frames.
    """

    name: str
    splitting: SplittingConfig
    plan: Callable[[Sizes], FramePlan]
    scene: Callable[[int, int, Sizes], List[np.ndarray]]
    loop: str
    max_fps: float
    tenants: int = 1
    period: int = 1


def _knn_plan(sizes: Sizes) -> FramePlan:
    return FramePlan.knn(sizes.k)


def _knn_range_plan(sizes: Sizes) -> FramePlan:
    return FramePlan((
        QueryOp("knn", "knn", k=sizes.k),
        QueryOp("range", "range", radius=sizes.radius,
                max_results=sizes.range_cap)))


def _rolling(seed: int, n_frames: int, sizes: Sizes) -> List[np.ndarray]:
    """A rolling LiDAR stream advancing exactly one serial chunk per
    frame (the point count is rounded down to a multiple of 9 chunks)."""
    n_points = (sizes.n_points // 9) * 9
    frames = make_lidar_stream_frames(
        n_frames=n_frames, n_points=n_points, advance=n_points // 9,
        seed=seed)
    return [np.ascontiguousarray(frame.positions) for frame in frames]


def _drifting(seed: int, n_frames: int, sizes: Sizes) -> List[np.ndarray]:
    frames = make_drifting_frames("two_spheres", n_frames, sizes.n_points,
                                  seed=seed, drift=(0.02, 0.01, 0.0),
                                  spin=0.01, jitter=0.005)
    return [frame.positions for frame in frames]


def _partial(seed: int, n_frames: int, sizes: Sizes) -> List[np.ndarray]:
    frames = make_partial_drift_frames(
        "two_spheres", n_frames, sizes.n_points, shape=(4, 4, 1),
        fraction=0.125, seed=seed, jitter=0.01)
    return [frame.positions for frame in frames]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serial-8w",
        SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1), mode="serial"),
        _knn_plan, _rolling, "closed", max_fps=10.0),
    Workload(
        "spatial-16w",
        SplittingConfig(shape=(5, 5, 1), kernel=(2, 2, 1)),
        _knn_plan, _drifting, "closed", max_fps=4.0),
    Workload(
        "partial-9w",
        SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1)),
        # 2 of 16 cells move per frame, so the moving cells cycle every
        # 8 frames: half of them dirty 2 windows, half dirty 4.
        _knn_range_plan, _partial, "closed", max_fps=14.0, period=8),
    Workload(
        "fleet-2t",
        SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1)),
        _knn_plan, _partial, "open", max_fps=0.0, tenants=2),
)}


@dataclass
class Inputs:
    """Pre-generated frames and query blocks, one list per tenant."""

    frames: List[List[np.ndarray]]
    blocks: List[List[Dict[str, np.ndarray]]]


def frames_needed(workload: Workload, sizes: Sizes, seconds: float) -> int:
    """Frames per tenant to generate: frame 0 (set-up) plus the timed
    section, plus one extra untraced rung on the fleet's traced run."""
    if workload.loop == "open":
        offered = sum(n for _, n in sizes.rungs) + sizes.rungs[-1][1]
        return 1 + math.ceil(offered / workload.tenants)
    return 1 + max(sizes.count_frames + 2,
                   math.ceil(seconds * workload.max_fps)) + workload.period


def make_inputs(workload: Workload, sizes: Sizes, seed: int,
                n_frames: int) -> Inputs:
    """Seeded inputs: per tenant a scene seed and a fixed query-row set."""
    rng = np.random.default_rng(seed)
    plan = workload.plan(sizes)
    frames, blocks = [], []
    for _ in range(workload.tenants):
        scene_seed = int(rng.integers(1 << 31))
        tenant_frames = workload.scene(scene_seed, n_frames, sizes)
        rows = rng.choice(len(tenant_frames[0]),
                          size=min(sizes.n_queries, len(tenant_frames[0])),
                          replace=False)
        frames.append(tenant_frames)
        blocks.append([{name: frame[rows] for name in plan.names}
                       for frame in tenant_frames])
    return Inputs(frames, blocks)

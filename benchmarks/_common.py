"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one paper artifact: it computes the same rows
or series the paper reports, prints them, and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can quote measured numbers.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Iterable, Optional

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def time_best(fn, repeats: int):
    """Best-of-N wall time for ``fn()``: returns ``(best_s, value)``.

    Timing on shared boxes is noisy, so every benchmark takes the
    minimum over *repeats* calls rather than a single measurement.
    """
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def host_metadata() -> dict:
    """Where a payload was measured: cpu count, python / numpy
    versions and the checkout's git sha (``None`` outside a git
    checkout)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": sha}


def write_payload(path: Optional[str], payload: dict) -> dict:
    """Stamp *payload* with :func:`host_metadata` (under ``"host"``)
    and write it as indented JSON to *path* (skipped when *path* is
    empty).  Returns the stamped payload."""
    payload["host"] = host_metadata()
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return payload


def emit(name: str, lines: Iterable[str],
         results_dir: Optional[str] = RESULTS_DIR) -> Optional[str]:
    """Print a result table; persist it under ``results_dir``.

    ``results_dir`` defaults to the tracked ``benchmarks/results/``
    directory and is only appropriate for full-workload runs.  Smoke /
    test invocations must pass ``results_dir=None`` (print only) or a
    temporary directory so they can never overwrite tracked results.
    """
    text = "\n".join(lines)
    banner = f"===== {name} ====="
    print(f"\n{banner}\n{text}")
    if results_dir is None:
        return None
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path

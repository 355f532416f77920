"""Self-tests of the benchmark, on every workload at the tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs through the real command line: once untraced, and
twice traced on one seed, the second time with a corrupted reference.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("serial-8w", "spatial-16w", "partial-9w", "fleet-2t")

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
from perfbench.tracer import Span, self_times  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(args, out_dir, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--seconds", "1", "--scale", "tiny",
         "--out-dir", str(out_dir), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """Untraced, traced, and traced-with-a-corrupted-reference outputs."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    base = ["--workload", name]
    return {
        "name": name,
        "out": out,
        "plain": _run(base + ["--seed", "5", "--trace", "0"], out),
        "traced": _run(base + ["--seed", "7", "--trace", "1"], out),
        "perturbed": _run(base + ["--seed", "7", "--trace", "1",
                                  "--perturb-reference"], out),
    }


def _check_printed(lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{spec['name']} ")
                   and line.endswith(f" {spec['unit']}")
                   for line in lines[:-1]), spec["name"]


def test_every_metric_printed_with_its_unit(runs):
    spec = _spec()
    lines, result = runs["plain"]
    assert result["correct"] and result["failed"] == 0, lines
    _check_printed(lines, result, spec["end_to_end"])
    lines, result = runs["traced"]
    assert result["correct"] and result["failed"] == 0, lines
    _check_printed(lines, result, spec["per_layer"])
    assert any(line.startswith("frame_fail_ratio 0 ") for line in lines)


def test_spans_nest_and_self_times_are_non_negative(runs):
    path = os.path.join(runs["out"], f"{runs['name']}-seed7.trace.json")
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for e in events:
        if e["ph"] == "X":
            start = round(e["ts"] * 1e3)
            spans.append(Span(e["args"]["span"], e["args"]["parent"],
                              e["name"], start, start + round(e["dur"] * 1e3),
                              e["tid"], None))
    assert any(span.name == "StreamSession.execute" for span in spans)
    assert any(span.name == "KDTree.__init__" for span in spans)
    # The file keeps nanoseconds as fractional microseconds; allow the
    # float round trip one nanosecond per edge.
    by_id = {span.sid: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            assert parent.start - 1 <= span.start, span
            assert span.end <= parent.end + 1, span
    assert all(own >= -2 for own in self_times(spans).values())


def test_perturbed_reference_fails_the_gate(runs):
    lines, result = runs["perturbed"]
    assert not result["correct"]
    assert result["failed"] >= 1
    ratio = [float(line.split()[1]) for line in lines
             if line.startswith("frame_fail_ratio ")]
    assert ratio and ratio[0] > 0


def test_traced_counts_repeat_exactly(runs):
    units = {spec["name"]: spec["unit"] for spec in _spec()["per_layer"]}
    first = runs["traced"][1]["metrics"]
    second = runs["perturbed"][1]["metrics"]
    counts = [name for name, unit in units.items()
              if unit in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_fleet_latency_limit_matches_benchmark_json():
    from perfbench.workloads import FULL

    why = {w["name"]: w["why"] for w in _spec()["workloads"]}["fleet-2t"]
    limit = re.search(r"tail limit (\d+) ms", why)
    assert limit and float(limit.group(1)) == FULL.latency_limit_ms


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "serial-8w", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark's own machinery: output check and tracer.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import LAYERS, Tracer  # noqa: E402
from run import Checker  # noqa: E402
from workloads import cold_copy, digest  # noqa: E402

from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.simulator import simulate  # noqa: E402
from repro.trace.synth.apps import build_app_trace  # noqa: E402


@pytest.fixture(scope="module")
def trace():
    return build_app_trace("gdb", seed=0, scale=0.05)


@pytest.fixture(scope="module")
def result(trace):
    config = SimulationConfig(
        memory_pages=max(4, trace.footprint_pages() // 2),
        scheme="pipelined", subpage_bytes=1024, track_distances=False,
    )
    return simulate(trace, config)


def test_perturbed_result_fails_the_check(result):
    expected = {"cell:a": digest(result.summary()), "csv:b": digest("x,1\n")}
    checker = Checker(expected)
    checker.check(dict(expected))
    assert (checker.attempted, checker.failed) == (2, 0)

    perturbed = dataclasses.replace(result, evictions=result.evictions + 1)
    checker.check({"cell:a": digest(perturbed.summary()),
                   "csv:b": digest("x,1\n")})
    checker.check({"cell:a": expected["cell:a"], "csv:b": digest("x,2\n")})
    assert (checker.attempted, checker.failed) == (6, 2)


def test_missing_and_extra_outputs_fail():
    checker = Checker({"cell:a": "1", "cell:b": "2"})
    checker.check({"cell:a": "1", "cell:c": "3"})
    assert checker.failed == 2


def test_without_recorded_digests_sweeps_must_agree_and_cross_check():
    checker = Checker(None)
    checker.check({"cell:a": "1", "cell:b": "2"})
    checker.check({"cell:a": "1", "cell:b": "9"})
    checker.cross_check({"cell:a": "1"})
    assert (checker.attempted, checker.failed) == (5, 1)
    checker.cross_check({"cell:b": "9"})
    assert checker.failed == 2


def test_cold_copy_drops_cached_arrays(trace):
    trace.columns(1024)
    copy = cold_copy(trace)
    assert trace._cols and not copy._cols
    assert copy == trace
    assert copy.fingerprint() == trace.fingerprint()


def _busy():
    return sum(range(20000))


def test_nested_call_of_the_same_metric_counts_once():
    tracer = Tracer()
    inner = tracer.wrap(_busy, "core.schemes.plan", "core.schemes", False)
    outer = tracer.wrap(lambda: inner() + inner(), "core.schemes.plan",
                        "core.schemes", False)
    outer()
    assert tracer.calls["core.schemes.plan"] == 1
    assert tracer.self_s["core.schemes"] == pytest.approx(
        tracer.time_s["core.schemes.plan"]
    )


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    inner = tracer.wrap(_busy, "core.schemes.plan", "core.schemes", False)
    drive = tracer.wrap(lambda: inner() + inner(), "sim.batch.drive",
                        "sim.batch", True)
    with tracer.span("bench.sweep", "bench"):
        drive()
    t = tracer.time_s
    assert tracer.calls["core.schemes.plan"] == 2
    assert sum(tracer.self_s.values()) == pytest.approx(t["bench.sweep"])
    assert tracer.self_s["sim.batch"] == pytest.approx(
        t["sim.batch.drive"] - t["core.schemes.plan"]
    )
    # Only spanned calls keep spans, each with its parent span.
    assert [s[0] for s in tracer.spans] == ["bench.sweep", "sim.batch.drive"]
    assert tracer.spans[1][4] == 0


def test_install_wraps_and_uninstall_restores(trace, result):
    from repro.sim import batch, parallel
    from repro.sim.replacement import LruPolicy

    originals = (parallel.run_cells, batch.trace_scan, LruPolicy.evict)
    tracer = Tracer()
    with tracer.installed("test"):
        assert parallel.run_cells is not originals[0]
        config = SimulationConfig(
            memory_pages=result.memory_pages, scheme="pipelined",
            subpage_bytes=1024, track_distances=False, engine="reference",
        )
        again = simulate(cold_copy(trace), config)
    assert (parallel.run_cells, batch.trace_scan, LruPolicy.evict) == originals
    assert again.summary() == result.summary()
    metrics = tracer.layer_metrics()
    assert metrics["sim.replacement.evicts"][0] == result.evictions
    assert metrics["core.schemes.plans"][0] >= result.page_faults
    assert {f"{layer}.self_s" for layer in LAYERS} <= metrics.keys()


def test_chrome_trace_is_written(tmp_path):
    tracer = Tracer()
    tracer.run_id = "sweep"
    with tracer.span("bench.sweep", "bench"):
        with tracer.span("experiments.fig03", "experiments"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path), {"workload": "test"})
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["bench.sweep", "experiments.fig03"]
    assert spans[1]["args"]["parent"] == 0
    assert all(e["dur"] >= 0 for e in spans)


def test_run_without_program_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classic_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

#!/usr/bin/env python3
"""Engine + dispatch throughput gates, recording BENCH_throughput.json.

Two measurements, one trajectory file:

* Engine: runs the hit-dominated benchmark workload (the same
  construction as ``benchmarks/bench_simulator_throughput.py``'s
  ``hit_trace`` fixture) through the fast and reference engines and
  gates on the fast engine's speedup.
* Dispatch: runs a 24-cell sweep over one shared trace through
  ``run_cells`` twice — the shared-memory arena path (persistent
  ``WorkerPool``, trace published once) and the legacy per-cell-pickle
  path (``REPRO_SHM=0``, transient pool) — and gates on the reduction
  in per-cell dispatch overhead (wall time beyond the ideal parallel
  compute time).
* Fused: runs a Figure-9-style 24-cell grid (scheme x subpage size x
  memory size, one shared trace) through the fused struct-of-arrays
  pass (``simulate_cells``: one ``drive_fused`` walk advancing all
  cells together), through per-cell ``engine="reference"`` dispatch
  and through per-cell ``simulate`` dispatch (a one-cell fused pass
  each), verifies the results are identical, and gates on the fused
  pass's wall-clock speedup over the per-cell reference loop.  The
  ratio against per-cell ``simulate`` is recorded for the trajectory
  only.  The gate also fails if any cell thrash-bails to the
  reference loop, so it always times the fused pass itself.
  ``--profile`` additionally reports the per-stage split (scan build,
  bulk kernel time, scalar fault-path time, bail-outs with the run
  each bailed cell left the pass at).
* Adaptive policy: times the transparent ``"adaptive"`` meta-scheme
  (static predictor — bit-identical plans, but every fault-path event
  flows through the per-page access history) against plain pipelining
  on the same hit-dominated cell and gates its overhead at 5%, the
  obs-layer guard's bar.  The scoreboard arm (static +
  ``switch_schemes``, accounting live, schedule still identical) is
  recorded for the trajectory only.

Appends one entry to the ``BENCH_throughput.json`` perf trajectory at
the repo root and exits non-zero if any gate fails.

The engine CI gate (2x) is deliberately looser than the benchmark
suite's assertion (3x): shared CI runners are noisy, and the job should
catch "the fast path stopped being fast" regressions, not flake on
scheduler jitter.  The dispatch gate (3x) compares two overheads
measured back-to-back on the same machine, so it tolerates absolute
noise by construction.  The fused gate (9x over the reference loop)
is the engine gate's 2x times the 4.5x the fused pass had to beat
per-cell fast dispatch when that dispatch was a separate engine.

Usage:  python tools/bench_throughput.py [--min-speedup 2.0]
                                         [--min-dispatch-speedup 3.0]
                                         [--min-fused-speedup 9.0]
                                         [--max-policy-overhead 0.05]
                                         [--profile]
                                         [--out BENCH_throughput.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, "src")

import numpy as np

from repro.sim.batch import (
    _SCAN_KEY,
    FusedProfile,
    simulate_cells,
    simulate_cells_timed,
    trace_scan,
)
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.parallel import SweepJob, WorkerPool, run_cells
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

ROUNDS = 5

#: Dispatch measurement shape: one shared trace, this many cells, this
#: many worker processes, best-of-this-many rounds per path.
DISPATCH_CELLS = 24
DISPATCH_WORKERS = 4
DISPATCH_ROUNDS = 3

#: Floor for a measured overhead (ms): keeps the speedup ratio finite
#: when the arena path's overhead disappears into timer noise.
OVERHEAD_FLOOR_MS = 1.0

#: (label, scheme, subpage_bytes) cells timed on both engines.  The
#: fullpage cell is the gated one — after the fault the page is complete,
#: so the trace is pure bulk spans; the eager cell also exercises
#: subpage stalls and is reported for the trajectory only.
CELLS = [
    ("fullpage_8192", "fullpage", 8192),
    ("eager_1024", "eager", 1024),
]
GATED_CELL = "fullpage_8192"


def hit_trace():
    """Hit-dominated workload; keep in sync with the bench fixture."""
    rng = np.random.default_rng(7)
    visits = rng.integers(0, 400, size=60_000)
    starts = rng.integers(0, 112, size=60_000)
    blocks = (starts[:, None] + np.arange(16)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    refs = np.repeat(addrs, 4) + np.tile(
        np.arange(4, dtype=np.int64) * 8, addrs.size
    )
    return compress_references(refs, name="hitstream")


def best_of(trace, config, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        simulate(trace, config)
        times.append(time.perf_counter() - started)
    return min(times)


def time_cell(trace, scheme, subpage):
    timings = {}
    for engine in ("fast", "reference"):
        config = SimulationConfig(
            memory_pages=512,
            scheme=scheme,
            subpage_bytes=subpage,
            engine=engine,
            track_distances=False,
            record_faults=False,
        )
        timings[engine] = best_of(trace, config)
    return {
        "fast_ms": round(timings["fast"] * 1e3, 3),
        "reference_ms": round(timings["reference"] * 1e3, 3),
        "speedup": round(timings["reference"] / timings["fast"], 3),
    }


def time_policy_overhead(trace):
    """Adaptive-layer overhead vs plain pipelining, same schedule.

    Interleaved min-of-rounds with GC paused (an arm's allocations must
    not be billed for collecting the host process's heap): the
    ``history_tracking`` arm is transparent adaptive, the ``scoreboard``
    arm adds live prediction accounting via ``switch_schemes=True``
    (never fires at full confidence, so all three arms simulate the
    identical schedule).
    """
    import gc

    def policy_cfg(scheme, kwargs):
        return SimulationConfig(
            memory_pages=512,
            scheme=scheme,
            scheme_kwargs=kwargs,
            subpage_bytes=1024,
            engine="fast",
            track_distances=False,
            record_faults=False,
        )

    arms = [
        policy_cfg("pipelined", {}),
        policy_cfg("adaptive", {"predictor": "static"}),
        policy_cfg(
            "adaptive", {"predictor": "static", "switch_schemes": True}
        ),
    ]
    for arm in arms:  # warm trace columns + code paths
        simulate(trace, arm)
    best = [float("inf")] * len(arms)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS + 2):
            for i, arm in enumerate(arms):
                started = time.perf_counter()
                simulate(trace, arm)
                best[i] = min(best[i], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    baseline_s, transparent_s, scored_s = best
    return {
        "pipelined_ms": round(baseline_s * 1e3, 3),
        "transparent_ms": round(transparent_s * 1e3, 3),
        "scoreboard_ms": round(scored_s * 1e3, 3),
        "history_tracking_overhead": round(
            transparent_s / baseline_s - 1.0, 4
        ),
        "scoreboard_overhead": round(scored_s / baseline_s - 1.0, 4),
    }


#: Batch measurement shape: scheme x subpage x memory-fraction grid
#: over one shared trace, best-of-this-many rounds per path.
BATCH_SCHEMES = ("fullpage", "eager", "pipelined")
BATCH_SUBPAGES = (512, 1024, 2048, 4096)
BATCH_FRACTIONS = (1.0, 0.9)
BATCH_ROUNDS = 5


def batch_trace():
    """A switch-dense, phase-shifting workload for the batch grid.

    Every run switches pages (consecutive same-page references fold
    into one run, so a repeat is bumped to the phase's next page),
    which maximizes the per-span dedup work the shared scan hoists;
    eight drifting phases keep a slow fault/eviction trickle alive so
    no cell degenerates to a single bulk span.  The ``lazy`` scheme is
    deliberately absent from the grid: single-block runs never complete
    its pages, so lazy cells thrash into the scalar reference loop and
    would measure that loop, not the engines under comparison.
    """
    rng = np.random.default_rng(7)
    runs = 400_000
    phases = 8
    per_phase = runs // phases
    parts = []
    for phase in range(phases):
        base = phase * 2
        pages = base + rng.integers(0, 48, size=per_phase)
        same = np.flatnonzero(pages[1:] == pages[:-1]) + 1
        pages[same] = base + (pages[same] - base + 1) % 48
        parts.append(pages)
    pages = np.concatenate(parts)
    writes = rng.random(runs) < 0.2
    return compress_references(pages * 8192, writes, name="batchstream")


def batch_grid(trace):
    return [
        SimulationConfig(
            memory_pages=memory_pages_for(trace, fraction),
            scheme=scheme,
            subpage_bytes=subpage,
            engine="fast",
            track_distances=False,
            event_ns=1000.0,
        )
        for scheme in BATCH_SCHEMES
        for subpage in BATCH_SUBPAGES
        for fraction in BATCH_FRACTIONS
    ]


def time_fused(trace):
    """The fused pass vs per-cell dispatch, same grid.

    Three arms, interleaved per round: per-cell ``engine="reference"``
    (the gated baseline), per-cell ``simulate`` (a one-cell fused pass
    each) and the fused struct-of-arrays pass (``simulate_cells``).
    The warm-up pass doubles as the equivalence check: all three must
    be exactly equal, or the measurement is comparing different
    computations.  It also counts the cells that bailed out of the
    fused pass.
    """
    configs = batch_grid(trace)
    reference = [c.with_overrides(engine="reference") for c in configs]
    want = [simulate(trace, config) for config in reference]
    per_cell = [simulate(trace, config) for config in configs]
    profile = FusedProfile()
    fused = simulate_cells_timed(trace, configs, profile=profile)
    if per_cell != want or [result for result, _ in fused] != want:
        raise AssertionError("fused results diverge from per-cell")

    def per_cell_wall(arm):
        started = time.perf_counter()
        for config in arm:
            simulate(trace, config)
        return time.perf_counter() - started

    reference_s = per_cell_s = fused_s = float("inf")
    for _ in range(BATCH_ROUNDS):
        reference_s = min(reference_s, per_cell_wall(reference))
        per_cell_s = min(per_cell_s, per_cell_wall(configs))
        started = time.perf_counter()
        simulate_cells(trace, configs)
        fused_s = min(fused_s, time.perf_counter() - started)
    return {
        "cells": len(configs),
        "rounds": BATCH_ROUNDS,
        "reference_wall_ms": round(reference_s * 1e3, 1),
        "per_cell_wall_ms": round(per_cell_s * 1e3, 1),
        "fused_wall_ms": round(fused_s * 1e3, 1),
        "reference_speedup": round(reference_s / fused_s, 3),
        "fused_speedup": round(per_cell_s / fused_s, 3),
        "bailed": len(profile.bailed),
    }


def profile_fused(trace):
    """One profiled fused pass over the grid, per-stage split."""
    configs = batch_grid(trace)
    cols = trace.columns(BATCH_SUBPAGES[0])
    trace._cols.pop(_SCAN_KEY, None)
    started = time.perf_counter()
    trace_scan(trace, cols)
    scan_s = time.perf_counter() - started

    profile = FusedProfile()
    simulate_cells_timed(trace, configs, profile=profile)
    total_s = scan_s + profile.bulk_s + profile.scalar_s
    print(
        f"profile         scan build {scan_s * 1e3:8.1f} ms   "
        f"bulk {profile.bulk_s * 1e3:8.1f} ms   "
        f"scalar {profile.scalar_s * 1e3:8.1f} ms   "
        f"(scalar share {profile.scalar_s / total_s:.0%})"
    )
    print(
        f"                {profile.cells} cells   "
        f"{profile.events} heap events   "
        f"{profile.scalar_events} scalar events   "
        f"{profile.spans} spans   {len(profile.bailed)} bailed"
    )
    for cell, run in zip(profile.bailed, profile.bail_runs):
        print(f"                cell {cell} bailed at run {run}")


def sweep_trace():
    """A multi-megabyte, hit-dominated trace.

    Big in bytes (so per-cell pickling of it is the visible cost) but
    cheap to simulate (so compute does not drown the dispatch overhead
    being measured).
    """
    rng = np.random.default_rng(11)
    visits = rng.integers(0, 48, size=60_000)
    starts = rng.integers(0, 112, size=60_000)
    blocks = (starts[:, None] + np.arange(8)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.25
    return compress_references(addrs, writes, name="sweepstream")


def sweep_jobs(trace):
    """One shared trace, DISPATCH_CELLS identical-cost cells."""
    config = SimulationConfig(
        memory_pages=64,
        scheme="fullpage",
        subpage_bytes=8192,
        engine="fast",
        track_distances=False,
        record_faults=False,
        event_ns=1000.0,
        use_trace_dilation=False,
    )
    return [
        SweepJob(key=f"c{i:02d}", trace=trace, config=config)
        for i in range(DISPATCH_CELLS)
    ]


def _best_wall(run, rounds=DISPATCH_ROUNDS):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return min(times)


def time_dispatch(trace):
    """Per-cell dispatch overhead: shared arena vs per-cell pickling.

    Overhead is wall time beyond the ideal parallel compute time
    (serial wall / effective worker count), so the comparison isolates
    what execution *costs on top of* the simulations themselves.
    """
    jobs = sweep_jobs(trace)
    serial_s = _best_wall(lambda: run_cells(jobs, workers=1))
    effective = min(DISPATCH_WORKERS, os.cpu_count() or 1)
    ideal_s = serial_s / effective

    saved = os.environ.get("REPRO_SHM")
    os.environ["REPRO_SHM"] = "0"
    try:
        pickle_s = _best_wall(
            lambda: run_cells(jobs, workers=DISPATCH_WORKERS)
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_SHM", None)
        else:
            os.environ["REPRO_SHM"] = saved

    with WorkerPool(DISPATCH_WORKERS) as pool:
        run_cells(jobs, pool=pool)  # warm workers + arena + worker LRUs
        arena_s = _best_wall(lambda: run_cells(jobs, pool=pool))

    def overhead_ms(wall_s):
        return max((wall_s - ideal_s) * 1e3, OVERHEAD_FLOOR_MS)

    pickle_overhead = overhead_ms(pickle_s)
    arena_overhead = overhead_ms(arena_s)
    return {
        "cells": DISPATCH_CELLS,
        "workers": DISPATCH_WORKERS,
        "effective_workers": effective,
        "rounds": DISPATCH_ROUNDS,
        "serial_ms": round(serial_s * 1e3, 1),
        "ideal_ms": round(ideal_s * 1e3, 1),
        "pickle_wall_ms": round(pickle_s * 1e3, 1),
        "arena_wall_ms": round(arena_s * 1e3, 1),
        "pickle_overhead_per_cell_ms": round(
            pickle_overhead / DISPATCH_CELLS, 3
        ),
        "arena_overhead_per_cell_ms": round(
            arena_overhead / DISPATCH_CELLS, 3
        ),
        "dispatch_speedup": round(pickle_overhead / arena_overhead, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-dispatch-speedup", type=float, default=3.0)
    parser.add_argument("--min-fused-speedup", type=float, default=9.0)
    parser.add_argument("--max-policy-overhead", type=float, default=0.05)
    parser.add_argument(
        "--profile", action="store_true",
        help="report the fused pass's per-stage timing split",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_throughput.json")
    )
    args = parser.parse_args()

    trace = hit_trace()
    cells = {
        label: time_cell(trace, scheme, subpage)
        for label, scheme, subpage in CELLS
    }
    for label, cell in cells.items():
        print(
            f"{label:15s} reference {cell['reference_ms']:8.1f} ms   "
            f"fast {cell['fast_ms']:8.1f} ms   {cell['speedup']:.2f}x"
        )

    dispatch = time_dispatch(sweep_trace())
    print(
        f"dispatch        pickle {dispatch['pickle_overhead_per_cell_ms']:8.2f} "
        f"ms/cell   arena {dispatch['arena_overhead_per_cell_ms']:8.2f} "
        f"ms/cell   {dispatch['dispatch_speedup']:.2f}x"
    )

    grid_trace = batch_trace()
    fused = time_fused(grid_trace)
    print(
        f"fused           reference {fused['reference_wall_ms']:8.1f} "
        f"ms   fused {fused['fused_wall_ms']:8.1f} ms   "
        f"{fused['reference_speedup']:.2f}x   {fused['bailed']} bailed"
    )
    print(
        f"                per-cell simulate "
        f"{fused['per_cell_wall_ms']:8.1f} ms   "
        f"{fused['fused_speedup']:.2f}x (ungated)"
    )
    if args.profile:
        profile_fused(grid_trace)

    policy = time_policy_overhead(trace)
    print(
        f"adaptive        history "
        f"{policy['history_tracking_overhead']:+8.1%}   scoreboard "
        f"{policy['scoreboard_overhead']:+8.1%}"
    )

    entry = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "trace": {
            "name": "hitstream",
            "num_runs": trace.num_runs,
            "num_references": trace.num_references,
        },
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": cells,
        "dispatch": dispatch,
        "fused": fused,
        "adaptive_policy": policy,
    }
    history = []
    if args.out.exists():
        history = json.loads(args.out.read_text())
    history.append(entry)
    args.out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended entry {len(history)} to {args.out}")

    failed = False
    gated = cells[GATED_CELL]["speedup"]
    if gated < args.min_speedup:
        print(
            f"FAIL: {GATED_CELL} speedup {gated:.2f}x is below the "
            f"{args.min_speedup:.1f}x gate"
        )
        failed = True
    else:
        print(f"OK: {GATED_CELL} speedup {gated:.2f}x >= "
              f"{args.min_speedup:.1f}x")
    dispatch_speedup = dispatch["dispatch_speedup"]
    if dispatch_speedup < args.min_dispatch_speedup:
        print(
            f"FAIL: dispatch-overhead reduction {dispatch_speedup:.2f}x "
            f"is below the {args.min_dispatch_speedup:.1f}x gate"
        )
        failed = True
    else:
        print(
            f"OK: dispatch-overhead reduction {dispatch_speedup:.2f}x "
            f">= {args.min_dispatch_speedup:.1f}x"
        )
    fused_speedup = fused["reference_speedup"]
    if fused["bailed"]:
        print(
            f"FAIL: {fused['bailed']} fused cells bailed to the reference "
            f"loop; the fused gate must time the fused pass"
        )
        failed = True
    elif fused_speedup < args.min_fused_speedup:
        print(
            f"FAIL: fused-engine speedup over the reference loop "
            f"{fused_speedup:.2f}x is below the "
            f"{args.min_fused_speedup:.1f}x gate"
        )
        failed = True
    else:
        print(
            f"OK: fused-engine speedup over the reference loop "
            f"{fused_speedup:.2f}x >= {args.min_fused_speedup:.1f}x"
        )
    policy_overhead = policy["history_tracking_overhead"]
    if policy_overhead >= args.max_policy_overhead:
        print(
            f"FAIL: adaptive history tracking costs "
            f"{policy_overhead:.1%}, at or above the "
            f"{args.max_policy_overhead:.0%} gate"
        )
        failed = True
    else:
        print(
            f"OK: adaptive history tracking {policy_overhead:.1%} < "
            f"{args.max_policy_overhead:.0%}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Real-workload benchmark: one workload, end to end or per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo_dense --seed 3 --seconds 25 --trace 0

``--trace 0`` times closed-loop sweeps of the workload until
``--seconds`` is spent and reports the end-to-end metrics (medians over
the sweeps).  ``--trace 1`` runs one untraced and one traced sweep and
reports the per-layer metrics, writing the traced run's spans as Chrome
trace-event JSON under ``perfbench/out/``.  Either way every output is
checked against the digests recorded in ``perfbench/digests.json`` (or,
for a seed with none recorded, against an independent engine), and the
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Trace syntheses per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def pin_environment() -> None:
    """Drop every ambient ``REPRO_*`` knob so the defaults apply, and
    keep native libraries single-threaded (one closed-loop client)."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def environment() -> dict:
    import numpy
    from repro.sim.kernels import kernel_name

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": kernel_name(),
    }


def load_expected(workload, seed: int) -> dict[str, str] | None:
    recorded = json.loads((HERE / "digests.json").read_text())
    key = str(seed) if workload.seeded else "0"
    return recorded.get(workload.name, {}).get(key)


class Checker:
    """Counts outputs checked and failed across a run's sweeps."""

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, digests: dict[str, str]) -> None:
        """Every sweep must match the recorded digests exactly, or, with
        none recorded, match the first sweep (the cross-check runs once
        at the end)."""
        want = self.expected if self.expected is not None else self.first
        if want is None:
            self.first = want = digests
        self.attempted += len(want)
        self.failed += sum(digests.get(k) != v for k, v in want.items())
        self.failed += len(set(digests) - set(want))

    def cross_check(self, independent: dict[str, str]) -> None:
        self.attempted += len(independent)
        self.failed += sum(
            (self.first or {}).get(k) != v for k, v in independent.items()
        )

    def fail_all(self, count: int) -> None:
        self.attempted += count
        self.failed += count


class HostClock:
    """Times blocks in seconds at a reference host speed.

    On a shared machine the speed a process gets drifts, over seconds to
    minutes, by more than any bound worth having: the same sweep took
    4.0 s in one run and 7.4 s in a run ten minutes later.  A fixed
    calibration loop that never calls the program runs before the first
    block and after each block.  It does what dominates a sweep, random
    dict lookups over a working set larger than the caches plus NumPy
    sorts and scans over 16 MB, so it slows down with the sweep.  A
    block's wall time is scaled by ``REFERENCE_S`` over the mean of the
    two calibrations around it; the raw times are printed as well.
    """

    #: The calibration loop's time on the 2-CPU reference host.
    REFERENCE_S = 0.1

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self.numpy = numpy
        self.keys = rng.permutation(300_000).tolist()
        self.table = {key: key for key in self.keys}
        self.values = rng.random(2_000_000)
        self.before = self.calibrate()

    def calibrate(self) -> float:
        started = time.perf_counter()
        total = 0
        for key in self.keys:
            total += self.table[key]
        for _ in range(3):
            self.numpy.sort(self.values)
            self.numpy.cumsum(self.values)
        return time.perf_counter() - started

    def time(self, block):
        """``(raw seconds, scaled seconds, block())``."""
        started = time.perf_counter()
        out = block()
        raw = time.perf_counter() - started
        after = self.calibrate()
        scaled = raw * 2 * self.REFERENCE_S / (self.before + after)
        self.before = after
        return raw, scaled, out


def run_sweep(workload, tracer, clock: HostClock):
    """One timed sweep: returns (raw seconds, scaled seconds, Sweep,
    cell statuses, per-cell compute seconds)."""
    statuses: Counter = Counter()
    elapsed: list[float] = []

    def progress(event) -> None:
        statuses[event.status] += 1
        elapsed.append(event.elapsed_s)

    def sweep():
        if tracer is None:
            return workload.sweep(inputs, None, progress)
        with tracer.span("bench.sweep", "bench"):
            return workload.sweep(inputs, tracer, progress)

    inputs = workload.fresh()
    gc.collect()
    raw, scaled, out = clock.time(sweep)
    return raw, scaled, out, statuses, sum(elapsed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    print("# env " + json.dumps(
        {**env, "workload": workload.name, "seed": args.seed}
    ))
    expected = load_expected(workload, args.seed)
    checker = Checker(expected)
    clock = HostClock()
    raws: list[float] = []
    walls: list[float] = []
    # Only the last sweep is kept, so one sweep's results at most are
    # alive while the next runs and peak memory does not grow with the
    # number of sweeps.
    last = None
    cached = 0

    def timed_sweep(tracer=None) -> bool:
        nonlocal cached, last
        last = None
        try:
            raw, wall, sweep, statuses, cell_s = run_sweep(
                workload, tracer, clock
            )
        except Exception as exc:  # a cell raised: every output fails
            print(f"# sweep failed: {exc!r}", file=sys.stderr)
            checker.fail_all(len(expected or checker.first or {}) or 1)
            return False
        checker.check(sweep.digests)
        cached += statuses["cached"]
        raws.append(raw)
        walls.append(wall)
        last = (sweep, statuses, cell_s)
        return True

    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        with tracer.installed("setup"):
            workload.setup(args.seed)
        if timed_sweep():
            with tracer.installed("sweep"):
                timed_sweep(tracer)
    else:
        tracer = None
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(clock.time(lambda: workload.setup(args.seed))[1])
        deadline = time.perf_counter() + args.seconds
        while timed_sweep():
            if time.perf_counter() + raws[-1] > deadline:
                break

    if expected is None and walls:
        checker.cross_check(workload.cross_check())
    if cached:
        print(f"# {cached} cells served from a result cache", file=sys.stderr)
    correct = checker.failed == 0 and not cached and last is not None
    if last is not None:
        print("# cells " + json.dumps(dict(sorted(last[1].items()))))
    print(f"# check: {checker.attempted} outputs, {checker.failed} failed, "
          "against " + ("recorded digests" if expected is not None
                        else "an independent engine and the first sweep"))
    print("# raw_walls_s " + json.dumps(raws))
    print("# scaled_walls_s " + json.dumps(walls))

    if last is None:
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(tracer, walls, *last)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace_{workload.name}_seed{args.seed}.json"
        tracer.write_chrome(str(path), {**env, "workload": workload.name,
                                        "seed": args.seed})
        print(f"# spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
    else:
        wall = statistics.median(walls)
        refs = last[0].references
        metrics = {
            "wall_s": (wall, "s"),
            "refs_per_s": (statistics.median(refs / w for w in walls), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "pass_ratio": (1.0 - checker.failed / checker.attempted, "ratio"),
        }
        print(f"# fail_ratio {checker.failed / checker.attempted} "
              f"({checker.failed} of {checker.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def layer_metrics(tracer, walls, sweep, statuses, cell_s) -> dict:
    """Per-layer metrics of the traced sweep (the second of the two)."""
    untraced, traced = walls[0], walls[-1]
    results = sweep.results
    faults = sweep.faults
    metrics = tracer.layer_metrics()
    run_cells_s = metrics["sim.parallel.run_cells_s"][0]
    metrics.update({
        "sim.parallel.dispatch_s": (
            run_cells_s - cell_s if run_cells_s else 0.0, "s"
        ),
        **{
            f"sim.parallel.cells_{status}": (statuses[status], "count")
            for status in ("done", "batched", "retried", "cached")
        },
        "sim.faults": (faults, "count"),
        "sim.evictions": (sum(r.evictions for r in results), "count"),
        "sim.dirty_evictions": (
            sum(r.dirty_evictions for r in results), "count"
        ),
        "sim.cancelled_transfers": (
            sum(r.cancelled_transfers for r in results), "count"
        ),
        "host_us_per_fault": (untraced / faults * 1e6, "us"),
        "trace.overhead": (traced / untraced, "ratio"),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())

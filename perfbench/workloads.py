"""The benchmark's four workloads.

Each workload has three phases the runner calls:

* ``setup(seed)`` synthesizes the traces (timed as ``setup_s``);
* ``fresh()`` hands out inputs with every per-trace cache cold
  (columns, scans, fingerprints), outside the timed region, because
  every fresh process pays those builds inside its sweep;
* ``sweep(inputs, tracer, progress)`` is the timed closed-loop sweep:
  one client, one sweep at a time, ``workers=1``, no result cache.

A sweep returns a :class:`Sweep`: the simulation results (for the
reference and fault counts) and one digest per output.  An output is a
cell's ``SimulationResult.summary()`` or a figure's CSV bytes.

``cross_check()`` computes, by an independent path, digests for a seed
that has none recorded in ``digests.json``: the grid cells through
``engine="reference"``, one-tenant cells through the sequential
``run_multi_workload``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import nullcontext
from typing import Any, Callable

from repro.experiments import common
from repro.experiments.export import export_csv
from repro.experiments.registry import get_experiment
from repro.sim import parallel
from repro.sim import multitenant
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.multinode import NodeWorkload, run_multi_workload
from repro.sim.parallel import ExecutionOptions, SweepJob
from repro.sim.results import SimulationResult
from repro.trace.compress import RunTrace
from repro.trace.synth import apps
from repro.trace.synth.apps import classic_app_names

# Imported up front so no lazy import lands inside the first timed sweep.
import repro.sim.batch  # noqa: F401

Progress = Callable[[parallel.CellEvent], None] | None


@dataclasses.dataclass
class Sweep:
    results: list[SimulationResult]
    digests: dict[str, str]

    @property
    def references(self) -> int:
        return sum(r.num_references for r in self.results)

    @property
    def faults(self) -> int:
        return sum(r.total_faults for r in self.results)


def digest(payload: Any) -> str:
    if isinstance(payload, str):
        data = payload.encode()
    else:
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:32]


def cold_copy(trace: RunTrace) -> RunTrace:
    """The same trace without any of its cached derived arrays."""
    return RunTrace(**{
        f.name: getattr(trace, f.name)
        for f in dataclasses.fields(trace)
        if f.init and not f.name.startswith("_")
    })


def _cell_id(result: SimulationResult) -> str:
    return (
        f"{result.trace_name}/{result.scheme_label}/{result.subpage_bytes}"
        f"/{result.memory_pages}/{result.backing}"
    )


class PaperFigs:
    """fig03 + fig09 through the experiment registry, then CSV export.

    The registry pins its traces to seed 0, so ``--seed`` does not apply.
    """

    name = "paper_figs"
    seeded = False
    figures = ("fig03", "fig09")

    def setup(self, seed: int) -> None:
        common.get_trace.cache_clear()
        # fig03 runs modula3; fig09 runs every classic app.
        self.traces = [common.get_trace(app) for app in classic_app_names()]

    def fresh(self) -> None:
        # The figures fetch their traces through the memoized
        # common.get_trace, so clear the cached traces' derived arrays
        # in place; the run cache must be empty too.
        common.clear_run_cache()
        for trace in self.traces:
            for field in dataclasses.fields(trace):
                if field.name.startswith("_"):
                    getattr(trace, field.name).clear()

    def sweep(self, inputs: None, tracer: Any, progress: Progress) -> Sweep:
        options = ExecutionOptions(workers=1, cache=None, progress=progress)
        digests = {}
        for exp_id in self.figures:
            span = (
                tracer.span(f"experiments.{exp_id}", "experiments")
                if tracer else nullcontext()
            )
            with span:
                result = get_experiment(exp_id).run_with(options)
            for name, text in export_csv(exp_id, result).items():
                digests[f"csv:{exp_id}/{name}"] = digest(text)
        results = list(common._RUN_CACHE.values())
        for result in results:
            digests[f"cell:{_cell_id(result)}"] = digest(result.summary())
        return Sweep(results, digests)

    def cross_check(self) -> dict[str, str]:
        """None: the digests recorded for seed 0 are the only reference."""
        return {}


class Grid:
    """Every app's cells at one memory fraction, in one ``run_cells``."""

    seeded = True

    def __init__(
        self,
        name: str,
        fraction: float,
        cells: dict[str, list[tuple[str, int]]],
    ) -> None:
        self.name = name
        self.fraction = fraction
        self.cells = cells

    def setup(self, seed: int) -> None:
        self.traces = {
            app: apps.build_app_trace(app, seed=seed) for app in self.cells
        }

    def fresh(self) -> dict[str, RunTrace]:
        return {app: cold_copy(t) for app, t in self.traces.items()}

    def jobs(self, traces: dict[str, RunTrace], engine: str) -> list[SweepJob]:
        out = []
        for app, trace in traces.items():
            memory = memory_pages_for(trace, self.fraction)
            for scheme, subpage in self.cells[app]:
                out.append(SweepJob(
                    key=f"cell:{app}/{scheme}/{subpage}",
                    trace=trace,
                    config=SimulationConfig(
                        memory_pages=memory,
                        scheme=scheme,
                        subpage_bytes=subpage,
                        track_distances=False,
                        engine=engine,
                    ),
                ))
        return out

    def sweep(
        self, inputs: dict[str, RunTrace], tracer: Any, progress: Progress
    ) -> Sweep:
        results = parallel.run_cells(
            self.jobs(inputs, "fast"),
            workers=1, cache=None, progress=progress, batch=True,
        )
        return Sweep(
            list(results.values()),
            {key: digest(r.summary()) for key, r in results.items()},
        )

    def cross_check(self) -> dict[str, str]:
        results = parallel.run_cells(
            self.jobs(self.fresh(), "reference"), workers=1, cache=None
        )
        return {key: digest(r.summary()) for key, r in results.items()}


def _grid(schemes: tuple[str, ...], subpages: tuple[int, ...]):
    return [(scheme, size) for scheme in schemes for size in subpages]


PIPELINE_SCHEMES = ("eager", "pipelined")

#: The three fault-dense modern families at half memory, both fetch
#: schemes at the paper's 1K subpage (figZOO's middle column).  The
#: other figZOO columns are left out so a sweep takes a few seconds:
#: graph's two cells alone take ~3.5 s fused and do ~28k evictions.
#: Each app keeps two cells, the fewest run_cells batches together.
ZOO_DENSE = Grid("zoo_dense", 0.5, {
    app: _grid(PIPELINE_SCHEMES, (1024,))
    for app in ("kvserve", "graph", "websess")
})

#: The 1996 quintet at full memory: fullpage-8192 plus fig03's five
#: subpage sizes under both fetch schemes.  Cold faults only.
CLASSIC_FULL = Grid("classic_full", 1.0, {
    app: [("fullpage", 8192)]
    + _grid(PIPELINE_SCHEMES, (4096, 2048, 1024, 512, 256))
    for app in classic_app_names()
})


class Tenants:
    """1, 2 and 4 interleaved classic-app tenants on one GMS cluster.

    Tenant i runs the i-th classic app at seed ``seed + i``, scaled down
    so the 12-cell grid (28 tenant simulations) fits a run, with half
    its footprint as local memory, cluster backing and cross-traffic on.
    """

    name = "tenants"
    seeded = True
    counts = (1, 2, 4)
    scale = 0.1
    idle_nodes = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.traces = [
            apps.build_app_trace(app, seed=seed + i, scale=self.scale)
            for i, app in enumerate(classic_app_names()[: max(self.counts)])
        ]

    def fresh(self) -> list[RunTrace]:
        return [cold_copy(t) for t in self.traces]

    def workloads(
        self, traces: list[RunTrace], count: int, scheme: str, subpage: int
    ) -> list[NodeWorkload]:
        return [
            NodeWorkload(
                name=f"t{i}-{trace.name}",
                trace=trace,
                memory_pages=max(4, trace.footprint_pages() // 2),
                scheme=scheme,
                subpage_bytes=subpage,
            )
            for i, trace in enumerate(traces[:count])
        ]

    def cells(self):
        for count in self.counts:
            for scheme in PIPELINE_SCHEMES:
                for subpage in (4096, 1024):
                    yield count, scheme, subpage

    def sweep(
        self, inputs: list[RunTrace], tracer: Any, progress: Progress
    ) -> Sweep:
        results: list[SimulationResult] = []
        digests: dict[str, str] = {}
        for count, scheme, subpage in self.cells():
            out = multitenant.run_multi_tenant(
                self.workloads(inputs, count, scheme, subpage),
                idle_nodes=self.idle_nodes, seed=self.seed,
                cross_traffic=True,
            )
            cell = f"{count}/{scheme}/{subpage}"
            for tenant, result in out.per_tenant.items():
                results.append(result)
                digests[f"cell:{cell}/{tenant}"] = digest(result.summary())
            digests[f"cluster:{cell}"] = digest({
                "cluster": out.cluster_stats,
                "cross": out.cross_stats,
                "injected": out.injected_ms,
            })
        return Sweep(results, digests)

    def cross_check(self) -> dict[str, str]:
        """One-tenant cells through the sequential multi-node path,
        which they must match bit for bit."""
        digests = {}
        for count, scheme, subpage in self.cells():
            if count != 1:
                continue
            out = run_multi_workload(
                self.workloads(self.fresh(), 1, scheme, subpage),
                idle_nodes=self.idle_nodes, seed=self.seed,
            )
            for tenant, result in out.per_node.items():
                digests[f"cell:1/{scheme}/{subpage}/{tenant}"] = digest(
                    result.summary()
                )
        return digests


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (PaperFigs(), ZOO_DENSE, CLASSIC_FULL, Tenants())
}

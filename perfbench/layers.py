"""Per-layer tracing from outside the program.

The traced run patches the public entry points of each layer (module
functions and class methods) with a wrapper that times the call and
counts it; the untraced run patches nothing.  Patches are undone on
exit, so the program's source is never touched.

Every wrapped call pushes a frame on one stack.  On return:

* the call's duration goes to its metric (``<metric>_s``) and its
  count metric, unless the caller is the same metric (a nested
  ``plan_with_order`` inside ``plan_fault`` is not counted twice);
* the layer's self time grows by the duration minus the time of the
  wrapped calls made inside it.

Coarse layers (trace synthesis, column/scan builds, sweep dispatch,
engine drives, whole-simulation calls) also keep one span per call in
memory — name, start, end, parent span, run id — written at exit as
Chrome trace-event JSON.  Hot fault-path layers (plan, order, latency,
link, evict, GMS, disk) are called up to millions of times per sweep,
so they keep only their aggregates.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Layers in report order (each gets a ``<layer>.self_s`` metric).
LAYERS: tuple[str, ...] = (
    "experiments",
    "trace.synth",
    "trace.compress",
    "sim.parallel",
    "sim.simulator",
    "sim.batch",
    "sim.soa",
    "sim.replacement",
    "core.schemes",
    "core.sequencers",
    "net.latency",
    "net.congestion",
    "gms",
    "disk",
    "sim.multitenant",
)

#: The latency-model methods the fault path looks up.
LATENCY_METHODS = (
    "subpage_latency_ms",
    "rest_of_page_ms",
    "fullpage_latency_ms",
    "wire_time_ms",
)

#: Counters read from :class:`repro.sim.batch.FusedProfile`.
PROFILE_COUNTS = ("events", "scalar_events", "spans")


class Tracer:
    """Aggregates and spans of every wrapped call, kept in memory."""

    def __init__(self) -> None:
        self.time_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: [name, layer, start, end, parent span index, run id]
        self.spans: list[list[Any]] = []
        self.run_id = ""
        # frames: [metric, layer, start, child seconds, span index]
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- frames -----------------------------------------------------------

    def _enter(self, metric: str, layer: str, span: bool) -> None:
        start = time.perf_counter()
        index = -1
        if span:
            index = len(self.spans)
            self.spans.append(
                [metric, layer, start, None, self._span_parent(), self.run_id]
            )
        self._stack.append([metric, layer, start, 0.0, index])

    def _exit(self) -> None:
        end = time.perf_counter()
        metric, layer, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if index >= 0:
            self.spans[index][3] = end
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            if parent[0] == metric:
                return
        self.time_s[metric] += duration
        self.calls[metric] += 1

    def _span_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[4] >= 0:
                return frame[4]
        return -1

    @contextmanager
    def span(self, metric: str, layer: str) -> Iterator[None]:
        """Time a block the benchmark itself runs (one span)."""
        self._enter(metric, layer, True)
        try:
            yield
        finally:
            self._exit()

    # -- patching ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        metric: str,
        layer: str,
        span: bool,
        after: Callable[[Any], None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(metric, layer, span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(out)
            return out

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_fn(self, owner: Any, attr: str, metric: str, layer: str,
                  span: bool, after: Callable | None = None) -> None:
        original = owner.__dict__[attr]
        self.patch(owner, attr, self.wrap(original, metric, layer, span, after))

    def install(self) -> None:
        """Wrap every layer entry point this benchmark times."""
        mod = importlib.import_module
        apps = mod("repro.trace.synth.apps")
        common = mod("repro.experiments.common")
        compress = mod("repro.trace.compress")
        parallel = mod("repro.sim.parallel")
        simulator = mod("repro.sim.simulator")
        batch = mod("repro.sim.batch")
        replacement = mod("repro.sim.replacement")
        schemes = mod("repro.core.schemes")
        sequencers = mod("repro.core.sequencers")
        latency = mod("repro.net.latency")
        congestion = mod("repro.net.congestion")
        cluster = mod("repro.gms.cluster")
        disk = mod("repro.disk.model")
        multitenant = mod("repro.sim.multitenant")
        # Import the modules that define further policy and scheme
        # classes, so the subclass scans below find them.
        mod("repro.sim.soa")
        mod("repro.policy.adaptive")

        def count_refs(trace: Any) -> None:
            self.counts["trace.synth.refs"] += trace.num_references

        # build_app_trace and run_cells are also bound by name in
        # experiments.common; patch both bindings with one wrapper each.
        for owners, attr, metric, layer, after in (
            ((apps, common), "build_app_trace", "trace.synth.build",
             "trace.synth", count_refs),
            ((parallel, common), "run_cells", "sim.parallel.run_cells",
             "sim.parallel", None),
        ):
            wrapped = self.wrap(
                owners[0].__dict__[attr], metric, layer, True, after
            )
            for owner in owners:
                self.patch(owner, attr, wrapped)

        self._patch_fn(compress.RunTrace, "columns",
                       "trace.compress.columns", "trace.compress", True)
        self._patch_fn(simulator.Simulator, "run",
                       "sim.simulator.run", "sim.simulator", True)
        self._patch_fn(batch, "trace_scan", "sim.batch.scan",
                       "sim.batch", True)
        self._patch_fn(batch, "drive_fused", "sim.batch.drive",
                       "sim.batch", True)
        self._patch_profiled(batch)
        self._patch_fn(multitenant, "run_multi_tenant",
                       "sim.multitenant.run", "sim.multitenant", True)

        for cls in _subclasses(replacement.ReplacementPolicy):
            if "evict" in cls.__dict__:
                layer = (
                    "sim.soa" if cls.__module__ == "repro.sim.soa"
                    else "sim.replacement"
                )
                self._patch_fn(cls, "evict", f"{layer}.evict", layer, False)
        for cls in _subclasses(schemes.FetchScheme):
            for attr in ("plan_fault", "plan_with_order"):
                if attr in cls.__dict__:
                    self._patch_fn(cls, attr, "core.schemes.plan",
                                   "core.schemes", False)
        for cls in _subclasses(sequencers.Sequencer):
            if "order" in cls.__dict__:
                self._patch_fn(cls, "order", "core.sequencers.order",
                               "core.sequencers", False)
        for cls in vars(latency).values():
            if isinstance(cls, type) and cls.__module__ == latency.__name__:
                for attr in LATENCY_METHODS:
                    if attr in cls.__dict__:
                        self._patch_fn(cls, attr, "net.latency.lookup",
                                       "net.latency", False)
        for attr in ("demand", "background"):
            self._patch_fn(congestion.LinkModel, attr, "net.congestion.link",
                           "net.congestion", False)
        for attr in ("getpage", "putpage"):
            self._patch_fn(cluster.Cluster, attr, f"gms.cluster.{attr}",
                           "gms", False)
        self._patch_fn(disk.DiskModel, "read_page", "disk.model.read",
                       "disk", False)

    def _patch_profiled(self, batch: Any) -> None:
        """Run every fused pass with a :class:`FusedProfile` attached."""
        original = batch.__dict__["simulate_cells_timed"]
        tracer = self

        @functools.wraps(original)
        def profiled(trace, configs, *, fused=True, profile=None):
            own = batch.FusedProfile()
            out = original(trace, configs, fused=fused, profile=own)
            tracer.absorb(own)
            return out

        self.patch(batch, "simulate_cells_timed", self.wrap(
            profiled, "sim.batch.cells", "sim.batch", True
        ))

    def absorb(self, profile: Any) -> None:
        for name in PROFILE_COUNTS:
            self.counts[f"sim.batch.{name}"] += getattr(profile, name)
        self.counts["sim.batch.bulk_s"] += profile.bulk_s
        self.counts["sim.batch.scalar_s"] += profile.scalar_s
        self.counts["sim.batch.bailed"] += len(profile.bailed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, run_id: str) -> Iterator["Tracer"]:
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reports ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer times and call counts, by metric name."""
        t, n, c = self.time_s, self.calls, self.counts
        evicts = n["sim.soa.evict"]
        # The share as tools/bench_throughput.py --profile reports it:
        # scalar seconds over scan + bulk + scalar seconds.
        fused_s = t["sim.batch.scan"] + c["sim.batch.bulk_s"] + c[
            "sim.batch.scalar_s"
        ]
        out: dict[str, tuple[float, str]] = {
            "experiments.fig03_s": (t["experiments.fig03"], "s"),
            "experiments.fig09_s": (t["experiments.fig09"], "s"),
            "trace.synth.build_s": (t["trace.synth.build"], "s"),
            "trace.synth.refs": (c["trace.synth.refs"], "count"),
            "trace.compress.columns_s": (t["trace.compress.columns"], "s"),
            "sim.parallel.run_cells_s": (t["sim.parallel.run_cells"], "s"),
            "sim.simulator.run_s": (t["sim.simulator.run"], "s"),
            "sim.simulator.runs": (n["sim.simulator.run"], "count"),
            "sim.batch.scan_s": (t["sim.batch.scan"], "s"),
            "sim.batch.drive_s": (t["sim.batch.drive"], "s"),
            "sim.batch.bulk_s": (c["sim.batch.bulk_s"], "s"),
            "sim.batch.scalar_s": (c["sim.batch.scalar_s"], "s"),
            "sim.batch.scalar_share": (
                c["sim.batch.scalar_s"] / fused_s if fused_s else 0.0, "ratio"
            ),
            "sim.batch.bailed": (c["sim.batch.bailed"], "count"),
            "sim.soa.evict_s": (t["sim.soa.evict"], "s"),
            "sim.soa.evicts": (evicts, "count"),
            "sim.soa.evict_us": (
                t["sim.soa.evict"] / evicts * 1e6 if evicts else 0.0, "us"
            ),
            "sim.replacement.evict_s": (t["sim.replacement.evict"], "s"),
            "sim.replacement.evicts": (n["sim.replacement.evict"], "count"),
            "core.schemes.plan_s": (t["core.schemes.plan"], "s"),
            "core.schemes.plans": (n["core.schemes.plan"], "count"),
            "core.sequencers.order_s": (t["core.sequencers.order"], "s"),
            "core.sequencers.orders": (n["core.sequencers.order"], "count"),
            "net.latency.lookup_s": (t["net.latency.lookup"], "s"),
            "net.latency.lookups": (n["net.latency.lookup"], "count"),
            "net.congestion.link_s": (t["net.congestion.link"], "s"),
            "net.congestion.link_calls": (
                n["net.congestion.link"], "count"
            ),
            "gms.cluster.getpage_s": (t["gms.cluster.getpage"], "s"),
            "gms.cluster.getpages": (n["gms.cluster.getpage"], "count"),
            "gms.cluster.putpage_s": (t["gms.cluster.putpage"], "s"),
            "gms.cluster.putpages": (n["gms.cluster.putpage"], "count"),
            "disk.model.read_s": (t["disk.model.read"], "s"),
            "disk.model.reads": (n["disk.model.read"], "count"),
            "sim.multitenant.run_s": (t["sim.multitenant.run"], "s"),
        }
        for name in PROFILE_COUNTS:
            out[f"sim.batch.{name}"] = (c[f"sim.batch.{name}"], "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def write_chrome(self, path: str, metadata: dict[str, Any]) -> None:
        """The recorded spans as Chrome trace-event JSON."""
        origin = min((s[2] for s in self.spans), default=0.0)
        runs = list(dict.fromkeys(s[5] for s in self.spans))
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": run}}
            for tid, run in enumerate(runs)
        ]
        for index, (name, layer, start, end, parent, run) in enumerate(
            self.spans
        ):
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": ((end if end is not None else start) - start) * 1e6,
                "pid": 1,
                "tid": runs.index(run),
                "args": {"span": index, "parent": parent, "run": run},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)


def _subclasses(base: type) -> list[type]:
    """``base`` and every class derived from it, each once."""
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen

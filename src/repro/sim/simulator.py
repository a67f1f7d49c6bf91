"""The trace-driven simulator main loop.

The simulator walks a run-length-compressed reference trace, maintaining
local-memory residency at page granularity and validity at subpage
granularity.  Memory accesses are the clock (paper Section 3.2): each
reference costs ``event_ns`` (times the trace's dilation factor), and all
fault/transfer latencies are injected in milliseconds on the same axis.

Correctness relies on a property of the machine model: faults and stalls
can only occur on the *first* reference of a run (all later references in
a run hit the same 256-byte block, which cannot become invalid
mid-run because residency only changes at faults and arrivals only make
data *more* valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from repro.core.fault import FaultKind, FaultRecord
from repro.core.plans import FaultContext
from repro.disk.presets import paper_disk
from repro.errors import SimulationError
from repro.gms.cluster import Cluster, PageLocation
from repro.gms.ids import PageUid
from repro.net.congestion import CrossTraffic, LinkModel, PendingArrivals
from repro.net.latency import CalibratedLatencyModel
from repro.obs.instrument import Instrument, Recorder
from repro.palcode.emulator import PalEmulator
from repro.sim.config import SimulationConfig
from repro.sim.replacement import make_policy
from repro.sim.results import SimulationResult
from repro.sim.tlb import TlbModel
from repro.trace.compress import RunTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policy.adaptive import AdaptivePolicy
    from repro.trace.compress import TraceColumns

#: Default node id of the active (trace-running) node in cluster mode.
ACTIVE_NODE = 0

#: UID namespace for pages shared across workloads (shared library code
#: and the like); disjoint from any real node id.
SHARED_ORIGIN = 1 << 30


class _Frame:
    """Residency state of one local page."""

    __slots__ = ("valid_bits", "pending", "dirty", "record", "distance_from")

    def __init__(
        self,
        valid_bits: int,
        pending: PendingArrivals | None,
        dirty: bool,
        record: FaultRecord | None,
        distance_from: int | None,
    ) -> None:
        self.valid_bits = valid_bits
        self.pending = pending
        self.dirty = dirty
        self.record = record
        self.distance_from = distance_from


class Simulator:
    """Runs one :class:`SimulationConfig` over traces.

    ``cluster`` may supply a prebuilt (and possibly shared) GMS cluster
    for ``backing="cluster"`` runs; the caller is then responsible for
    node layout and warm-filling.  Without it, the simulator builds a
    private warm cluster per run.

    ``instrument`` optionally receives fault-path observability hooks
    (see :mod:`repro.obs.instrument`).  When it is ``None`` but
    ``config.observe`` is set, each run builds its own
    :class:`~repro.obs.instrument.Recorder` and attaches the collected
    trace events / metrics to the returned result.
    """

    def __init__(
        self,
        config: SimulationConfig,
        cluster: Cluster | None = None,
        instrument: Instrument | None = None,
        link_fabric: "CrossTraffic | None" = None,
        link_label: str | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self._external_cluster = cluster
        self._instrument = instrument
        self._link_fabric = link_fabric
        self._link_label = link_label
        self.scheme = config.build_scheme()
        self.latency = (
            config.latency_model
            if config.latency_model is not None
            else CalibratedLatencyModel(page_bytes=config.page_bytes)
        )
        if self.latency.page_bytes != config.page_bytes:
            raise SimulationError(
                f"latency model page size {self.latency.page_bytes} != "
                f"config page size {config.page_bytes}"
            )

    # -- public API --------------------------------------------------------

    def run(self, trace: RunTrace) -> SimulationResult:
        """Simulate ``trace`` and return the result."""
        state, cols, recorder = self._prepare(trace)
        if self._use_fast(state):
            # A one-cell fused pass; imported here because
            # repro.sim.batch imports this module.
            from repro.sim.batch import drive_fused, trace_scan

            (clock,) = drive_fused(
                [(self, state, cols)], trace, trace_scan(trace, cols)
            )
        else:
            clock = self._drive_reference(state, cols)
        return self._finish(state, clock, recorder)

    def _prepare(
        self, trace: RunTrace
    ) -> tuple["_RunState", "TraceColumns", Recorder | None]:
        """Build the per-run state every engine drives.

        Split out of :meth:`run` so the batch engine
        (:mod:`repro.sim.batch`) can set up each of its cells exactly the
        way a standalone run would — same substrate objects, same reset
        order — and drive them itself.  Pair with :meth:`_finish`.
        """
        cfg = self.config
        if trace.page_bytes != cfg.page_bytes:
            raise SimulationError(
                f"trace page size {trace.page_bytes} != config "
                f"{cfg.page_bytes}"
            )

        event_ms = cfg.event_ns * 1e-6
        if cfg.use_trace_dilation:
            event_ms *= trace.dilation

        # Per-run columns, cached on the trace across runs/subpage sizes.
        cols = trace.columns(cfg.subpage_bytes)

        full_mask = (1 << (cfg.page_bytes // cfg.subpage_bytes)) - 1

        ins = self._instrument
        recorder: Recorder | None = None
        if ins is None and cfg.observe:
            recorder = Recorder.from_spec(
                cfg.observe, node=cfg.cluster_node_id
            )
            ins = recorder

        policy = make_policy(cfg.replacement, seed=cfg.seed)
        link = LinkModel(
            instrument=ins,
            fabric=self._link_fabric,
            label=self._link_label,
        )
        disk = cfg.disk_model if cfg.disk_model is not None else paper_disk(
            cfg.page_bytes
        )
        disk.reset()
        if cfg.disk_model is None and ins is not None:
            # Only the simulator-owned preset disk is instrumented; a
            # caller-supplied model keeps whatever instrument it carries.
            disk.instrument = ins
        tlb = (
            TlbModel(cfg.tlb_entries, cfg.tlb_miss_ns)
            if cfg.tlb_entries > 0
            else None
        )
        pal = PalEmulator() if cfg.protection == "palcode" else None
        cluster = None
        if cfg.backing == "cluster":
            cluster = (
                self._external_cluster
                if self._external_cluster is not None
                else self._build_cluster(trace, ins)
            )

        # Adaptive schemes carry a per-run controller; reset it and feed
        # it fault-path observations for the whole run.
        controller = self.scheme.controller
        if controller is not None:
            controller.begin_run(subpage_bytes=cfg.subpage_bytes)

        frames: dict[int, _Frame] = {}
        result = SimulationResult(
            trace_name=trace.name,
            scheme_label=cfg.scheme_label(),
            scheme_name=self.scheme.name,
            subpage_bytes=cfg.subpage_bytes,
            page_bytes=cfg.page_bytes,
            memory_pages=cfg.memory_pages,
            backing=cfg.backing,
            num_references=trace.num_references,
            num_runs=trace.num_runs,
            event_cost_ms=event_ms,
        )
        state = _RunState(
            frames=frames,
            policy=policy,
            link=link,
            disk=disk,
            tlb=tlb,
            pal=pal,
            cluster=cluster,
            result=result,
            event_ms=event_ms,
            full_mask=full_mask,
            ins=ins,
            adaptive=controller,
        )
        return state, cols, recorder

    def _use_fast(self, state: "_RunState") -> bool:
        """Engine dispatch: the fused pass handles every configuration
        except those demanding per-event hooks — an attached
        instrument (including the observe= recorder), PALcode
        emulation (charged per reference against in-flight pages),
        subpage-distance tracking (inspects every hit), adaptive
        policies on the per-reference-run "events" feed — and the TLB,
        whose miss walks interleave with the clock inside spans.  The
        default "faults" feed observes only at faults and
        incomplete-page touches, which both loops visit identically.
        """
        cfg = self.config
        controller = state.adaptive
        return (
            cfg.engine == "fast"
            and state.ins is None
            and state.pal is None
            and state.tlb is None
            and not cfg.track_distances
            and (controller is None or not controller.needs_reference_events)
        )

    def _finish(
        self,
        state: "_RunState",
        clock: float,
        recorder: Recorder | None,
    ) -> SimulationResult:
        """Finalize a driven run and return its result (pairs with
        :meth:`_prepare`)."""
        result = state.result
        self._finalize(state, clock)
        if recorder is not None:
            if recorder.metrics is not None:
                result.metrics = recorder.metrics.as_dict()
            if recorder.trace is not None:
                result.trace_events = recorder.trace.events
        return result

    def _drive_reference(
        self,
        state: "_RunState",
        cols,
        start: int = 0,
        clock: float = 0.0,
        last_page: int = -1,
        until: float = math.inf,
    ) -> float:
        """The per-run reference loop; handles every configuration.

        ``start``/``clock``/``last_page`` let the fused pass hand a
        partially-driven run over mid-trace (its bail-out path): the
        shared ``state`` is exactly what this loop would have produced,
        so resuming at run ``start`` is bit-identical to having driven
        the whole trace here.

        ``until`` bounds the drive for the multi-tenant scheduler
        (:mod:`repro.sim.multitenant`): the loop stops after the first
        run that brings the clock to ``until`` or past it and parks its
        position in ``state.cursor``.  The next call on the same
        ``state``, passed the returned clock, resumes there in O(1).
        ``state.cursor`` is ``None`` once the trace is exhausted.
        """
        cfg = self.config
        frames = state.frames
        policy = state.policy
        tlb = state.tlb
        pal = state.pal
        event_ms = state.event_ms
        full_mask = state.full_mask
        result = state.result

        track_dist = cfg.track_distances
        feed_hits = (
            state.adaptive is not None
            and state.adaptive.needs_reference_events
        )

        runs = state.cursor
        if runs is None:
            runs = zip(
                cols.pages, cols.subpages, cols.blocks, cols.counts,
                cols.writes,
            )
            if start:
                runs = islice(runs, start, None)
        else:
            last_page = state.last_page
        for page, sp, block, count, write in runs:
            frame = frames.get(page)
            if frame is None:
                clock = self._page_fault(
                    state, clock, page, sp, block, write
                )
                frame = frames[page]
                last_page = page
                if tlb is not None and not tlb.access(page):
                    # The TLB misses before the fault is even detected;
                    # the walk cost is paid on top of the fault service.
                    clock += tlb.miss_ms
                if pal is not None and frame.pending is not None:
                    # Software protection: the rest of the faulting run
                    # executes against a still-incomplete page.
                    self._charge_emulation(
                        state, clock, page, frame, count, write
                    )
            else:
                if page != last_page:
                    policy.touch(page)
                    last_page = page
                    if tlb is not None and not tlb.access(page):
                        clock += tlb.miss_ms
                if track_dist and frame.distance_from is not None:
                    if sp != frame.distance_from:
                        distance = sp - frame.distance_from
                        hist = result.distance_histogram
                        hist[distance] = hist.get(distance, 0) + 1
                        frame.distance_from = None
                if frame.pending is not None or frame.valid_bits != full_mask:
                    clock = self._touch_incomplete(
                        state, clock, page, frame, sp, block, write, count
                    )
                elif feed_hits:
                    state.adaptive.observe(page, sp, "hit")
                if write and not frame.dirty:
                    frame.dirty = True
            clock += count * event_ms
            if clock >= until:
                state.cursor = runs
                state.last_page = last_page
                return clock
        state.cursor = None
        return clock

    # -- fault handling ------------------------------------------------------

    def _page_fault(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        sp: int,
        block: int,
        is_write: bool,
    ) -> float:
        cfg = self.config
        result = state.result
        frames = state.frames

        if len(frames) >= cfg.memory_pages:
            self._evict(state, clock)

        if state.adaptive is not None:
            state.adaptive.observe(page, sp, "fault")

        service = cfg.backing
        if state.cluster is not None:
            got = state.cluster.getpage(
                cfg.cluster_node_id, self._uid(page), clock
            )
            service = (
                "disk" if got.location is PageLocation.DISK else "remote"
            )

        if service == "disk":
            latency = state.disk.read_page(page)
            resume = clock + latency
            record = FaultRecord(
                page=page,
                subpage=sp,
                kind=FaultKind.DISK,
                time_ms=clock,
                sp_latency_ms=latency,
                window_start_ms=resume,
                window_end_ms=resume,
            )
            result.disk_faults += 1
            frame = _Frame(
                valid_bits=state.full_mask,
                pending=None,
                dirty=is_write,
                record=record,
                distance_from=sp if cfg.track_distances else None,
            )
        else:
            ctx = FaultContext(
                now_ms=clock,
                page=page,
                faulted_subpage=sp,
                faulted_block=block,
                subpage_bytes=cfg.subpage_bytes,
                page_bytes=cfg.page_bytes,
                latency=self.latency,
            )
            plan = self.scheme.plan_fault(ctx)
            overlapped = state.link.busy_until_ms > clock
            if cfg.congestion:
                state.link.demand(
                    clock + self.latency.request_fixed_ms,
                    plan.demand_wire_ms,
                    page=page,
                )
            resume = plan.resume_ms
            valid_bits = 0
            follow: dict[int, float] = {}
            for index, arrival in plan.arrivals_ms.items():
                if arrival <= resume:
                    valid_bits |= 1 << index
                else:
                    follow[index] = arrival
            pending = None
            if follow:
                pending = PendingArrivals(
                    arrival_ms=follow,
                    wire_end_ms=plan.background_ready_ms
                    + plan.background_wire_ms,
                )
                if cfg.congestion and plan.background_wire_ms > 0:
                    state.link.background(
                        plan.background_ready_ms,
                        plan.background_wire_ms,
                        pending,
                        page=page,
                    )
            record = FaultRecord(
                page=page,
                subpage=sp,
                kind=FaultKind.REMOTE,
                time_ms=clock,
                sp_latency_ms=resume - clock,
                window_start_ms=resume,
                window_end_ms=pending.latest() if pending else resume,
                cpu_overhead_ms=plan.cpu_overhead_ms,
                overlapped_another=overlapped,
            )
            result.remote_faults += 1
            if overlapped:
                result.overlapped_faults += 1
            frame = _Frame(
                valid_bits=valid_bits,
                pending=pending,
                dirty=is_write,
                record=record,
                distance_from=sp if cfg.track_distances else None,
            )

        state.stalls.append((clock, resume))
        if cfg.record_faults:
            result.fault_records.append(record)
        if state.ins is not None:
            state.ins.on_fault(record)
        result.components.sp_latency_ms += record.sp_latency_ms
        result.components.cpu_overhead_ms += record.cpu_overhead_ms
        frames[page] = frame
        state.policy.insert(page)
        if frame.pending is not None:
            state.policy.note_pending(page)
        return resume + record.cpu_overhead_ms

    def _touch_incomplete(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
        is_write: bool,
        count: int,
    ) -> float:
        """Access path for a page that is resident but incomplete."""
        result = state.result
        if state.adaptive is not None:
            state.adaptive.observe(page, sp, "touch")
        if not frame.valid_bits >> sp & 1:
            pending = frame.pending
            arrival = (
                pending.arrival_ms.get(sp) if pending is not None else None
            )
            if arrival is None:
                # Lazy fetch: the subpage was never requested; fault it.
                clock = self._subpage_fault(
                    state, clock, page, frame, sp, block
                )
            elif arrival > clock:
                state.stalls.append((clock, arrival))
                if frame.record is not None:
                    frame.record.add_page_wait(clock, arrival)
                if state.ins is not None:
                    state.ins.on_stall(clock, arrival, "page_wait", page)
                result.components.page_wait_ms += arrival - clock
                clock = arrival
                frame.valid_bits |= 1 << sp
            else:
                frame.valid_bits |= 1 << sp

        # Fold completed transfers: once everything has arrived the page
        # behaves like any fully-resident page (access re-enabled).  An
        # empty schedule means nothing is actually in flight; fold it
        # immediately rather than tripping PendingArrivals.latest().
        pending = frame.pending
        if pending is not None:
            if not pending.arrival_ms:
                frame.valid_bits = state.full_mask
                frame.pending = None
                if state.policy is not None:
                    state.policy.note_settled(page)
            elif clock >= (latest := pending.latest()):
                frame.valid_bits = state.full_mask
                frame.pending = None
                if state.policy is not None:
                    state.policy.note_settled(page)
                if frame.record is not None:
                    frame.record.window_end_ms = latest
            elif state.pal is not None:
                self._charge_emulation(
                    state, clock, page, frame, count, is_write
                )
        return clock

    def _charge_emulation(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        count: int,
        is_write: bool,
    ) -> None:
        """Software protection: references to an incomplete page are
        emulated (Table 1 costs) until its last subpage arrives."""
        assert state.pal is not None and frame.pending is not None
        latest = frame.pending.latest()
        refs_until_done = int((latest - clock) / state.event_ms) + 1
        emulated = min(count, refs_until_done)
        state.result.components.emulation_ms += state.pal.charge_run(
            page, emulated, is_write
        )

    def _subpage_fault(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
    ) -> float:
        """Lazy-scheme fault on a subpage of a resident page."""
        cfg = self.config
        ctx = FaultContext(
            now_ms=clock,
            page=page,
            faulted_subpage=sp,
            faulted_block=block,
            subpage_bytes=cfg.subpage_bytes,
            page_bytes=cfg.page_bytes,
            latency=self.latency,
        )
        plan = self.scheme.plan_fault(ctx)
        if cfg.congestion:
            state.link.demand(
                clock + self.latency.request_fixed_ms,
                plan.demand_wire_ms,
                page=page,
            )
        resume = plan.resume_ms
        follow: dict[int, float] = {}
        for index, arrival in plan.arrivals_ms.items():
            if arrival <= resume:
                frame.valid_bits |= 1 << index
            else:
                follow[index] = arrival
        window_end = resume
        if follow:
            # Follow-on arrivals ride the shared link exactly like a page
            # fault's background transfer: register a fresh schedule with
            # the link model (so it queues behind in-flight traffic, can
            # be preempted by demand transfers, and carries a real
            # wire_end_ms for _reap/_evict accounting)...
            pending = PendingArrivals(
                arrival_ms=follow,
                wire_end_ms=plan.background_ready_ms
                + plan.background_wire_ms,
            )
            if cfg.congestion and plan.background_wire_ms > 0:
                state.link.background(
                    plan.background_ready_ms,
                    plan.background_wire_ms,
                    pending,
                    page=page,
                )
            window_end = max(pending.arrival_ms.values())
            if frame.pending is None:
                frame.pending = pending
            else:
                # ... then fold it into the page's existing schedule.
                # The link keeps shifting the registered (fresh) object;
                # post-merge demand preemption does not propagate to the
                # merged copy.  Built-in schemes never reach this corner
                # (a subpage fault implies the earlier plan requested
                # only a subset of the page, i.e. no pending schedule).
                frame.pending.arrival_ms.update(pending.arrival_ms)
                frame.pending.wire_end_ms = max(
                    frame.pending.wire_end_ms, pending.wire_end_ms
                )
            state.policy.note_pending(page)
        record = FaultRecord(
            page=page,
            subpage=sp,
            kind=FaultKind.SUBPAGE,
            time_ms=clock,
            sp_latency_ms=resume - clock,
            window_start_ms=resume,
            window_end_ms=window_end,
            cpu_overhead_ms=plan.cpu_overhead_ms,
        )
        state.stalls.append((clock, resume))
        if cfg.record_faults:
            state.result.fault_records.append(record)
        if state.ins is not None:
            state.ins.on_fault(record)
        state.result.subpage_faults += 1
        state.result.components.sp_latency_ms += record.sp_latency_ms
        state.result.components.cpu_overhead_ms += record.cpu_overhead_ms
        return resume + record.cpu_overhead_ms

    def _evict(self, state: "_RunState", clock: float) -> None:
        frames = state.frames

        def transfers_done(page: int) -> bool:
            pending = frames[page].pending
            return (
                pending is None
                or not pending.arrival_ms
                or pending.latest() <= clock
            )

        victim = state.policy.evict(prefer=transfers_done)
        state.last_victim = victim
        frame = frames.pop(victim)
        state.result.evictions += 1
        cancelled = (
            frame.pending is not None
            and bool(frame.pending.arrival_ms)
            and frame.pending.latest() > clock
        )
        if cancelled:
            state.result.cancelled_transfers += 1
        if frame.dirty:
            state.result.dirty_evictions += 1
        if state.ins is not None:
            state.ins.on_eviction(clock, victim, frame.dirty, cancelled)
        if state.tlb is not None:
            state.tlb.invalidate(victim)
        if state.cluster is not None:
            state.cluster.putpage(
                self.config.cluster_node_id,
                self._uid(victim),
                age=clock,
                dirty=frame.dirty,
            )

    # -- setup / teardown --------------------------------------------------

    def _uid(self, page: int) -> PageUid:
        """Cluster-wide UID for a local virtual page.

        Pages at/above the shared threshold live in a common namespace so
        several workloads name (and can reuse) the same physical copy.
        """
        cfg = self.config
        if (
            cfg.shared_from_page is not None
            and page >= cfg.shared_from_page
        ):
            return PageUid(SHARED_ORIGIN, page)
        return PageUid(cfg.cluster_node_id, page)

    def _build_cluster(
        self, trace: RunTrace, instrument: Instrument | None = None
    ) -> Cluster:
        cfg = self.config
        cluster = Cluster(seed=cfg.seed, instrument=instrument)
        footprint = trace.footprint_pages()
        idle_total = (
            cfg.cluster_idle_frames
            if cfg.cluster_idle_frames is not None
            else 2 * footprint
        )
        idle_nodes = cfg.cluster_nodes - 1
        per_idle = max(1, -(-idle_total // idle_nodes))
        cluster.add_node(cfg.memory_pages)  # the active node
        for _ in range(idle_nodes):
            cluster.add_node(per_idle)
        if cfg.cluster_warm:
            # Warm cache: every page of the workload starts in remote
            # memory (as many as fit; the rest will be disk fills).
            import numpy as np

            vpns = np.unique(trace.pages).tolist()
            # Clamp at zero: with scarce idle frames the subtraction can
            # go negative, and a negative slice would silently drop pages
            # from the tail instead of warm-filling none.
            placeable = max(0, min(len(vpns), cluster.total_free_frames()
                                   - cfg.memory_pages))
            cluster.warm_fill(cfg.cluster_node_id, vpns[:placeable])
        return cluster

    def _finalize(self, state: "_RunState", clock: float) -> None:
        result = state.result
        result.components.exec_ms = result.num_references * state.event_ms
        if state.tlb is not None:
            result.components.tlb_miss_ms = state.tlb.stats.miss_time_ms
            result.tlb_stats = {
                "accesses": state.tlb.stats.accesses,
                "misses": state.tlb.stats.misses,
                "miss_rate": state.tlb.stats.miss_rate,
            }
        if state.pal is not None:
            stats = state.pal.stats
            result.emulation_stats = {
                "emulated_accesses": stats.emulated_accesses,
                "overhead_ms": stats.overhead_ms,
                "fast_loads": stats.fast_loads,
                "slow_loads": stats.slow_loads,
                "fast_stores": stats.fast_stores,
                "slow_stores": stats.slow_stores,
            }
        result.link_stats = {
            "demand_transfers": state.link.demand_transfers,
            "background_transfers": state.link.background_transfers,
            "queueing_delay_ms": state.link.total_queueing_delay_ms,
            "preemption_delay_ms": state.link.total_preemption_delay_ms,
        }
        if state.cluster is not None:
            cstats = state.cluster.stats
            result.cluster_stats = {
                "getpages": cstats.getpages,
                "remote_hits": cstats.remote_hits,
                "local_global_hits": cstats.local_global_hits,
                "shared_copies": cstats.shared_copies,
                "disk_fills": cstats.disk_fills,
                "putpages": cstats.putpages,
                "discards": cstats.discards,
                "disk_writebacks": cstats.disk_writebacks,
                "messages": cstats.messages,
                "global_hit_ratio": cstats.global_hit_ratio,
            }
        if state.adaptive is not None:
            stats = state.adaptive.finish()
            if stats is not None:
                result.policy_stats = stats
        # Close any still-open fault windows at the end of the run.
        for record in result.fault_records:
            if record.window_end_ms > clock:
                record.window_end_ms = clock
        if state.ins is not None:
            ins = state.ins
            ins.publish("link", result.link_stats)
            if result.policy_stats:
                ins.publish("policy", result.policy_stats)
            if result.tlb_stats:
                ins.publish("tlb", result.tlb_stats)
            if result.emulation_stats:
                ins.publish("emulation", result.emulation_stats)
            if result.cluster_stats:
                ins.publish("cluster", result.cluster_stats)
            ins.on_run_end(result)


@dataclass(slots=True)
class _RunState:
    """Mutable per-run plumbing shared by the simulator's helpers."""

    frames: dict[int, _Frame]
    policy: object
    link: LinkModel
    disk: object
    tlb: TlbModel | None
    pal: PalEmulator | None
    cluster: Cluster | None
    result: SimulationResult
    event_ms: float
    full_mask: int
    ins: Instrument | None = None
    #: The scheme's adaptive controller, if any; fed access
    #: observations from the fault path (both loops) and — on the
    #: ``"events"`` feed — per reference run (reference loop only).
    adaptive: "AdaptivePolicy | None" = None
    #: The most recent eviction victim (set by ``_evict``); the fused
    #: pass reads it after a fault to re-enter the page in its
    #: interesting-event heap.
    last_victim: int | None = None
    #: Where a bounded ``_drive_reference(until=...)`` stopped: the
    #: iterator over the runs not yet driven and the page of the last
    #: run driven.  ``None`` before the first drive and once the trace
    #: is exhausted.
    cursor: Iterator | None = None
    last_page: int = -1

    @property
    def stalls(self) -> list[tuple[float, float]]:
        return self.result.stall_intervals


def simulate(trace: RunTrace, config: SimulationConfig) -> SimulationResult:
    """Convenience: build a :class:`Simulator` and run one trace."""
    return Simulator(config).run(trace)

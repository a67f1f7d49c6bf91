"""Cross-cell batched simulation: many cells, one shared trace pass.

The paper's headline evidence is grid-shaped — Figure 9 runs every
application across the full (scheme x subpage size x memory size)
matrix — and every cell of such a grid walks the *same* trace.  Which
run switches to which page, and where that page switches next, is a
property of the trace alone, so this module computes it once per trace
in a :class:`TraceScan` shared by every cell of a batch:

* ``switch_pos``/``switch_next`` — the position of every page switch,
  plus the position of the *next* switch to the same page.  Any span
  ``[i, j)`` recovers its replacement-policy touch sequence (each
  switched page's **last** switch, in ascending order) with two
  ``searchsorted`` probes and one vectorized compare
  ``switch_next >= j``, instead of a per-span sort.
* ``write_pos``/``write_prev`` — the same structure for write runs:
  ``write_prev < i`` selects each page's first write inside the span,
  i.e. the unique pages to dirty-mark.
* ``switch_col``/``write_col`` — the same switches and writes as dense
  page columns of the fused engine's ``[page-column, cell]`` matrices.

:func:`simulate_cells` then drives N configurations over one trace in
a single pass (:func:`drive_fused`): each cell's substrate is built by
the standard :meth:`~repro.sim.simulator.Simulator._prepare` (same
objects, same reset order as a standalone run), the spans between
interesting events advance every cell at once through the shared scan,
and only the cells that find an event interesting — faults, stalls,
folds — take the scalar reference path.  Per-cell residency stays in
the simulator's frame table with its valid-subpage bitmasks, so the
scalar path is *identical* code to the reference loop's.

Bit-exactness: the clock chain is the same left-to-right float64
addition chain the reference loop performs, replaying each switched
page's last switch in ascending order leaves the same recency order as
replaying every switch, and dirty marking is an idempotent flag —
``tests/sim/test_engine_equivalence.py`` asserts equal
:class:`~repro.sim.results.SimulationResult` objects against the
reference loop across the full integration matrix.

The fused pass is also the ``engine="fast"`` path of a single
:meth:`~repro.sim.simulator.Simulator.run`: a pass of one cell.  So
the simulator has two event loops, this one and the reference loop it
bails out to.  Grouping several cells into one pass
(:func:`batch_eligible`) is stricter than that single-cell dispatch:
on top of its exclusions (observability, PALcode, distance tracking,
the TLB, event-feed adaptive policies) it rules out the adaptive
meta-scheme and live model instances (those cells are not
content-addressable and keep their per-cell dispatch).  Ineligible
configurations silently take the ordinary :func:`~repro.sim.simulator.
simulate` path, so :func:`simulate_cells` is a safe drop-in for any
mix of cells.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.config import SimulationConfig
from repro.sim.kernels import accumulate_lanes
from repro.sim.simulator import Simulator
from repro.sim.soa import (
    FusedClock,
    FusedFifo,
    FusedFrames,
    FusedLru,
    StampCounter,
)
from repro.trace.compress import index_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import SimulationResult
    from repro.sim.simulator import _RunState
    from repro.trace.compress import RunTrace, TraceColumns

#: Thrash bail-out of the fused pass: once a cell has evicted (its
#: memory is full) or taken a lazy subpage fault, a window of
#: ``FUSED_BAIL_WINDOW`` of its interesting events that consumed fewer
#: than ``FUSED_BAIL_WINDOW * FUSED_BAIL_MIN_SPAN`` runs hands its
#: remainder to the reference loop.  Windows only start counting at
#: the first eviction or subpage fault because every trace's cold start
#: is fault-dense: a cell whose pages all complete without evicting
#: never bails, while a lazy cell's pages stay incomplete until every
#: subpage has been touched, so later runs on them are events even at
#: full memory.  The values come from a sweep over the registered
#: apps' half-memory grids.
FUSED_BAIL_WINDOW = 256
FUSED_BAIL_MIN_SPAN = 32

#: Key under which a trace's :class:`TraceScan` rides in
#: ``RunTrace._cols``, next to the column and occurrence caches (and,
#: like them, dropped on pickling and rebuilt lazily per process).
_SCAN_KEY = "batch_scan"


class TraceScan:
    """Cell-independent switch/write structure of one trace.

    Built from any :class:`~repro.trace.compress.TraceColumns` of the
    trace — the page and write columns are subpage-size-independent —
    and shared by every cell of a batch, whatever its subpage size,
    memory size, scheme, or backing.
    """

    __slots__ = (
        "switch_pos",
        "switch_next",
        "switch_col",
        "write_pos",
        "write_prev",
        "write_col",
        "page_ids",
        "page_ids_list",
        "col_of",
    )

    def __init__(self, cols: "TraceColumns") -> None:
        n = len(cols.pages)
        # Narrowest run-index dtype (int32 below 2**31 runs): these
        # arrays are rebuilt per worker process, so halving them halves
        # the per-worker scan footprint alongside the shm arena's.
        idx = index_dtype(n)
        pages_arr = cols.pages_arr
        self.switch_pos = np.flatnonzero(cols.switch_arr).astype(
            idx, copy=False
        )
        switch_page = pages_arr[self.switch_pos]
        # switch_next[s]: run index of the next switch to the same page
        # strictly after switch s; n when there is none.  One stable
        # argsort groups switches by page while keeping each group in
        # ascending position order, so "next of same page" is just the
        # following entry of the group.
        self.switch_next = np.full(len(self.switch_pos), n, dtype=idx)
        order = np.argsort(switch_page, kind="stable")
        pos_sorted = self.switch_pos[order]
        page_sorted = switch_page[order]
        same = page_sorted[1:] == page_sorted[:-1]
        self.switch_next[order[:-1][same]] = pos_sorted[1:][same]

        self.write_pos = np.flatnonzero(cols.writes_arr).astype(
            idx, copy=False
        )
        write_page = pages_arr[self.write_pos]
        # write_prev[w]: run index of the previous write run to the same
        # page; -1 when there is none.
        self.write_prev = np.full(len(self.write_pos), -1, dtype=idx)
        order = np.argsort(write_page, kind="stable")
        pos_sorted = self.write_pos[order]
        page_sorted = write_page[order]
        same = page_sorted[1:] == page_sorted[:-1]
        self.write_prev[order[1:][same]] = pos_sorted[:-1][same]

        # Dense page columns for the fused engine's [cell, column]
        # matrices: distinct trace pages, sorted, numbered 0..P-1.
        self.page_ids = np.unique(pages_arr)
        self.page_ids_list: list[int] = self.page_ids.tolist()
        self.col_of: dict[int, int] = {
            page: col for col, page in enumerate(self.page_ids_list)
        }
        self.switch_col = np.searchsorted(
            self.page_ids, switch_page
        ).astype(np.int32, copy=False)
        self.write_col = np.searchsorted(
            self.page_ids, write_page
        ).astype(np.int32, copy=False)


def trace_scan(trace: "RunTrace", cols: "TraceColumns") -> TraceScan:
    """The trace's cached :class:`TraceScan` (built on first use)."""
    scan = trace._cols.get(_SCAN_KEY)
    if scan is None:
        scan = trace._cols[_SCAN_KEY] = TraceScan(cols)
    return scan


def batch_eligible(config: SimulationConfig) -> bool:
    """Whether a configuration may run under the batched engine.

    Everything the single-cell fused dispatch of ``Simulator.run``
    excludes (observability, PALcode, distance tracking, the TLB,
    event-feed adaptive policies) plus the adaptive meta-scheme
    altogether (its controller state is deliberately kept on the
    per-cell dispatch path) and live model instances (not
    content-addressable, so the executor cannot group them by content
    anyway).
    """
    return (
        config.engine == "fast"
        and not config.observe
        and config.protection != "palcode"
        and not config.track_distances
        and config.tlb_entries == 0
        and isinstance(config.scheme, str)
        and config.scheme != "adaptive"
        and config.latency_model is None
        and config.disk_model is None
    )


class FusedProfile:
    """Per-stage accounting of one :func:`drive_fused` pass.

    Filled only when explicitly requested (``tools/bench_throughput.py
    --profile``; the timing calls would otherwise tax the hot loop), so
    regressions are attributable: scan/setup cost, bulk span share,
    and scalar fault-fallback share.
    """

    __slots__ = (
        "cells",
        "events",
        "scalar_events",
        "spans",
        "bulk_s",
        "scalar_s",
        "bailed",
        "bail_runs",
    )

    def __init__(self) -> None:
        self.cells = 0          #: cells entering the fused pass
        self.events = 0         #: heap events popped and processed
        self.scalar_events = 0  #: per-cell scalar event handlings
        self.spans = 0          #: bulk spans advanced
        self.bulk_s = 0.0       #: seconds in vectorized span advances
        self.scalar_s = 0.0     #: seconds in scalar event handling
        self.bailed: list[int] = []  #: cell indices that thrash-bailed
        #: run index each bailed cell resumed at on the reference loop,
        #: parallel to ``bailed``
        self.bail_runs: list[int] = []


def drive_fused(
    cells: list[tuple[Simulator, "_RunState", "TraceColumns"]],
    trace: "RunTrace",
    scan: TraceScan,
    profile: FusedProfile | None = None,
) -> list[float]:
    """Drive N cells through ONE pass over the shared event heap.

    Returns each cell's final clock, positionally parallel to
    ``cells``.  The event heap is walked once for the whole batch
    (``Simulator.run`` calls this with a single cell):

    * The heap holds one entry per page that is interesting — faulting,
      pending, or incomplete — for **any** active cell, at its next
      occurrence.  The span up to the heap minimum is therefore boring
      (pure hits) for *every* active cell simultaneously, and advances
      all of them with one set of vectorized updates: LRU stamps and
      Clock reference bits land in ``[page-column, cell]`` matrices
      (:mod:`repro.sim.soa`), dirty marks in a shared overlay, and the
      clocks through the multi-lane prefix-sum kernel
      (:mod:`repro.sim.kernels`).
    * At each popped event only the subset of cells for which the page
      is actually interesting drops to the existing scalar handling —
      the same ``_page_fault`` / ``_touch_incomplete`` calls, against
      each cell's own state.  Cells that hold the page resident and
      complete take the vectorized hit path.

    Bit-identity with a one-cell pass (and so with the reference loop):

    * A cell's event sequence is unchanged.  The fused heap's entries
      are a superset of any one cell's, so every run one cell finds
      interesting is popped here too, in the same ascending order, and
      the per-cell interest test is the same frame inspection.
    * Splitting a cell's boring span at other cells' events preserves
      its results exactly: the clock chain composes (each sub-span
      seeds the next), per-sub-span last-switch touch sequences leave
      the same final recency order as one whole-span dedup (both equal
      replaying every switch), and dirty marking is idempotent.
    * ``last_page`` is genuinely global: after every processed event
      all participating cells agree on it (fault and hit paths both
      leave it at the event's page), and within spans it follows the
      trace alone.
    * The thrash bail-out (:data:`FUSED_BAIL_WINDOW`) counts each
      cell's own events in its own window, armed by the cell's own
      first eviction or subpage fault, so where a cell bails does not
      depend on the rest of the batch.  It hands its remainder to
      ``_drive_reference`` — the shared state is exactly what that
      loop would hold there — and drops out of the fused pass without
      perturbing the other cells' spans (its matrix rows simply stop
      being selected).
    """
    n_cells = len(cells)
    sims = [c[0] for c in cells]
    states = [c[1] for c in cells]
    colss = [c[2] for c in cells]
    cols0 = colss[0]

    pages_l = cols0.pages
    blocks_l = cols0.blocks
    counts_l = cols0.counts
    writes_l = cols0.writes
    subpages_c = [cols.subpages for cols in colss]
    n = len(pages_l)

    switch_pos = scan.switch_pos
    switch_next = scan.switch_next
    switch_col = scan.switch_col
    write_pos = scan.write_pos
    write_prev = scan.write_prev
    write_col = scan.write_col
    page_ids_list = scan.page_ids_list
    col_of = scan.col_of
    n_pages = len(page_ids_list)
    # Probe with the positions arrays' own dtype, or every
    # searchsorted re-casts the whole (int32) array to int64.  The
    # per-span and per-event calls below use ndarray methods
    # (``.searchsorted``, ``.nonzero``): the ``np.`` function wrappers
    # cost more than the work on these short arrays.
    switch_search = switch_pos.searchsorted
    write_search = write_pos.searchsorted
    run_t = switch_pos.dtype.type
    ix_ = np.ix_
    flatnonzero = np.flatnonzero

    # --- struct-of-arrays per-cell state -------------------------------
    # Matrices are [page-column, cell]: the hot accesses are whole-page
    # slices — a span scatters stamps/dirty across all cells of a few
    # pages, an event reads one page's boring bits for all cells — so
    # pages-major keeps every one of those a contiguous row.
    clocks = np.zeros(n_cells, dtype=np.float64)
    clocks_item = clocks.item
    event_ms_c = [state.event_ms for state in states]
    event_ms_arr = np.array(event_ms_c, dtype=np.float64)
    full_mask_c = [state.full_mask for state in states]
    boring = np.zeros((n_pages, n_cells), dtype=bool)
    dirty = np.zeros((n_pages, n_cells), dtype=bool)
    stamps = np.zeros((n_pages, n_cells), dtype=np.int64)
    refbits = np.zeros((n_pages, n_cells), dtype=bool)
    resident = np.zeros((n_pages, n_cells), dtype=bool)
    ctr = StampCounter()

    # Rehost each cell's policy and frame table on the matrices.  The
    # swap happens before any insert, so the adapters see the cell's
    # whole history; Random keeps its original object (no touch state,
    # and its victim choice rides a per-cell seeded RNG).
    lru_mask = np.zeros(n_cells, dtype=bool)
    clk_mask = np.zeros(n_cells, dtype=bool)
    frames_c: list[FusedFrames] = []
    for c, state in enumerate(states):
        frames = FusedFrames(dirty[:, c], col_of)
        state.frames = frames
        frames_c.append(frames)
        kind = state.policy.name
        if kind == "lru":
            lru_mask[c] = True
            state.policy = FusedLru(
                stamps[:, c], resident[:, c], page_ids_list, col_of, ctr
            )
        elif kind == "fifo":
            state.policy = FusedFifo(
                stamps[:, c], resident[:, c], page_ids_list, col_of, ctr
            )
        elif kind == "clock":
            clk_mask[c] = True
            state.policy = FusedClock(refbits[:, c], col_of)
    policies_c = [state.policy for state in states]

    active = np.ones(n_cells, dtype=bool)
    active_count = n_cells
    win_events = [0] * n_cells
    win_start = [0] * n_cells
    bail_window = FUSED_BAIL_WINDOW
    bail_runs = FUSED_BAIL_WINDOW * FUSED_BAIL_MIN_SPAN

    # Row index sets for the vectorized span updates, plus one prods
    # vector per distinct event_ms (cells of a grid usually share one);
    # rebuilt on the rare bail-out.
    act_rows = lru_rows = clk_rows = np.empty(0, dtype=np.intp)
    all_act = all_lru = all_clk = False
    groups: list[tuple[np.ndarray, np.ndarray]] = []

    def rebuild_rows() -> None:
        nonlocal act_rows, lru_rows, clk_rows, groups
        nonlocal all_act, all_lru, all_clk
        act_rows = flatnonzero(active)
        lru_rows = flatnonzero(active & lru_mask)
        clk_rows = flatnonzero(active & clk_mask)
        # Full-width row assignments beat ix_ scatters; remember when
        # every cell participates (the overwhelmingly common case).
        all_act = act_rows.size == n_cells
        all_lru = lru_rows.size == n_cells
        all_clk = clk_rows.size == n_cells
        by_ems: dict[float, list[int]] = {}
        for c in act_rows.tolist():
            by_ems.setdefault(event_ms_c[c], []).append(c)
        groups = [
            (cols0.prods(ems), np.array(rows, dtype=np.intp))
            for ems, rows in by_ems.items()
        ]

    rebuild_rows()
    if profile is not None:
        profile.cells = n_cells

    occ = trace.occurrences()
    optr = dict.fromkeys(occ, 0)
    heap = [(indices[0], page) for page, indices in occ.items()]
    heapify(heap)
    in_heap = set(occ)

    last_page = -1
    pos = 0
    perf_counter = time.perf_counter

    def push(page: int, frm: int) -> None:
        """Schedule ``page``'s next occurrence at/after ``frm``."""
        if page in in_heap:
            return
        indices = occ[page]
        i = optr[page]
        end = len(indices)
        while i < end and indices[i] < frm:
            i += 1
        optr[page] = i
        if i < end:
            heappush(heap, (indices[i], page))
            in_heap.add(page)

    def advance(i: int, j: int) -> None:
        """Bulk-advance every active cell over boring span ``[i, j)``."""
        nonlocal last_page
        if i >= j:
            return
        if profile is not None:
            profile.spans += 1
            t0 = perf_counter()
        ri, rj = run_t(i), run_t(j)
        lo = switch_search(ri)
        hi = switch_search(rj)
        if hi > lo:
            tcols = switch_col[lo:hi]
            if hi - lo > 1:
                # Each switched page's last switch inside the span, in
                # ascending position order: the same final recency
                # order as replaying every switch.
                tcols = tcols[switch_next[lo:hi] >= rj]
            count = len(tcols)
            base = ctr.value
            ctr.value = base + count
            if lru_rows.size:
                vals = np.arange(
                    base + 1, base + count + 1, dtype=np.int64
                )[:, None]
                if all_lru:
                    stamps[tcols] = vals
                else:
                    stamps[ix_(tcols, lru_rows)] = vals
            if clk_rows.size:
                if all_clk:
                    refbits[tcols] = True
                else:
                    refbits[ix_(tcols, clk_rows)] = True
            last_page = pages_l[j - 1]
        wlo = write_search(ri)
        whi = write_search(rj)
        if whi > wlo:
            # Each page's first write inside the span = the span's
            # unique written pages (dirty marking is idempotent).
            wcols = write_col[wlo:whi][write_prev[wlo:whi] < ri]
            if wcols.size:
                if all_act:
                    dirty[wcols] = True
                else:
                    dirty[ix_(wcols, act_rows)] = True
        for prods_g, rows_g in groups:
            clocks[rows_g] = accumulate_lanes(
                prods_g, i, j, clocks[rows_g]
            )
        if profile is not None:
            profile.bulk_s += perf_counter() - t0

    while heap and active_count:
        idx, page = heappop(heap)
        in_heap.discard(page)
        col = col_of[page]
        col_boring = boring[col]
        # Active cells for which the page is interesting (not boring).
        rows = (active > col_boring).nonzero()[0]
        if idx < pos:
            # Defensive: with one entry per page this cannot happen (the
            # heap minimum bounds how far spans advance), but a stale
            # entry must reschedule rather than lose its page.
            if rows.size:
                push(page, pos)
            continue
        if not rows.size:
            # Every active cell completed the page since this entry was
            # pushed; eviction re-enters it if it leaves memory again.
            continue

        if pos < idx:
            advance(pos, idx)

        if profile is not None:
            profile.events += 1
            t0 = perf_counter()
        count = counts_l[idx]
        write = writes_l[idx]
        block = blocks_l[idx]
        switch = page != last_page

        # Cells holding the page resident-and-complete: this event run
        # is a plain hit for them — the span treatment, one run wide.
        if rows.size < active_count:
            orows = (active & col_boring).nonzero()[0]
            clocks[orows] += count * event_ms_arr[orows]
            if switch:
                stamp = ctr.next()
                ol = orows[lru_mask[orows]]
                if ol.size:
                    stamps[col, ol] = stamp
                oc = orows[clk_mask[orows]]
                if oc.size:
                    refbits[col, oc] = True
            if write:
                dirty[col, orows] = True

        # Interested cells: the exact scalar reference treatment.  The
        # hit cells above stay boring, so the page goes back into the
        # heap iff a cell handled here stays interested and active.
        bailed: list[int] = []
        again = False
        for c in rows.tolist():
            sim = sims[c]
            state = states[c]
            frames = frames_c[c]
            full_mask = full_mask_c[c]
            clock = clocks_item(c)
            frame = frames.get(page)
            if frame is None:
                state.last_victim = None
                clock = sim._page_fault(
                    state, clock, page, subpages_c[c][idx], block, write
                )
                frame = frames[page]
                if state.last_victim is not None:
                    # The victim is non-resident now: back into the
                    # heap, and no longer boring for this cell.
                    boring[col_of[state.last_victim], c] = False
                    push(state.last_victim, idx)
            else:
                if switch:
                    policies_c[c].touch(page)
                if (
                    frame.pending is not None
                    or frame.valid_bits != full_mask
                ):
                    clock = sim._touch_incomplete(
                        state, clock, page, frame, subpages_c[c][idx],
                        block, write, count,
                    )
                if write and not frame.dirty:
                    frame.dirty = True
            clocks[c] = clock + count * event_ms_c[c]
            done = frame.pending is None and frame.valid_bits == full_mask
            col_boring[c] = done

            events = win_events[c] + 1
            result = state.result
            if not (result.evictions or result.subpage_faults):
                # Not armed before the memory fills or a lazy page
                # stays incomplete: cold starts are fault-dense in
                # every trace.
                events = 0
                win_start[c] = idx + 1
            elif events == bail_window:
                if idx + 1 - win_start[c] < bail_runs:
                    bailed.append(c)
                    continue
                events = 0
                win_start[c] = idx + 1
            win_events[c] = events
            if not done:
                again = True

        last_page = page
        pos = idx + 1
        if profile is not None:
            profile.scalar_events += len(bailed) + rows.size
            profile.scalar_s += perf_counter() - t0

        for c in bailed:
            # Thrashing for this cell: its events come too densely for
            # the fused spans to pay for their bookkeeping.  Hand
            # its remainder to the reference loop — the shared state is
            # exactly what a standalone run would hold here — and drop
            # it from the fused pass, its state back on the scalar
            # objects the reference loop is fastest with.
            state = states[c]
            state.frames = frames_c[c].to_scalar()
            if isinstance(state.policy, (FusedLru, FusedClock)):
                state.policy = state.policy.to_scalar()
            clocks[c] = sims[c]._drive_reference(
                state, colss[c], start=pos, clock=clocks_item(c),
                last_page=last_page,
            )
            active[c] = False
            active_count -= 1
            if profile is not None:
                profile.bailed.append(c)
                profile.bail_runs.append(pos)
        if bailed:
            rebuild_rows()
        if again:
            push(page, pos)

    if active_count:
        advance(pos, n)
    return [float(clock) for clock in clocks.tolist()]


def simulate_cells_timed(
    trace: "RunTrace",
    configs: list[SimulationConfig],
    *,
    fused: bool = True,
    profile: FusedProfile | None = None,
) -> list[tuple["SimulationResult", float]]:
    """:func:`simulate_cells` plus each cell's own compute seconds.

    Under the default fused engine one drive pass serves every eligible
    cell, so each such cell's reported seconds are its own prepare +
    finish cost plus an equal share of the shared pass — the fair
    attribution for progress displays, since the pass is indivisible.
    """
    out: list[tuple["SimulationResult", float] | None] = [None] * len(
        configs
    )
    fused_idx = (
        [k for k, c in enumerate(configs) if batch_eligible(c)]
        if fused
        else []
    )
    if fused_idx:
        cells = []
        recorders = []
        prep_s = []
        for k in fused_idx:
            started = time.perf_counter()
            sim = Simulator(configs[k])
            state, cols, recorder = sim._prepare(trace)
            cells.append((sim, state, cols))
            recorders.append(recorder)
            prep_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        scan = trace_scan(trace, cells[0][2])
        clocks = drive_fused(cells, trace, scan, profile=profile)
        share = (time.perf_counter() - started) / len(cells)
        for (sim, state, _), recorder, clock, spent, k in zip(
            cells, recorders, clocks, prep_s, fused_idx
        ):
            started = time.perf_counter()
            result = sim._finish(state, clock, recorder)
            out[k] = (
                result, spent + share + time.perf_counter() - started
            )

    for k, config in enumerate(configs):
        if out[k] is not None:
            continue
        started = time.perf_counter()
        result = Simulator(config).run(trace)
        out[k] = (result, time.perf_counter() - started)
    return out  # type: ignore[return-value]


def simulate_cells(
    trace: "RunTrace",
    configs: list[SimulationConfig],
    *,
    fused: bool = True,
) -> list["SimulationResult"]:
    """Simulate many configurations over one trace, batched.

    Results are positionally parallel to ``configs`` and bit-identical
    to ``[simulate(trace, c) for c in configs]``.  Eligible cells run
    the fused multi-cell pass (:func:`drive_fused`); cells failing
    :func:`batch_eligible` — and every cell under ``fused=False`` —
    take the ordinary :func:`~repro.sim.simulator.simulate` path.
    """
    return [
        result
        for result, _ in simulate_cells_timed(trace, configs, fused=fused)
    ]

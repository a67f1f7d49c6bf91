"""The fast-path execution engine: bulk span advancement.

``SimulationConfig.engine = "fast"`` (the default) runs traces through
this module instead of the per-run reference loop in
:mod:`repro.sim.simulator`.  The two engines are **bit-identical** —
``tests/sim/test_engine_equivalence.py`` asserts equal
:class:`~repro.sim.results.SimulationResult` objects across the full
integration matrix — but this one only dispatches Python per run at the
*interesting* references and advances the clock over everything in
between with NumPy prefix sums over the trace's cached columns.

A run is interesting — needs the full reference treatment — exactly when
its page is non-resident (page fault) or resident-but-incomplete (stall,
lazy subpage fault, or fold of a finished transfer).  Interestingness
only changes at interesting events themselves: faults make pages
resident, evictions make them non-resident, folds complete them, and
arrivals never revoke validity (docs/SIMULATOR.md §2).  Between two
interesting events every run is therefore a plain hit whose entire
effect is a replacement-policy touch at page switches, dirty marking on
writes, and ``count * event_ms`` of clock — all of which batch.

Bit-exactness of the batched pieces:

* ``np.add.accumulate`` over the per-run ``count * event_ms`` products
  performs the same left-to-right float64 addition chain as the
  reference loop, and each product is the same scalar IEEE multiply.
* Touches fire at page *switches*.  Within a span, replaying only each
  switched page's **last** switch (in ascending order) leaves an LRU
  order identical to replaying every switch; for Clock the touch is an
  idempotent flag (no eviction can intervene inside a span), and for
  FIFO/Random touches are no-ops.
* Dirty marking is an idempotent flag per page.

The next interesting event is located with a heap over per-page run
occurrence lists (one stable argsort of the page column, cached on the
trace).  Every currently-interesting page keeps exactly one heap entry
at its next occurrence; processing an event reschedules its page while
it stays interesting, and eviction victims re-enter the heap.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator, _RunState
    from repro.trace.compress import RunTrace, TraceColumns

#: Spans shorter than this are walked in plain Python: below it the
#: NumPy slice/accumulate setup costs more than the loop it replaces.
SHORT_SPAN = 32

#: Thrash bail-out: every ``BAIL_WINDOW`` interesting events, if the
#: window consumed fewer than ``BAIL_WINDOW * BAIL_MIN_SPAN`` runs (the
#: average span is shorter than ``BAIL_MIN_SPAN - 1`` hits per event),
#: the heap bookkeeping costs more than the plain loop it replaces and
#: the engine hands the rest of the trace to the reference loop.  The
#: handoff is bit-exact: this engine maintains the same ``state`` the
#: reference loop would, so resuming it mid-trace changes nothing.
#: The fused multi-cell pass has its own, eviction-armed rule:
#: :data:`repro.sim.batch.FUSED_BAIL_WINDOW` and
#: :data:`~repro.sim.batch.FUSED_BAIL_MIN_SPAN`.
BAIL_WINDOW = 2048
BAIL_MIN_SPAN = 4


def span_clock(prods: np.ndarray, i: int, j: int, clock: float) -> float:
    """Advance ``clock`` over runs ``[i, j)`` of precomputed
    ``count * event_ms`` products.

    The shared prefix-sum helper of every bulk engine (fast, batch,
    fused single-lane): one left-to-right float64
    ``np.add.accumulate`` chain seeded with the incoming clock, which
    is bit-identical to the reference loop's scalar
    ``clock += count * event_ms`` per run.
    """
    seg = prods[i:j].copy()
    seg[0] += clock
    np.add.accumulate(seg, out=seg)
    return float(seg[-1])


def drive_fast(
    sim: "Simulator",
    state: "_RunState",
    trace: "RunTrace",
    cols: "TraceColumns",
) -> float:
    """Drive one simulation with bulk span advancement.

    Mutates ``state`` exactly as the reference loop would and returns
    the final clock.  The caller (``Simulator.run``) guarantees no
    instrument, no PALcode emulation, no distance tracking, and no
    adaptive policy on the ``"events"`` feed.  (Fault-feed adaptive
    policies are fine: their observations fire inside ``_page_fault``
    and ``_touch_incomplete``, which this engine calls at exactly the
    reference loop's interesting events.)
    """
    policy = state.policy
    frames = state.frames
    tlb = state.tlb
    event_ms = state.event_ms
    full_mask = state.full_mask

    pages_l = cols.pages
    subpages_l = cols.subpages
    blocks_l = cols.blocks
    counts_l = cols.counts
    writes_l = cols.writes
    pages_arr = cols.pages_arr
    writes_arr = cols.writes_arr
    switch_arr = cols.switch_arr
    switch_cum = cols.switch_cum
    writes_cum = cols.writes_cum
    # Per-run products cached on the columns: prods[k] is
    # bitwise-identical to the reference loop's scalar
    # ``counts[k] * event_ms``, and every cell of a grid touching this
    # (trace, event_ms) shares one vector.
    prods = cols.prods(event_ms)
    n = len(pages_l)

    occ = trace.occurrences()
    optr = dict.fromkeys(occ, 0)

    # Every page starts non-resident, hence interesting: seed the heap
    # with each page's first occurrence.
    heap = [(indices[0], page) for page, indices in occ.items()]
    heapify(heap)
    in_heap = set(occ)

    clock = 0.0
    last_page = -1
    pos = 0
    win_events = 0
    win_start = 0

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
        """Bulk-process the boring span ``[i, j)`` (hits only)."""
        nonlocal clock, last_page
        if i >= j:
            return
        if tlb is not None or j - i < SHORT_SPAN:
            # TLB lookups interleave with the clock (miss walks are
            # charged in reference order), and short spans are cheaper
            # without array slicing: plain loop, minus the residency /
            # completeness checks the span guarantee makes redundant.
            for k in range(i, j):
                p = pages_l[k]
                if p != last_page:
                    policy.touch(p)
                    last_page = p
                    if tlb is not None and not tlb.access(p):
                        clock += tlb.miss_ms
                if writes_l[k]:
                    f = frames[p]
                    if not f.dirty:
                        f.dirty = True
                clock += counts_l[k] * event_ms
            return
        # ``switch_arr[i]`` compares against ``pages[i-1]``, which equals
        # ``last_page`` at every span start (the previous run was either
        # the interesting event we just handled — which set ``last_page``
        # to its page — or the tail of the previous bulk slice).
        nsw = switch_cum[j] - switch_cum[i]
        if nsw:
            if nsw == 1:
                p = pages_l[j - 1]
                policy.touch(p)
                last_page = p
            else:
                switched = pages_arr[i:j][switch_arr[i:j]]
                # Dedup to each page's last switch, touch in ascending
                # last-switch order (equivalent; see module docstring).
                uniq, first = np.unique(switched[::-1], return_index=True)
                if uniq.size == switched.size:
                    for p in switched.tolist():
                        policy.touch(p)
                else:
                    for p in uniq[np.argsort(first)[::-1]].tolist():
                        policy.touch(p)
                last_page = pages_l[j - 1]
        if writes_cum[j] - writes_cum[i]:
            seq = pages_arr[i:j]
            for p in np.unique(seq[writes_arr[i:j]]).tolist():
                f = frames[p]
                if not f.dirty:
                    f.dirty = True
        clock = span_clock(prods, i, j, clock)

    while heap:
        idx, page = heappop(heap)
        in_heap.discard(page)
        frame = frames.get(page)
        interesting = (
            frame is None
            or frame.pending is not None
            or frame.valid_bits != full_mask
        )
        if idx < pos:
            # Defensive: with one entry per page this cannot happen (the
            # heap minimum bounds how far spans advance), but a stale
            # entry must reschedule rather than lose its page.
            if interesting:
                push(page, pos)
            continue
        if not interesting:
            # The page completed since this entry was pushed; eviction
            # re-enters it if it ever leaves memory again.
            continue

        if pos < idx:
            advance(pos, idx)

        # The interesting run itself, with exact reference semantics
        # (minus the instrument/PAL/distance branches the fallback in
        # Simulator.run guarantees are disabled).
        sp = subpages_l[idx]
        count = counts_l[idx]
        write = writes_l[idx]
        if frame is None:
            state.last_victim = None
            clock = sim._page_fault(
                state, clock, page, sp, blocks_l[idx], write
            )
            frame = frames[page]
            last_page = page
            if tlb is not None and not tlb.access(page):
                clock += tlb.miss_ms
            if state.last_victim is not None:
                # The victim is non-resident now: back into the heap.
                push(state.last_victim, idx)
        else:
            if page != last_page:
                policy.touch(page)
                last_page = page
                if tlb is not None and not tlb.access(page):
                    clock += tlb.miss_ms
            if frame.pending is not None or frame.valid_bits != full_mask:
                clock = sim._touch_incomplete(
                    state, clock, page, frame, sp, blocks_l[idx],
                    write, count,
                )
            if write and not frame.dirty:
                frame.dirty = True
        clock += count * event_ms
        pos = idx + 1
        if frame.pending is not None or frame.valid_bits != full_mask:
            push(page, pos)

        win_events += 1
        if win_events == BAIL_WINDOW:
            if pos - win_start < BAIL_WINDOW * BAIL_MIN_SPAN:
                # Thrashing: nearly every run faults or stalls, so there
                # is nothing to batch (see BAIL_WINDOW above).
                return sim._drive_reference(
                    state, cols, start=pos, clock=clock,
                    last_page=last_page,
                )
            win_events = 0
            win_start = pos

    advance(pos, n)
    return clock

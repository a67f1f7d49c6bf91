"""Struct-of-arrays per-cell state for the fused batch engine.

:func:`repro.sim.batch.drive_fused` advances N cells through one shared
event loop.  Inside a boring span every active cell performs the same
page touches and dirty markings, so per-cell ``OrderedDict`` policies
would turn each span into N Python loops — exactly the per-cell cost
the fused engine exists to remove.  This module rehosts the policy and
dirty state in matrices indexed ``[page-column, cell]`` (one dense
row per distinct trace page), so a span updates every cell with one
vectorized assignment, while each cell still owns a scalar adapter
satisfying the full :class:`~repro.sim.replacement.ReplacementPolicy`
interface for the event path (`_page_fault` / `_evict` /
`note_pending` run unmodified simulator code against it).

Bit-identity with the ``OrderedDict`` policies:

* **LRU/FIFO** — recency becomes a monotonically increasing stamp
  shared by the whole batch.  A cell's LRU order is the ascending-stamp
  order of its resident columns; insert/touch write the next counter
  value, a span touch writes one ``arange`` slice across all LRU rows.
  Relative order within a cell only depends on *its own* sequence of
  operations, which the fused loop preserves, so eviction scans see the
  same order an ``OrderedDict`` would.  :class:`FusedLru.evict`
  replicates ``LruPolicy.evict`` decision-for-decision, including the
  ``note_pending`` hint contract and its lazy unmarking.
* **Clock** — the rotation order stays a per-cell ``OrderedDict`` (it
  is mutated only at evictions, which are per-cell events anyway), but
  the reference bits move to a shared boolean matrix so span touches
  vectorize.  The sweep reads/clears bits through the matrix in the
  same order ``ClockPolicy._sweep`` would.
* **Random** keeps its original policy object: touches are no-ops, and
  its victim choice depends on the per-cell insert/evict sequence plus
  a per-cell seeded RNG, both untouched by fusion.

:class:`FusedFrames` is the matching overlay for the dirty flag:
spans mark writes in a shared boolean matrix instead of dereferencing
N ``_Frame`` objects per page, and the flag is folded back into the
frame at the single point the simulator reads it — ``_evict``'s
``frames.pop(victim)``.

A cell that leaves the fused pass (its thrash bail-out) trades every
adapter back for the scalar object in the identical state
(``to_scalar``), so the reference loop that drives its remainder
pays no matrix indexing per run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.sim.replacement import (
    ClockPolicy,
    FifoPolicy,
    LruPolicy,
    ReplacementPolicy,
)

__all__ = [
    "FusedClock",
    "FusedFifo",
    "FusedFrames",
    "FusedLru",
    "StampCounter",
]


class StampCounter:
    """The batch-global recency counter behind every LRU stamp.

    Strictly increasing across all fused cells; a cell's stamps are
    therefore strictly increasing in its own operation order, which is
    all LRU ordering needs (cross-cell interleaving is immaterial).
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def next(self) -> int:
        self.value += 1
        return self.value


class FusedFrames(dict):
    """A cell's frame table with a vectorized dirty overlay.

    A page is dirty iff ``frame.dirty or overlay[column]``.  The scalar
    event path keeps writing ``frame.dirty`` directly; bulk spans set
    overlay bits for all cells at once.  The overlay folds into the
    frame exactly where the simulator consumes the flag —
    ``Simulator._evict``'s ``frames.pop(victim)`` — and the bit is
    cleared so a later re-fault of the column starts clean.  Bits left
    set at end of run are never read (results only count dirty
    *evictions*).
    """

    __slots__ = ("dirty_row", "col_of")

    def __init__(
        self, dirty_row: np.ndarray, col_of: dict[int, int]
    ) -> None:
        super().__init__()
        self.dirty_row = dirty_row
        self.col_of = col_of

    def pop(self, key, *default):  # type: ignore[override]
        if key in self:
            frame = dict.pop(self, key)
            col = self.col_of[key]
            if self.dirty_row[col]:
                frame.dirty = True
                self.dirty_row[col] = False
            return frame
        return dict.pop(self, key, *default)

    def to_scalar(self) -> dict:
        """A plain frame table, the overlay folded into its frames."""
        dirty_row = self.dirty_row
        col_of = self.col_of
        for page, frame in self.items():
            col = col_of[page]
            if dirty_row[col]:
                frame.dirty = True
                dirty_row[col] = False
        return dict(self)


class FusedLru(ReplacementPolicy):
    """LRU over a shared stamp matrix row (see module docstring)."""

    name = "lru"
    _scalar_type = LruPolicy

    __slots__ = (
        "_stamps",
        "_resident",
        "_page_ids",
        "_col_of",
        "_ctr",
        "_maybe_pending",
        "_hinted",
    )

    def __init__(
        self,
        stamps_row: np.ndarray,
        resident_row: np.ndarray,
        page_ids: list[int],
        col_of: dict[int, int],
        ctr: StampCounter,
    ) -> None:
        self._stamps = stamps_row
        self._resident = resident_row
        self._page_ids = page_ids
        self._col_of = col_of
        self._ctr = ctr
        self._maybe_pending: set[int] = set()
        self._hinted = False

    def insert(self, page: int) -> None:
        col = self._col_of[page]
        if self._resident[col]:
            raise SimulationError(f"page {page} already resident")
        self._resident[col] = True
        self._stamps[col] = self._ctr.next()

    def touch(self, page: int) -> None:
        col = self._col_of[page]
        if not self._resident[col]:
            raise KeyError(page)
        self._stamps[col] = self._ctr.next()

    def remove(self, page: int) -> None:
        col = self._col_of[page]
        if not self._resident[col]:
            raise KeyError(page)
        self._resident[col] = False
        self._maybe_pending.discard(page)

    def note_pending(self, page: int) -> None:
        self._maybe_pending.add(page)
        self._hinted = True

    def note_settled(self, page: int) -> None:
        self._maybe_pending.discard(page)

    def evict(self, prefer: Callable[[int], bool] | None = None) -> int:
        resident = np.flatnonzero(self._resident)
        if not resident.size:
            raise SimulationError("nothing to evict")
        # Ascending stamps == the OrderedDict's head-to-tail order.
        order = resident[np.argsort(self._stamps[resident])]
        page_ids = self._page_ids
        victim = -1
        if prefer is not None:
            if self._hinted:
                # Mirror of LruPolicy._evict_hinted: the first unmarked
                # page wins unprobed; marked pages probe ``prefer`` and
                # are lazily unmarked on success.
                for col in order.tolist():
                    page = page_ids[col]
                    if page not in self._maybe_pending:
                        victim = col
                        break
                    if prefer(page):
                        self._maybe_pending.discard(page)
                        victim = col
                        break
            else:
                for col in order.tolist():
                    if prefer(page_ids[col]):
                        victim = col
                        break
        if victim < 0:
            victim = int(order[0])
        self._resident[victim] = False
        page = page_ids[victim]
        self._maybe_pending.discard(page)
        return page

    def to_scalar(self) -> LruPolicy:
        """The ``OrderedDict`` policy in this exact state."""
        cols = np.flatnonzero(self._resident)
        cols = cols[np.argsort(self._stamps[cols])]
        page_ids = self._page_ids
        return self._scalar_type.restore(
            (page_ids[col] for col in cols.tolist()),
            self._maybe_pending,
            self._hinted,
        )

    def __len__(self) -> int:
        return int(np.count_nonzero(self._resident))

    def __contains__(self, page: int) -> bool:
        col = self._col_of.get(page)
        return col is not None and bool(self._resident[col])


class FusedFifo(FusedLru):
    """FIFO: insertion stamps order eviction; references never restamp."""

    name = "fifo"
    _scalar_type = FifoPolicy

    __slots__ = ()

    def touch(self, page: int) -> None:
        pass


class FusedClock(ReplacementPolicy):
    """Second-chance clock with matrix-hosted reference bits."""

    name = "clock"

    __slots__ = ("_ref", "_col_of", "_order")

    def __init__(
        self, ref_row: np.ndarray, col_of: dict[int, int]
    ) -> None:
        self._ref = ref_row
        self._col_of = col_of
        self._order: OrderedDict[int, None] = OrderedDict()

    def insert(self, page: int) -> None:
        if page in self._order:
            raise SimulationError(f"page {page} already resident")
        self._order[page] = None
        self._ref[self._col_of[page]] = True

    def touch(self, page: int) -> None:
        self._ref[self._col_of[page]] = True

    def remove(self, page: int) -> None:
        del self._order[page]

    def _sweep(self, candidates_ok: Callable[[int], bool]) -> int | None:
        order = self._order
        ref = self._ref
        col_of = self._col_of
        for _ in range(2 * len(order)):
            page = next(iter(order))
            col = col_of[page]
            if ref[col]:
                ref[col] = False
                order.move_to_end(page)
            elif candidates_ok(page):
                del order[page]
                return page
            else:
                order.move_to_end(page)
        return None

    def evict(self, prefer: Callable[[int], bool] | None = None) -> int:
        if not self._order:
            raise SimulationError("nothing to evict")
        if prefer is not None:
            victim = self._sweep(prefer)
            if victim is not None:
                return victim
        victim = self._sweep(lambda _page: True)
        if victim is None:  # pragma: no cover - defensive
            victim = next(iter(self._order))
            del self._order[victim]
        return victim

    def to_scalar(self) -> ClockPolicy:
        """The ``OrderedDict`` policy in this exact state."""
        ref = self._ref
        col_of = self._col_of
        return ClockPolicy.restore(
            (page, bool(ref[col_of[page]])) for page in self._order
        )

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, page: int) -> bool:
        return page in self._order

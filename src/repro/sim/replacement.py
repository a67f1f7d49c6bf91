"""Page replacement policies.

"Paging policy is determined by a configurable memory management module;
an LRU policy is used by default" (paper Section 3.2).  The policies here
share one interface so the simulator — and the replacement ablation — can
swap them freely.  Eviction takes a predicate so the simulator can prefer
evicting *complete* pages over pages with subpage transfers still in
flight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Iterable

import numpy as np

from repro.errors import SimulationError, UnknownSchemeError


class ReplacementPolicy(ABC):
    """Tracks resident pages and chooses eviction victims."""

    name: str = "base"

    @abstractmethod
    def insert(self, page: int) -> None:
        """A page became resident."""

    @abstractmethod
    def touch(self, page: int) -> None:
        """A resident page was referenced."""

    @abstractmethod
    def remove(self, page: int) -> None:
        """A page left memory by some path other than :meth:`evict`."""

    @abstractmethod
    def evict(
        self, prefer: Callable[[int], bool] | None = None
    ) -> int:
        """Remove and return a victim page.

        ``prefer`` marks pages that are cheap to evict; the policy picks
        its normal victim among preferred pages when any exists, falling
        back to its unconstrained choice otherwise.
        """

    def note_pending(self, page: int) -> None:
        """Hint: ``page`` has in-flight transfers (may fail ``prefer``).

        Policies may use these hints to skip the ``prefer`` probe for
        pages that were never marked.  Callers that mark pages promise
        that every *unmarked* resident page satisfies ``prefer`` —
        the simulator upholds this by marking exactly the pages whose
        frames carry a pending arrival schedule.  The default is a
        no-op, so policies (and callers) that ignore hints keep the
        scan-with-predicate behaviour.
        """

    def note_settled(self, page: int) -> None:
        """Hint: ``page``'s in-flight transfers have been folded."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, page: int) -> bool: ...


class LruPolicy(ReplacementPolicy):
    """Least-recently-used (the paper's default).

    When the caller supplies :meth:`note_pending`/:meth:`note_settled`
    hints, preferred eviction is O(1) in the common case: the LRU scan
    probes ``prefer`` only for marked pages, and the first unmarked page
    (usually the LRU head — long-settled pages) wins immediately.  This
    selects the *same* victim as the plain predicate scan whenever the
    hint contract holds (unmarked pages satisfy ``prefer``).  Without
    hints the original full scan is used, so direct callers that pass
    ad-hoc predicates are unaffected.
    """

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()
        self._maybe_pending: set[int] = set()
        self._hinted = False

    @classmethod
    def restore(
        cls, order: Iterable[int], pending: Iterable[int], hinted: bool
    ) -> LruPolicy:
        """A policy in a given state: resident pages head (next victim)
        first, the pages marked by :meth:`note_pending`, and whether
        any hint was ever given."""
        policy = cls()
        policy._order = OrderedDict.fromkeys(order)
        policy._maybe_pending = set(pending)
        policy._hinted = hinted
        return policy

    def insert(self, page: int) -> None:
        if page in self._order:
            raise SimulationError(f"page {page} already resident")
        self._order[page] = None

    def touch(self, page: int) -> None:
        self._order.move_to_end(page)

    def remove(self, page: int) -> None:
        del self._order[page]
        self._maybe_pending.discard(page)

    def note_pending(self, page: int) -> None:
        self._maybe_pending.add(page)
        self._hinted = True

    def note_settled(self, page: int) -> None:
        self._maybe_pending.discard(page)

    def _evict_hinted(self, prefer: Callable[[int], bool]) -> int | None:
        # Marked pages are probed (and lazily unmarked when their
        # transfers turn out to be done); the first unmarked page is
        # preferred by the hint contract, no probe needed.
        for page in self._order:
            if page not in self._maybe_pending:
                return page
            if prefer(page):
                self._maybe_pending.discard(page)
                return page
        return None

    def evict(self, prefer: Callable[[int], bool] | None = None) -> int:
        if not self._order:
            raise SimulationError("nothing to evict")
        victim = None
        if prefer is not None:
            if self._hinted:
                victim = self._evict_hinted(prefer)
            else:
                victim = next(
                    (page for page in self._order if prefer(page)), None
                )
        if victim is None:
            victim = next(iter(self._order))
        del self._order[victim]
        self._maybe_pending.discard(victim)
        return victim

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, page: int) -> bool:
        return page in self._order


class FifoPolicy(LruPolicy):
    """First-in-first-out: like LRU but references do not reorder."""

    name = "fifo"

    def touch(self, page: int) -> None:
        pass


class ClockPolicy(ReplacementPolicy):
    """Second-chance clock: cheap LRU approximation."""

    name = "clock"

    def __init__(self) -> None:
        self._ref: OrderedDict[int, bool] = OrderedDict()

    @classmethod
    def restore(cls, refs: Iterable[tuple[int, bool]]) -> ClockPolicy:
        """A policy in a given state: ``(page, reference bit)`` pairs in
        rotation order, the hand's next page first."""
        policy = cls()
        policy._ref = OrderedDict(refs)
        return policy

    def insert(self, page: int) -> None:
        if page in self._ref:
            raise SimulationError(f"page {page} already resident")
        self._ref[page] = True

    def touch(self, page: int) -> None:
        self._ref[page] = True

    def remove(self, page: int) -> None:
        del self._ref[page]

    def _sweep(self, candidates_ok: Callable[[int], bool]) -> int | None:
        # Up to two full laps: the first clears reference bits.
        for _ in range(2 * len(self._ref)):
            page, referenced = next(iter(self._ref.items()))
            if referenced:
                self._ref[page] = False
                self._ref.move_to_end(page)
            elif candidates_ok(page):
                del self._ref[page]
                return page
            else:
                self._ref.move_to_end(page)
        return None

    def evict(self, prefer: Callable[[int], bool] | None = None) -> int:
        if not self._ref:
            raise SimulationError("nothing to evict")
        if prefer is not None:
            victim = self._sweep(prefer)
            if victim is not None:
                return victim
        victim = self._sweep(lambda _page: True)
        if victim is None:  # pragma: no cover - defensive
            victim = next(iter(self._ref))
            del self._ref[victim]
        return victim

    def __len__(self) -> int:
        return len(self._ref)

    def __contains__(self, page: int) -> bool:
        return page in self._ref


class RandomPolicy(ReplacementPolicy):
    """Uniform random eviction (a deliberately weak baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._pages: dict[int, None] = {}
        self._rng = np.random.default_rng(seed)

    def insert(self, page: int) -> None:
        if page in self._pages:
            raise SimulationError(f"page {page} already resident")
        self._pages[page] = None

    def touch(self, page: int) -> None:
        pass

    def remove(self, page: int) -> None:
        del self._pages[page]

    def evict(self, prefer: Callable[[int], bool] | None = None) -> int:
        if not self._pages:
            raise SimulationError("nothing to evict")
        pool = list(self._pages)
        if prefer is not None:
            preferred = [page for page in pool if prefer(page)]
            if preferred:
                pool = preferred
        victim = pool[int(self._rng.integers(len(pool)))]
        del self._pages[victim]
        return victim

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages


_POLICIES: dict[str, type[ReplacementPolicy]] = {
    LruPolicy.name: LruPolicy,
    FifoPolicy.name: FifoPolicy,
    ClockPolicy.name: ClockPolicy,
    RandomPolicy.name: RandomPolicy,
}


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(policy_names())
        raise UnknownSchemeError(
            f"unknown replacement policy {name!r}; known: {known}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed=seed)
    return cls()

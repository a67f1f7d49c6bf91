"""Struct-of-arrays policy adapters against the scalar policies.

The fused engine's :class:`~repro.sim.soa.FusedLru` and
:class:`~repro.sim.soa.FusedFifo` keep recency as stamps in a shared
matrix.  They must pick the same victim, after the same ``prefer``
probes, as :class:`~repro.sim.replacement.LruPolicy` and
:class:`~repro.sim.replacement.FifoPolicy` after any sequence of
operations the engine performs, and hand back the scalar policy in the
identical state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.replacement import FifoPolicy, LruPolicy
from repro.sim.soa import FusedFifo, FusedLru, StampCounter

PAGES = 12


class Pair:
    """A scalar policy and its fused adapter, driven in lockstep."""

    def __init__(self, kind: str, n_pages: int = PAGES) -> None:
        self.kind = kind
        # Sparse page ids, as real traces have: columns are dense.
        self.page_ids = [1000 + 7 * k for k in range(n_pages)]
        self.col_of = {page: k for k, page in enumerate(self.page_ids)}
        self.stamps = np.zeros((n_pages, 2), dtype=np.int64)
        self.resident = np.zeros((n_pages, 2), dtype=bool)
        self.ctr = StampCounter()
        fused_cls, scalar_cls = {
            "lru": (FusedLru, LruPolicy),
            "fifo": (FusedFifo, FifoPolicy),
        }[kind]
        # Column 1 of the matrices belongs to the cell under test; the
        # counter is shared with a phantom cell 0, as in a batch.
        self.fused = fused_cls(
            self.stamps[:, 1], self.resident[:, 1], self.page_ids,
            self.col_of, self.ctr,
        )
        self.scalar = scalar_cls()

    def span(self, pages: list[int]) -> None:
        """A bulk span's stamp write: consecutive stamps."""
        if self.kind != "lru" or not pages:
            return
        cols = [self.col_of[p] for p in pages]
        base = self.ctr.value
        self.ctr.value = base + len(cols)
        self.stamps[cols, 1] = np.arange(base + 1, base + len(cols) + 1)
        for page in pages:
            self.scalar.touch(page)


op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("touch"), st.integers(0, PAGES - 1)),
    st.tuples(
        st.just("span"),
        st.lists(st.integers(0, PAGES - 1), max_size=6, unique=True),
    ),
    st.tuples(st.just("remove"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("pending"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("settled"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("other"), st.integers(1, 3)),
    st.tuples(
        st.just("evict"),
        st.one_of(
            st.none(),
            st.frozensets(st.integers(0, PAGES - 1), max_size=PAGES),
        ),
    ),
)


class TestEvictionEquivalence:
    @pytest.mark.parametrize("kind", ["lru", "fifo"])
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(op, max_size=80))
    def test_same_victims_as_scalar_policy(self, kind, ops):
        pair = Pair(kind)
        ids = pair.page_ids
        for name, arg in ops:
            if name == "insert":
                page = ids[arg]
                if page not in pair.scalar:
                    pair.scalar.insert(page)
                    pair.fused.insert(page)
            elif name == "touch":
                page = ids[arg]
                if page in pair.scalar:
                    pair.scalar.touch(page)
                    pair.fused.touch(page)
            elif name == "span":
                pair.span([ids[k] for k in arg if ids[k] in pair.scalar])
            elif name == "remove":
                page = ids[arg]
                if page in pair.scalar:
                    pair.scalar.remove(page)
                    pair.fused.remove(page)
            elif name == "pending":
                pair.scalar.note_pending(ids[arg])
                pair.fused.note_pending(ids[arg])
            elif name == "settled":
                pair.scalar.note_settled(ids[arg])
                pair.fused.note_settled(ids[arg])
            elif name == "other":
                for _ in range(arg):
                    pair.ctr.next()  # another cell of the batch
            elif name == "evict" and len(pair.scalar):
                busy = set() if arg is None else {ids[k] for k in arg}
                probes: list[list[int]] = [[], []]

                def prober(log):
                    if arg is None:
                        return None

                    def prefer(page):
                        log.append(page)
                        return page not in busy
                    return prefer

                want = pair.scalar.evict(prefer=prober(probes[0]))
                got = pair.fused.evict(prefer=prober(probes[1]))
                assert got == want
                # Same decisions, not just the same outcome: the same
                # pages probed, in the same order.
                assert probes[1] == probes[0]
            assert len(pair.fused) == len(pair.scalar)
            assert pair.fused._maybe_pending == pair.scalar._maybe_pending
            for page in ids:
                assert (page in pair.fused) == (page in pair.scalar)
        # Unfusing yields the scalar policy in the identical state.
        back = pair.fused.to_scalar()
        assert type(back) is type(pair.scalar)
        assert list(back._order) == list(pair.scalar._order)
        assert back._maybe_pending == pair.scalar._maybe_pending
        assert back._hinted == pair.scalar._hinted
        # Drain: the full remaining eviction order agrees.
        while len(pair.scalar):
            assert pair.fused.evict() == pair.scalar.evict()


"""Run-length compression: exactness and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.compress import RunTrace, compress_references, concatenate

from tests.conftest import make_trace, page_addr


class TestCompressBasics:
    def test_empty(self):
        trace = make_trace([])
        assert trace.num_runs == 0
        assert trace.num_references == 0

    def test_single_reference(self):
        trace = make_trace([1234])
        assert trace.num_runs == 1
        assert trace.num_references == 1
        assert trace.pages[0] == 0
        assert trace.blocks[0] == 1234 // 256

    def test_same_block_compresses(self):
        trace = make_trace([0, 8, 16, 255])
        assert trace.num_runs == 1
        assert trace.counts[0] == 4

    def test_block_change_splits(self):
        trace = make_trace([0, 256])
        assert trace.num_runs == 2

    def test_page_change_splits(self):
        trace = make_trace([0, 8192])
        assert list(trace.pages) == [0, 1]

    def test_write_flip_splits_run(self):
        trace = make_trace([0, 0, 0], writes=[False, True, True])
        assert trace.num_runs == 2
        assert list(trace.writes) == [False, True]
        assert list(trace.counts) == [1, 2]

    def test_same_block_different_pages_not_merged(self):
        # Block 0 of page 0 and block 0 of page 1 are distinct.
        trace = make_trace([0, 8192])
        assert trace.num_runs == 2

    def test_rejects_negative_addresses(self):
        with pytest.raises(TraceError):
            make_trace([-5])

    def test_rejects_2d_input(self):
        with pytest.raises(TraceError):
            compress_references(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_mismatched_writes(self):
        with pytest.raises(TraceError):
            compress_references(
                np.array([1, 2]), np.array([True])
            )


class TestRunTraceProperties:
    def test_footprint(self):
        trace = make_trace([page_addr(0), page_addr(5), page_addr(0)])
        assert trace.footprint_pages() == 2
        assert trace.footprint_bytes() == 2 * 8192

    def test_write_fraction(self):
        trace = make_trace(
            [0, 0, 512, 512], writes=[True, True, False, False]
        )
        assert trace.write_fraction() == pytest.approx(0.5)

    def test_compression_ratio(self):
        trace = make_trace([0] * 10 + [256])
        assert trace.compression_ratio == pytest.approx(11 / 2)

    def test_subpages_derived_from_blocks(self):
        trace = make_trace([page_addr(0, 1024 * 3), page_addr(0, 1024 * 7)])
        assert list(trace.subpages(1024)) == [3, 7]
        assert list(trace.subpages(2048)) == [1, 3]
        assert list(trace.subpages(8192)) == [0, 0]

    def test_subpages_rejects_finer_than_block(self):
        trace = make_trace([0])
        with pytest.raises(TraceError):
            trace.subpages(128)

    def test_subpages_rejects_larger_than_page(self):
        trace = make_trace([0])
        with pytest.raises(TraceError):
            trace.subpages(16384)

    def test_slice(self):
        trace = make_trace([0, 256, 512])
        part = trace.slice(1, 3)
        assert part.num_runs == 2
        assert part.blocks[0] == 1

    def test_with_dilation(self):
        trace = make_trace([0]).with_dilation(5.0)
        assert trace.dilation == 5.0

    def test_rejects_bad_dilation(self):
        with pytest.raises(TraceError):
            make_trace([0]).with_dilation(0.0)

    def test_renamed(self):
        assert make_trace([0]).renamed("x").name == "x"

    def test_len_is_runs(self):
        assert len(make_trace([0, 256])) == 2


class TestConcatenate:
    def test_simple(self):
        a = make_trace([0, 256])
        b = make_trace([512])
        c = concatenate([a, b])
        assert c.num_runs == 3
        assert c.num_references == 3

    def test_merges_seam_runs(self):
        # Last run of a == first run of b -> merged.
        a = make_trace([0, 0])
        b = make_trace([0, 256])
        c = concatenate([a, b])
        assert c.num_runs == 2
        assert c.counts[0] == 3

    def test_seam_merge_of_narrow_counts_does_not_overflow(self):
        # Two uint8 runs of 200 that merge at the seam hold 400.
        def run(count):
            return RunTrace(
                pages=np.array([7], dtype=np.int64),
                blocks=np.array([3], dtype=np.int16),
                counts=np.array([count], dtype=np.uint8),
                writes=np.array([False]),
            )

        c = concatenate([run(200), run(200)])
        assert c.num_runs == 1
        assert c.counts.dtype == np.int64
        assert int(c.counts[0]) == 400

    def test_rejects_empty_list(self):
        with pytest.raises(TraceError):
            concatenate([])

    def test_rejects_mismatched_granularity(self):
        a = make_trace([0])
        b = make_trace([0], page_bytes=4096)
        with pytest.raises(TraceError):
            concatenate([a, b])

    def test_commutes_with_compression(self):
        addrs = [0, 0, 256, 8192, 8192, 0]
        whole = make_trace(addrs)
        parts = concatenate([make_trace(addrs[:3]), make_trace(addrs[3:])])
        assert list(whole.pages) == list(parts.pages)
        assert list(whole.blocks) == list(parts.blocks)
        assert list(whole.counts) == list(parts.counts)


@st.composite
def address_streams(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    addrs = draw(
        st.lists(
            st.integers(min_value=0, max_value=16 * 8192 - 1),
            min_size=n,
            max_size=n,
        )
    )
    writes = draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    )
    return addrs, writes


class TestCompressionProperties:
    @given(address_streams())
    @settings(max_examples=60)
    def test_reference_count_preserved(self, stream):
        addrs, writes = stream
        trace = make_trace(addrs, writes)
        assert trace.num_references == len(addrs)

    @given(address_streams())
    @settings(max_examples=60)
    def test_expansion_roundtrip(self, stream):
        """Expanding runs reproduces the original (block, write) stream."""
        addrs, writes = stream
        trace = make_trace(addrs, writes)
        expanded_blocks = []
        expanded_writes = []
        for page, block, count, write in zip(
            trace.pages, trace.blocks, trace.counts, trace.writes
        ):
            expanded_blocks.extend(
                [int(page) * 32 + int(block)] * int(count)
            )
            expanded_writes.extend([bool(write)] * int(count))
        assert expanded_blocks == [a // 256 for a in addrs]
        assert expanded_writes == list(writes)

    @given(address_streams())
    @settings(max_examples=60)
    def test_adjacent_runs_differ(self, stream):
        """Maximal compression: no two adjacent runs are mergeable."""
        addrs, writes = stream
        trace = make_trace(addrs, writes)
        for i in range(1, trace.num_runs):
            same_block = (
                trace.pages[i] == trace.pages[i - 1]
                and trace.blocks[i] == trace.blocks[i - 1]
            )
            same_write = trace.writes[i] == trace.writes[i - 1]
            assert not (same_block and same_write)

    @given(address_streams())
    @settings(max_examples=40)
    def test_footprint_matches_distinct_pages(self, stream):
        addrs, writes = stream
        trace = make_trace(addrs, writes)
        assert trace.footprint_pages() == len({a // 8192 for a in addrs})

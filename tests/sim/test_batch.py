"""The cross-cell batched engine: scan structure, dispatch, retry.

Bit-exact result equivalence against the per-cell engines lives in
``tests/sim/test_engine_equivalence.py`` (``TestBatchEquivalence``);
this file covers the machinery around it — the :class:`TraceScan`
span-filter invariants (the argument for *why* the batched engine is
exact), eligibility gating, and the ``run_cells(batch=True)`` dispatch:
trace-fingerprint grouping, ``"batched"`` progress events, unit
splitting across a pool, cache composition, and the per-cell inline
retry when a batch unit dies in a worker.
"""

import os
import pickle

import numpy as np
import pytest

from repro.sim import parallel
from repro.sim.batch import (
    _SCAN_KEY,
    FUSED_BAIL_WINDOW,
    FusedProfile,
    TraceScan,
    batch_eligible,
    simulate_cells,
    simulate_cells_timed,
    trace_scan,
)
from repro.sim.config import SimulationConfig
from repro.sim.parallel import (
    CellEvent,
    ResultCache,
    SweepJob,
    WorkerPool,
    run_cells,
)
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

from tests.conftest import FixedLatencyModel

_PARENT_PID = os.getpid()
_REAL_EXECUTE_BATCH = parallel._execute_batch


def _explode_batch_in_worker(trace, configs):
    """Batch-unit stand-in for ``_execute_batch``: dies in any child."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected batch-unit failure")
    return _REAL_EXECUTE_BATCH(trace, configs)


def _explode_batch_always(trace, configs):
    raise RuntimeError("injected batch failure")


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(11)
    pages = rng.integers(0, 16, size=3000)
    offsets = rng.integers(0, 1024, size=3000) * 8
    writes = rng.random(3000) < 0.2
    return compress_references(
        pages * 8192 + offsets, writes, name="batch-suite"
    )


def make_jobs(trace, sizes=(4096, 2048, 1024, 512), prefix="sp"):
    return [
        SweepJob(
            key=f"{prefix}_{size}",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8,
                scheme="eager",
                subpage_bytes=size,
                event_ns=1000.0,
                use_trace_dilation=False,
                track_distances=False,
            ),
        )
        for size in sizes
    ]


class TestTraceScan:
    """Structural invariants the batched ``advance`` relies on."""

    @pytest.fixture(scope="class")
    def scan_and_cols(self, trace):
        cols = trace.columns(512)
        return trace_scan(trace, cols), cols

    def test_switch_next_is_next_same_page_switch(self, scan_and_cols):
        scan, cols = scan_and_cols
        n = len(cols.pages)
        pos = scan.switch_pos.tolist()
        pages = cols.pages_arr[scan.switch_pos].tolist()
        nxt = scan.switch_next.tolist()
        by_page: dict[int, list[int]] = {}
        for p, page in zip(pos, pages):
            by_page.setdefault(page, []).append(p)
        for k, (p, page) in enumerate(zip(pos, pages)):
            later = [q for q in by_page[page] if q > p]
            assert nxt[k] == (later[0] if later else n)

    def test_write_prev_is_previous_same_page_write(self, scan_and_cols):
        scan, cols = scan_and_cols
        pos = scan.write_pos.tolist()
        pages = cols.pages_arr[scan.write_pos].tolist()
        prv = scan.write_prev.tolist()
        by_page: dict[int, list[int]] = {}
        for p, page in zip(pos, pages):
            by_page.setdefault(page, []).append(p)
        for k, (p, page) in enumerate(zip(pos, pages)):
            earlier = [q for q in by_page[page] if q < p]
            assert prv[k] == (earlier[-1] if earlier else -1)

    def test_span_filter_matches_per_span_dedup(self, scan_and_cols):
        """``switch_next >= j`` over a span recovers exactly the fast
        engine's touch sequence: each switched page's *last* switch in
        ``[i, j)``, in ascending position order."""
        scan, cols = scan_and_cols
        pages = cols.pages
        rng = np.random.default_rng(5)
        n = len(pages)
        for _ in range(50):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n + 1))
            lo, hi = np.searchsorted(scan.switch_pos, (i, j))
            keep = scan.switch_next[lo:hi] >= j
            got = cols.pages_arr[scan.switch_pos[lo:hi][keep]].tolist()
            last: dict[int, int] = {}
            for k in range(i, j):
                if cols.switch_arr[k]:
                    last[pages[k]] = k
            expected = [
                page for _, page in sorted((v, k) for k, v in last.items())
            ]
            assert got == expected

    def test_write_filter_matches_unique_written_pages(self, scan_and_cols):
        scan, cols = scan_and_cols
        pages = cols.pages
        writes = cols.writes
        rng = np.random.default_rng(6)
        n = len(pages)
        for _ in range(50):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n + 1))
            wlo, whi = np.searchsorted(scan.write_pos, (i, j))
            keep = scan.write_prev[wlo:whi] < i
            got = cols.pages_arr[scan.write_pos[wlo:whi][keep]].tolist()
            seen: dict[int, None] = {}
            for k in range(i, j):
                if writes[k]:
                    seen.setdefault(pages[k])
            assert sorted(got) == sorted(seen)
            assert len(got) == len(set(got))

    def test_prods_cached_per_event_ms(self, trace):
        """The clock products every engine accumulates over are cached
        on the columns, once per ``event_ms``."""
        cols = trace.columns(1024)
        first = cols.prods(0.5)
        assert cols.prods(0.5) is first
        assert np.array_equal(first, cols.counts_f64 * 0.5)
        assert cols.prods(0.25) is not first

    def test_scan_arrays_use_narrow_index_dtype(self, scan_and_cols):
        """Derived scan/column caches downsize to int32 whenever the
        run count permits (always, until a >2**31-run trace exists):
        they are rebuilt per worker process, so the narrow dtype halves
        the per-worker footprint next to the shm arena's."""
        scan, cols = scan_and_cols
        for arr in (
            scan.switch_pos,
            scan.switch_next,
            scan.write_pos,
            scan.write_prev,
        ):
            assert arr.dtype == np.int32
        assert scan.switch_col.dtype == np.int32
        assert scan.write_col.dtype == np.int32
        # The trace's own run arrays must NOT downsize: their bytes are
        # hashed into the content-addressing fingerprint.
        assert cols.pages_arr.dtype == np.int64

    def test_scan_dense_page_columns(self, scan_and_cols):
        scan, cols = scan_and_cols
        assert scan.page_ids.tolist() == sorted(set(cols.pages))
        assert scan.col_of == {
            page: k for k, page in enumerate(scan.page_ids_list)
        }
        assert cols.pages_arr[scan.switch_pos].tolist() == [
            scan.page_ids_list[c] for c in scan.switch_col.tolist()
        ]
        assert cols.pages_arr[scan.write_pos].tolist() == [
            scan.page_ids_list[c] for c in scan.write_col.tolist()
        ]

    def test_scan_cached_on_trace_and_dropped_on_pickle(self, trace):
        cols = trace.columns(512)
        scan = trace_scan(trace, cols)
        assert trace._cols[_SCAN_KEY] is scan
        assert trace_scan(trace, cols) is scan
        clone = pickle.loads(pickle.dumps(trace))
        assert _SCAN_KEY not in clone._cols
        rebuilt = trace_scan(clone, clone.columns(512))
        assert isinstance(rebuilt, TraceScan)
        assert np.array_equal(rebuilt.switch_pos, scan.switch_pos)


class TestEligibility:
    def base(self, **overrides):
        kwargs = dict(memory_pages=8, track_distances=False)
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    def test_default_fast_cell_is_eligible(self):
        assert batch_eligible(self.base())

    @pytest.mark.parametrize("overrides", [
        {"engine": "reference"},
        {"observe": "metrics"},
        {"protection": "palcode"},
        {"track_distances": True},
        {"tlb_entries": 16},
        {"scheme": "adaptive",
         "scheme_kwargs": {"predictor": "stride"}},
        {"latency_model": FixedLatencyModel()},
    ])
    def test_excluded(self, overrides):
        assert not batch_eligible(self.base(**overrides))


class TestRunCellsBatch:
    def test_inline_statuses_and_results(self, trace):
        jobs = make_jobs(trace)
        jobs.append(SweepJob(
            key="adaptive",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8, scheme="adaptive",
                scheme_kwargs={"predictor": "stride"},
                subpage_bytes=1024, event_ns=1000.0,
                use_trace_dilation=False, track_distances=False,
            ),
        ))
        expected = run_cells(jobs, workers=1)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, batch=True,
                        progress=events.append)
        assert list(out) == [j.key for j in jobs]
        statuses = {e.key: e.status for e in events}
        assert len(events) == len(jobs)
        assert all(
            statuses[j.key] == "batched" for j in jobs[:-1]
        )
        assert statuses["adaptive"] == "done"
        for key in expected:
            assert out[key] == expected[key]

    def test_singleton_group_keeps_per_cell_dispatch(self, trace):
        jobs = make_jobs(trace, sizes=(1024,))
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, batch=True,
                        progress=events.append)
        assert [e.status for e in events] == ["done"]
        assert out["sp_1024"] == simulate(trace, jobs[0].config)

    def test_groups_split_by_trace_fingerprint(self, trace):
        other = compress_references(
            np.arange(0, 40 * 8192, 64, dtype=np.int64), name="other"
        )
        jobs = make_jobs(trace, sizes=(2048, 1024), prefix="a")
        jobs += make_jobs(other, sizes=(2048, 1024), prefix="b")
        expected = run_cells(jobs, workers=1)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, batch=True,
                        progress=events.append)
        assert all(e.status == "batched" for e in events)
        assert len(events) == 4
        for key in expected:
            assert out[key] == expected[key]

    def test_pooled_batch_matches_inline(self, trace):
        jobs = make_jobs(trace)
        expected = run_cells(jobs, workers=1)
        events: list[CellEvent] = []
        with WorkerPool(3) as pool:
            out = run_cells(jobs, pool=pool, batch=True,
                            progress=events.append)
            assert pool.arena.published_count <= 1
        assert all(e.status == "batched" for e in events)
        assert len(events) == len(jobs)
        for key in expected:
            assert out[key] == expected[key]

    def test_batch_populates_and_serves_cache(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace)
        first = run_cells(jobs, workers=1, cache=cache, batch=True)
        assert cache.misses == len(jobs)
        events: list[CellEvent] = []
        second = run_cells(jobs, workers=1, cache=cache, batch=True,
                           progress=events.append)
        assert all(e.status == "cached" for e in events)
        assert cache.hits == len(jobs)
        for key in first:
            assert second[key].total_ms == first[key].total_ms

    def test_split_groups_fills_workers(self):
        group = [("job", k) for k in range(16)]
        units = parallel._split_groups([list(group)], workers=4)
        assert sorted(len(u) for u in units) == [4, 4, 4, 4]
        assert sorted(c for u in units for c in u) == sorted(group)
        # Each unit is a contiguous slice: in-unit order is preserved.
        for unit in units:
            ks = [k for _, k in unit]
            assert ks == list(range(ks[0], ks[0] + len(ks)))

    def test_split_groups_keeps_fused_units_fat(self):
        # The fused engine amortizes one shared pass across a unit's
        # cells, so halving stops at MIN_FUSED_UNIT even when workers
        # would otherwise be idle: an 8-cell unit splits once and the
        # 4-cell halves stay whole.
        group = [("job", k) for k in range(8)]
        units = parallel._split_groups([list(group)], workers=4)
        assert sorted(len(u) for u in units) == [4, 4]
        units = parallel._split_groups(
            [[("job", k) for k in range(4)]], workers=8
        )
        assert [len(u) for u in units] == [4]

    def test_split_groups_leaves_small_units_whole(self):
        group = [("job", k) for k in range(3)]
        assert parallel._split_groups([list(group)], workers=8) == [group]


class TestBatchUnitFailure:
    def test_worker_batch_failure_retries_per_cell(self, trace,
                                                   monkeypatch):
        monkeypatch.setattr(
            parallel, "_execute_batch", _explode_batch_in_worker
        )
        jobs = make_jobs(trace)
        expected = run_cells(jobs, workers=1)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=2, batch=True,
                        progress=events.append)
        assert [e.status for e in events] == ["retried"] * len(jobs)
        for key in expected:
            assert out[key] == expected[key]

    def test_inline_batch_failure_retries_per_cell(self, trace,
                                                   monkeypatch):
        monkeypatch.setattr(
            parallel, "_execute_batch", _explode_batch_always
        )
        jobs = make_jobs(trace)
        expected = run_cells(jobs, workers=1)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, batch=True,
                        progress=events.append)
        assert [e.status for e in events] == ["retried"] * len(jobs)
        for key in expected:
            assert out[key] == expected[key]

    def test_retried_batch_cells_still_write_cache(self, trace, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(
            parallel, "_execute_batch", _explode_batch_always
        )
        cache = ResultCache(tmp_path)
        run_cells(make_jobs(trace), workers=1, cache=cache, batch=True)
        assert cache.puts_failed == 0
        events: list[CellEvent] = []
        run_cells(make_jobs(trace), workers=1, cache=cache, batch=True,
                  progress=events.append)
        assert all(e.status == "cached" for e in events)


def thrash_trace(runs=9000, pages=9):
    """Round-robin over ``pages`` pages: every run switches, so a cell
    with a tiny memory faults on every single run (guaranteed fused
    thrash bail-out) while a cell holding the whole footprint settles
    into pure hits after ``pages`` warm faults."""
    seq = np.arange(runs, dtype=np.int64) % pages
    return compress_references(seq * 8192, name="thrash")


class TestFusedEngine:
    """Fused-loop edge cases; bit-exact matrix equivalence lives in
    ``tests/sim/test_engine_equivalence.py``."""

    def config(self, **overrides):
        kwargs = dict(
            memory_pages=8, scheme="eager", subpage_bytes=1024,
            event_ns=1000.0, use_trace_dilation=False,
            track_distances=False,
        )
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    def test_single_cell_fused_matches_reference(self, trace):
        config = self.config(subpage_bytes=512)
        assert simulate_cells(trace, [config]) == [
            simulate(trace, config.with_overrides(engine="reference"))
        ]

    def test_bailing_cell_leaves_others_untouched(self):
        trace = thrash_trace()
        thrasher = self.config(memory_pages=2, scheme="pipelined")
        healthy = [
            self.config(memory_pages=16, subpage_bytes=sp)
            for sp in (512, 2048)
        ]
        configs = [healthy[0], thrasher, healthy[1]]
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        # The thrasher (fused index 1) bailed mid-trace; the others
        # finished the fused pass.
        assert profile.bailed == [1]
        assert profile.cells == 3
        for config, result in zip(configs, got):
            assert result == simulate(trace, config)

    def test_all_cells_bailing_matches_standalone(self):
        trace = thrash_trace()
        configs = [
            self.config(memory_pages=2, subpage_bytes=sp)
            for sp in (512, 1024)
        ]
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        assert sorted(profile.bailed) == [0, 1]
        for config, result in zip(configs, got):
            assert result == simulate(trace, config)

    def test_cold_start_without_eviction_never_bails(self):
        """Every run of a cold sequential scan faults, which would
        trip the thrash window from the first event on; a cell that
        holds the whole footprint never evicts, so it never bails."""
        pages = 3 * FUSED_BAIL_WINDOW
        trace = thrash_trace(runs=pages, pages=pages)
        configs = [
            self.config(memory_pages=pages, subpage_bytes=sp)
            for sp in (512, 1024)
        ]
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        assert profile.bailed == []
        for config, result in zip(configs, got):
            assert result.evictions == 0
            assert result.total_faults == pages
            assert result == simulate(
                trace, config.with_overrides(engine="reference")
            )

    def test_thrasher_bails_only_after_first_eviction(self):
        """A round-robin over twice the memory faults on every run,
        cold start included.  The bail window arms at the first
        eviction (run ``memory``), so the cell bails one full window
        later, not inside its cold start."""
        memory = 2 * FUSED_BAIL_WINDOW
        trace = thrash_trace(runs=20 * memory, pages=2 * memory)
        thrasher = self.config(memory_pages=memory)
        healthy = self.config(memory_pages=2 * memory)
        configs = [thrasher, healthy]
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        assert profile.bailed == [0]
        assert profile.bail_runs == [memory + FUSED_BAIL_WINDOW]
        assert got[0].evictions > 0
        assert got[1].evictions == 0
        for config, result in zip(configs, got):
            assert result == simulate(
                trace, config.with_overrides(engine="reference")
            )

    def test_full_memory_lazy_cell_bails(self):
        """Lazy pages whose tail subpages are never touched stay
        incomplete, so every run on them is an event even when memory
        holds the whole footprint.  The window arms at the first
        subpage fault, so such a cell bails without ever evicting."""
        rng = np.random.default_rng(5)
        n = 20_000
        pages = rng.integers(0, 16, size=n)
        # Offsets in the first half of each page only.
        offsets = rng.integers(0, 4096 // 64, size=n) * 64
        trace = compress_references(
            pages * 8192 + offsets, name="lazyfull"
        )
        lazy = self.config(memory_pages=16, scheme="lazy")
        eager = self.config(memory_pages=16)
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, [lazy, eager], profile=profile
            )
        ]
        assert profile.bailed == [0]
        assert got[0].evictions == 0
        assert got[0].subpage_faults > 0
        for config, result in zip([lazy, eager], got):
            assert result == simulate(
                trace, config.with_overrides(engine="reference")
            )

    @pytest.mark.parametrize(
        "replacement", ["lru", "fifo", "clock", "random"]
    )
    def test_bailed_cell_resumes_on_scalar_state(self, replacement):
        """A bailing cell trades its matrix-backed policy and dirty
        overlay back for the scalar objects; the reference loop then
        finishes it bit-identically, dirty evictions included."""
        # A hot set that stays resident (so spans leave dirty marks in
        # the overlay) over a cold stream that faults on most runs.
        rng = np.random.default_rng(3)
        n = 20_000
        pages = np.where(
            rng.random(n) < 0.7,
            rng.integers(0, 4, size=n),
            rng.integers(4, 204, size=n),
        )
        writes = rng.random(n) < 0.3
        trace = compress_references(pages * 8192, writes, name="mix")
        configs = [
            self.config(memory_pages=8, replacement=replacement,
                        scheme=scheme)
            for scheme in ("eager", "pipelined")
        ]
        profile = FusedProfile()
        got = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        assert sorted(profile.bailed) == [0, 1]
        for config, result in zip(configs, got):
            assert result.dirty_evictions > 0
            assert result == simulate(
                trace, config.with_overrides(engine="reference")
            )

    def test_profile_accounts_stages(self, trace):
        configs = [j.config for j in make_jobs(trace)]
        profile = FusedProfile()
        simulate_cells_timed(trace, configs, profile=profile)
        assert profile.cells == len(configs)
        assert profile.events > 0
        assert profile.scalar_events >= profile.events
        assert profile.spans > 0
        assert profile.bulk_s > 0.0
        assert profile.scalar_s > 0.0


class TestSimulateCellsApi:
    def test_empty_config_list(self, trace):
        assert simulate_cells(trace, []) == []

    def test_all_ineligible_falls_back_cleanly(self, trace):
        configs = [
            SimulationConfig(
                memory_pages=8, engine="reference",
                subpage_bytes=1024, track_distances=False,
            ),
            SimulationConfig(
                memory_pages=8, subpage_bytes=512,
                track_distances=True,
            ),
        ]
        got = simulate_cells(trace, configs)
        assert got == [simulate(trace, c) for c in configs]

    def test_mixed_eligibility_keeps_positions(self, trace):
        eligible = SimulationConfig(
            memory_pages=8, subpage_bytes=1024, track_distances=False,
        )
        ineligible = SimulationConfig(
            memory_pages=8, subpage_bytes=1024, engine="reference",
            track_distances=False,
        )
        configs = [ineligible, eligible, ineligible]
        got = simulate_cells(trace, configs)
        assert got == [simulate(trace, c) for c in configs]

    def test_results_positionally_parallel(self, trace):
        configs = [j.config for j in make_jobs(trace, sizes=(512, 2048))]
        got = simulate_cells(trace, configs)
        assert [r.total_ms for r in got] == [
            simulate(trace, c).total_ms for c in configs
        ]

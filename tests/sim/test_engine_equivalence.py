"""Golden equivalence: the fast engine is bit-identical to the reference.

Every cell of the integration matrix (scheme x subpage size x memory
configuration x backing) is run through both engines and the complete
:class:`~repro.sim.results.SimulationResult` dataclasses are compared
with ``==`` — which covers timing components, fault/eviction counters,
fault records, stall intervals, and substrate statistics, all to the
last float bit.  No tolerances anywhere: the fast engine (a one-cell
fused pass) reorders no arithmetic (see ``repro/sim/batch.py``).

Distance tracking is disabled in the matrix configs because it demands
per-hit hooks: with it on, ``engine="fast"`` silently falls back to the
reference loop and the comparison would be vacuous.  The fallback
conditions themselves are covered at the bottom with a poisoned
``drive_fused``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.batch import (
    FusedProfile,
    batch_eligible,
    simulate_cells,
    simulate_cells_timed,
)
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import Simulator, simulate
from repro.trace.compress import compress_references
from repro.trace.synth.apps import build_app_trace

from tests.conftest import make_trace, page_addr


@pytest.fixture(scope="module")
def mixed_trace():
    """A few thousand runs with faults, stalls, re-references, writes.

    Page visits sweep a handful of blocks (so subpage stalls and folds
    happen under partial-fetch schemes) over a footprint a half-memory
    config cannot hold (so evictions and re-faults happen too).
    """
    rng = np.random.default_rng(42)
    visits = rng.integers(0, 48, size=1_500)
    starts = rng.integers(0, 120, size=1_500)
    blocks = (starts[:, None] + np.arange(6)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.3
    return compress_references(addrs, writes, name="mixed")


def both_engines(trace, **overrides):
    base = dict(track_distances=False)
    base.update(overrides)
    ref = simulate(trace, SimulationConfig(engine="reference", **base))
    fast = simulate(trace, SimulationConfig(engine="fast", **base))
    return ref, fast


SCHEME_CELLS = [
    ("fullpage", 8192),
    ("lazy", 512),
    ("lazy", 2048),
    ("eager", 512),
    ("eager", 2048),
    ("pipelined", 512),
    ("pipelined", 2048),
]

#: Adaptive-policy cells: the fault-feed observation sites
#: (``_page_fault`` / ``_touch_incomplete``) are shared by both engines,
#: so even a live (non-transparent) predictor must stay bit-identical.
ADAPTIVE_CELLS = [
    ({"predictor": "static"}, 1024),
    ({"predictor": "stride", "max_depth": 6}, 512),
    ({"predictor": "stride", "max_depth": 6}, 2048),
    ({"predictor": "stride", "switch_schemes": True}, 1024),
    ({"predictor": "direction", "double_initial": True}, 1024),
]


class TestMatrixEquivalence:
    @pytest.mark.parametrize("scheme,subpage", SCHEME_CELLS)
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("backing", ["remote", "disk", "cluster"])
    def test_cell(self, mixed_trace, scheme, subpage, fraction, backing):
        ref, fast = both_engines(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, fraction),
            scheme=scheme,
            subpage_bytes=subpage,
            backing=backing,
        )
        assert ref == fast

    @pytest.mark.parametrize("kwargs,subpage", ADAPTIVE_CELLS)
    @pytest.mark.parametrize("fraction", [0.5, 0.25])
    def test_adaptive_cell(self, mixed_trace, kwargs, subpage, fraction):
        ref, fast = both_engines(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, fraction),
            scheme="adaptive",
            scheme_kwargs=dict(kwargs),
            subpage_bytes=subpage,
        )
        assert ref == fast

    @pytest.mark.parametrize("app", ["gdb"])
    def test_real_app_trace(self, app):
        """One full-size synthetic application trace, both memory ends."""
        trace = build_app_trace(app)
        for fraction in (1.0, 0.25):
            ref, fast = both_engines(
                trace,
                memory_pages=memory_pages_for(trace, fraction),
                scheme="eager",
                subpage_bytes=1024,
            )
            assert ref == fast


class TestSubstrateEquivalence:
    @pytest.mark.parametrize(
        "replacement", ["lru", "fifo", "clock", "random"]
    )
    def test_replacement_policies(self, mixed_trace, replacement):
        ref, fast = both_engines(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="eager",
            subpage_bytes=1024,
            replacement=replacement,
        )
        assert ref == fast

    def test_tlb(self, mixed_trace):
        """TLB misses interleave with the clock: forces the per-run
        walk inside ``advance`` and must still match exactly."""
        ref, fast = both_engines(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="eager",
            subpage_bytes=1024,
            tlb_entries=16,
        )
        assert ref == fast

    def test_no_congestion(self, mixed_trace):
        ref, fast = both_engines(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="pipelined",
            subpage_bytes=1024,
            congestion=False,
        )
        assert ref == fast


class TestEdgeTraces:
    def test_single_run(self):
        trace = make_trace([page_addr(0)])
        ref, fast = both_engines(trace, memory_pages=4)
        assert ref == fast

    def test_single_page_hammer(self):
        """One page, many runs: the whole trace after the fault is one
        bulk span ending at the tail ``advance``."""
        addrs = [page_addr(0, off) for off in (0, 4096, 0, 4096)] * 500
        ref, fast = both_engines(make_trace(addrs), memory_pages=4)
        assert ref == fast

    def test_trailing_hits(self):
        """The last interesting event lands well before the end."""
        addrs = [page_addr(p) for p in range(8)]
        addrs += [page_addr(p % 8, 64 * (p % 100)) for p in range(3_000)]
        ref, fast = both_engines(make_trace(addrs), memory_pages=16)
        assert ref == fast

    def test_alternating_writes(self):
        addrs = [page_addr(p % 4, 512 * (p % 16)) for p in range(2_000)]
        writes = [bool(i % 3 == 0) for i in range(2_000)]
        ref, fast = both_engines(
            make_trace(addrs, writes), memory_pages=8
        )
        assert ref == fast
        assert fast.dirty_evictions == ref.dirty_evictions


def matrix_configs(trace):
    """Every (scheme x subpage x memory x backing) cell as one batch."""
    configs = []
    for scheme, subpage in SCHEME_CELLS:
        for fraction in (1.0, 0.5, 0.25):
            for backing in ("remote", "disk", "cluster"):
                configs.append(SimulationConfig(
                    memory_pages=memory_pages_for(trace, fraction),
                    scheme=scheme,
                    subpage_bytes=subpage,
                    backing=backing,
                    engine="fast",
                    track_distances=False,
                ))
    return configs


class TestBatchEquivalence:
    """The cross-cell batched engines against both per-cell engines.

    ``simulate_cells`` runs the whole matrix through the *fused*
    struct-of-arrays pass (``drive_fused``, one walk of the shared
    :class:`~repro.sim.batch.TraceScan` heap for all cells at once);
    every cell must equal the fast *and* reference engines with ``==``
    — the full :class:`~repro.sim.results.SimulationResult`, its
    ``summary()`` dict, and its link statistics, to the last float
    bit.
    """

    def test_full_matrix_bit_identical(self, mixed_trace):
        configs = matrix_configs(mixed_trace)
        assert all(batch_eligible(c) for c in configs)
        batched = simulate_cells(mixed_trace, configs)
        assert len(batched) == len(configs)
        for config, got in zip(configs, batched):
            fast = simulate(mixed_trace, config)
            ref = simulate(
                mixed_trace, config.with_overrides(engine="reference")
            )
            assert got == fast == ref
            assert got.summary() == ref.summary()
            assert got.link_stats == ref.link_stats

    @pytest.mark.parametrize("app", ["kvserve", "graph", "websess"])
    def test_fault_dense_modern_family(self, app):
        """A fault-dense modern workload at half memory on figZOO's
        {eager, pipelined} x {4096, 1024, 256} grid: eviction and the
        scalar fault path dominate the fused pass (graph evicts about
        ten thousand pages here), and at least one cell thrash-bails
        to the reference loop mid-trace, so the handoff is covered on
        a real family."""
        trace = build_app_trace(app, scale=0.1)
        configs = [
            SimulationConfig(
                memory_pages=memory_pages_for(trace, 0.5),
                scheme=scheme,
                subpage_bytes=subpage,
                engine="fast",
                track_distances=False,
            )
            for scheme in ("eager", "pipelined")
            for subpage in (4096, 1024, 256)
        ]
        assert all(batch_eligible(c) for c in configs)
        profile = FusedProfile()
        batched = [
            r for r, _ in simulate_cells_timed(
                trace, configs, profile=profile
            )
        ]
        assert sum(r.evictions for r in batched) > 0
        assert profile.bailed
        for config, got in zip(configs, batched):
            fast = simulate(trace, config)
            ref = simulate(trace, config.with_overrides(engine="reference"))
            assert got == fast == ref
            assert got.summary() == ref.summary()

    @pytest.mark.parametrize(
        "replacement", ["lru", "fifo", "clock", "random"]
    )
    @pytest.mark.parametrize("fused", [True, False])
    def test_replacement_policies(self, mixed_trace, replacement, fused):
        config = SimulationConfig(
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="eager",
            subpage_bytes=1024,
            replacement=replacement,
            track_distances=False,
        )
        (got,) = simulate_cells(mixed_trace, [config], fused=fused)
        assert got == simulate(
            mixed_trace, config.with_overrides(engine="reference")
        )

    def test_replacement_mix_in_one_fused_pass(self, mixed_trace):
        """All four policy adapters coexist in a single fused walk:
        LRU/FIFO stamps, clock hands, and random draws of one cell
        must not perturb any other's."""
        configs = [
            SimulationConfig(
                memory_pages=memory_pages_for(mixed_trace, fraction),
                scheme="pipelined",
                subpage_bytes=1024,
                replacement=replacement,
                track_distances=False,
            )
            for replacement in ("lru", "fifo", "clock", "random")
            for fraction in (0.5, 0.25)
        ]
        batched = simulate_cells(mixed_trace, configs)
        for config, got in zip(configs, batched):
            assert got == simulate(mixed_trace, config)

    def test_mixed_eligibility_stays_positional(self, mixed_trace):
        """Ineligible cells (TLB, adaptive) interleave with batched
        ones and every result still lands at its config's index."""
        memory = memory_pages_for(mixed_trace, 0.5)
        configs = [
            SimulationConfig(
                memory_pages=memory, scheme="eager", subpage_bytes=512,
                track_distances=False,
            ),
            SimulationConfig(
                memory_pages=memory, scheme="adaptive",
                scheme_kwargs={"predictor": "stride"},
                subpage_bytes=1024, track_distances=False,
            ),
            SimulationConfig(
                memory_pages=memory, scheme="eager", subpage_bytes=1024,
                tlb_entries=16, track_distances=False,
            ),
            SimulationConfig(
                memory_pages=memory, scheme="fullpage",
                subpage_bytes=8192, track_distances=False,
            ),
        ]
        assert [batch_eligible(c) for c in configs] == [
            True, False, False, True
        ]
        batched = simulate_cells(mixed_trace, configs)
        for config, got in zip(configs, batched):
            assert got == simulate(mixed_trace, config)

    def test_edge_traces(self):
        for addrs in (
            [page_addr(0)],
            [page_addr(0, off) for off in (0, 4096, 0, 4096)] * 500,
            [page_addr(p) for p in range(8)]
            + [page_addr(p % 8, 64 * (p % 100)) for p in range(3_000)],
        ):
            trace = make_trace(addrs)
            config = SimulationConfig(
                memory_pages=4, track_distances=False
            )
            (got,) = simulate_cells(trace, [config])
            assert got == simulate(
                trace, config.with_overrides(engine="reference")
            )

    def test_thrash_bailout_matches(self, mixed_trace):
        """Lazy at tiny memory never completes pages: the batched
        drive must bail out to the reference loop bit-identically."""
        config = SimulationConfig(
            memory_pages=memory_pages_for(mixed_trace, 0.25),
            scheme="lazy",
            subpage_bytes=512,
            track_distances=False,
        )
        (got,) = simulate_cells(mixed_trace, [config])
        assert got == simulate(mixed_trace, config)
        assert got == simulate(
            mixed_trace, config.with_overrides(engine="reference")
        )


class TestFallback:
    """Configs demanding per-event hooks must bypass the fast engine."""

    def _poison(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("fast engine used despite fallback")

        # Simulator.run imports the fused driver from repro.sim.batch
        # at call time, so patching the module attribute reaches it.
        monkeypatch.setattr("repro.sim.batch.drive_fused", boom)

    def test_track_distances_falls_back(self, mixed_trace, monkeypatch):
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32, engine="fast", track_distances=True
        )
        simulate(mixed_trace, cfg)

    def test_palcode_falls_back(self, mixed_trace, monkeypatch):
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32,
            engine="fast",
            protection="palcode",
            track_distances=False,
        )
        simulate(mixed_trace, cfg)

    def test_observe_falls_back(self, mixed_trace, monkeypatch):
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32,
            engine="fast",
            observe="metrics",
            track_distances=False,
        )
        simulate(mixed_trace, cfg)

    def test_tlb_falls_back(self, mixed_trace, monkeypatch):
        """TLB miss walks interleave with the clock inside spans, so a
        TLB config stays off the fused pass."""
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32,
            engine="fast",
            tlb_entries=16,
            track_distances=False,
        )
        simulate(mixed_trace, cfg)

    def test_instrument_falls_back(self, mixed_trace, monkeypatch):
        from repro.obs.instrument import Instrument

        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32, engine="fast", track_distances=False
        )
        Simulator(cfg, instrument=Instrument()).run(mixed_trace)

    def test_adaptive_events_feed_falls_back(
        self, mixed_trace, monkeypatch
    ):
        """The ``"events"`` feed demands per-reference-run hits, which
        only the reference loop visits."""
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32,
            engine="fast",
            scheme="adaptive",
            scheme_kwargs={"predictor": "stride", "feed": "events"},
            track_distances=False,
        )
        simulate(mixed_trace, cfg)

    def test_adaptive_fault_feed_uses_fast_engine(
        self, mixed_trace, monkeypatch
    ):
        """The default ``"faults"`` feed must NOT force the fallback."""
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32,
            engine="fast",
            scheme="adaptive",
            scheme_kwargs={"predictor": "stride"},
            track_distances=False,
        )
        with pytest.raises(AssertionError, match="fast engine used"):
            simulate(mixed_trace, cfg)

    def test_fast_path_taken_when_unobstructed(
        self, mixed_trace, monkeypatch
    ):
        """Sanity for the poison technique: the default-engine config
        with hooks disabled really does enter ``drive_fused``."""
        self._poison(monkeypatch)
        cfg = SimulationConfig(
            memory_pages=32, engine="fast", track_distances=False
        )
        with pytest.raises(AssertionError, match="fast engine used"):
            simulate(mixed_trace, cfg)

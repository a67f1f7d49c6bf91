"""Interleaved multi-tenant scheduling against one shared cluster."""

import hashlib
import json

import numpy as np
import pytest

from repro.sim.multinode import NodeWorkload, run_multi_workload
from repro.sim.multitenant import run_multi_tenant
from repro.trace.compress import compress_references


def trace_for(pages: list[int], name: str):
    addrs = np.repeat(np.array(pages, dtype=np.int64) * 8192, 50)
    addrs = addrs + np.tile(np.arange(50, dtype=np.int64) * 8, len(pages))
    return compress_references(addrs, name=name)


def busy_workload(name: str, scheme: str = "eager",
                  subpage_bytes: int = 1024) -> NodeWorkload:
    # Revisit after eviction: memory holds 4 of 12 pages, two passes.
    pages = list(range(12)) * 2
    return NodeWorkload(name, trace_for(pages, name), memory_pages=4,
                        scheme=scheme, subpage_bytes=subpage_bytes)


class TestOneTenantAnchor:
    """One-tenant interleaved must be *bit-identical* to sequential.

    ``run_multi_tenant`` with a single workload exercises the same
    cluster build, the same per-run stepping, and an inert cross-traffic
    fabric — any drift from ``run_multi_workload`` here means the
    interleaved scheduler changed single-tenant semantics.
    """

    @pytest.mark.parametrize("scheme", ["eager", "pipelined"])
    @pytest.mark.parametrize("subpage_bytes", [4096, 1024])
    def test_bit_identical_to_sequential(self, scheme, subpage_bytes):
        workloads = [busy_workload("a", scheme, subpage_bytes)]
        sequential = run_multi_workload(workloads)
        interleaved = run_multi_tenant(workloads)
        seq = sequential.per_node["a"]
        par = interleaved.per_tenant["a"]
        assert seq == par
        assert seq.summary() == par.summary()
        assert sequential.cluster_stats == interleaved.cluster_stats

    def test_single_link_fabric_is_inert(self):
        result = run_multi_tenant([busy_workload("a")])
        stats = result.cross_stats["a"]
        assert stats["cross_preempts"] == 0
        assert stats["cross_occupies"] == 0
        assert stats["cross_queueing_delay_ms"] == 0.0
        assert result.injected_ms == {}


class TestInterleaving:
    def test_two_tenants_complete(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        assert set(result.per_tenant) == {"a", "b"}
        for res in result.per_tenant.values():
            assert res.page_faults > 0
            assert res.total_ms > 0
        assert result.total_faults == sum(
            r.page_faults for r in result.per_tenant.values()
        )

    def test_cluster_sees_both_tenants(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        assert result.cluster_stats["getpages"] == result.total_faults

    def test_cross_traffic_attributed(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        # Each tenant's demand transfers preempt the other's link.
        for name in ("a", "b"):
            assert result.cross_stats[name]["cross_preempts"] > 0
        assert set(result.injected_ms) == {"a", "b"}
        assert all(v > 0 for v in result.injected_ms.values())

    def test_cross_traffic_can_be_disabled(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")],
            cross_traffic=False,
        )
        assert result.cross_stats == {}
        assert result.injected_ms == {}

    def test_contention_slows_pipelined_tenants(self):
        """The headline effect: with cross-traffic the same two tenants
        take at least as long as without it."""
        workloads = [
            busy_workload("a", "pipelined"),
            busy_workload("b", "pipelined"),
        ]
        coupled = run_multi_tenant(workloads)
        isolated = run_multi_tenant(workloads, cross_traffic=False)
        for name in ("a", "b"):
            assert (
                coupled.per_tenant[name].total_ms
                >= isolated.per_tenant[name].total_ms
            )

    def test_latency_report_integration(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        solo = {
            name: run_multi_tenant([busy_workload(name)])
            .per_tenant[name].total_ms
            for name in ("a", "b")
        }
        report = result.latency_report(baselines=solo)
        assert set(report.tenants) == {"a", "b"}
        assert report.fairness() >= 1.0
        for tenant in report.tenants.values():
            assert tenant.slowdown is not None
            assert tenant.slowdown >= 1.0
            assert tenant.p99_ms >= tenant.p50_ms


def mixed_workload(name: str, seed: int, scheme: str, subpage_bytes: int,
                   memory_pages: int,
                   shared_from_page: int | None = None) -> NodeWorkload:
    """Random page visits sweeping a few blocks each, 30% writes: faults,
    subpage stalls, evictions and dirty write-backs all happen."""
    rng = np.random.default_rng(seed)
    visits = rng.integers(0, 24, size=300)
    starts = rng.integers(0, 120, size=300)
    blocks = (starts[:, None] + np.arange(5)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.3
    return NodeWorkload(
        name, compress_references(addrs, writes, name=name),
        memory_pages=memory_pages, scheme=scheme,
        subpage_bytes=subpage_bytes, shared_from_page=shared_from_page,
    )


def result_digest(result) -> str:
    """Digest of everything the interleaving order can move: every
    tenant's ``summary()``, the shared cluster's statistics, and the
    cross-traffic attribution in both directions."""
    payload = {
        "summary": {k: r.summary() for k, r in result.per_tenant.items()},
        "cluster": result.cluster_stats,
        "cross": result.cross_stats,
        "injected": result.injected_ms,
    }
    data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:32]


TIE_TOTAL_MS_A = 29.402399999999993
TIE_TOTAL_MS_B = 36.2104
TIE_DIGEST = "3cb001810bffe9f5465f1bd9ddbba0f3"
FOUR_FAULTS = {"w0": 154, "w1": 194, "w2": 99, "w3": 234}
FOUR_DIGEST = "cbb4e83a702b90ee34dd4cff0be3b0e1"


class TestPinnedInterleaving:
    """Multi-tenant results pinned bit for bit.

    The pinned values follow the per-run ``(clock, tenant index)``
    order: any change to the order in which tenants reach the shared
    cluster and fabric moves these digests.
    """

    def test_clock_ties_follow_tenant_order(self):
        """Identical traces: the tenants' clocks tie step for step until
        they diverge, so the tie-break alone decides which tenant
        reaches the cluster first; tenant ``a`` wins every tie."""
        result = run_multi_tenant([
            busy_workload("a", "pipelined"),
            busy_workload("b", "pipelined"),
        ])
        a, b = result.per_tenant["a"], result.per_tenant["b"]
        assert a.total_ms == TIE_TOTAL_MS_A
        assert b.total_ms == TIE_TOTAL_MS_B
        assert result.cluster_stats["getpages"] == 48
        assert result_digest(result) == TIE_DIGEST

    def test_four_tenant_mix(self):
        result = run_multi_tenant([
            mixed_workload("w0", 1, "eager", 1024, 12),
            mixed_workload("w1", 2, "pipelined", 512, 8),
            mixed_workload("w2", 3, "lazy", 2048, 16, shared_from_page=20),
            mixed_workload("w3", 4, "fullpage", 8192, 6,
                           shared_from_page=20),
        ])
        assert {
            name: r.page_faults for name, r in result.per_tenant.items()
        } == FOUR_FAULTS
        assert result_digest(result) == FOUR_DIGEST

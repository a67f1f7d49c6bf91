"""Exact fault-path tables: plans served from tables equal fresh ones.

:class:`~repro.core.schemes.SubpagePipelining` keeps, for a pure latency
model and a pure sequencer, one plan template per (subpage size,
faulted subpage, initial partner), built from the sequencer's validated
order; :class:`~repro.net.latency.CalibratedLatencyModel` keeps its
answers per size.  Every answer a table serves must be bitwise equal to
the arithmetic done from scratch, and every invalid input must still
raise on every call.
"""

import numpy as np
import pytest

from repro.core.plans import FaultContext
from repro.core.schemes import EagerFullPageFetch, SubpagePipelining
from repro.core.sequencers import NeighborSequencer, check_follow_on
from repro.errors import ConfigError, SchemeError
from repro.net.latency import CalibratedLatencyModel
from repro.net.params import ETHERNET_IDLE

PAGE = 8192
SIZES = (256, 512, 1024, 2048, 4096, 8192)
NOWS = (0.0, 10.0, 1234.5678, 1e5 / 3)

VARIANTS = {
    "eager": lambda: EagerFullPageFetch(),
    "pipelined": lambda: SubpagePipelining(),
    "double_initial": lambda: SubpagePipelining(double_initial=True),
    "segment2": lambda: SubpagePipelining(segment_subpages=2),
    "interrupt": lambda: SubpagePipelining(
        pipeline_count=3, interrupt_ms=0.05
    ),
    "all_variants": lambda: SubpagePipelining(
        double_initial=True, segment_subpages=2, interrupt_ms=0.05
    ),
    "ascending": lambda: SubpagePipelining(sequencer="ascending"),
}


class Fresh:
    """The calibrated answers computed anew on every call.

    Each question goes to a new :class:`CalibratedLatencyModel`, whose
    first answer is its interpolation arithmetic; having no ``pure``
    flag, it also keeps the schemes on their per-call path.
    """

    page_bytes = PAGE

    def __init__(self) -> None:
        model = CalibratedLatencyModel(PAGE)
        self.request_fixed_ms = model.request_fixed_ms
        self.receive_cpu_ms = model.receive_cpu_ms
        self.calls = 0

    def _ask(self, method: str, *args):
        self.calls += 1
        return getattr(CalibratedLatencyModel(PAGE), method)(*args)

    def subpage_latency_ms(self, subpage_bytes):
        return self._ask("subpage_latency_ms", subpage_bytes)

    def rest_of_page_ms(self, subpage_bytes):
        return self._ask("rest_of_page_ms", subpage_bytes)

    def fullpage_latency_ms(self):
        return self._ask("fullpage_latency_ms")

    def wire_time_ms(self, size_bytes):
        return self._ask("wire_time_ms", size_bytes)


def context(latency, size, faulted, block_offset, now):
    blocks = max(1, size // 256)
    return FaultContext(
        now_ms=now,
        page=7,
        faulted_subpage=faulted,
        faulted_block=faulted * blocks + block_offset,
        subpage_bytes=size,
        page_bytes=PAGE,
        latency=latency,
    )


def reference_plan(scheme, ctx, order, pipeline_count=None, direction=0):
    """Pipelined planning from scratch, one float operation at a time,
    as ``SubpagePipelining.plan_with_order`` did before its tables."""
    s = ctx.subpage_bytes
    if pipeline_count is None:
        pipeline_count = scheme.pipeline_count
    check_follow_on(ctx.faulted_subpage, order, ctx.subpages_per_page)
    initial = scheme.initial_subpages(ctx, direction)
    initial_bytes = s * len(initial)
    resume = ctx.now_ms + ctx.latency.subpage_latency_ms(initial_bytes)
    arrivals = {index: resume for index in initial}
    order = [index for index in order if index not in arrivals]
    wire_step = ctx.latency.wire_time_ms(s * scheme.segment_subpages)
    messages = 0
    t = resume
    while messages < pipeline_count and order:
        group, order = (
            order[: scheme.segment_subpages],
            order[scheme.segment_subpages:],
        )
        t += wire_step + scheme.interrupt_ms
        for index in group:
            arrivals[index] = t
        messages += 1
    last_pipelined = t
    if order:
        rest_base = ctx.now_ms + ctx.latency.rest_of_page_ms(s)
        trailing = max(
            rest_base + messages * scheme.interrupt_ms, last_pipelined
        )
        for index in order:
            arrivals[index] = trailing
    demand_wire = ctx.latency.wire_time_ms(initial_bytes)
    return (
        resume,
        arrivals,
        demand_wire,
        ctx.now_ms + ctx.latency.request_fixed_ms + demand_wire,
        ctx.latency.wire_time_ms(ctx.page_bytes - initial_bytes),
        messages * scheme.interrupt_ms,
    )


def bits(plan):
    """A plan's numbers as exact hex strings, arrivals in dict order."""
    if not isinstance(plan, tuple):
        plan = (
            plan.resume_ms,
            plan.arrivals_ms,
            plan.demand_wire_ms,
            plan.background_ready_ms,
            plan.background_wire_ms,
            plan.cpu_overhead_ms,
        )
    resume, arrivals, *rest = plan
    return (
        float(resume).hex(),
        [(index, float(t).hex()) for index, t in arrivals.items()],
        [float(x).hex() for x in rest],
    )


def scratch(scheme, ctx):
    """``scheme``'s plan for ``ctx`` computed without any table."""
    if isinstance(scheme, EagerFullPageFetch) or ctx.subpage_bytes >= PAGE:
        return EagerFullPageFetch().plan_fault(ctx)
    order = scheme.sequencer.order(ctx.faulted_subpage, ctx.subpages_per_page)
    return reference_plan(scheme, ctx, order)


class TestTablesAreExact:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("size", SIZES)
    def test_every_fault_bitwise_equal(self, variant, size):
        """Cold and warm table hits, every faulted subpage, both
        partner directions (faulted word in the first or last block
        of its subpage), several fault times."""
        scheme = VARIANTS[variant]()
        model = CalibratedLatencyModel(PAGE)
        fresh = Fresh()
        last_block = max(1, size // 256) - 1
        for _ in range(2):
            for faulted in range(PAGE // size):
                for offset in (0, last_block):
                    for now in NOWS:
                        want = bits(scratch(
                            scheme,
                            context(fresh, size, faulted, offset, now),
                        ))
                        got = scheme.plan_fault(
                            context(model, size, faulted, offset, now)
                        )
                        assert bits(got) == want
                        # The per-call path of an unflagged model too.
                        uncached = scheme.plan_fault(
                            context(fresh, size, faulted, offset, now)
                        )
                        assert bits(uncached) == want

    @pytest.mark.parametrize("variant", ["pipelined", "all_variants"])
    def test_predictor_orders_bitwise_equal(self, variant):
        """``plan_with_order`` with arbitrary valid orders, depths and
        directions, after ``plan_fault`` has filled the tables."""
        scheme = VARIANTS[variant]()
        model = CalibratedLatencyModel(PAGE)
        fresh = Fresh()
        rng = np.random.default_rng(5)
        for size in SIZES[:-1]:
            spp = PAGE // size
            for faulted in range(spp):
                scheme.plan_fault(context(model, size, faulted, 0, 1.0))
                others = [i for i in range(spp) if i != faulted]
                for _ in range(4):
                    order = rng.permutation(others).tolist()
                    order = order[: rng.integers(0, len(order) + 1)]
                    depth = int(rng.integers(0, 4))
                    direction = int(rng.choice([-1, 0, 1]))
                    now = float(rng.random() * 1e4)
                    want = reference_plan(
                        scheme,
                        context(fresh, size, faulted, 0, now),
                        list(order),
                        depth,
                        direction,
                    )
                    got = scheme.plan_with_order(
                        context(model, size, faulted, 0, now),
                        list(order),
                        pipeline_count=depth,
                        direction=direction,
                    )
                    assert bits(got) == bits(want)
                # The sequencer's own order at the configured depth, a
                # tuple as the static predictor passes it: table hits.
                order = tuple(scheme.sequencer.order(faulted, spp))
                for direction in (-1, 0, 1):
                    now = float(rng.random() * 1e4)
                    want = reference_plan(
                        scheme,
                        context(fresh, size, faulted, 0, now),
                        list(order),
                        direction=direction,
                    )
                    got = scheme.plan_with_order(
                        context(model, size, faulted, 0, now),
                        order,
                        direction=direction,
                    )
                    assert bits(got) == bits(want)

    def test_latency_and_wire_tables_exact(self):
        model = CalibratedLatencyModel(PAGE)
        for _ in range(2):
            for size in (*SIZES, 768, 3 * 1024, 7 * 1024):
                wire = CalibratedLatencyModel(PAGE).wire_time_ms(size)
                assert model.wire_time_ms(size).hex() == wire.hex()
                assert wire == size / model.link.bytes_per_ms
            for size in SIZES:
                fresh = Fresh()
                assert (
                    model.subpage_latency_ms(size).hex()
                    == fresh.subpage_latency_ms(size).hex()
                )
                assert (
                    model.rest_of_page_ms(size).hex()
                    == fresh.rest_of_page_ms(size).hex()
                )

    def test_tables_follow_the_model(self):
        """One scheme asked with two different pure models answers for
        each, not from the other's templates."""
        scheme = SubpagePipelining()
        atm = CalibratedLatencyModel(PAGE)
        ethernet = CalibratedLatencyModel(PAGE, link=ETHERNET_IDLE)
        for model in (atm, ethernet, atm):
            got = scheme.plan_fault(context(model, 1024, 3, 0, 5.0))
            assert got.demand_wire_ms == model.wire_time_ms(1024)
            assert got.background_wire_ms == model.wire_time_ms(7 * 1024)


class TestTablesStillRaise:
    @pytest.mark.parametrize("size", [3, 96, 3000])
    def test_invalid_size_raises_on_every_call(self, size):
        scheme = SubpagePipelining()
        model = CalibratedLatencyModel(PAGE)
        scheme.plan_fault(context(model, 1024, 0, 0, 1.0))
        for _ in range(3):
            with pytest.raises(ConfigError):
                scheme.plan_fault(context(model, size, 0, 0, 1.0))

    @pytest.mark.parametrize(
        "order, match",
        [([3, 4, 2], "faulting subpage"), ([4, 9], "outside"),
         ([4, 5, 4], "repeats")],
    )
    def test_bad_predictor_order_raises_on_every_call(self, order, match):
        scheme = SubpagePipelining()
        model = CalibratedLatencyModel(PAGE)
        ctx = context(model, 1024, 3, 0, 1.0)
        scheme.plan_fault(ctx)  # the template for this fault is warm
        for _ in range(3):
            with pytest.raises(SchemeError, match=match):
                scheme.plan_with_order(ctx, order)


class CountingNeighbor(NeighborSequencer):
    def __init__(self) -> None:
        self.calls = 0

    def order(self, faulted, subpages_per_page):
        self.calls += 1
        return super().order(faulted, subpages_per_page)


class Rotating(NeighborSequencer):
    """A stateful sequencer: each call rotates the neighbor order."""

    pure = False

    def __init__(self) -> None:
        self.calls = 0

    def order(self, faulted, subpages_per_page):
        out = super().order(faulted, subpages_per_page)
        self.calls += 1
        shift = self.calls % len(out)
        return out[shift:] + out[:shift]


class TestWhatIsTabled:
    def test_pure_sequencer_asked_once_per_fault_shape(self):
        sequencer = CountingNeighbor()
        scheme = SubpagePipelining(sequencer=sequencer)
        model = CalibratedLatencyModel(PAGE)
        for now in NOWS:
            for faulted in (1, 2):
                scheme.plan_fault(context(model, 1024, faulted, 0, now))
        assert sequencer.calls == 2

    def test_sequencer_order_from_predictor_served_from_table(self):
        sequencer = CountingNeighbor()
        scheme = SubpagePipelining(sequencer=sequencer)
        model = CalibratedLatencyModel(PAGE)
        order = tuple(NeighborSequencer().order(3, 8))
        for now in NOWS:
            scheme.plan_with_order(context(model, 1024, 3, 0, now), order)
        assert sequencer.calls == 1
        # Another order, or another depth, is planned afresh.
        fresh = Fresh()
        for other, depth in ((order[::-1], None), (order, 0)):
            got = scheme.plan_with_order(
                context(model, 1024, 3, 0, 1.0), other, depth
            )
            want = reference_plan(
                scheme, context(fresh, 1024, 3, 0, 1.0), list(other), depth
            )
            assert bits(got) == bits(want)
        assert sequencer.calls == 1

    def test_impure_sequencer_asked_on_every_fault(self):
        sequencer = Rotating()
        scheme = SubpagePipelining(sequencer=sequencer)
        check = Rotating()
        model = CalibratedLatencyModel(PAGE)
        fresh = Fresh()
        for now in NOWS:
            got = scheme.plan_fault(context(model, 1024, 3, 0, now))
            want = reference_plan(
                scheme, context(fresh, 1024, 3, 0, now), check.order(3, 8)
            )
            assert bits(got) == bits(want)
        assert sequencer.calls == len(NOWS)

    def test_unflagged_model_asked_on_every_fault(self):
        fresh = Fresh()
        scheme = SubpagePipelining()
        scheme.plan_fault(context(fresh, 1024, 3, 0, 1.0))
        per_plan = fresh.calls
        assert per_plan > 0
        scheme.plan_fault(context(fresh, 1024, 3, 0, 2.0))
        assert fresh.calls == 2 * per_plan

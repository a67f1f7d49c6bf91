"""The subpage fetch schemes (paper Section 2.1).

Every scheme answers a fault with a :class:`TransferPlan` expressed in
idle-network absolute times; the simulator afterwards applies link
congestion.  All latency numbers come from the context's
:class:`~repro.net.latency.LatencyModel`, i.e. from the prototype's
calibrated measurements by default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigError, SchemeError, UnknownSchemeError
from repro.core.plans import FaultContext, TransferPlan
from repro.core.sequencers import Sequencer, check_follow_on, make_sequencer
from repro.net.latency import LatencyModel


class FetchScheme(ABC):
    """Strategy for servicing a remote-memory page fault."""

    #: Registry name; subclasses override.
    name: str = "base"

    #: Optional per-run adaptive controller
    #: (:class:`repro.policy.adaptive.AdaptivePolicy`).  ``None`` for
    #: static schemes; the simulator feeds fault-path access
    #: observations and resets it between runs when present.
    controller = None

    @abstractmethod
    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        """Plan the transfers for a fault described by ``ctx``."""

    def label(self, subpage_bytes: int) -> str:
        """Short label used in result tables (e.g. ``sp_1024``)."""
        return f"{self.name}_{subpage_bytes}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class FullPageFetch(FetchScheme):
    """Baseline GMS behaviour: transfer the entire page, then resume."""

    name = "fullpage"

    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        resume = ctx.now_ms + ctx.latency.fullpage_latency_ms()
        arrivals = {i: resume for i in range(ctx.subpages_per_page)}
        return TransferPlan(
            resume_ms=resume,
            arrivals_ms=arrivals,
            demand_wire_ms=ctx.latency.wire_time_ms(ctx.page_bytes),
        )

    def label(self, subpage_bytes: int) -> str:
        return "p_8192" if subpage_bytes else "p"


class LazySubpageFetch(FetchScheme):
    """Transfer only the faulted subpage; fetch the rest on demand.

    "This is equivalent in many respects to simply reducing the page
    size" (Section 2.1).  Accesses to other subpages of the page fault
    individually (the simulator re-invokes the scheme per subpage).
    """

    name = "lazy"

    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        resume = ctx.now_ms + ctx.latency.subpage_latency_ms(
            ctx.subpage_bytes
        )
        return TransferPlan(
            resume_ms=resume,
            arrivals_ms={ctx.faulted_subpage: resume},
            demand_wire_ms=ctx.latency.wire_time_ms(ctx.subpage_bytes),
        )


class EagerFullPageFetch(FetchScheme):
    """Transfer the faulted subpage, resume, ship the rest as one message.

    The remainder's request overlaps the subpage's wire time on the
    server, and the subpage's receive overlaps the remainder's wire time
    on the faulting node (Section 3.2) — both effects are baked into the
    calibrated rest-of-page latency (Table 2).
    """

    name = "eager"

    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        s = ctx.subpage_bytes
        if s >= ctx.page_bytes:
            return FullPageFetch().plan_fault(ctx)
        resume = ctx.now_ms + ctx.latency.subpage_latency_ms(s)
        rest = ctx.now_ms + ctx.latency.rest_of_page_ms(s)
        arrivals = {i: rest for i in range(ctx.subpages_per_page)}
        arrivals[ctx.faulted_subpage] = resume
        demand_wire = ctx.latency.wire_time_ms(s)
        return TransferPlan(
            resume_ms=resume,
            arrivals_ms=arrivals,
            demand_wire_ms=demand_wire,
            # The rest rides the wire right behind the subpage; the
            # calibrated rest-of-page latency already accounts for that
            # serialization, so the background's nominal wire slot starts
            # where the demand's ends.
            background_ready_ms=ctx.now_ms
            + ctx.latency.request_fixed_ms
            + demand_wire,
            background_wire_ms=ctx.latency.wire_time_ms(ctx.page_bytes - s),
        )

    def label(self, subpage_bytes: int) -> str:
        return f"sp_{subpage_bytes}"


@dataclass(slots=True)
class _PlanTemplate:
    """The part of a pipelined plan that does not depend on ``now_ms``.

    :meth:`plan` adds the fault time back with the float operations,
    and in the order, that planning from scratch performs — so a
    template's plan is bitwise equal to a fresh one.
    """

    order: tuple[int, ...]               # the follow-on order used
    latency_ms: float                    # initial fetch latency
    initial: tuple[int, ...]             # subpages of the demand fetch
    groups: tuple[tuple[int, ...], ...]  # the pipelined messages
    step_ms: float                       # wire step + interrupt
    trailing: tuple[int, ...]            # the one trailing message
    rest_ms: float                       # rest-of-page latency
    cpu_ms: float                        # messages * interrupt
    request_fixed_ms: float
    demand_wire_ms: float
    background_wire_ms: float

    def plan(self, now: float) -> TransferPlan:
        resume = now + self.latency_ms
        arrivals = dict.fromkeys(self.initial, resume)
        t = resume
        step = self.step_ms
        for group in self.groups:
            t += step
            for index in group:
                arrivals[index] = t
        if self.trailing:
            trailing = max(now + self.rest_ms + self.cpu_ms, t)
            for index in self.trailing:
                arrivals[index] = trailing
        return TransferPlan(
            resume_ms=resume,
            arrivals_ms=arrivals,
            demand_wire_ms=self.demand_wire_ms,
            background_ready_ms=now
            + self.request_fixed_ms
            + self.demand_wire_ms,
            background_wire_ms=self.background_wire_ms,
            cpu_overhead_ms=self.cpu_ms,
        )


class SubpagePipelining(FetchScheme):
    """Eager fetch with individually pipelined follow-on subpages.

    After the faulted subpage, the first ``pipeline_count`` groups of
    ``segment_subpages`` subpages (in the sequencer's predicted access
    order) are shipped as separate small messages — each arriving one
    wire-time (plus any per-message receiver cost) after the previous —
    and the remainder of the page follows in one message.

    Parameters
    ----------
    sequencer:
        Transfer-order policy; the paper's evaluated scheme is the
        ``"neighbor"`` (+1, -1) order (Section 4.3).
    pipeline_count:
        Number of individually pipelined messages (paper: 2).
    segment_subpages:
        Subpages per pipelined message; 2 reproduces the paper's "doubled
        follow-on transfer" variant.
    interrupt_ms:
        Receiver-CPU cost per pipelined message.  0 models the paper's
        idealized controller (its simulated results); the AN2 prototype's
        measured costs are in
        :data:`repro.net.calibration.PAPER_PIPELINE_INTERRUPT_MS`.
    double_initial:
        Reproduces the paper's other variant: fetch two subpages on the
        initial fault, choosing the preceding or following neighbor
        depending on where in the subpage the faulted word lies.
    """

    name = "pipelined"

    def __init__(
        self,
        sequencer: str | Sequencer = "neighbor",
        pipeline_count: int = 2,
        segment_subpages: int = 1,
        interrupt_ms: float = 0.0,
        double_initial: bool = False,
    ) -> None:
        if pipeline_count < 0:
            raise ConfigError("pipeline_count cannot be negative")
        if segment_subpages < 1:
            raise ConfigError("segment_subpages must be >= 1")
        if interrupt_ms < 0:
            raise ConfigError("interrupt_ms cannot be negative")
        self.sequencer = make_sequencer(sequencer)
        self.pipeline_count = pipeline_count
        self.segment_subpages = segment_subpages
        self.interrupt_ms = interrupt_ms
        self.double_initial = double_initial
        # Plan templates (the work that does not depend on ``now_ms``)
        # per (subpage size, page size, faulted, partner), kept only
        # for a pure sequencer and the one pure latency model they were
        # built from.
        self._tables_model: LatencyModel | None = None
        self._templates: dict[tuple[int, int, int, int], _PlanTemplate] = {}

    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        s = ctx.subpage_bytes
        spp = ctx.subpages_per_page
        if s >= ctx.page_bytes or spp == 1:
            return FullPageFetch().plan_fault(ctx)
        partner = self._initial_partner(ctx) if self.double_initial else -1
        template = self._tabled(ctx, partner)
        if template is None:
            template = self._sequenced(ctx, partner)
        return template.plan(ctx.now_ms)

    def plan_with_order(
        self,
        ctx: FaultContext,
        order: list[int],
        pipeline_count: int | None = None,
        direction: int = 0,
    ) -> TransferPlan:
        """Plan a fault with an externally supplied follow-on order.

        The adaptive policy layer's entry point: ``order`` is the
        predicted access order for the page's other subpages (validated
        against the sequencer contract — see
        :func:`repro.core.sequencers.check_follow_on` — on every call),
        ``pipeline_count`` overrides the configured depth for this one
        fault, and a nonzero ``direction`` steers the doubled initial
        fetch's neighbor choice (Section 4.3) instead of the
        faulted-block-offset heuristic.  Arithmetic is identical to
        :meth:`plan_fault`'s with the sequencer's order and the
        configured depth, and that case is served from the same
        template table.
        """
        s = ctx.subpage_bytes
        spp = ctx.subpages_per_page
        if s >= ctx.page_bytes or spp == 1:
            return FullPageFetch().plan_fault(ctx)
        if pipeline_count is None:
            pipeline_count = self.pipeline_count
        faulted = ctx.faulted_subpage
        partner = (
            self._initial_partner(ctx, direction)
            if self.double_initial else -1
        )
        if pipeline_count == self.pipeline_count:
            # A prediction that is the sequencer's own order (the
            # static predictor's) is served from the table: being equal
            # to that validated order is its validation.
            template = self._tabled(ctx, partner)
            if template is not None and template.order == tuple(order):
                return template.plan(ctx.now_ms)
        check_follow_on(faulted, order, spp)
        template = self._template(
            ctx.latency, s, ctx.page_bytes, faulted, partner, order,
            pipeline_count,
        )
        return template.plan(ctx.now_ms)

    def _tabled(
        self, ctx: FaultContext, partner: int
    ) -> _PlanTemplate | None:
        """The table's template for this fault with the sequencer's
        order and the configured depth, built on first use; ``None``
        unless both the latency model and the sequencer are pure."""
        latency = ctx.latency
        if not (getattr(latency, "pure", False) and self.sequencer.pure):
            return None
        if latency is not self._tables_model:
            self._tables_model = latency
            self._templates = {}
        key = (ctx.subpage_bytes, ctx.page_bytes, ctx.faulted_subpage, partner)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = self._sequenced(ctx, partner)
        return template

    def _sequenced(self, ctx: FaultContext, partner: int) -> _PlanTemplate:
        """A fresh template with the sequencer's validated order and the
        configured depth."""
        faulted = ctx.faulted_subpage
        spp = ctx.subpages_per_page
        order = self.sequencer.order(faulted, spp)
        check_follow_on(faulted, order, spp)
        return self._template(
            ctx.latency, ctx.subpage_bytes, ctx.page_bytes, faulted,
            partner, order, self.pipeline_count,
        )

    def _template(
        self,
        latency: LatencyModel,
        s: int,
        page_bytes: int,
        faulted: int,
        partner: int,
        order: list[int],
        pipeline_count: int,
    ) -> _PlanTemplate:
        """Everything in a fault's plan that does not depend on when it
        happens, asking ``latency`` in the order the plan needs it."""
        initial = (faulted,) if partner < 0 else (faulted, partner)
        initial_bytes = s * len(initial)
        latency_ms = latency.subpage_latency_ms(initial_bytes)

        follow = [index for index in order if index not in initial]
        segment = self.segment_subpages
        step_ms = latency.wire_time_ms(s * segment) + self.interrupt_ms
        groups = []
        while len(groups) < pipeline_count and follow:
            groups.append(tuple(follow[:segment]))
            follow = follow[segment:]
        messages = len(groups)

        rest_ms = latency.rest_of_page_ms(s) if follow else 0.0
        demand_wire_ms = latency.wire_time_ms(initial_bytes)
        return _PlanTemplate(
            order=tuple(order),
            latency_ms=latency_ms,
            initial=initial,
            groups=tuple(groups),
            step_ms=step_ms,
            trailing=tuple(follow),
            rest_ms=rest_ms,
            cpu_ms=messages * self.interrupt_ms,
            request_fixed_ms=latency.request_fixed_ms,
            demand_wire_ms=demand_wire_ms,
            background_wire_ms=latency.wire_time_ms(
                page_bytes - initial_bytes
            ),
        )

    def initial_subpages(
        self, ctx: FaultContext, direction: int = 0
    ) -> list[int]:
        """Subpages shipped with the initial (demand) fetch."""
        initial = [ctx.faulted_subpage]
        if self.double_initial and ctx.subpages_per_page >= 2:
            initial.append(self._initial_partner(ctx, direction))
        return initial

    def _initial_partner(self, ctx: FaultContext, direction: int = 0) -> int:
        """Neighbor to ride along with the initial fetch (direction by
        where in the subpage the faulted block lies, unless a predictor
        supplies a nonzero ``direction``)."""
        if direction:
            prefer_next = direction > 0
        else:
            blocks_per_subpage = max(1, ctx.subpage_bytes // 256)
            offset = ctx.faulted_block % blocks_per_subpage
            prefer_next = offset >= blocks_per_subpage / 2
        candidates = (
            (ctx.faulted_subpage + 1, ctx.faulted_subpage - 1)
            if prefer_next
            else (ctx.faulted_subpage - 1, ctx.faulted_subpage + 1)
        )
        for candidate in candidates:
            if ctx.subpage_exists(candidate):
                return candidate
        raise SchemeError("page has no neighbor subpage")  # pragma: no cover

    def label(self, subpage_bytes: int) -> str:
        return f"pl_{subpage_bytes}"


_SCHEMES: dict[str, type[FetchScheme]] = {
    FullPageFetch.name: FullPageFetch,
    LazySubpageFetch.name: LazySubpageFetch,
    EagerFullPageFetch.name: EagerFullPageFetch,
    SubpagePipelining.name: SubpagePipelining,
}

_PLUGINS_LOADED = False


def _ensure_plugin_schemes() -> None:
    """Import the scheme modules that register themselves.

    :mod:`repro.policy.adaptive` registers the ``"adaptive"``
    meta-scheme; it imports this module for :class:`FetchScheme`, so the
    import has to happen lazily here rather than at module top level.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED:
        return
    _PLUGINS_LOADED = True
    import repro.policy.adaptive  # noqa: F401  (registers "adaptive")


def register_scheme(cls: type[FetchScheme]) -> type[FetchScheme]:
    """Register a :class:`FetchScheme` subclass under its ``name``."""
    if not cls.name or cls.name == "base":
        raise ConfigError(f"scheme class {cls.__name__} needs a name")
    _SCHEMES[cls.name] = cls
    return cls


def scheme_names() -> tuple[str, ...]:
    _ensure_plugin_schemes()
    return tuple(sorted(_SCHEMES))


def make_scheme(spec: str | FetchScheme, **kwargs) -> FetchScheme:
    """Build a scheme from its registry name (or pass an instance through).

    Keyword arguments are forwarded to the scheme constructor, e.g.
    ``make_scheme("pipelined", pipeline_count=4)``.
    """
    if isinstance(spec, FetchScheme):
        if kwargs:
            raise ConfigError(
                "cannot pass constructor arguments with a scheme instance"
            )
        return spec
    _ensure_plugin_schemes()
    try:
        cls = _SCHEMES[spec]
    except KeyError:
        known = ", ".join(scheme_names())
        raise UnknownSchemeError(
            f"unknown scheme {spec!r}; known schemes: {known}"
        ) from None
    return cls(**kwargs)

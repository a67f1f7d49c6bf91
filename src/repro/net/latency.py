"""Latency models consumed by the fetch schemes and the simulator.

The simulator models a remote fault with three components — request time,
on-the-wire time, and receive time (paper Section 3.2).  A
:class:`LatencyModel` answers the questions the schemes need:

* how long until the program resumes after faulting a subpage of size *s*
  (**subpage latency**, Table 2 column 2);
* how long until the whole page has arrived under eager fullpage fetch
  (**rest-of-page latency**, Table 2 column 3);
* the fullpage (no-subpage) fault latency;
* pure wire time for arbitrary sizes, for congestion accounting and for
  spacing pipelined subpage arrivals.

:class:`CalibratedLatencyModel` interpolates the paper's published
prototype medians — exactly the constants the authors fed their own
simulator.  :class:`AnalyticLatencyModel` derives the same quantities from
the five-resource timeline model (useful off the calibrated grid), and
:class:`ScaledLatencyModel` rescales the transfer-dependent component for
the network-speed sensitivity ablation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.net import calibration
from repro.net.params import AN2_ATM, LinkParams
from repro.net.timeline import TimelineParams, simulate_fetch
from repro.units import FULL_PAGE_BYTES, is_power_of_two


@runtime_checkable
class LatencyModel(Protocol):
    """What the fetch schemes need to know about the network."""

    page_bytes: int
    request_fixed_ms: float
    receive_cpu_ms: float

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        """Fault to program-resume time for an initial subpage fetch."""
        ...

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        """Fault to whole-page-arrived time under eager fullpage fetch."""
        ...

    def fullpage_latency_ms(self) -> float:
        """Fault to resume for a monolithic fullpage fetch."""
        ...

    def wire_time_ms(self, size_bytes: int) -> float:
        """Pure on-the-wire time for ``size_bytes``."""
        ...


def _check_subpage(subpage_bytes: int, page_bytes: int) -> None:
    if not is_power_of_two(subpage_bytes):
        raise ConfigError(
            f"subpage size must be a power of two, got {subpage_bytes}"
        )
    if subpage_bytes > page_bytes:
        raise ConfigError(
            f"subpage size {subpage_bytes} exceeds page size {page_bytes}"
        )


class CalibratedLatencyModel:
    """Latency model built on the paper's Table 2 prototype medians.

    Latencies for the five measured subpage sizes are returned exactly;
    other sizes are interpolated linearly in size (and extrapolated from
    the nearest pair at the ends, clamped below by the fixed request
    cost).  Every fault looks these answers up, and they depend on
    their arguments alone, so each is computed once per valid size and
    then served from a per-model table; an invalid size is never
    stored, so it raises on every call.
    """

    #: Answers depend on the arguments alone, so a caller may keep them
    #: (and arithmetic on them) in its own tables.  A model without this
    #: flag is asked again on every call.
    pure = True

    def __init__(
        self,
        page_bytes: int = FULL_PAGE_BYTES,
        link: LinkParams = AN2_ATM,
    ) -> None:
        if not is_power_of_two(page_bytes):
            raise ConfigError(f"page size {page_bytes} not a power of two")
        self.page_bytes = page_bytes
        self.link = link
        self.request_fixed_ms = calibration.PAPER_REQUEST_FIXED_MS
        self.receive_cpu_ms = calibration.PAPER_RECEIVE_CPU_MS
        self._sizes = [r.subpage_bytes for r in calibration.PAPER_TABLE2]
        self._sub = [r.subpage_latency_ms for r in calibration.PAPER_TABLE2]
        self._rest = [r.rest_of_page_ms for r in calibration.PAPER_TABLE2]
        if page_bytes >= calibration.PAPER_TABLE2[-1].subpage_bytes * 2:
            self._fullpage = calibration.PAPER_FULLPAGE_MS
        else:
            # A small-page system: faulting a whole (small) page costs
            # what the prototype measured for a transfer of that size.
            self._fullpage = max(
                _interp(page_bytes, self._sizes, self._sub),
                calibration.PAPER_REQUEST_FIXED_MS,
            )
        self._sub_table: dict[int, float] = {}
        self._rest_table: dict[int, float] = {}
        self._wire_table: dict[int, float] = {}

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        value = self._sub_table.get(subpage_bytes)
        if value is None:
            _check_subpage(subpage_bytes, self.page_bytes)
            if subpage_bytes >= self.page_bytes:
                value = self._fullpage
            else:
                value = max(
                    _interp(subpage_bytes, self._sizes, self._sub),
                    self.request_fixed_ms,
                )
            self._sub_table[subpage_bytes] = value
        return value

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        value = self._rest_table.get(subpage_bytes)
        if value is None:
            _check_subpage(subpage_bytes, self.page_bytes)
            if subpage_bytes >= self.page_bytes:
                value = self._fullpage
            else:
                value = max(
                    _interp(subpage_bytes, self._sizes, self._rest),
                    self.subpage_latency_ms(subpage_bytes),
                )
            self._rest_table[subpage_bytes] = value
        return value

    def fullpage_latency_ms(self) -> float:
        return self._fullpage

    def wire_time_ms(self, size_bytes: int) -> float:
        value = self._wire_table.get(size_bytes)
        if value is None:
            value = self.link.wire_time_ms(size_bytes)
            self._wire_table[size_bytes] = value
        return value


class AnalyticLatencyModel:
    """Latency model derived from the five-resource timeline simulation."""

    def __init__(
        self,
        params: TimelineParams | None = None,
        page_bytes: int = FULL_PAGE_BYTES,
        link: LinkParams = AN2_ATM,
    ) -> None:
        if not is_power_of_two(page_bytes):
            raise ConfigError(f"page size {page_bytes} not a power of two")
        self.params = params if params is not None else TimelineParams()
        self.page_bytes = page_bytes
        self.link = link
        self.request_fixed_ms = self.params.request_fixed_ms
        self.receive_cpu_ms = self.params.recv_fixed_ms
        self._fetch = lru_cache(maxsize=64)(self._fetch_uncached)

    def _fetch_uncached(self, subpage_bytes: int):
        scheme = "fullpage" if subpage_bytes >= self.page_bytes else "eager"
        return simulate_fetch(
            self.params, self.page_bytes, subpage_bytes, scheme=scheme
        )

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        _check_subpage(subpage_bytes, self.page_bytes)
        return self._fetch(subpage_bytes).resume_ms

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        _check_subpage(subpage_bytes, self.page_bytes)
        return self._fetch(subpage_bytes).completion_ms

    def fullpage_latency_ms(self) -> float:
        return self._fetch(self.page_bytes).completion_ms

    def wire_time_ms(self, size_bytes: int) -> float:
        if size_bytes < 0:
            raise ConfigError("size cannot be negative")
        return size_bytes * self.params.wire_ms_per_kb / 1024.0


class ScaledLatencyModel:
    """A base model with its transfer-dependent component rescaled.

    ``speedup`` > 1 models a faster network relative to CPU/memory speed:
    the fixed request cost (software) is unchanged while everything that
    scales with bytes moved — DMA, wire, copy — shrinks by the factor.
    Used for the network-speed sensitivity ablation (the paper's
    conclusion: "we might expect that [optimal] size to decrease in the
    future ... as the ratio of network speed to memory speed increases").
    """

    def __init__(self, base: LatencyModel, speedup: float) -> None:
        if speedup <= 0:
            raise ConfigError("speedup must be positive")
        self._base = base
        self.speedup = speedup
        self.page_bytes = base.page_bytes
        self.request_fixed_ms = base.request_fixed_ms
        self.receive_cpu_ms = base.receive_cpu_ms / speedup

    def _scale(self, total_ms: float) -> float:
        transfer = max(0.0, total_ms - self._base.request_fixed_ms)
        return self._base.request_fixed_ms + transfer / self.speedup

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        return self._scale(self._base.subpage_latency_ms(subpage_bytes))

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        return self._scale(self._base.rest_of_page_ms(subpage_bytes))

    def fullpage_latency_ms(self) -> float:
        return self._scale(self._base.fullpage_latency_ms())

    def wire_time_ms(self, size_bytes: int) -> float:
        return self._base.wire_time_ms(size_bytes) / self.speedup


class FixedOverheadLatencyModel:
    """A base model with its *fixed* (per-fault software) cost rescaled.

    Section 2.2 asks "To what extent is this benefit affected by the
    value of the fixed overheads?"  Every latency this model returns is
    the base model's transfer component plus ``factor`` times the base
    model's fixed request cost, so the software overhead of fault
    handling, page lookup, and request messaging can be swept
    independently of wire speed.
    """

    def __init__(self, base: LatencyModel, factor: float) -> None:
        if factor < 0:
            raise ConfigError("overhead factor cannot be negative")
        self._base = base
        self.factor = factor
        self.page_bytes = base.page_bytes
        self.request_fixed_ms = base.request_fixed_ms * factor
        self.receive_cpu_ms = base.receive_cpu_ms

    def _adjust(self, total_ms: float) -> float:
        transfer = max(0.0, total_ms - self._base.request_fixed_ms)
        return self.request_fixed_ms + transfer

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        return self._adjust(self._base.subpage_latency_ms(subpage_bytes))

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        return self._adjust(self._base.rest_of_page_ms(subpage_bytes))

    def fullpage_latency_ms(self) -> float:
        return self._adjust(self._base.fullpage_latency_ms())

    def wire_time_ms(self, size_bytes: int) -> float:
        return self._base.wire_time_ms(size_bytes)


def _interp(x: float, xs: list[int], ys: list[float]) -> float:
    """Piecewise-linear interpolation with linear end extrapolation."""
    if not xs:
        raise ConfigError("empty interpolation table")
    if len(xs) == 1:
        return ys[0]
    if x <= xs[0]:
        lo, hi = 0, 1
    elif x >= xs[-1]:
        lo, hi = len(xs) - 2, len(xs) - 1
    else:
        hi = next(i for i, v in enumerate(xs) if v >= x)
        lo = hi - 1
        if xs[hi] == x:
            return ys[hi]
    slope = (ys[hi] - ys[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + slope * (x - xs[lo])

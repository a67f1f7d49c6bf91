"""Phased workload composition.

A :class:`Workload` is a list of :class:`Phase` objects executed in order.
Each phase interleaves one or more ``(region, pattern)`` components.  Phase
boundaries that shift the set of touched regions are what produce the
bursts of page faults the paper observes at program phase changes
(Section 4.2, Figures 6 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.trace.compress import RunTrace, compress_references, concatenate
from repro.trace.synth.patterns import AccessPattern
from repro.trace.synth.regions import Region

#: Writes are emitted in contiguous stretches of this many references so
#: that write/read flips do not shatter run-length compression.
WRITE_STRETCH = 32


@dataclass(frozen=True, slots=True)
class PhaseComponent:
    """One strand of a phase: a pattern over a region with a weight."""

    region: Region
    pattern: AccessPattern
    weight: float = 1.0
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("component weight must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class Phase:
    """A program phase: ``refs`` references split across components.

    ``interleave_chunk`` is the granularity (in references) at which the
    components are woven together; small chunks model tight loops touching
    several structures, large chunks model distinct passes.
    """

    name: str
    refs: int
    components: tuple[PhaseComponent, ...]
    interleave_chunk: int = 256

    def __post_init__(self) -> None:
        if self.refs < 0:
            raise ConfigError(f"phase {self.name!r}: refs must be >= 0")
        if not self.components:
            raise ConfigError(f"phase {self.name!r}: needs >= 1 component")
        if self.interleave_chunk <= 0:
            raise ConfigError(
                f"phase {self.name!r}: interleave_chunk must be positive"
            )

    def generate(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (addresses, writes) arrays for this phase."""
        if self.refs == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

        weights = np.array([c.weight for c in self.components], dtype=float)
        shares = weights / weights.sum()
        counts = np.floor(shares * self.refs).astype(int)
        counts[0] += self.refs - int(counts.sum())

        streams = []
        for component, count in zip(self.components, counts):
            addrs = component.pattern.generate(
                component.region, int(count), rng
            )
            writes = _write_stretches(
                int(count), component.write_fraction, rng
            )
            streams.append((addrs, writes))

        if len(streams) == 1:
            return streams[0]
        return _interleave(streams, self.interleave_chunk, rng)


@dataclass(slots=True)
class Workload:
    """An ordered sequence of phases that builds into a :class:`RunTrace`."""

    name: str
    phases: list[Phase] = field(default_factory=list)
    page_bytes: int = 8192
    block_bytes: int = 256
    dilation: float = 1.0

    def add(self, phase: Phase) -> "Workload":
        self.phases.append(phase)
        return self

    @property
    def total_refs(self) -> int:
        return sum(p.refs for p in self.phases)

    def build(self, seed: int = 0) -> RunTrace:
        """Generate and compress the phases in order, then join them.

        Each phase's raw address stream is compressed as soon as it is
        generated, so only one phase's references are alive at a time
        rather than the whole workload's (a ~100 MB transient for a
        full-scale app, which left the heap fragmented long after the
        trace was built).  :func:`~repro.trace.compress.concatenate`
        merges the runs that meet at a phase seam, so the result is the
        trace that compressing the concatenated stream would give, bit
        for bit.
        """
        if not self.phases:
            raise ConfigError(f"workload {self.name!r} has no phases")
        rng = np.random.default_rng(seed)
        parts: list[RunTrace] = []
        for phase in self.phases:
            addrs, writes = phase.generate(rng)
            parts.append(
                compress_references(
                    addrs,
                    writes,
                    page_bytes=self.page_bytes,
                    block_bytes=self.block_bytes,
                    dilation=self.dilation,
                    name=self.name,
                )
            )
            del addrs, writes
        return concatenate(parts, name=self.name)


def _write_stretches(
    n: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Mark ~``fraction`` of ``n`` refs as writes, in contiguous stretches."""
    writes = np.zeros(n, dtype=bool)
    if fraction <= 0.0 or n == 0:
        return writes
    if fraction >= 1.0:
        writes[:] = True
        return writes
    stretches = max(1, round(n * fraction / WRITE_STRETCH))
    starts = rng.integers(0, max(1, n - WRITE_STRETCH), size=stretches)
    for start in starts:
        writes[start : start + WRITE_STRETCH] = True
    return writes


def _interleave(
    streams: list[tuple[np.ndarray, np.ndarray]],
    chunk: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Weave several (addresses, writes) streams together chunk by chunk.

    Chunks are drawn from the streams in a randomized round-robin whose
    draw probabilities match the remaining lengths, so the mix stays
    roughly proportional throughout the phase.
    """
    # Random merge preserving each stream's internal chunk order, so a
    # sequential scan stays temporally sequential even when interleaved
    # with other strands.
    chunk_counts = [-(-len(addrs) // chunk) for addrs, _ in streams]
    turn_order = np.concatenate(
        [np.full(c, i, dtype=np.int64) for i, c in enumerate(chunk_counts)]
    )
    rng.shuffle(turn_order)
    cursors = [0] * len(streams)
    addr_out: list[np.ndarray] = []
    write_out: list[np.ndarray] = []
    for idx in turn_order:
        start = cursors[idx]
        stop = min(start + chunk, len(streams[idx][0]))
        cursors[idx] = stop
        addr_out.append(streams[idx][0][start:stop])
        write_out.append(streams[idx][1][start:stop])
    return np.concatenate(addr_out), np.concatenate(write_out)

"""The fused batch engine's multi-lane clock kernel.

The fused engine (:func:`repro.sim.batch.drive_fused`) advances the
clocks of N cells over every boring span with the same left-to-right
float64 addition chain the reference loop performs per cell.  That
multi-lane prefix sum is the one genuinely compute-bound piece of the
fused loop: :func:`accumulate_lanes` runs it as a chunked 2-D
``np.add.accumulate`` along the span axis, one independent lane per
cell, seeded per lane so every lane's chain is bit-identical to its
scalar equivalent.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accumulate_lanes",
    "kernel_name",
]

#: Span-axis chunk cap.  The multi-lane chunk is sized from
#: :data:`_SCRATCH_DOUBLES` instead; this cap bounds the chunk for very
#: small lane counts and names the "spans longer than this are split"
#: contract the tests exercise.
_CHUNK = 65536

#: Target size (in float64 slots) of the multi-lane scratch buffer:
#: ~192 KB, small enough to stay L2-resident.  The accumulate pass
#: re-reads and re-writes every scratch row; keeping the buffer in
#: cache (rather than streaming a multi-MB buffer through DRAM) is
#: worth ~2x on wide spans, and chunk splits are exact (a left-to-right
#: addition chain split at any prefix composes bitwise).
_SCRATCH_DOUBLES = 24576

#: lanes -> reusable ``(chunk+1, pairs)`` complex scratch.  Per-process
#: (workers are processes, no threads share the fused loop), rewritten
#: from row 0 on every call, and never aliased by a return value.
_scratch: dict[int, np.ndarray] = {}


def accumulate_lanes(
    prods: np.ndarray, i: int, j: int, seeds: np.ndarray
) -> np.ndarray:
    """Per-lane seeded prefix sum over ``prods[i:j]``; returns each
    lane's final clock.

    Lane ``r`` computes ``(((seeds[r] + prods[i]) + prods[i+1]) + ...)``
    — the exact chain the reference loop's per-run
    ``clock += count * event_ms`` performs, because float64 addition is
    done in the same order with the same operands.  Lanes never mix.

    The accumulate is latency-bound (every add depends on the previous
    one), so adjacent lanes are packed into one ``complex128`` lane:
    complex addition adds the real and imag components *independently*,
    each with an ordinary IEEE-754 float64 add — no reassociation, no
    cross-component arithmetic — which halves the number of serial
    chain steps without changing a single bit of any lane's result.
    In memory a complex128 is its two float64 components back to back,
    so a float64 view of the scratch addresses lane ``r`` directly at
    column ``r``.
    """
    lanes = seeds.shape[0]
    if lanes == 1:
        # Single cell: one 1-D chain, no 2-D scratch.
        seg = prods[i:j].copy()
        seg[0] += seeds[0]
        np.add.accumulate(seg, out=seg)
        return seg[-1:].copy()
    pairs = (lanes + 1) // 2
    chunk = min(_CHUNK, max(512, _SCRATCH_DOUBLES // (2 * pairs)))
    buf = _scratch.get(lanes)
    if buf is None or buf.shape[0] < chunk + 1:
        buf = _scratch[lanes] = np.empty(
            (chunk + 1, pairs), dtype=np.complex128
        )
    out = seeds.astype(np.float64, copy=True)
    for s in range(i, j, chunk):
        e = min(j, s + chunk)
        seg = buf[: e - s + 1]
        segf = seg.view(np.float64)
        # Row 0 carries the incoming clocks so one accumulate pass
        # yields every lane's seeded chain for the chunk; the odd
        # pad slot (when lanes is odd) is seeded with 0 and ignored.
        segf[0, :lanes] = out
        segf[0, lanes:] = 0.0
        segf[1:] = prods[s:e, None]
        np.add.accumulate(seg, axis=0, out=seg)
        out[:] = segf[-1, :lanes]
    return out


def kernel_name() -> str:
    """The clock kernel's name, as recorded in benchmark environments."""
    return "numpy"

"""The fused engine's clock kernel: bitwise identity per lane.

The contract is that ``accumulate_lanes`` performs each lane's float64
addition chain in exactly the reference loop's order.
"""

import numpy as np

from repro.sim import kernels
from repro.sim.kernels import accumulate_lanes


def scalar_chain(prods, i, j, clock):
    """The reference loop's per-run ``clock += count * event_ms``."""
    for p in prods[i:j].tolist():
        clock += p
    return clock


class TestNumpyTier:
    def test_matches_scalar_chain_per_lane(self):
        rng = np.random.default_rng(3)
        prods = rng.uniform(1e-3, 1e3, 5000)
        seeds = rng.uniform(0.0, 1e6, 7)
        got = accumulate_lanes(prods, 123, 4567, seeds.copy())
        for lane, seed in enumerate(seeds):
            want = seed
            for k in range(123, 4567):
                want = want + prods[k]
            assert got[lane] == want  # bitwise: same chain, same order

    def test_matches_scalar_chain_single_lane(self):
        rng = np.random.default_rng(4)
        prods = rng.uniform(1e-3, 1e3, 1000)
        seeds = np.array([17.25])
        got = accumulate_lanes(prods, 0, 1000, seeds.copy())
        assert got[0] == scalar_chain(prods, 0, 1000, 17.25)

    def test_chunk_boundaries_compose(self):
        # A span longer than the chunk must chain across chunks with no
        # reordering: compare against one whole-span scalar chain.
        n = kernels._CHUNK * 2 + 77
        rng = np.random.default_rng(5)
        prods = rng.uniform(1e-6, 1e6, n)
        seeds = rng.uniform(0.0, 1e9, 3)
        got = accumulate_lanes(prods, 5, n - 5, seeds.copy())
        for lane, seed in enumerate(seeds):
            assert got[lane] == scalar_chain(prods, 5, n - 5, float(seed))

    def test_does_not_mutate_prods(self):
        prods = np.linspace(0.5, 1.5, 300)
        before = prods.copy()
        accumulate_lanes(prods, 0, 300, np.array([1.0, 2.0]))
        assert np.array_equal(prods, before)

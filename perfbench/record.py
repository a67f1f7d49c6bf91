"""Record the output digests the benchmark checks its sweeps against.

Run from the root of a checkout whose results are known good::

    python3 perfbench/record.py --seeds 0-15
    python3 perfbench/record.py --seeds 3 --workload tenants

For every seeded workload and seed it runs the sweep the benchmark times
and the workload's independent cross-check (``engine="reference"`` for
the grids, the sequential multi-node path for one-tenant cells), and
refuses to record a seed on which the two disagree.  ``paper_figs`` is
recorded for seed 0 only, the registry's fixed trace seed.  Digests are
merged into ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, ROOT, pin_environment


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    path = HERE / "digests.json"
    recorded = json.loads(path.read_text())
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds if workload.seeded else [0]:
            workload.setup(seed)
            digests = workload.sweep(workload.fresh(), None, None).digests
            independent = workload.cross_check()
            wrong = sorted(
                key for key, value in independent.items()
                if digests.get(key) != value
            )
            if wrong:
                print(f"{name} seed {seed}: {len(wrong)} outputs differ "
                      f"from the cross-check, e.g. {wrong[0]}; not recorded",
                      file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} outputs, "
                  f"{len(independent)} cross-checked")
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

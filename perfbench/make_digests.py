"""Regenerate ``digests.json``: the committed output digests per
workload and seed that ``run.py`` checks every cell against.

Run from the repository root::

    python3 perfbench/make_digests.py

It rewrites the whole table, for seeds 0-31 of every workload.  Only a
change that is *meant* to alter simulated outputs may rewrite it; a
change that claims speed must leave it untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SEEDS = range(32)


def main() -> int:
    from perfbench.cells import DIGESTS_PATH, WORKLOADS, digest, make_cells
    from repro.perf.pool import run_cells

    table: dict[str, dict[str, dict[str, str]]] = {w: {} for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            got = {}
            for cell in make_cells(workload, seed):
                # run_cells resets per-cell global state exactly as the
                # benchmark's own passes do
                got[cell.key] = digest(run_cells([cell])[cell.key])
            table[workload][str(seed)] = got
            print(f"seed {seed} {workload}: {len(got)} cells", flush=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

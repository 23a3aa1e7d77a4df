"""Regenerate ``pins.json``: the cold-analysis outputs the benchmark checks.

For every problem × ordering at the cold-analysis scale it records the
permutation digest, the assembly-tree node count and the total factor
entries.  Run from the root of a checkout after a change that alters those
outputs on purpose::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402
from repro.pipeline import CaseSpec  # noqa: E402

from cold_analysis import NPROCS, ORDERINGS, PINS, PROBLEMS, SCALE, STRATEGY, perm_digest  # noqa: E402


def main() -> int:
    cases = {}
    for problem in PROBLEMS:
        for ordering in ORDERINGS:
            spec = CaseSpec(problem, ordering, STRATEGY)
            with repro.open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
                result = session.run(spec)
                perm = session.engine.artifact("ordering", spec)
            cases[f"{problem}/{ordering}"] = {
                "perm_sha256": perm_digest(perm),
                "nodes": result.nodes,
                "total_factor_entries": result.total_factor_entries,
            }
    PINS.write_text(json.dumps({"scale": SCALE, "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Quickstart: the paper's memory-based scheduling against MUMPS' workload one.

The headline is one cell of the paper's Table 2: on BMWCRA_1 with the METIS
ordering at 32 simulated processors, by how much the paper's memory-based
scheduling lowers the largest per-processor stack peak of the original MUMPS
workload-based scheduling.  The run goes through the full pipeline (ordering
→ assembly tree → static mapping → simulated parallel factorization).

It then runs the two strategies on a small 3-D grid, where they agree, and
ends with a declarative sweep over a strategy-parameter and a processor axis.

Run with::

    python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro
from repro import SimulationConfig, simulate
from repro.sparse import grid_3d


def main() -> None:
    # Table 2's setting: 32 processors, full-size problems (open_session's defaults)
    with repro.open_session() as session:
        cell = session.compare("BMWCRA_1", "metis")
    print("Table 2, BMWCRA_1 / METIS (32 processors):")
    print(f"  max stack peak, mumps-workload : {cell['baseline_peak']:12,.0f} entries")
    print(f"  max stack peak, memory-full    : {cell['candidate_peak']:12,.0f} entries")
    print(f"  decrease (the Table 2 cell)    : {cell['gain_percent']:12.2f} %")

    # a 3-D 14x14x14 Laplacian-like problem (2744 unknowns) at 16 processors:
    # its peak sits where both strategies agree, so the decrease is 0
    pattern = grid_3d(14, 14, 14, name="quickstart-grid")
    config = SimulationConfig.paper(nprocs=16)
    print(f"\n{pattern}, 16 processors — a case where both strategies agree:")
    for strategy in ("mumps-workload", "memory-full"):
        result = simulate(pattern, ordering="metis", strategy=strategy, config=config)
        print(
            f"  {strategy:15s} max stack peak = {result.max_peak_stack:10,.0f} entries  "
            f"time = {result.total_time * 1e3:7.2f} ms"
        )

    # one session, one sweep over a strategy-parameter axis and a processor axis
    with repro.open_session(nprocs=8, scale=0.25) as session:
        sweep = session.sweep(
            problems="XENON2",
            strategies=["mumps-workload", "hybrid(alpha=0.5)"],
            nprocs=[4, 8],
        )
    print("\ndeclarative sweep (XENON2, strategy x nprocs grid):")
    for case in sweep:
        print(
            f"  {case.strategy:18s} np={case.nprocs:2d}  "
            f"max stack peak = {case.max_peak_stack:10,.0f} entries  "
            f"time = {case.total_time * 1e3:6.2f} ms  messages = {case.messages}"
        )


if __name__ == "__main__":
    main()

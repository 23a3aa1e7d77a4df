#!/usr/bin/env python
"""The paper's experiment in miniature: dynamic strategies × static splitting.

For one unsymmetric problem and one ordering, this example runs the four
configurations the paper's Tables 2-5 are built from:

* original MUMPS (workload-based scheduling), unmodified tree;
* memory-based dynamic strategies, unmodified tree (→ Table 2 entry);
* original MUMPS on the split tree;
* memory-based strategies on the split tree (→ Table 3 entry, and the
  combination reported in Table 5).

It also prints the per-processor peaks so the *balancing* effect of
Algorithm 1 — not just the max — is visible, together with the simulated
factorization time (Table 6's concern).

Run with::

    python examples/memory_scheduling_study.py [PROBLEM] [ORDERING]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import repro
from repro.pipeline import CaseSpec
from repro.session import percentage_decrease


def main(problem: str = "TWOTONE", ordering: str = "amd") -> None:
    session = repro.open_session(nprocs=16, scale=0.5)
    print(f"problem {problem}, ordering {ordering.upper()}, 16 simulated processors\n")

    cases = {
        "MUMPS workload, no split": ("mumps-workload", False),
        "memory-based,  no split": ("memory-full", False),
        "MUMPS workload, split": ("mumps-workload", True),
        "memory-based,  split": ("memory-full", True),
    }
    results = {}
    for label, (strategy, split) in cases.items():
        case = session.run(CaseSpec(problem, ordering, strategy, split=split))
        results[label] = case
        peaks = np.sort(case.per_proc_peak_stack)[::-1]
        print(f"{label:26s} max peak {case.max_peak_stack:12,.0f}  "
              f"avg {case.avg_peak_stack:12,.0f}  time {case.total_time*1e3:8.2f} ms")
        print(f"{'':26s} top-4 processor peaks: "
              + ", ".join(f"{p:,.0f}" for p in peaks[:4]))

    base = results["MUMPS workload, no split"]
    print("\ngains of the paper's tables (positive = less memory):")
    print(f"  Table 2 entry (dynamic only)      : "
          f"{percentage_decrease(base.max_peak_stack, results['memory-based,  no split'].max_peak_stack):6.1f}%")
    split_base = results["MUMPS workload, split"]
    print(f"  Table 3 entry (dynamic, split tree): "
          f"{percentage_decrease(split_base.max_peak_stack, results['memory-based,  split'].max_peak_stack):6.1f}%")
    print(f"  Table 5 entry (static + dynamic)   : "
          f"{percentage_decrease(base.max_peak_stack, results['memory-based,  split'].max_peak_stack):6.1f}%")
    combined = results["memory-based,  split"]
    time_loss = 100.0 * (combined.total_time - base.total_time) / base.total_time
    print(f"  Table 6 entry (time loss)          : {time_loss:6.1f}%")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(*(args if args else ()))

"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-analysis --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the run's exact work counts.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch state and span files, inside the checkout
OUT = ROOT / ".perfbench"

WORKLOADS = {
    "cold-analysis": "cold_analysis",
    "strategy-sweep": "strategy_sweep",
    "service-mixed": "service_mixed",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the caller and everything it starts: a request and its
    # answer never wait for an idle virtual CPU to be woken, and calibration
    # samples run where the ops run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a terminated run still unwinds, so it stops the server it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the server is stopped with SIGINT; a run started with SIGINT ignored (in
    # the background of a non-interactive shell) would pass that on to it,
    # while a handled signal is reset to its default in a started program
    signal.signal(signal.SIGINT, signal.default_int_handler)

    module = importlib.import_module(WORKLOADS[args.workload])

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result = module.run(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            root=ROOT,
            work=work,
            trace_path=OUT / "traces" / f"{args.workload}-seed{args.seed}.json",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("counts " + json.dumps(result.counts, sort_keys=True))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``repro robustness`` verb's handler: rank strategies under injected faults.

Runs one faulted sweep (clean baseline + ``--replications`` seeded faulted
replays per case, see :mod:`repro.faults`) and emits a strategy-degradation
table: for every (problem, ordering, strategy) the clean makespan, the p50
and p95 faulted makespans, the degradation factor (p50 / clean) and the
message-loss counters.

Examples
--------
Compare two strategies under stragglers plus message loss, three
replications, reproducibly seeded::

    python -m repro robustness --problems XENON2 \\
        --strategies 'memory-full,mumps-workload' \\
        --faults 'stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01)' \\
        --seed 7 --replications 3 --scale 0.2

The same ``(--faults, --seed)`` pair always reproduces byte-identical
results; add ``--store`` to make the sweep resumable.  See
``docs/robustness.md`` for the fault-model grammar and the replication
semantics.  The verb's flags are declared in :func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json

import repro
from repro.cli import session_kwargs
from repro.faults import parse_faults

__all__ = ["cmd_robustness"]


_COLUMNS = (
    "problem", "ordering", "strategy", "clean_makespan",
    "makespan_p50", "makespan_p95", "degradation", "messages_lost", "retries",
)


def _rows(results) -> list[dict[str, object]]:
    rows = []
    for case in results:
        # degradation = p50 / clean, so the clean baseline makespan is
        # recoverable without storing it as its own column
        clean = case.makespan_p50 / case.degradation if case.degradation > 0 else 0.0
        rows.append(
            {
                "problem": case.problem,
                "ordering": case.ordering,
                "strategy": case.strategy,
                "clean_makespan": clean,
                "makespan_p50": case.makespan_p50,
                "makespan_p95": case.makespan_p95,
                "degradation": case.degradation,
                "messages_lost": case.messages_lost,
                "retries": case.retries,
            }
        )
    # worst degradation first: the table reads as "most fragile on top"
    rows.sort(key=lambda r: (-float(r["degradation"]), str(r["problem"]),
                             str(r["ordering"]), str(r["strategy"])))
    return rows


def _render(rows: list[dict[str, object]], faults: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"faults": faults, "rows": rows}, indent=2, sort_keys=True)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in _COLUMNS])
        return buffer.getvalue().rstrip("\n")
    lines = [
        f"faults: `{faults}`",
        "",
        "| problem | ordering | strategy | clean | p50 | p95 | degradation | lost | retries |",
        "| ------- | -------- | -------- | ----- | --- | --- | ----------- | ---- | ------- |",
    ]
    for row in rows:
        strategy = str(row["strategy"]).replace("|", "\\|")
        lines.append(
            f"| {row['problem']} | {row['ordering']} | {strategy} "
            f"| {row['clean_makespan']:.6g} | {row['makespan_p50']:.6g} "
            f"| {row['makespan_p95']:.6g} | {row['degradation']:.4f} "
            f"| {row['messages_lost']} | {row['retries']} |"
        )
    return "\n".join(lines)


def cmd_robustness(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.replications < 1:
        parser.error("--replications must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        faults = str(parse_faults(args.faults).canonical())
    except ValueError as exc:
        parser.error(str(exc))

    try:
        with repro.open_session(**session_kwargs(args)) as session:
            results = session.sweep(
                problems=args.problems,
                orderings=args.orderings,
                strategies=args.strategies,
                faults=[faults],
                fault_seed=args.seed,
                replications=args.replications,
                store=args.store,
            )
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))

    print(_render(_rows(results), faults, args.format))
    return 0

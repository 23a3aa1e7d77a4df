"""The ``repro tune`` verb's handler: search the strategy space, emit a leaderboard.

Examples
--------
Race ``hybrid``'s alpha over one problem with successive halving, memoizing
every evaluation in a result store (interrupt it anywhere — the rerun
recomputes only the missing cases and produces a byte-identical artifact)::

    python -m repro tune --space 'hybrid(alpha=0.0..1.0)' --problems XENON2 \\
        --searcher 'halving(samples=8,eta=2,rungs=3)' --seed 7 \\
        --store .repro_tune --scale 0.2

Exhaustive grid over alpha × use_predictions, ranked by a weighted
memory/makespan trade-off::

    python -m repro tune --space 'hybrid(alpha=0.0..1.0,use_predictions=true|false)' \\
        --problems XENON2,PRE2 --searcher 'grid(resolution=5)' \\
        --objective 'weighted(memory=1.0,time=0.25)' --format json

See ``docs/tuning.md`` for the search-space syntax and the rung/fidelity
model.  The verb's flags are declared in :func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro
from repro.cli import session_kwargs
from repro.tune.driver import Tuner, TuneSpec
from repro.tune.leaderboard import DEFAULT_LEADERBOARD_NAME
from repro.tune.space import parse_space

__all__ = ["cmd_tune"]


def _parse_split(text: str | None, parser: argparse.ArgumentParser) -> tuple[bool, ...]:
    if text is None:
        return (False,)
    values = []
    for item in text.split(","):
        item = item.strip().lower()
        if item in ("true", "1", "yes"):
            values.append(True)
        elif item in ("false", "0", "no"):
            values.append(False)
        elif item:
            parser.error(f"--split expects comma-separated booleans, got {item!r}")
    if not values:
        parser.error("--split needs at least one value")
    return tuple(dict.fromkeys(values))


def _render_board(board, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(board.to_dict(), indent=2, sort_keys=True)
    lines = [
        "| rank | configuration | rung | score | 90% CI |",
        "| ---- | ------------- | ---- | ----- | ------ |",
    ]
    for e in board.entries:
        config = e.key.replace("|", "\\|")
        lines.append(
            f"| {e.rank} | {config} | {e.rung} | {e.score:.6g} "
            f"| [{e.ci_low:.6g}, {e.ci_high:.6g}] |"
        )
    lines.append("")
    lines.append(f"{board.evaluations} case evaluations across {len(board.rungs)} rung(s)")
    return "\n".join(lines)


def cmd_tune(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        space = parse_space(
            args.space,
            split=_parse_split(args.split, parser),
            split_threshold=args.split_threshold,
        )
        spec = TuneSpec(
            space=space,
            problems=args.problems,
            orderings=args.orderings,
            searcher=args.searcher,
            objective=args.objective,
            seed=args.seed,
            nprocs=args.nprocs,
            scale=args.scale,
        )
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))

    leaderboard_path = args.leaderboard
    if leaderboard_path is None and args.store is not None:
        leaderboard_path = str(Path(args.store) / DEFAULT_LEADERBOARD_NAME)

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"[tune] {done}/{total} case evaluations", file=sys.stderr)

    with repro.open_session(**session_kwargs(args)) as session:
        board = Tuner(session, spec, store=args.store, jobs=args.jobs, progress=progress).run()

    if leaderboard_path is not None:
        saved = board.save(leaderboard_path)
        if not args.quiet:
            print(f"[tune] leaderboard written to {saved}", file=sys.stderr)

    print(_render_board(board, args.format))
    return 0

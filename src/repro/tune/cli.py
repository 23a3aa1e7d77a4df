"""The ``repro tune`` verb: search the strategy space, emit a leaderboard.

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
model.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro
from repro.tune.driver import Tuner, TuneSpec
from repro.tune.leaderboard import DEFAULT_LEADERBOARD_NAME
from repro.tune.objective import OBJECTIVES
from repro.tune.search import SEARCHERS
from repro.tune.space import parse_space

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="Search the strategy space for the best configuration",
    )
    parser.add_argument(
        "--space", required=True,
        help="search space, e.g. 'hybrid(alpha=0.0..1.0,use_predictions=true|false)'",
    )
    parser.add_argument(
        "--problems", required=True,
        help="comma-separated problem names the objective is aggregated over",
    )
    parser.add_argument(
        "--orderings", default="metis",
        help="comma-separated ordering specs (default: metis)",
    )
    parser.add_argument(
        "--searcher", default="halving",
        help=f"searcher spec; one of {', '.join(sorted(SEARCHERS))} (default: halving)",
    )
    parser.add_argument(
        "--objective", default="peak-memory",
        help=f"objective spec; one of {', '.join(sorted(OBJECTIVES))} (default: peak-memory)",
    )
    parser.add_argument("--seed", type=int, default=0, help="search rng seed (default 0)")
    parser.add_argument("--nprocs", type=int, default=None, help="simulated-processor override")
    parser.add_argument("--scale", type=float, default=None, help="full-fidelity problem scale")
    parser.add_argument("--jobs", type=int, default=None, help="sweep worker processes for each rung")
    parser.add_argument(
        "--split", default=None,
        help="comma-separated split axis for the space, e.g. 'false,true' (default: false)",
    )
    parser.add_argument(
        "--split-threshold", default=None, metavar="DOMAIN",
        help="split-threshold domain, e.g. '200..800' or '300|500'",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="ResultStore directory memoizing every evaluation (makes the tune resumable)",
    )
    parser.add_argument(
        "--leaderboard", default=None, metavar="PATH",
        help=f"leaderboard artifact path (default: <store>/{DEFAULT_LEADERBOARD_NAME} when --store is given)",
    )
    parser.add_argument("--cache", default=None, metavar="DIR", help="artifact cache directory")
    parser.add_argument("--format", choices=("md", "json"), default="md", help="stdout format (default md)")
    parser.add_argument("--quiet", action="store_true", help="disable rung progress lines on stderr")
    return parser


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    problems = [p.strip().upper() for p in args.problems.split(",") if p.strip()]
    if not problems:
        parser.error("--problems needs at least one problem")
    orderings = [o.strip() for o in args.orderings.split(",") if o.strip()]

    try:
        space = parse_space(
            args.space,
            split=_parse_split(args.split, parser),
            split_threshold=args.split_threshold,
        )
        spec = TuneSpec(
            space=space,
            problems=problems,
            orderings=orderings,
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

    session_kwargs = {}
    if args.nprocs is not None:
        session_kwargs["nprocs"] = args.nprocs
    if args.scale is not None:
        session_kwargs["scale"] = args.scale
    if args.cache is not None:
        session_kwargs["cache_dir"] = args.cache
    if args.jobs is not None:
        session_kwargs["jobs"] = args.jobs

    with repro.open_session(**session_kwargs) as session:
        board = Tuner(session, spec, store=args.store, jobs=args.jobs, progress=progress).run()

    if leaderboard_path is not None:
        saved = board.save(leaderboard_path)
        if not args.quiet:
            print(f"[tune] leaderboard written to {saved}", file=sys.stderr)

    print(_render_board(board, args.format))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

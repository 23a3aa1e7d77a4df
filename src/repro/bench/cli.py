"""The ``repro bench`` verb: run suites, manage baselines, compare runs.

Examples
--------
Run the pipeline suite at reduced scale and save the machine-readable
result::

    python -m repro bench run --suite pipeline --scale 0.2 --save /tmp/b.json

Record a local baseline under the conventional name
(``benchmarks/baselines/BENCH_<host>.json``)::

    python -m repro bench run --suite pipeline,components --save

Compare a fresh run against a committed baseline, tolerating ±40% noise but
failing only on >2× slowdowns (the CI perf-gate invocation)::

    python -m repro bench compare current.json benchmarks/baselines/ci-ubuntu.json \\
        --tolerance 0.4 --max-regression 2.0

Hunt a hot path: profile every case of a suite and print the top 10
functions by cumulative time (also embedded in ``--format json`` output)::

    python -m repro bench run --suite pipeline --profile 10

List the available suites::

    python -m repro bench list --format json

Fold several saved gate runs into one baseline, per case the run whose
best repeat is the median, so one lucky run cannot set it::

    python -m repro bench fold run1.json run2.json run3.json \\
        --save benchmarks/baselines/ci-ubuntu.json

Every ``--save`` also appends the run into the bench history
(``benchmarks/baselines/history/``, disable with ``--no-history``); list a
case's timing trajectory across the recorded runs::

    python -m repro bench history --case pipeline/sweep-serial-cold --limit 10
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from repro.bench.baseline import CaseDelta, CompareReport, compare_runs, default_baseline_path, median_run
from repro.bench.env import BenchEnv, BenchEnvError
from repro.bench.model import BenchRun
from repro.bench.runner import BenchRunner
from repro.bench.suites import SUITES, PreparedCase

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Continuous performance harness: run suites, compare against baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one or more suites")
    run.add_argument(
        "--suite", default="pipeline",
        help="comma-separated suite names, or 'all' (default: pipeline)",
    )
    run.add_argument("--scale", type=float, default=None, help="problem scale override")
    run.add_argument("--nprocs", type=int, default=None, help="simulated-processor override")
    run.add_argument("--repeats", type=int, default=None, help="timed repeats per case (default: per-case)")
    run.add_argument("--warmup", type=int, default=None, help="untimed warmup rounds per case (default: per-case)")
    run.add_argument(
        "--save", nargs="?", const="auto", default=None, metavar="PATH",
        help="write the result JSON (bare --save picks benchmarks/baselines/BENCH_<host>.json)",
    )
    run.add_argument(
        "--history", default=None, metavar="DIR",
        help="with --save: also append the run to this bench history "
        "(default benchmarks/baselines/history/; see 'repro bench history')",
    )
    run.add_argument(
        "--no-history", action="store_true",
        help="with --save: skip the bench-history append",
    )
    run.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against this baseline after running (report appended to the output)",
    )
    run.add_argument("--tolerance", type=float, default=0.25, help="relative tolerance for --baseline (default 0.25)")
    run.add_argument(
        "--max-regression", type=float, default=None, metavar="RATIO",
        help="with --baseline: only fail beyond this slowdown ratio (e.g. 2.0)",
    )
    run.add_argument("--format", choices=("json", "csv", "md"), default="md", help="stdout format (default md)")
    run.add_argument("--quiet", action="store_true", help="disable the per-case progress lines on stderr")
    run.add_argument(
        "--profile", nargs="?", const=15, default=None, type=int, metavar="TOP",
        help="cProfile each case once after the timed repeats and report the top "
        "TOP functions by cumulative time (default 15); included in --format json",
    )

    comp = sub.add_parser("compare", help="compare a result file against a baseline file")
    comp.add_argument("current", help="result JSON produced by 'bench run --save'")
    comp.add_argument("baseline", help="baseline JSON to compare against")
    comp.add_argument("--tolerance", type=float, default=0.25, help="relative tolerance (default 0.25)")
    comp.add_argument(
        "--max-regression", type=float, default=None, metavar="RATIO",
        help="only fail beyond this slowdown ratio (hard errors always fail)",
    )
    comp.add_argument("--format", choices=("json", "csv", "md"), default="md", help="stdout format (default md)")

    fold = sub.add_parser("fold", help="fold saved runs into one baseline: per case, the median run")
    fold.add_argument("runs", nargs="+", metavar="RUN", help="result JSONs produced by 'bench run --save'")
    fold.add_argument("--save", required=True, metavar="PATH", help="write the folded baseline JSON here")

    lst = sub.add_parser("list", help="list the available suites")
    lst.add_argument("--format", choices=("json", "csv", "md"), default="md", help="stdout format (default md)")

    hist = sub.add_parser("history", help="list the recorded timing trajectory per case")
    hist.add_argument(
        "--dir", default=None, metavar="DIR",
        help="history directory (default benchmarks/baselines/history/)",
    )
    hist.add_argument("--case", default=None, metavar="KEY", help="restrict to one case key (suite/name)")
    hist.add_argument("--limit", type=int, default=None, help="only the most recent N points")
    hist.add_argument("--format", choices=("json", "csv", "md"), default="md", help="stdout format (default md)")
    return parser


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def _fmt_seconds(value: float) -> str:
    return f"{value:.4f}" if value == value else "-"  # NaN-safe


def _render_table(
    header: tuple[str, ...],
    rows: list[tuple[str, ...]],
    fmt: str,
    *,
    title: str = "",
    footer: str = "",
) -> str:
    """One place for the csv / markdown-pipe-table plumbing (``|`` escaped)."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    lines = [f"### {title}", ""] if title else []
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    lines += [
        "| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |" for row in rows
    ]
    if footer:
        lines += ["", footer]
    return "\n".join(lines)


def render_run(run: BenchRun, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(run.to_dict(), indent=2, sort_keys=True)
    rows = [
        (
            r.case.suite,
            r.case.name,
            _fmt_seconds(r.best),
            _fmt_seconds(r.calibrated_best),
            _fmt_seconds(r.mean),
            str(r.repeats),
            str(r.warmup),
            "ERROR" if r.error else "ok",
        )
        for r in run.results
    ]
    out = _render_table(
        ("suite", "case", "best_s", "calibrated_s", "mean_s", "repeats", "warmup", "status"),
        rows,
        fmt,
        title=f"bench run — host {run.host}, {run.timestamp}",
    )
    if fmt == "md":
        profiles = [r for r in run.results if r.profile]
        for r in profiles:
            out += "\n\n" + _render_table(
                ("function", "ncalls", "tottime_s", "cumtime_s"),
                [
                    (
                        row["function"],
                        str(row["ncalls"]),
                        f"{row['tottime']:.4f}",
                        f"{row['cumtime']:.4f}",
                    )
                    for row in r.profile
                ],
                fmt,
                title=f"profile — {r.case.key} (top {len(r.profile)} by cumulative time)",
            )
    return out


def _fmt_wall_cpu(delta: CaseDelta) -> str:
    if delta.wall_cpu != delta.wall_cpu:  # NaN: not recorded
        return "-"
    return f"{delta.wall_cpu:.2f}" + (" contended" if delta.contended else "")


def render_report(
    report: CompareReport, fmt: str, *, max_regression: float | None = None
) -> str:
    if fmt == "json":
        return json.dumps(
            report.to_dict(max_regression=max_regression), indent=2, sort_keys=True
        )
    rows = [
        (
            d.key,
            _fmt_seconds(d.baseline_seconds),
            _fmt_seconds(d.current_seconds),
            f"{d.delta_percent:+.1f}%" if d.delta_percent == d.delta_percent else "-",
            "calibrated" if d.calibrated else "raw",
            _fmt_wall_cpu(d),
            d.verdict,
        )
        for d in report.deltas
    ]
    return _render_table(
        ("case", "baseline_s", "current_s", "delta", "times", "wall/cpu", "verdict"),
        rows,
        fmt,
        title=(
            f"bench compare — tolerance ±{report.tolerance:.0%} "
            f"({report.current_host or '?'} vs {report.baseline_host or '?'})"
        ),
        footer=report.summary(),
    )


def render_suites(fmt: str) -> str:
    entries = SUITES.describe()
    if fmt == "json":
        return json.dumps(entries, indent=2)
    return _render_table(
        ("suite", "description"),
        [(e["name"], e["description"]) for e in entries],
        fmt,
    )


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _resolve_suites(parser: argparse.ArgumentParser, text: str) -> list[str]:
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not names:
        parser.error("--suite expects at least one suite name")
    if "all" in names:
        if len(names) > 1:
            parser.error("--suite 'all' already selects every suite; don't combine it")
        return list(SUITES)
    resolved = []
    for name in names:
        try:
            SUITES.get(name)
        except ValueError as exc:
            parser.error(str(exc))
        resolved.append(name)
    return resolved


def _load_run(path: str) -> BenchRun:
    try:
        return BenchRun.load(path)
    except FileNotFoundError:
        raise SystemExit(f"repro bench: result file not found: {path}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"repro bench: cannot read {path}: {exc}")


def _progress(prepared: PreparedCase, result) -> None:
    status = "ERROR" if result.error else f"{result.best:.3f}s"
    print(f"  [{prepared.case.key}] {status}", file=sys.stderr, flush=True)


def _validate_compare_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    if args.max_regression is not None and args.max_regression <= 1:
        parser.error(
            f"--max-regression is a slowdown ratio and must be > 1, got {args.max_regression}"
        )


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    suites = _resolve_suites(parser, args.suite)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.warmup is not None and args.warmup < 0:
        parser.error("--warmup must be >= 0")
    if args.profile is not None and args.profile < 1:
        parser.error("--profile expects a positive top-N function count")
    _validate_compare_flags(parser, args)
    try:
        env = BenchEnv.from_environ().replace(scale=args.scale, nprocs=args.nprocs)
    except BenchEnvError as exc:
        # blame the flag the user typed, not the (unset) environment variable
        message = str(exc)
        for flag, variable, value in (
            ("--scale", "REPRO_BENCH_SCALE", args.scale),
            ("--nprocs", "REPRO_BENCH_NPROCS", args.nprocs),
        ):
            if value is not None:
                message = message.replace(variable, flag)
        parser.error(message)
    runner = BenchRunner(
        env,
        repeats=args.repeats,
        warmup=args.warmup,
        progress=None if args.quiet else _progress,
        profile_top=args.profile,
    )
    run = runner.run_suites(suites)
    report = None
    if args.baseline is not None:
        report = compare_runs(run, _load_run(args.baseline), tolerance=args.tolerance)
    if report is not None and args.format == "json":
        # one parseable document, not two concatenated ones
        print(
            json.dumps(
                {
                    "run": run.to_dict(),
                    "compare": report.to_dict(max_regression=args.max_regression),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(render_run(run, args.format))
        if report is not None:
            print()
            print(render_report(report, args.format, max_regression=args.max_regression))
    if args.save is not None:
        path = default_baseline_path() if args.save == "auto" else args.save
        run.save(path)
        print(f"saved {len(run.results)} result(s) to {path}", file=sys.stderr)
        if not args.no_history:
            from repro.bench.history import BenchHistory, default_history_dir

            history = BenchHistory(args.history or default_history_dir())
            appended = history.append(run)
            print(f"appended run to bench history at {appended}", file=sys.stderr)
    status = 0
    if run.errors:
        for result in run.errors:
            print(f"repro bench: case {result.case.key} failed:\n{result.error}", file=sys.stderr)
        status = 1
    if report is not None and report.failed(max_regression=args.max_regression):
        status = 1
    return status


def _cmd_history(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.bench.history import BenchHistory, default_history_dir

    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")
    history = BenchHistory(args.dir or default_history_dir())
    points = history.trajectory(args.case)
    if args.limit is not None:
        points = points[-args.limit:]
    if args.format == "json":
        print(json.dumps([p.to_dict() for p in points], indent=2, sort_keys=True))
        return 0
    rows = [
        (
            p.timestamp,
            p.host,
            p.key,
            _fmt_seconds(p.best),
            _fmt_seconds(p.mean),
            str(p.repeats),
            "ERROR" if p.error else "ok",
            p.file,
        )
        for p in points
    ]
    title = f"bench history — {args.case}" if args.case else "bench history"
    print(
        _render_table(
            ("timestamp", "host", "case", "best_s", "mean_s", "repeats", "status", "file"),
            rows,
            args.format,
            title=title,
            footer=f"{len(points)} point(s) across {len(history)} recorded run(s)",
        )
    )
    return 0


def _cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_compare_flags(parser, args)
    current = _load_run(args.current)
    baseline = _load_run(args.baseline)
    report = compare_runs(current, baseline, tolerance=args.tolerance)
    print(render_report(report, args.format, max_regression=args.max_regression))
    return 1 if report.failed(max_regression=args.max_regression) else 0


def _cmd_fold(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        run = median_run([_load_run(path) for path in args.runs])
    except ValueError as exc:
        parser.error(str(exc))
    run.save(args.save)
    print(f"folded {len(args.runs)} run(s) into {args.save}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(parser, args)
    if args.command == "compare":
        return _cmd_compare(parser, args)
    if args.command == "fold":
        return _cmd_fold(parser, args)
    if args.command == "list":
        print(render_suites(args.format))
        return 0
    if args.command == "history":
        return _cmd_history(parser, args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover - argparse guards
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line interface: one parser tree for every ``repro`` verb.

Examples
--------
Regenerate Table 2 on 8 simulated processors at reduced scale::

    python -m repro table2 --nprocs 8 --scale 0.4

Print every table as one JSON document, cells at full precision and no
timings (the defaults give ``tests/golden/tables.json`` byte for byte)::

    python -m repro tables --format json --jobs 2

Regenerate every table and figure (the full evaluation), four analysis
workers in parallel with per-case progress on stderr::

    python -m repro all --nprocs 32 --scale 1.0 --cache .repro_cache --jobs 4

Run an explicit sweep — a declarative grid whose strategies may carry
parameters and whose processor counts are an axis — and emit the results as
JSON::

    python -m repro sweep --problems XENON2,PRE2 --orderings metis,amd \\
        --strategies 'mumps-workload,hybrid(alpha=0.25)' \\
        --nprocs 8,16,32 --jobs 4 --format json

Make a sweep resumable — completed cases stream into a columnar result
store and a rerun recomputes only what is missing (see ``docs/results.md``)::

    python -m repro sweep --problems XENON2 --strategies memory-full \\
        --nprocs 8,16 --store .repro_results --format json

List the available problems, orderings and strategies (``--format json``
emits the registry metadata machine-readably, including the parameters each
strategy/ordering accepts)::

    python -m repro list
    python -m repro list --format json

Run the continuous-performance harness (suites, machine-readable results,
baseline comparison — see ``docs/benchmarks.md``)::

    python -m repro bench run --suite pipeline --scale 0.2 --save /tmp/b.json
    python -m repro bench compare /tmp/b.json benchmarks/baselines/ci-ubuntu.json

Search the strategy space for the best configuration (seeded, resumable —
see ``docs/tuning.md``)::

    python -m repro tune --space 'hybrid(alpha=0.0..1.0)' --problems XENON2 \\
        --searcher 'halving(samples=8,eta=2,rungs=3)' --seed 7 --store .repro_tune

Rank strategies under injected faults (see ``docs/robustness.md``)::

    python -m repro robustness --problems XENON2 \\
        --faults 'stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01)' --seed 7

Run the sweep service (job queue daemon + cached HTTP/JSON query API — see
``docs/service.md``), submit a job and query a cached result::

    python -m repro serve --port 8023 --scale 0.5
    python -m repro submit --url http://127.0.0.1:8023 --problems XENON2 --wait
    python -m repro query --url http://127.0.0.1:8023 --problem XENON2

Grammar
-------
:func:`build_parser` builds one ``argparse`` tree with a subparser per verb
(``bench`` has its own run/compare/fold/list/history subparsers). The flags
verbs share are declared once, in parent parsers: the engine flags
(``--nprocs --scale --cache --jobs``) and the case axes (``--problems
--orderings --strategies``). :func:`main` parses once, then checks
``--jobs`` and every axis value against its registry, in one place, before
any work. A figure verb declares only the flags its generator takes (its
``ALL_FIGURES`` params), so argparse rejects the rest. The handlers of the
``bench``, ``tune``, ``robustness`` and ``serve``/``submit``/``query`` verbs
live in their subsystem's ``cli`` module, imported only when the verb runs.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import sys
import time

from repro.experiments import PROBLEMS
from repro.experiments import figures as figures_mod
from repro.experiments import tables as tables_mod
from repro.experiments.tables import ORDERING_NAMES
from repro.ordering import ORDERINGS, resolve_ordering
from repro.pipeline import ProgressEvent
from repro.runtime import resolve_engine
from repro.scheduling import STRATEGIES, resolve_strategy
from repro.session import Session
from repro.specs import SweepSpec, split_spec_list

__all__ = ["main", "build_parser", "session_kwargs"]

#: default marking a shared flag the verb does not take
_OFF = object()
#: default marking a required case axis
_REQUIRED = object()


# --------------------------------------------------------------------------- #
# shared flags
# --------------------------------------------------------------------------- #
def _nprocs_list(text: str) -> list[int]:
    """``"8"`` → [8], ``"8,16,32"`` → [8, 16, 32]: a processor-count axis."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expects at least one integer")
    return values


def _spec_list(text: str) -> list[str]:
    """A comma-separated spec list, split outside parentheses."""
    values = split_spec_list(text)
    if not values:
        raise argparse.ArgumentTypeError("expects at least one value")
    return values


def _problem_list(text: str) -> list[str]:
    return [name.upper() for name in _spec_list(text)]


def _engine_flags(*, nprocs=32, scale=1.0, cache="", jobs=1, axis=False, short_jobs=False):
    """Parent parser of the engine flags; a flag defaulting to ``_OFF`` is left out.

    ``axis`` makes ``--nprocs`` a comma-separated processor-count axis.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if nprocs is not _OFF:
        parent.add_argument(
            "--nprocs", type=_nprocs_list if axis else int, default=nprocs,
            help="simulated processors (paper: 32)" + (", a comma-separated axis, e.g. 8,16,32" if axis else ""),
        )
    if scale is not _OFF:
        parent.add_argument("--scale", type=float, default=scale, help="problem scale factor (1.0 = full analogue size)")
    if cache is not _OFF:
        parent.add_argument("--cache", dest="cache_dir", default=cache, metavar="DIR", help="artifact cache directory")
    if jobs is not _OFF:
        parent.add_argument(
            "--jobs", *(["-j"] if short_jobs else []), type=int, default=jobs,
            help="worker processes (1 = serial, in-process; cases sharing an analysis run on one worker)",
        )
    return parent


def _case_axes(*, problems=None, orderings=None, strategies=_OFF):
    """Parent parser of the case axes; a string default is parsed like a typed value."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, default, kind, noun in (
        ("--problems", problems, _problem_list, "problem names, e.g. XENON2,PRE2"),
        ("--orderings", orderings, _spec_list, "ordering specs; params allowed: 'metis(leaf_size=32)'"),
        ("--strategies", strategies, _spec_list, "strategy specs; params allowed: 'hybrid(alpha=0.25)'"),
    ):
        if default is _OFF:
            continue
        required = default is _REQUIRED
        parent.add_argument(
            flag, type=kind, required=required, default=None if required else default,
            help=f"comma-separated {noun}" + (f" (default: {default})" if isinstance(default, str) else ""),
        )
    return parent


def _format(parser: argparse.ArgumentParser, *choices: str) -> None:
    parser.add_argument("--format", choices=choices, default=choices[0], help=f"stdout format (default {choices[0]})")


def session_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """:class:`Session` keywords from the engine flags ``args`` carries.

    Unset flags (``None`` or an empty ``--cache``) keep the session's
    defaults; a ``--nprocs`` axis configures the session with its first count.
    """
    kwargs: dict[str, object] = {}
    for key in ("nprocs", "scale", "cache_dir", "jobs"):
        value = getattr(args, key, None)
        if value is not None and value != "":
            kwargs[key] = value[0] if isinstance(value, list) else value
    return kwargs


def _check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The checks every verb shares: ``--jobs`` and the axes' registries."""
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    for name in getattr(args, "problems", None) or []:
        if name not in PROBLEMS:
            parser.error(
                f"unknown --problems value {name!r}; expected one of {', '.join(sorted(PROBLEMS))}"
            )
    for flag, values, resolver in (
        ("--orderings", getattr(args, "orderings", None), resolve_ordering),
        ("--strategies", getattr(args, "strategies", None), resolve_strategy),
    ):
        for name in values or []:
            try:
                resolver(name)
            except ValueError as exc:
                prefix = "unknown" if "unknown" in str(exc) else "invalid"
                parser.error(f"{prefix} {flag} value {name!r}: {exc}")


# --------------------------------------------------------------------------- #
# listing
# --------------------------------------------------------------------------- #
def _cmd_list(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.format == "json":
        payload = {
            "problems": [
                {**entry, "symmetric": PROBLEMS[str(entry["name"])].symmetric}
                for entry in PROBLEMS.describe()
            ],
            "orderings": ORDERINGS.describe(),
            "strategies": STRATEGIES.describe(),
            "tables": tables_mod.ALL_TABLES.describe(),
            "figures": figures_mod.ALL_FIGURES.describe(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("problems:")
    for name, spec in PROBLEMS.items():
        print(f"  {name:12s} {'SYM' if spec.symmetric else 'UNS'}  {spec.description}")
    print("orderings:", ", ".join(sorted(ORDERINGS)))
    print("strategies:")
    for entry in STRATEGIES.describe():
        params = entry["params"]
        suffix = f"  [params: {', '.join(sorted(params))}]" if params else ""
        print(f"  {entry['name']:15s} {entry['description']}{suffix}")
    return 0


def _progress_printer(event: ProgressEvent) -> None:
    print(
        f"  [{event.done}/{event.total}] {event.spec.label()} ({event.seconds:.2f}s)",
        file=sys.stderr,
        flush=True,
    )


def _session(args: argparse.Namespace) -> Session:
    return Session(**session_kwargs(args), progress=None if args.no_progress else _progress_printer)


# --------------------------------------------------------------------------- #
# tables and figures
# --------------------------------------------------------------------------- #
def _run_tables(session: Session, names: list[str], problems, orderings, *, fmt: str) -> None:
    """Print each table as aligned text, or all of them as one JSON document.

    The JSON holds every cell at full precision and no timings, so the same
    arguments always give the same bytes (the tables' golden file is one).
    """
    tables: dict[str, object] = {}
    for name in names:
        entry = tables_mod.ALL_TABLES.entry(name)
        start = time.time()
        kwargs = {}
        if problems and "problems" in entry.params:
            kwargs["problems"] = problems
        if orderings and "orderings" in entry.params:
            kwargs["orderings"] = orderings
        rows = entry.value(session, **kwargs, exact=fmt == "json")
        if fmt == "json":
            tables[name] = rows
            continue
        print()
        print(tables_mod.format_table(rows, title=f"=== {name.upper()} (regenerated in {time.time() - start:.1f}s) ==="))
    if fmt == "json":
        payload = {"nprocs": session.nprocs, "scale": session.scale, "tables": tables}
        print(json.dumps(payload, indent=2))


def _cmd_paper(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Regenerate the tables, then the figures, that the verb names."""
    if args.tables:
        with _session(args) as session:
            _run_tables(session, args.tables, args.problems, args.orderings, fmt=args.format)
    for name in args.figures:
        # a figure takes the flags its registry entry lists, when they are set
        kwargs = {
            key: getattr(args, key)
            for key in figures_mod.ALL_FIGURES.entry(name).params
            if getattr(args, key, None) not in (None, "")
        }
        data = figures_mod.ALL_FIGURES[name](**kwargs)
        print()
        print(f"=== {name.upper()} ===")
        print(data.get("ascii", repr(data)))
    return 0


# --------------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------------- #
def _emit_sweep(results, fmt: str, seconds: float) -> None:
    if fmt == "json":
        print(json.dumps([case.to_dict() for case in results], indent=2))
        return
    columns = [
        "problem", "ordering", "strategy", "split", "nprocs",
        "max_peak_stack", "avg_peak_stack", "total_time", "messages",
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for case in results:
            data = case.to_dict()
            writer.writerow([data[c] for c in columns])
        print(buffer.getvalue(), end="")
        return
    print()
    print(f"=== SWEEP ({len(results)} cases in {seconds:.1f}s) ===")
    header = (
        f"{'problem':12s} {'ordering':8s} {'strategy':22s} {'split':5s} {'np':>3s} "
        f"{'max peak':>12s} {'time':>10s} {'messages':>9s}"
    )
    print(header)
    print("-" * len(header))
    for case in results:
        print(
            f"{case.problem:12s} {case.ordering:8s} {case.strategy:22s} "
            f"{'yes' if case.split else 'no':5s} {case.nprocs:3d} {case.max_peak_stack:12,.0f} "
            f"{case.total_time:10.4f} {case.messages:9d}"
        )


def _cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    sweep = SweepSpec(
        problems=args.problems or list(PROBLEMS),
        orderings=args.orderings or list(ORDERING_NAMES),
        strategies=args.strategies or ["mumps-workload", "memory-full"],
        split=[args.split],
        # one count configures the session; several are the sweep's axis
        nprocs=args.nprocs if len(args.nprocs) > 1 else [None],
    )
    start = time.time()
    with _session(args) as session:
        if args.store is not None:
            results = session.sweep(sweep, store=args.store)
            print(
                f"store {args.store}: {results.skipped} case(s) already present, "
                f"{results.computed} computed",
                file=sys.stderr,
                flush=True,
            )
        else:
            results = session.run_cases(sweep.expand())
    _emit_sweep(results, args.format, time.time() - start)
    return 0


# --------------------------------------------------------------------------- #
# the parser tree
# --------------------------------------------------------------------------- #
def _lazy(target: str):
    """The handler ``module:function``, imported only when its verb runs."""
    module, _, name = target.partition(":")

    def handler(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(module), name)(parser, args)

    return handler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Memory-based scheduling for a parallel multifrontal solver'",
        allow_abbrev=False,
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(subparsers, name: str, handler, *parents, help: str, **defaults) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(
            name, parents=list(parents), help=help.replace("%", "%%"), description=help, allow_abbrev=False,
        )
        sub.set_defaults(handler=handler, parser=sub, **defaults)
        return sub

    # -- the paper's tables and figures ------------------------------------ #
    def paper(name: str, help: str, tables: list[str], figures: list[str], formats=("text", "json")):
        sub = verb(
            verbs, name, _cmd_paper,
            # in 'all', an unset --nprocs leaves each figure its own default
            _engine_flags(nprocs=None if figures else 32, short_jobs=True), _case_axes(),
            help=help, tables=tables, figures=figures,
        )
        _format(sub, *formats)
        sub.add_argument("--no-progress", action="store_true", help="disable the per-case progress lines on stderr")

    def figure(name: str, help: str, figures: list[str]) -> None:
        params = {key for fig in figures for key in figures_mod.ALL_FIGURES.entry(fig).params}
        verb(
            verbs, name, _cmd_paper,
            _engine_flags(
                nprocs=argparse.SUPPRESS if "nprocs" in params else _OFF, scale=_OFF,
                cache=argparse.SUPPRESS if "cache_dir" in params else _OFF, jobs=_OFF,
            ),
            help=help, tables=[], figures=figures,
        )

    for name in tables_mod.ALL_TABLES:
        paper(name, tables_mod.ALL_TABLES.entry(name).description, [name], [])
    for name in figures_mod.ALL_FIGURES:
        figure(name, figures_mod.ALL_FIGURES.entry(name).description, [name])
    paper("tables", "every table", list(tables_mod.ALL_TABLES), [])
    figure("figures", "every figure", list(figures_mod.ALL_FIGURES))
    paper("all", "every table and figure", list(tables_mod.ALL_TABLES), list(figures_mod.ALL_FIGURES), formats=("text",))

    sweep = verb(
        verbs, "sweep", _cmd_sweep,
        _engine_flags(nprocs=[32], axis=True, short_jobs=True), _case_axes(strategies=None),
        help="run an explicit problems x orderings x strategies x nprocs grid",
    )
    sweep.add_argument("--split", action="store_true", help="apply static splitting of large masters")
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="columnar result-store directory: completed cases stream into it and a rerun "
        "over the same directory skips them (resumable sweeps)",
    )
    _format(sweep, "text", "json", "csv")
    sweep.add_argument("--no-progress", action="store_true", help="disable the per-case progress lines on stderr")

    _format(verb(verbs, "list", _cmd_list, help="list the problems, orderings and strategies"), "text", "json")

    # -- fault injection ---------------------------------------------------- #
    robustness = verb(
        verbs, "robustness", _lazy("repro.faults.cli:cmd_robustness"),
        _engine_flags(nprocs=None, scale=None, cache=None, jobs=None),
        _case_axes(problems=_REQUIRED, orderings="metis", strategies="memory-full,mumps-workload"),
        help="rank scheduling strategies by degradation under injected faults",
    )
    robustness.add_argument(
        "--faults", required=True,
        help="fault spec, e.g. 'stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01)'",
    )
    robustness.add_argument("--seed", type=int, default=0, help="fault rng seed (default 0)")
    robustness.add_argument("--replications", type=int, default=3, help="faulted replications per case (default 3)")
    robustness.add_argument("--store", default=None, metavar="DIR", help="ResultStore directory making the sweep resumable")
    _format(robustness, "md", "json", "csv")

    # -- auto-tuning -------------------------------------------------------- #
    tune = verb(
        verbs, "tune", _lazy("repro.tune.cli:cmd_tune"),
        _engine_flags(nprocs=None, scale=None, cache=None, jobs=None),
        _case_axes(problems=_REQUIRED, orderings="metis"),
        help="search the strategy space for the best configuration",
    )
    tune.add_argument(
        "--space", required=True,
        help="search space, e.g. 'hybrid(alpha=0.0..1.0,use_predictions=true|false)'",
    )
    tune.add_argument("--searcher", default="halving", help="searcher spec, e.g. 'halving(samples=8,eta=2,rungs=3)' (default: halving)")
    tune.add_argument("--objective", default="peak-memory", help="objective spec (default: peak-memory)")
    tune.add_argument("--seed", type=int, default=0, help="search rng seed (default 0)")
    tune.add_argument(
        "--split", default=None,
        help="comma-separated split axis for the space, e.g. 'false,true' (default: false)",
    )
    tune.add_argument(
        "--split-threshold", default=None, metavar="DOMAIN",
        help="split-threshold domain, e.g. '200..800' or '300|500'",
    )
    tune.add_argument(
        "--store", default=None, metavar="DIR",
        help="ResultStore directory memoizing every evaluation (makes the tune resumable)",
    )
    tune.add_argument(
        "--leaderboard", default=None, metavar="PATH",
        help="leaderboard artifact path (default: leaderboard.json in --store, when given)",
    )
    _format(tune, "md", "json")
    tune.add_argument("--quiet", action="store_true", help="disable rung progress lines on stderr")

    # -- the performance harness ------------------------------------------- #
    bench = verbs.add_parser(
        "bench", help="continuous performance harness: run suites, compare against baselines",
        allow_abbrev=False,
    )
    commands = bench.add_subparsers(dest="command", required=True)
    gate = argparse.ArgumentParser(add_help=False)
    gate.add_argument("--tolerance", type=float, default=0.25, help="relative tolerance (default 0.25)")
    gate.add_argument(
        "--max-regression", type=float, default=None, metavar="RATIO",
        help="only fail beyond this slowdown ratio, e.g. 2.0 (hard errors always fail)",
    )

    run = verb(
        commands, "run", _lazy("repro.bench.cli:cmd_run"),
        _engine_flags(nprocs=None, scale=None, cache=_OFF, jobs=_OFF), gate,
        help="execute one or more suites",
    )
    run.add_argument("--suite", default="pipeline", help="comma-separated suite names, or 'all' (default: pipeline)")
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
    run.add_argument("--no-history", action="store_true", help="with --save: skip the bench-history append")
    run.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against this baseline after running (report appended to the output)",
    )
    _format(run, "md", "json", "csv")
    run.add_argument("--quiet", action="store_true", help="disable the per-case progress lines on stderr")
    run.add_argument(
        "--profile", nargs="?", const=15, default=None, type=int, metavar="TOP",
        help="cProfile each case once after the timed repeats and report the top "
        "TOP functions by cumulative time (default 15); included in --format json",
    )

    compare = verb(
        commands, "compare", _lazy("repro.bench.cli:cmd_compare"), gate,
        help="compare a result file against a baseline file",
    )
    compare.add_argument("current", help="result JSON produced by 'bench run --save'")
    compare.add_argument("baseline", help="baseline JSON to compare against")
    _format(compare, "md", "json", "csv")

    fold = verb(
        commands, "fold", _lazy("repro.bench.cli:cmd_fold"),
        help="fold saved runs into one baseline: per case, the median run",
    )
    fold.add_argument("runs", nargs="+", metavar="RUN", help="result JSONs produced by 'bench run --save'")
    fold.add_argument("--save", required=True, metavar="PATH", help="write the folded baseline JSON here")

    _format(verb(commands, "list", _lazy("repro.bench.cli:cmd_list"), help="list the available suites"), "md", "json", "csv")

    history = verb(
        commands, "history", _lazy("repro.bench.cli:cmd_history"),
        help="list the recorded timing trajectory per case",
    )
    history.add_argument("--dir", default=None, metavar="DIR", help="history directory (default benchmarks/baselines/history/)")
    history.add_argument("--case", default=None, metavar="KEY", help="restrict to one case key (suite/name)")
    history.add_argument("--limit", type=int, default=None, help="only the most recent N points")
    _format(history, "md", "json", "csv")

    # -- the sweep service -------------------------------------------------- #
    serve = verb(
        verbs, "serve", _lazy("repro.service.cli:cmd_serve"), _engine_flags(),
        help="run the sweep service daemon",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023, help="bind port (0 = ephemeral; default 8023)")
    serve.add_argument("--data-dir", default=".repro_service", help="journal + result-store directory")
    serve.add_argument("--workers", type=int, default=1, help="job worker threads (default 1)")
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="backpressure bound: POST /jobs answers 503 + Retry-After while this many jobs are queued (default: unbounded)",
    )
    serve.add_argument("--no-journal-fsync", action="store_true", help="skip fsync on journal appends (CI/tests)")
    serve.add_argument("--quiet", action="store_true", help="suppress per-request log lines")

    submit = verb(
        verbs, "submit", _lazy("repro.service.cli:cmd_submit"),
        _engine_flags(nprocs=None, scale=None, cache=_OFF, jobs=_OFF, axis=True),
        _case_axes(problems=_REQUIRED, orderings="metis", strategies="memory-full"),
        help="submit a sweep (or tune) job to a running daemon",
    )
    submit.add_argument(
        "--tune", default=None, metavar="SPACE",
        help="submit a tune job over this search space (e.g. 'hybrid(alpha=0.0..1.0)') "
        "instead of a sweep grid; --strategies/--nprocs axes do not apply",
    )
    submit.add_argument("--tune-searcher", default="halving", help="tune searcher spec (default halving)")
    submit.add_argument("--tune-objective", default="peak-memory", help="tune objective spec (default peak-memory)")
    submit.add_argument("--tune-seed", type=int, default=0, help="tune search seed (default 0)")
    submit.add_argument("--split", action="store_true", help="sweep with static splitting")
    submit.add_argument("--priority", type=int, default=0, help="queue priority (higher runs first)")
    submit.add_argument(
        "--max-attempts", type=int, default=3,
        help="retry budget per job; a retry reruns only the cases the store lacks (default 3)",
    )
    submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="job wall-clock deadline")
    submit.add_argument("--wait", action="store_true", help="poll until the job finishes; exit 1 on failure")
    submit.add_argument("--wait-timeout", type=float, default=600.0, help="--wait deadline (default 600s)")

    query = verb(
        verbs, "query", _lazy("repro.service.cli:cmd_query"),
        _engine_flags(nprocs=None, scale=None, cache=_OFF, jobs=_OFF),
        help="query results from a running daemon (one case or a listing)",
    )
    query.add_argument("--problem", default=None, help="problem name, e.g. XENON2 (required for a single-case query)")
    query.add_argument("--ordering", default=None, help="ordering spec (single-case default: metis)")
    query.add_argument("--strategy", default=None, help="strategy spec, e.g. 'hybrid(alpha=0.3)'")
    query.add_argument("--split", action="store_true", help="the split-tree variant / list filter")
    query.add_argument("--no-compute", action="store_true", help="404 instead of computing on a store miss")
    query.add_argument("--table", default=None, metavar="NAME", help="fetch a table (e.g. table2) instead of one case")
    query.add_argument(
        "--leaderboard", nargs="?", const="latest", default=None, metavar="JOB",
        help="fetch a tune job's leaderboard (bare flag = the latest one)",
    )
    query.add_argument("--list", action="store_true", help="paginated listing from the result store instead of one case")
    query.add_argument("--limit", type=int, default=None, help="page size of --list (default 50, max 500)")
    query.add_argument("--cursor", type=int, default=None, help="page offset of --list (from the previous page's next link)")
    query.add_argument("--fields", default=None, help="comma-separated field projection for --list rows")
    for sub in (submit, query):
        sub.add_argument("--url", default="http://127.0.0.1:8023", help="service base URL")
    return parser


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    try:
        # a bad REPRO_SIM_ENGINE fails here, once, for every verb — not as a
        # traceback from deep inside the first simulation
        resolve_engine()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    _check(args.parser, args)
    return args.handler(args.parser, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line interface: regenerate the paper's tables and figures.

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

Run the sweep service (job queue daemon + cached HTTP/JSON query API — see
``docs/service.md``), submit a job and query a cached result::

    python -m repro serve --port 8023 --scale 0.5
    python -m repro submit --url http://127.0.0.1:8023 --problems XENON2 --wait
    python -m repro query --url http://127.0.0.1:8023 --problem XENON2
"""

from __future__ import annotations

import argparse
import csv
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

__all__ = ["main", "build_parser"]

#: flags that configure the experiment engine; figure generators declare in
#: their registry entry (``ALL_FIGURES``) which of the mapped keywords they
#: accept, everything else is rejected for figure targets instead of being
#: silently ignored.
_ENGINE_FLAGS = {
    "--nprocs": "nprocs",
    "--scale": "scale",
    "--cache": "cache_dir",
    "--jobs": "jobs",
    "-j": "jobs",
}

#: kwarg → preferred (long) flag spelling, for error messages.
_FLAG_OF = {kwarg: flag for flag, kwarg in _ENGINE_FLAGS.items() if flag.startswith("--")}


def _nprocs_list(text: str) -> object:
    """``"8"`` → 8, ``"8,16,32"`` → [8, 16, 32] (single values stay ints)."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--nprocs expects integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("--nprocs expects at least one integer")
    return values[0] if len(values) == 1 else values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Memory-based scheduling for a parallel multifrontal solver'",
        # no prefix abbreviations: the figure targets decide flag support by
        # inspecting argv, which must see the same spelling argparse accepts
        allow_abbrev=False,
    )
    parser.add_argument(
        "target",
        help="table1..table6, figure1..figure8, 'all', 'tables', 'figures', 'sweep', 'list', "
        "'bench' (the performance harness; see 'repro bench --help'), "
        "'tune' (strategy auto-tuning; see 'repro tune --help'), "
        "'robustness' (fault-injection sweeps; see 'repro robustness --help') or "
        "'serve'/'submit'/'query' (the sweep service; see 'repro serve --help')",
    )
    parser.add_argument(
        "--nprocs", type=_nprocs_list, default=32,
        help="simulated processors (paper: 32); 'sweep' accepts a comma-separated axis, e.g. 8,16,32",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="problem scale factor (1.0 = full analogue size)")
    parser.add_argument("--cache", default="", help="directory for the artifact cache (optional)")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for sweeps/tables (1 = serial; cases sharing an analysis are grouped per worker)",
    )
    parser.add_argument(
        "--problems", default="", help="comma-separated subset of problems (default: the table's own set)"
    )
    parser.add_argument(
        "--orderings", default="",
        help="comma-separated ordering specs (default: metis,pord,amd,amf); params allowed: 'metis(leaf_size=32)'",
    )
    parser.add_argument(
        "--strategies", default="",
        help="comma-separated strategy specs for the 'sweep' target "
        "(default: mumps-workload,memory-full); params allowed: 'hybrid(alpha=0.25)'",
    )
    parser.add_argument(
        "--split", action="store_true", help="apply static splitting of large masters ('sweep' target)"
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="columnar result-store directory for the 'sweep' target: completed cases stream "
        "into it and a rerun over the same directory skips them (resumable sweeps)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format for the 'sweep', 'list' and table targets (tables: text or json; "
        "default: text)",
    )
    parser.add_argument(
        "--no-progress", action="store_true", help="disable the per-case progress lines on stderr"
    )
    return parser


# --------------------------------------------------------------------------- #
# listing
# --------------------------------------------------------------------------- #
def _print_listing(fmt: str) -> None:
    if fmt == "json":
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
        return
    print("problems:")
    for name, spec in PROBLEMS.items():
        print(f"  {name:12s} {'SYM' if spec.symmetric else 'UNS'}  {spec.description}")
    print("orderings:", ", ".join(sorted(ORDERINGS)))
    print("strategies:")
    for entry in STRATEGIES.describe():
        params = entry["params"]
        suffix = f"  [params: {', '.join(sorted(params))}]" if params else ""
        print(f"  {entry['name']:15s} {entry['description']}{suffix}")


def _progress_printer(event: ProgressEvent) -> None:
    print(
        f"  [{event.done}/{event.total}] {event.spec.label()} ({event.seconds:.2f}s)",
        file=sys.stderr,
        flush=True,
    )


# --------------------------------------------------------------------------- #
# tables
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


# --------------------------------------------------------------------------- #
# figures
# --------------------------------------------------------------------------- #
def _figure_kwargs(
    parser: argparse.ArgumentParser, names: list[str], overrides: dict[str, object]
) -> dict[str, dict[str, object]]:
    """Per-figure kwargs from the explicitly given engine flags.

    A flag must be consumable by at least one requested figure; otherwise the
    old behaviour was to ignore it silently, which is now an error.
    """
    per_figure: dict[str, dict[str, object]] = {name: {} for name in names}
    for key, value in overrides.items():
        takers = [name for name in names if key in figures_mod.ALL_FIGURES.entry(name).params]
        if not takers:
            flag = _FLAG_OF[key]
            parser.error(
                f"{flag} is not supported by figure target(s) {', '.join(names)}; "
                "it configures the experiment engine (tables/sweeps)"
            )
        for name in takers:
            per_figure[name][key] = value
    return per_figure


def _run_figures(names: list[str], kwargs_by_figure: dict[str, dict[str, object]]) -> None:
    for name in names:
        fn = figures_mod.ALL_FIGURES[name]
        data = fn(**kwargs_by_figure.get(name, {}))
        print()
        print(f"=== {name.upper()} ===")
        print(data.get("ascii", repr(data)))


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


def _run_sweep(
    session: Session, problems, orderings, strategies, nprocs_axis,
    *, split: bool, fmt: str, store: str | None = None,
) -> None:
    sweep = SweepSpec(
        problems=problems or list(PROBLEMS),
        orderings=orderings or list(ORDERING_NAMES),
        strategies=strategies or ["mumps-workload", "memory-full"],
        split=[split],
        nprocs=nprocs_axis,
    )
    start = time.time()
    if store is not None:
        results = session.sweep(sweep, store=store)
        print(
            f"store {store}: {results.skipped} case(s) already present, "
            f"{results.computed} computed",
            file=sys.stderr,
            flush=True,
        )
    else:
        results = session.run_cases(sweep.expand())
    _emit_sweep(results, fmt, time.time() - start)


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def _validate_subsets(parser, problems, orderings, strategies) -> None:
    for name in problems or []:
        if name not in PROBLEMS:
            parser.error(
                f"unknown --problems value {name!r}; expected one of {', '.join(sorted(PROBLEMS))}"
            )
    for flag, values, resolver in (
        ("--orderings", orderings, resolve_ordering),
        ("--strategies", strategies, resolve_strategy),
    ):
        for name in values or []:
            try:
                resolver(name)
            except ValueError as exc:
                prefix = "unknown" if "unknown" in str(exc) else "invalid"
                parser.error(f"{prefix} {flag} value {name!r}: {exc}")


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a bad REPRO_SIM_ENGINE fails here, once, for every verb — not as a
        # traceback from deep inside the first simulation
        resolve_engine()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if raw_argv and raw_argv[0].lower() == "bench":
        # the performance harness has its own subcommand grammar (run /
        # compare / list / history) and flag set; hand the rest of argv
        # straight over
        from repro.bench.cli import main as bench_main

        return bench_main(raw_argv[1:])
    if raw_argv and raw_argv[0].lower() == "tune":
        # the auto-tuning verb owns its flag grammar too (see
        # repro/tune/cli.py)
        from repro.tune.cli import main as tune_main

        return tune_main(raw_argv[1:])
    if raw_argv and raw_argv[0].lower() == "robustness":
        # the fault-injection verb owns its flag grammar (see
        # repro/faults/cli.py)
        from repro.faults.cli import main as robustness_main

        return robustness_main(raw_argv[1:])
    if raw_argv and raw_argv[0].lower() in ("serve", "submit", "query"):
        # the service verbs likewise own their flag grammar (see
        # repro/service/cli.py); the verb itself selects the subcommand
        from repro.service.cli import main as service_main

        return service_main(raw_argv)
    parser = build_parser()
    args = parser.parse_args(raw_argv)
    target = args.target.lower()

    if target == "bench":
        # flags before the verb are ambiguous (--nprocs etc. belong to the
        # bench subcommands); require the verb-first spelling explicitly
        parser.error("'bench' must come first: repro bench {run,compare,list,history} ...")

    if target in ("serve", "submit", "query", "tune", "robustness"):
        parser.error(f"'{target}' must come first: repro {target} [flags] ...")

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if target == "list":
        if args.format == "csv":
            parser.error("the 'list' target supports --format text or json, not csv")
        _print_listing(args.format)
        return 0

    problems = [p.strip().upper() for p in args.problems.split(",") if p.strip()] or None
    orderings = [o.strip() for o in split_spec_list(args.orderings)] or None
    strategies = [s.strip() for s in split_spec_list(args.strategies)] or None
    _validate_subsets(parser, problems, orderings, strategies)

    table_names = list(tables_mod.ALL_TABLES)
    figure_names = list(figures_mod.ALL_FIGURES)

    wanted_tables: list[str] = []
    wanted_figures: list[str] = []
    wanted_sweep = False
    figures_only = False
    if target == "all":
        wanted_tables = table_names
        wanted_figures = figure_names
    elif target == "tables":
        wanted_tables = table_names
    elif target == "figures":
        wanted_figures = figure_names
        figures_only = True
    elif target == "sweep":
        wanted_sweep = True
    elif target in tables_mod.ALL_TABLES:
        wanted_tables = [target]
    elif target in figures_mod.ALL_FIGURES:
        wanted_figures = [target]
        figures_only = True
    else:
        parser.error(f"unknown target {args.target!r}")

    if wanted_tables and args.format != "text" and (wanted_figures or args.format == "csv"):
        parser.error("the table targets support --format text or json; 'all' supports text only")

    nprocs_axis = args.nprocs if isinstance(args.nprocs, list) else [args.nprocs]
    if len(nprocs_axis) > 1 and not wanted_sweep:
        parser.error("a multi-valued --nprocs axis is only supported by the 'sweep' target")
    if args.store is not None and not wanted_sweep:
        parser.error("--store is only supported by the 'sweep' target")
    engine_nprocs = nprocs_axis[0]

    # engine flags the user actually typed (vs. parser defaults); short
    # options may be condensed ("-j4"), long options may use "--flag=value"
    def _typed(flag: str) -> bool:
        if flag.startswith("--"):
            return any(arg == flag or arg.startswith(flag + "=") for arg in raw_argv)
        return any(arg.startswith(flag) and not arg.startswith("--") for arg in raw_argv)

    explicit = {kwarg for flag, kwarg in _ENGINE_FLAGS.items() if _typed(flag)}

    if wanted_figures:
        overrides: dict[str, object] = {}
        if "nprocs" in explicit:
            overrides["nprocs"] = engine_nprocs
        if "cache_dir" in explicit and args.cache:
            overrides["cache_dir"] = args.cache
        if figures_only:
            # flags that no figure can consume are an error rather than a no-op
            for kwarg in ("scale", "jobs"):
                if kwarg in explicit:
                    parser.error(f"{_FLAG_OF[kwarg]} is not supported by figure targets")
            figure_kwargs = _figure_kwargs(parser, wanted_figures, overrides)
        else:
            # 'all': thread what each figure supports, the rest configures the tables
            figure_kwargs = {
                name: {
                    key: value
                    for key, value in overrides.items()
                    if key in figures_mod.ALL_FIGURES.entry(name).params
                }
                for name in wanted_figures
            }

    if wanted_tables or wanted_sweep:
        session = Session(
            nprocs=engine_nprocs,
            scale=args.scale,
            cache_dir=args.cache or None,
            jobs=args.jobs,
            progress=None if args.no_progress else _progress_printer,
        )
        try:
            if wanted_tables:
                _run_tables(session, wanted_tables, problems, orderings, fmt=args.format)
            if wanted_sweep:
                axis = args.nprocs if isinstance(args.nprocs, list) else [None]
                _run_sweep(
                    session, problems, orderings, strategies, axis,
                    split=args.split, fmt=args.format, store=args.store,
                )
        finally:
            session.close()
    if wanted_figures:
        _run_figures(wanted_figures, figure_kwargs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

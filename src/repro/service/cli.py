"""The ``repro serve`` / ``repro submit`` / ``repro query`` CLI verbs.

Examples
--------
Start the daemon (journal, result store and tables under ``.repro_service/``)::

    python -m repro serve --port 8023 --nprocs 32 --scale 1.0 \\
        --data-dir .repro_service

Submit a sweep job and wait for it to finish::

    python -m repro submit --url http://127.0.0.1:8023 \\
        --problems XENON2,PRE2 --orderings metis \\
        --strategies 'mumps-workload,hybrid(alpha=0.3)' --nprocs 8,16 --wait

Query one result (served from the result store in milliseconds once computed)::

    python -m repro query --url http://127.0.0.1:8023 \\
        --problem XENON2 --ordering metis --strategy 'hybrid(alpha=0.3)' --nprocs 16
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sweep-as-a-service: daemon, job submission and result queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the sweep service daemon")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023, help="bind port (0 = ephemeral; default 8023)")
    serve.add_argument("--data-dir", default=".repro_service", help="journal + result-store directory")
    serve.add_argument("--nprocs", type=int, default=32, help="engine default simulated processors")
    serve.add_argument("--scale", type=float, default=1.0, help="engine default problem scale")
    serve.add_argument("--cache", default="", help="artifact-cache directory for the engine (optional)")
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="execution width of the daemon's session: 1 = in-process, "
        ">1 = one process pool of this many workers shared by every job worker (default 1)",
    )
    serve.add_argument("--workers", type=int, default=1, help="job worker threads (default 1)")
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="backpressure bound: POST /jobs answers 503 + Retry-After while this many jobs are queued (default: unbounded)",
    )
    serve.add_argument("--no-journal-fsync", action="store_true", help="skip fsync on journal appends (CI/tests)")
    serve.add_argument("--quiet", action="store_true", help="suppress per-request log lines")

    submit = sub.add_parser("submit", help="submit a sweep (or tune) job to a running daemon")
    submit.add_argument("--url", default="http://127.0.0.1:8023", help="service base URL")
    submit.add_argument("--problems", required=True, help="comma-separated problems")
    submit.add_argument(
        "--tune", default=None, metavar="SPACE",
        help="submit a tune job over this search space (e.g. 'hybrid(alpha=0.0..1.0)') "
        "instead of a sweep grid; --strategies/--nprocs axes do not apply",
    )
    submit.add_argument("--tune-searcher", default="halving", help="tune searcher spec (default halving)")
    submit.add_argument("--tune-objective", default="peak-memory", help="tune objective spec (default peak-memory)")
    submit.add_argument("--tune-seed", type=int, default=0, help="tune search seed (default 0)")
    submit.add_argument("--orderings", default="metis", help="comma-separated ordering specs")
    submit.add_argument("--strategies", default="memory-full", help="comma-separated strategy specs")
    submit.add_argument("--nprocs", default="", help="comma-separated processor-count axis (optional)")
    submit.add_argument("--scale", type=float, default=None, help="per-case scale override (optional)")
    submit.add_argument("--split", action="store_true", help="sweep with static splitting")
    submit.add_argument("--priority", type=int, default=0, help="queue priority (higher runs first)")
    submit.add_argument("--max-attempts", type=int, default=3, help="retry budget per job; a retry reruns only the cases the store lacks (default 3)")
    submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="job wall-clock deadline")
    submit.add_argument("--wait", action="store_true", help="poll until the job finishes; exit 1 on failure")
    submit.add_argument("--wait-timeout", type=float, default=600.0, help="--wait deadline (default 600s)")

    query = sub.add_parser("query", help="query results from a running daemon (one case or a listing)")
    query.add_argument("--url", default="http://127.0.0.1:8023", help="service base URL")
    query.add_argument("--problem", default=None, help="problem name, e.g. XENON2 (required for a single-case query)")
    query.add_argument("--ordering", default=None, help="ordering spec (single-case default: metis)")
    query.add_argument("--strategy", default=None, help="strategy spec, e.g. 'hybrid(alpha=0.3)'")
    query.add_argument("--nprocs", type=int, default=None, help="processor-count override / list filter")
    query.add_argument("--scale", type=float, default=None, help="scale override (single-case only)")
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
    return parser


# --------------------------------------------------------------------------- #
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import SweepService
    from repro.service.http import make_server

    service = SweepService(
        data_dir=args.data_dir,
        nprocs=args.nprocs,
        scale=args.scale,
        artifact_cache_dir=args.cache,
        jobs=args.jobs,
        workers=args.workers,
        max_pending=args.max_pending,
        journal_fsync=not args.no_journal_fsync,
    )
    # SIGTERM stops the daemon as Ctrl-C does, through service.stop(): pool
    # workers killed with their parent would outlive it, holding its socket
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    service.start()
    server = make_server(service, host=args.host, port=args.port, quiet=args.quiet)
    print(
        f"repro serve: listening on http://{args.host}:{server.port} "
        f"(data dir {args.data_dir}, nprocs={args.nprocs}, scale={args.scale:g}, "
        f"jobs={args.jobs}, workers={args.workers})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.specs import split_spec_list

    spec: dict[str, object] = {
        "priority": args.priority,
        "max_attempts": args.max_attempts,
        "timeout_s": args.timeout,
    }
    if args.tune is not None:
        from repro.tune.driver import TuneSpec
        from repro.tune.space import parse_space

        try:
            tune = TuneSpec(
                space=parse_space(args.tune),
                problems=[p.upper() for p in split_spec_list(args.problems)],
                orderings=split_spec_list(args.orderings),
                searcher=args.tune_searcher,
                objective=args.tune_objective,
                seed=args.tune_seed,
                scale=args.scale,
            )
        except (ValueError, KeyError) as exc:
            print(f"repro submit: {exc}", file=sys.stderr)
            return 2
        spec["tune"] = tune.to_dict()
    else:
        nprocs = [int(part) for part in args.nprocs.split(",") if part.strip()]
        sweep: dict[str, object] = {
            "problems": [p.upper() for p in split_spec_list(args.problems)],
            "orderings": split_spec_list(args.orderings),
            "strategies": split_spec_list(args.strategies),
            "split": [bool(args.split)],
        }
        if nprocs:
            sweep["nprocs"] = nprocs
        if args.scale is not None:
            sweep["scale"] = [args.scale]
        spec["sweep"] = sweep
    client = ServiceClient(args.url)
    try:
        record = client.submit(spec)
        if args.wait:
            record = client.wait(str(record["id"]), timeout=args.wait_timeout)
    except (ServiceError, TimeoutError, OSError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record.get("state") in (None, "queued", "running", "done") else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.leaderboard:
            response = client.leaderboard(
                None if args.leaderboard == "latest" else args.leaderboard
            )
        elif args.table:
            response = client.table(args.table)
        elif args.list:
            response = client.list_results(
                problem=args.problem,
                ordering=args.ordering,
                strategy=args.strategy,
                nprocs=args.nprocs,
                split="true" if args.split else None,
                limit=args.limit,
                cursor=args.cursor,
                fields=args.fields,
            )
        else:
            if not args.problem:
                print("repro query: --problem is required (or use --list / --table)", file=sys.stderr)
                return 2
            response = client.result(
                problem=args.problem,
                ordering=args.ordering or "metis",
                strategy=args.strategy,
                nprocs=args.nprocs,
                scale=args.scale,
                split="true" if args.split else None,
                compute=(False if args.no_compute else None),
            )
    except (ServiceError, OSError) as exc:
        print(f"repro query: {exc}", file=sys.stderr)
        return 1
    # emit the exact wire bytes: two identical queries diff clean (CI smoke)
    sys.stdout.buffer.write(response.body)
    sys.stdout.buffer.flush()
    print(f"cache: {response.cache or 'n/a'}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        if args.max_pending is not None and args.max_pending < 1:
            parser.error("--max-pending must be >= 1")
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "query":
        return _cmd_query(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

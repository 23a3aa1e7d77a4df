"""The ``repro serve`` / ``repro submit`` / ``repro query`` verbs' handlers.

Their flags are declared in :func:`repro.cli.build_parser`.

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

__all__ = ["cmd_serve", "cmd_submit", "cmd_query"]


# --------------------------------------------------------------------------- #
def cmd_serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.max_pending is not None and args.max_pending < 1:
        parser.error("--max-pending must be >= 1")
    from repro.service.daemon import SweepService
    from repro.service.http import make_server

    service = SweepService(
        data_dir=args.data_dir,
        nprocs=args.nprocs,
        scale=args.scale,
        artifact_cache_dir=args.cache_dir,
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


def cmd_submit(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

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
                problems=args.problems,
                orderings=args.orderings,
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
        sweep: dict[str, object] = {
            "problems": args.problems,
            "orderings": args.orderings,
            "strategies": args.strategies,
            "split": [bool(args.split)],
        }
        if args.nprocs is not None:
            sweep["nprocs"] = args.nprocs
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


def cmd_query(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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

"""The named benchmark suites.

A *suite* is a declarative list of :class:`PreparedCase` values — a
:class:`~repro.bench.model.BenchCase` identity plus a zero-argument callable
returning the case's domain metrics — built against a validated
:class:`~repro.bench.env.BenchEnv`.  :class:`~repro.bench.runner.BenchRunner`
times them (warmup + repeats around ``fn()``) for ``repro bench run`` and
the CI perf gate.

Suites:

``pipeline``
    The hot path: the discrete-event simulation kernel on prebuilt analyses
    (where the vectorized view updates show up) plus one cold end-to-end
    sweep through the session machinery.
``analysis``
    The cold analysis chain alone: ordering plus assembly-tree build for
    every paper problem × ordering, on prebuilt patterns.
``tables``
    Regeneration of the paper's Table 1 and Table 2 through a shared session.
``ablations``
    The strategy-ingredient ablation on two representative cases.
``components``
    Micro-benchmarks of the substrate (orderings, symbolic analysis,
    sequential memory analysis, one parallel simulation).
``serving``
    The service layer's query path over a real loopback socket: one cold
    query (empty result store, pipeline executes) vs. one stored query
    (served from the result store) vs. one submit→poll job round-trip.
``results``
    The columnar result store at corpus scale: streaming 10k synthetic case
    results through a store writer, and columnar filter + canonical sort +
    one page.
``tuning``
    The auto-tuning layer: a cold successive-halving search (fresh session
    and store per repeat), the same search resumed from a populated store,
    and the engine-free sample-and-render substrate.
``robustness``
    The fault-injection layer: a faulted simulation (stragglers + message
    loss) against its clean twin on the same prebuilt analysis, isolating
    the layer's overhead on the event kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.bench.env import BenchEnv
from repro.bench.model import BenchCase
from repro.registry import Registry

__all__ = ["PreparedCase", "SuiteInstance", "SUITES", "build_suite", "suite_names"]


@dataclass
class PreparedCase:
    """One runnable case: identity, work, and its default timing protocol."""

    case: BenchCase
    fn: Callable[[], Optional[Mapping[str, float]]]
    repeats: int = 1
    warmup: int = 0


@dataclass
class SuiteInstance:
    """A built suite: its cases plus the teardown releasing shared state."""

    name: str
    cases: list[PreparedCase] = field(default_factory=list)
    close: Callable[[], None] = lambda: None


SUITES: Registry = Registry("suite")


def suite_names() -> list[str]:
    return list(SUITES)


def build_suite(name: str, env: BenchEnv) -> SuiteInstance:
    """Build the named suite against ``env`` (raises with did-you-mean on a miss)."""
    builder = SUITES.get(name)
    return builder(env)


def _simulate_metrics(result) -> dict[str, float]:
    return {
        "max_peak_stack": float(result.max_peak_stack),
        "avg_peak_stack": float(result.avg_peak_stack),
        "total_time": float(result.total_time),
        "nodes": float(result.nodes),
    }


# --------------------------------------------------------------------------- #
# pipeline: the end-to-end and simulation hot paths
# --------------------------------------------------------------------------- #
#: (problem, ordering) pairs whose pure simulation step is timed.
PIPELINE_SIMULATE_CASES = [("XENON2", "metis"), ("TWOTONE", "amd")]

#: the cold sweep grid (2 problems × 2 orderings × 2 strategies = 8 cases).
PIPELINE_SWEEP_AXES = {
    "problems": ["XENON2", "PRE2"],
    "orderings": ["metis", "amd"],
    "strategies": ["mumps-workload", "memory-full"],
}


@SUITES.register(
    "pipeline",
    description="simulation kernel on prebuilt analyses + one cold end-to-end sweep",
)
def _pipeline_suite(env: BenchEnv) -> SuiteInstance:
    from repro.pipeline.stages import simulate_strategy
    from repro.session import Session
    from repro.specs import SweepSpec

    # the analyses are prebuilt (untimed) so the simulate cases measure the
    # discrete-event kernel alone — the target of the view vectorization
    session = Session(nprocs=env.nprocs, scale=env.scale, cache_dir="")
    cases: list[PreparedCase] = []
    for problem, ordering in PIPELINE_SIMULATE_CASES:
        analysis = session.analysis(problem, ordering)

        def simulate(analysis=analysis) -> dict[str, float]:
            return _simulate_metrics(
                simulate_strategy(analysis.tree, analysis.mapping, "memory-full", session.config)
            )

        cases.append(
            PreparedCase(
                case=BenchCase(
                    name=f"simulate-{problem}-{ordering}".lower(),
                    suite="pipeline",
                    params=(
                        ("problem", problem),
                        ("ordering", ordering),
                        ("strategy", "memory-full"),
                        ("nprocs", env.nprocs),
                        ("scale", env.scale),
                    ),
                ),
                fn=simulate,
                repeats=3,
                warmup=1,
            )
        )

    specs = SweepSpec(**PIPELINE_SWEEP_AXES).expand()

    def cold_sweep() -> dict[str, float]:
        # a fresh session with the disk tier pinned off: every repeat pays the
        # full pattern → ordering → tree → mapping → simulate chain
        with Session(nprocs=env.nprocs, scale=env.scale, cache_dir="") as inner:
            results = inner.run_cases(specs)
        return {
            "cases": float(len(results)),
            "sum_max_peak": float(sum(r.max_peak_stack for r in results)),
        }

    cases.append(
        PreparedCase(
            case=BenchCase(
                name="sweep-serial-cold",
                suite="pipeline",
                params=(
                    ("cases", len(specs)),
                    ("nprocs", env.nprocs),
                    ("scale", env.scale),
                ),
            ),
            fn=cold_sweep,
            repeats=1,
            warmup=0,
        )
    )
    return SuiteInstance(name="pipeline", cases=cases, close=session.close)


# --------------------------------------------------------------------------- #
# analysis: cold ordering + tree per problem × ordering
# --------------------------------------------------------------------------- #
#: the orderings of the paper's tables, in column order
ANALYSIS_ORDERINGS = ("metis", "pord", "amd", "amf")


@SUITES.register(
    "analysis",
    description="cold ordering + assembly tree for every problem × ordering",
)
def _analysis_suite(env: BenchEnv) -> SuiteInstance:
    from repro.experiments.problems import PROBLEMS
    from repro.ordering import compute_ordering
    from repro.symbolic import build_assembly_tree

    cases: list[PreparedCase] = []
    for problem, spec in PROBLEMS.items():
        pattern = spec.build(env.scale)  # untimed: the cases time ordering + tree
        for ordering in ANALYSIS_ORDERINGS:

            def analyse(pattern=pattern, ordering=ordering) -> dict[str, float]:
                perm = compute_ordering(pattern, ordering)
                tree = build_assembly_tree(pattern, perm, keep_variables=False)
                return {
                    "nodes": float(tree.nnodes),
                    "factor_entries": float(tree.total_factor_entries()),
                }

            cases.append(
                PreparedCase(
                    case=BenchCase(
                        name=f"analysis-{problem}-{ordering}".lower(),
                        suite="analysis",
                        params=(
                            ("problem", problem),
                            ("ordering", ordering),
                            ("scale", env.scale),
                        ),
                    ),
                    fn=analyse,
                    repeats=3,
                    warmup=1,
                )
            )
    return SuiteInstance(name="analysis", cases=cases)


# --------------------------------------------------------------------------- #
# tables: the paper's measurement grids
# --------------------------------------------------------------------------- #
def _table1_metrics(rows: Mapping[str, Mapping[str, object]]) -> dict[str, float]:
    return {
        "rows": float(len(rows)),
        "min_order": float(min(row["Order"] for row in rows.values())),
    }


def _table2_metrics(rows: Mapping[str, Mapping[str, object]]) -> dict[str, float]:
    gains = [float(v) for row in rows.values() for v in row.values()]
    return {
        "rows": float(len(rows)),
        "mean_gain": sum(gains) / len(gains) if gains else 0.0,
        "max_gain": max(gains) if gains else 0.0,
    }


#: per-table extraction of the metrics each regeneration reports.
TABLE_METRICS = {"table1": _table1_metrics, "table2": _table2_metrics}


@SUITES.register("tables", description="regeneration of Table 1 and Table 2")
def _tables_suite(env: BenchEnv) -> SuiteInstance:
    from repro.experiments.tables import ALL_TABLES
    from repro.session import Session

    # env.cache is passed verbatim: "" means "disk cache off" and must not
    # collapse to None, which would re-enable the REPRO_CACHE_DIR fallback
    session = Session(nprocs=env.nprocs, scale=env.scale, cache_dir=env.cache, jobs=env.jobs)
    cases: list[PreparedCase] = []
    for table in ("table1", "table2"):
        entry = ALL_TABLES.entry(table)

        def regenerate(entry=entry, metrics=TABLE_METRICS[table]) -> dict[str, float]:
            return metrics(entry.value(session))

        cases.append(
            PreparedCase(
                case=BenchCase(
                    name=table,
                    suite="tables",
                    params=(
                        ("nprocs", env.nprocs),
                        ("scale", env.scale),
                        ("jobs", env.jobs),
                    ),
                ),
                fn=regenerate,
            )
        )
    return SuiteInstance(name="tables", cases=cases, close=session.close)


# --------------------------------------------------------------------------- #
# ablations: strategy ingredients
# --------------------------------------------------------------------------- #
ABLATION_CASES = [("XENON2", "metis"), ("TWOTONE", "amd")]
ABLATION_PRESETS = [
    "mumps-workload",
    "memory-basic",
    "memory-slave",
    "memory-task",
    "memory-full",
    "hybrid",
]


@SUITES.register("ablations", description="strategy-ingredient ablation on split trees")
def _ablations_suite(env: BenchEnv) -> SuiteInstance:
    from repro.pipeline import CaseSpec
    from repro.session import Session, percentage_decrease

    # "" = disk cache off, never None (the REPRO_CACHE_DIR fallback)
    session = Session(nprocs=env.nprocs, scale=env.scale, cache_dir=env.cache, jobs=env.jobs)
    cases: list[PreparedCase] = []
    for problem, ordering in ABLATION_CASES:

        def ablate(problem=problem, ordering=ordering) -> dict[str, float]:
            base = session.run(CaseSpec(problem, ordering, "mumps-workload", split=True))
            gains = {}
            for preset in ABLATION_PRESETS:
                result = session.run(CaseSpec(problem, ordering, preset, split=True))
                gains[preset] = percentage_decrease(base.max_peak_stack, result.max_peak_stack)
            return gains

        cases.append(
            PreparedCase(
                case=BenchCase(
                    name=f"ablation-{problem}-{ordering}".lower(),
                    suite="ablations",
                    params=(
                        ("problem", problem),
                        ("ordering", ordering),
                        ("presets", len(ABLATION_PRESETS)),
                        ("nprocs", env.nprocs),
                        ("scale", env.scale),
                    ),
                ),
                fn=ablate,
            )
        )
    return SuiteInstance(name="ablations", cases=cases, close=session.close)


# --------------------------------------------------------------------------- #
# components: substrate micro-benchmarks
# --------------------------------------------------------------------------- #
def _component_grid_side(scale: float) -> int:
    """Edge length of the 3-D model grid (12 at the historical scale 1.0)."""
    return max(6, int(round(12.0 * scale ** (1.0 / 3.0))))


@SUITES.register("components", description="substrate micro-benchmarks (orderings, symbolic, simulation)")
def _components_suite(env: BenchEnv) -> SuiteInstance:
    from repro.analysis import sequential_memory_trace
    from repro.mapping import compute_mapping
    from repro.ordering import compute_ordering
    from repro.pipeline.stages import simulate_strategy
    from repro.runtime import SimulationConfig
    from repro.sparse import grid_3d
    from repro.symbolic import build_assembly_tree, column_counts, elimination_tree

    side = _component_grid_side(env.scale)
    pattern = grid_3d(side, side, side)
    tree = build_assembly_tree(pattern, compute_ordering(pattern, "metis"), keep_variables=False)
    config = SimulationConfig.paper(nprocs=env.nprocs)
    mapping = compute_mapping(tree, env.nprocs, **config.mapping_params())

    def simulate() -> dict[str, float]:
        return _simulate_metrics(simulate_strategy(tree, mapping, "memory-full", config))

    work: list[tuple[str, Callable[[], Optional[Mapping[str, float]]]]] = [
        ("ordering-metis", lambda: {"n": float(compute_ordering(pattern, "metis").shape[0])}),
        ("ordering-amd", lambda: {"n": float(compute_ordering(pattern, "amd").shape[0])}),
        ("elimination-tree", lambda: {"n": float(elimination_tree(pattern).shape[0])}),
        ("column-counts", lambda: {"min": float(column_counts(pattern).min())}),
        (
            "assembly-tree-build",
            lambda: {
                "nodes": float(
                    build_assembly_tree(pattern, None, keep_variables=False).nnodes
                )
            },
        ),
        (
            "sequential-memory-trace",
            lambda: {"peak_working": float(sequential_memory_trace(tree).peak_working)},
        ),
        ("simulate-memory-full", simulate),
    ]
    cases = [
        PreparedCase(
            case=BenchCase(
                name=name,
                suite="components",
                params=(("grid", side), ("nprocs", env.nprocs), ("scale", env.scale)),
            ),
            fn=fn,
            repeats=3,
            warmup=1,
        )
        for name, fn in work
    ]
    return SuiteInstance(name="components", cases=cases)


# --------------------------------------------------------------------------- #
# serving: the service layer's query path (cold vs cached) over a real socket
# --------------------------------------------------------------------------- #
#: the case every serving benchmark queries (must stay cheap at CI scale).
SERVING_QUERY = {"problem": "XENON2", "ordering": "metis", "strategy": "memory-full"}

#: the tiny sweep of the submit round-trip case (one analysis, two strategies).
SERVING_JOB_SWEEP = {
    "problems": ["XENON2"],
    "orderings": ["metis"],
    "strategies": ["mumps-workload", "memory-full"],
}


@SUITES.register(
    "serving",
    description="HTTP query-path latency over the sweep service: cold, cached, job round-trip",
)
def _serving_suite(env: BenchEnv) -> SuiteInstance:
    import itertools
    import tempfile
    from pathlib import Path

    from repro.results import ResultStore
    from repro.service import ServiceClient, SweepService, make_server

    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-serving-")
    service = SweepService(
        data_dir=tmpdir.name, nprocs=env.nprocs, scale=env.scale, journal_fsync=False
    )
    service.start()
    server = make_server(service, quiet=True)
    server.serve_background()
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    cold_stores = itertools.count()

    def empty_store() -> None:
        # the analysis artifacts stay memoized in the engine's memory tier, as
        # they would in a long-lived daemon; only the stored cases are gone
        service.results = ResultStore(
            Path(tmpdir.name) / f"cold-{next(cold_stores)}", fsync=False
        )

    def query_cold() -> dict[str, float]:
        # every repeat re-executes the simulation stage behind the HTTP hop
        empty_store()
        response = client.result(**SERVING_QUERY)
        return {"cached": float(response.cached), "bytes": float(len(response.body))}

    def query_cached() -> dict[str, float]:
        response = client.result(**SERVING_QUERY)
        return {"cached": float(response.cached), "bytes": float(len(response.body))}

    def submit_roundtrip() -> dict[str, float]:
        # a job skips the cases its store holds: every repeat runs the grid
        empty_store()
        record = client.submit({"sweep": SERVING_JOB_SWEEP})
        # the job takes ~5 ms: a coarser poll would round the time up to the
        # poll period on some repeats and not on others
        final = client.wait(str(record["id"]), timeout=600.0, poll=0.002)
        return {
            "cases": float(final["total"]),
            "failed": float(final["state"] != "done"),
        }

    def prepared(name: str, fn, *, repeats: int, warmup: int) -> PreparedCase:
        return PreparedCase(
            case=BenchCase(
                name=name,
                suite="serving",
                params=(
                    ("problem", SERVING_QUERY["problem"]),
                    ("nprocs", env.nprocs),
                    ("scale", env.scale),
                ),
            ),
            fn=fn,
            repeats=repeats,
            warmup=warmup,
        )

    # warm the analysis artifacts (and the cached case) before timing: the
    # cold case then measures pipeline re-execution, not first-import noise
    client.result(**SERVING_QUERY)

    def close() -> None:
        server.shutdown()
        server.server_close()
        service.stop()
        tmpdir.cleanup()

    return SuiteInstance(
        name="serving",
        cases=[
            prepared("query-cold", query_cold, repeats=3, warmup=1),
            prepared("query-cached", query_cached, repeats=5, warmup=1),
            prepared("submit-roundtrip", submit_roundtrip, repeats=30, warmup=3),
        ],
        close=close,
    )


# --------------------------------------------------------------------------- #
# results: the columnar store at corpus scale (synthetic rows, no engine)
# --------------------------------------------------------------------------- #
#: row count of the synthetic corpus (fixed across scales for comparability).
RESULTS_ROWS = 10_000


def _synthetic_results(n: int):
    """``n`` deterministic synthetic (key, CaseResult) pairs."""
    import numpy as np

    from repro.pipeline.stage import CaseResult

    rng = np.random.default_rng(20040817)  # the paper's venue date; any seed works
    problems = ["XENON2", "PRE2", "TWOTONE", "ULTRASOUND3", "MIXINGTANK"]
    orderings = ["metis", "pord", "amd", "amf"]
    strategies = ["mumps-workload", "memory-full", "hybrid(alpha=0.25)", "hybrid(alpha=0.75)"]
    nprocs_axis = [8, 16, 32]
    peaks = rng.uniform(1e5, 1e8, size=n)
    times = rng.uniform(0.5, 50.0, size=n)
    pairs = []
    for i in range(n):
        nprocs = nprocs_axis[i % len(nprocs_axis)]
        per_proc = rng.uniform(1e4, peaks[i], size=nprocs)
        result = CaseResult(
            problem=problems[i % len(problems)],
            ordering=orderings[(i // 5) % len(orderings)],
            strategy=strategies[(i // 20) % len(strategies)],
            split=bool(i % 2),
            nprocs=nprocs,
            max_peak_stack=float(peaks[i]),
            avg_peak_stack=float(per_proc.mean()),
            sum_peak_stack=float(per_proc.sum()),
            total_time=float(times[i]),
            total_factor_entries=float(peaks[i] * 3.0),
            per_proc_peak_stack=per_proc,
            nodes=1000 + i % 5000,
            nodes_split=i % 100,
            messages=10_000 + i % 100_000,
        )
        pairs.append((f"result-{i:024x}", result))
    return pairs


@SUITES.register(
    "results",
    description="columnar result store: batch seal, filter+page (10k rows)",
)
def _results_suite(env: BenchEnv) -> SuiteInstance:
    import os
    import tempfile

    from repro.results import ResultStore, ResultTable

    pairs = _synthetic_results(RESULTS_ROWS)
    keys, results = [k for k, _ in pairs], [r for _, r in pairs]
    table = ResultTable.from_results(results, keys=keys)
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-results-")
    run_no = {"n": 0}

    def append_stream() -> dict[str, float]:
        # a fresh store directory per repeat: measures batch sealing (one
        # manifest record per 1024 rows) end to end (fsync off, as in CI daemons)
        run_no["n"] += 1
        store = ResultStore(os.path.join(tmpdir.name, f"append-{run_no['n']}"), fsync=False)
        for start in range(0, len(pairs), 1024):
            store.seal(keys[start : start + 1024], results[start : start + 1024])
        return {"rows": float(len(store)), "segments": float(store.stats()["segments"])}

    def filter_page() -> dict[str, float]:
        # the GET /results hot path: columnar predicate, canonical sort, one page
        page = table.filter(problem="XENON2", nprocs=16).sorted()
        rows = page.take(range(min(50, len(page)))).to_dicts()
        return {"matched": float(len(page)), "page": float(len(rows))}

    def prepared(name: str, fn, *, repeats: int, warmup: int) -> PreparedCase:
        return PreparedCase(
            case=BenchCase(
                name=name,
                suite="results",
                params=(("rows", RESULTS_ROWS),),
            ),
            fn=fn,
            repeats=repeats,
            warmup=warmup,
        )

    return SuiteInstance(
        name="results",
        cases=[
            prepared("append-10k", append_stream, repeats=3, warmup=1),
            prepared("filter-page-10k", filter_page, repeats=5, warmup=1),
        ],
        close=tmpdir.cleanup,
    )


# --------------------------------------------------------------------------- #
# tuning: the auto-tuning layer (seeded search + memoized rung sweeps)
# --------------------------------------------------------------------------- #
#: the tiny space/search the tuning suite races (cheap at any scale).
TUNING_SPACE = "hybrid(alpha=0.0..1.0)"
TUNING_SEARCHER = "halving(samples=4,eta=2,rungs=2)"


@SUITES.register(
    "tuning",
    description="strategy auto-tuning: cold halving search, resumed search, sampling + artifact encode",
)
def _tuning_suite(env: BenchEnv) -> SuiteInstance:
    import os
    import tempfile

    import numpy as np

    from repro.session import Session
    from repro.tune.driver import Tuner, TuneSpec
    from repro.tune.space import parse_space

    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-tuning-")
    spec = TuneSpec(
        space=parse_space(TUNING_SPACE),
        problems=["XENON2"],
        searcher=TUNING_SEARCHER,
        objective="peak-memory",
        seed=7,
        nprocs=env.nprocs,
        scale=env.scale,
    )
    run_no = {"n": 0}

    def search_cold() -> dict[str, float]:
        # a fresh session and store per repeat: measures the whole search —
        # analyses, rung sweeps, ranking — with no memoization carried over
        run_no["n"] += 1
        with Session(nprocs=env.nprocs, scale=env.scale, cache_dir="") as session:
            board = Tuner(
                session, spec, store=os.path.join(tmpdir.name, f"cold-{run_no['n']}")
            ).run()
            return {
                "evaluations": float(board.evaluations),
                "simulate_runs": float(session.engine.stage_runs["simulate"]),
            }

    warm_store = os.path.join(tmpdir.name, "warm")

    def search_resumed() -> dict[str, float]:
        # the resume path: every evaluation answered from the shared store
        # (the first, untimed warmup repeat populates it)
        with Session(nprocs=env.nprocs, scale=env.scale, cache_dir="") as session:
            board = Tuner(session, spec, store=warm_store).run()
            return {
                "evaluations": float(board.evaluations),
                "simulate_runs": float(session.engine.stage_runs["simulate"]),
            }

    def sample_and_encode() -> dict[str, float]:
        # the engine-free substrate: seeded sampling through canonical spec
        # rendering (the store-key path) — no simulation at all
        space = parse_space(TUNING_SPACE)
        rng = np.random.default_rng(7)
        keys = {space.sample(rng).key for _ in range(500)}
        return {"distinct": float(len(keys))}

    def prepared(name: str, fn, *, repeats: int, warmup: int) -> PreparedCase:
        return PreparedCase(
            case=BenchCase(
                name=name,
                suite="tuning",
                params=(
                    ("space", TUNING_SPACE),
                    ("searcher", TUNING_SEARCHER),
                    ("nprocs", env.nprocs),
                    ("scale", env.scale),
                ),
            ),
            fn=fn,
            repeats=repeats,
            warmup=warmup,
        )

    return SuiteInstance(
        name="tuning",
        cases=[
            prepared("halving-search-cold", search_cold, repeats=2, warmup=0),
            prepared("halving-search-resumed", search_resumed, repeats=3, warmup=1),
            prepared("sample-and-render-500", sample_and_encode, repeats=5, warmup=1),
        ],
        close=tmpdir.cleanup,
    )


# --------------------------------------------------------------------------- #
# robustness: the fault-injection layer's overhead on the simulation kernel
# --------------------------------------------------------------------------- #
#: the perturbation the faulted case injects (exercises every model hook).
ROBUSTNESS_FAULTS = "stragglers(frac=0.25,slowdown=4.0)+msgloss(p=0.05,retry_timeout=5e-4)"
ROBUSTNESS_SEED = 7


@SUITES.register(
    "robustness",
    description="fault-injection overhead: clean vs faulted simulation on one prebuilt analysis",
)
def _robustness_suite(env: BenchEnv) -> SuiteInstance:
    from repro.pipeline.stages import simulate_strategy
    from repro.session import Session

    # one prebuilt analysis serves both twins, so the pair isolates the
    # fault layer's cost from the analysis stages
    session = Session(nprocs=env.nprocs, scale=env.scale, cache_dir="")
    analysis = session.analysis("XENON2", "metis")
    faulted_config = session.config.replace(
        faults=ROBUSTNESS_FAULTS, fault_seed=ROBUSTNESS_SEED
    )

    def simulate(config) -> dict[str, float]:
        result = simulate_strategy(analysis.tree, analysis.mapping, "memory-full", config)
        metrics = _simulate_metrics(result)
        counts = result.message_counts or {}
        metrics["msg_lost"] = float(counts.get("msg_lost", 0))
        metrics["msg_retries"] = float(counts.get("msg_retries", 0))
        return metrics

    def prepared(name: str, config) -> PreparedCase:
        return PreparedCase(
            case=BenchCase(
                name=name,
                suite="robustness",
                params=(
                    ("problem", "XENON2"),
                    ("ordering", "metis"),
                    ("strategy", "memory-full"),
                    ("faults", ROBUSTNESS_FAULTS if config.faults else ""),
                    ("nprocs", env.nprocs),
                    ("scale", env.scale),
                ),
            ),
            fn=lambda: simulate(config),
            repeats=3,
            warmup=1,
        )

    return SuiteInstance(
        name="robustness",
        cases=[
            prepared("simulate-clean", session.config),
            prepared("simulate-faulted", faulted_config),
        ],
        close=session.close,
    )

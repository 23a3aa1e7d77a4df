"""cold-analysis: what a user pays on a new problem or ordering.

Each op opens a fresh session (no artifact cache) and runs one case, so the
whole analysis chain (pattern, ordering, tree, mapping) is computed cold
before the simulation.  The op list is every problem × ordering, once per
pass, each pass in its own seeded shuffled order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Optional

import numpy as np

import repro
from repro.pipeline import CaseSpec

from common import (
    ANALYSIS_STAGES,
    STAGE_SPANS,
    Op,
    Phase,
    SETUP_REPEATS,
    RunResult,
    Tracer,
    finish_run,
    fresh_import,
    median_setup,
    passes_for,
    run_phase,
    vm_hwm_mb,
)

PROBLEMS = ("BMWCRA_1", "GUPTA3", "MSDOOR", "SHIP_003", "PRE2", "TWOTONE", "ULTRASOUND3", "XENON2")
ORDERINGS = ("metis", "amd", "amf", "pord")
STRATEGY = "memory-full"
PINS = Path(__file__).with_name("pins.json")


NPROCS = 32
#: nominal seconds of one pass; ``--seconds`` maps to a pass count with it
PASS_S = 11.5
#: 4 passes × 32 cases put 12.8 samples beyond p90
MIN_PASSES = 4


#: analysis scale of the benchmark (and of ``pins.json``); the self-test runs smaller
SCALE = 0.3


def make_ops(seed: int, passes: int) -> list[Op]:
    rng = random.Random(seed)
    cases = [(p, o) for p in PROBLEMS for o in ORDERINGS]
    ops: list[Op] = []
    for _ in range(passes):
        order = list(cases)
        rng.shuffle(order)
        ops.extend(Op("cold", {"spec": CaseSpec(p, o, STRATEGY)}) for p, o in order)
    return ops


def perm_digest(perm) -> str:
    return hashlib.sha256(np.asarray(perm, dtype="<i8").tobytes()).hexdigest()


def load_pins(scale: float) -> dict:
    """Pinned per-case outputs, when they were generated for this scale."""
    pins = json.loads(PINS.read_text())
    return pins["cases"] if pins["scale"] == scale else {}


class ColdAnalysis:
    def __init__(self, scale: float = SCALE) -> None:
        self.scale = scale
        self.pins = load_pins(scale)
        self.counts = self._zero_counts()
        self._factor_entries: list[float] = []

    @staticmethod
    def _zero_counts() -> dict[str, float]:
        return {
            "symbolic.nodes": 0,
            "symbolic.factor_entries": 0.0,
            "runtime.sims": 0,
            "runtime.messages": 0,
            "runtime.slave_selections": 0,
            "pipeline.analysis_runs": 0,
            "pipeline.simulate_runs": 0,
        }

    def reset_counts(self) -> None:
        self.counts = self._zero_counts()
        self._factor_entries = []

    def open_session(self):
        return repro.open_session(nprocs=NPROCS, scale=self.scale, cache_dir="")

    def setup(self) -> None:
        """One small cold case per ordering, so lazy imports happen untimed."""
        with repro.open_session(nprocs=8, scale=0.1, cache_dir="") as session:
            for ordering in ORDERINGS:
                session.run(CaseSpec("XENON2", ordering, STRATEGY))

    def execute(self, op: Op, tracer: Optional[Tracer]):
        spec: CaseSpec = op.args["spec"]
        if tracer is None:
            session = self.open_session()
            return session, session.run(spec)
        with tracer.span("session.open"):
            session = self.open_session()
        for stage, name in STAGE_SPANS:
            if stage == "ordering":
                name = f"ordering.{spec.ordering}"
            with tracer.span(name):
                session.engine.artifact(stage, spec)
        with tracer.span("runtime.cold_sim"):
            result = session.run(spec)
        return session, result

    def check(self, index: int, op: Op, output) -> bool:
        """Pinned digests plus oracle-free invariants; also tallies work counts."""
        session, result = output
        spec: CaseSpec = op.args["spec"]
        engine = session.engine
        runs = engine.stage_runs
        self.counts["pipeline.analysis_runs"] += sum(runs[s] for s in ANALYSIS_STAGES)
        self.counts["pipeline.simulate_runs"] += runs["simulate"]

        n = engine.artifact("pattern", spec).n
        perm = np.asarray(engine.artifact("ordering", spec))
        tree = engine.artifact("split", spec).tree
        sim = engine.artifact("simulate", spec)  # a rerun, for the per-processor split
        self.counts["symbolic.nodes"] += result.nodes
        self._factor_entries.append(result.total_factor_entries)
        self.counts["symbolic.factor_entries"] = math.fsum(self._factor_entries)
        self.counts["runtime.sims"] += 1
        self.counts["runtime.messages"] += sum(sim.message_counts.values())
        self.counts["runtime.slave_selections"] += sim.slave_selections

        problems = []
        if not np.array_equal(np.sort(perm), np.arange(n)):
            problems.append("permutation does not cover 0..n-1")
        if result.nodes != tree.nnodes:
            problems.append(f"{result.nodes} nodes, tree has {tree.nnodes}")
        if not math.isclose(
            math.fsum(sim.per_proc_factor_entries), result.total_factor_entries, rel_tol=1e-9
        ):
            problems.append("per-processor factor entries do not sum to the total")
        if (sim.max_peak_stack, sim.total_time) != (result.max_peak_stack, result.total_time):
            problems.append("rerun of the simulation differs")
        pin = self.pins.get(f"{spec.problem}/{spec.ordering}")
        if pin is not None:
            if perm_digest(perm) != pin["perm_sha256"]:
                problems.append("permutation digest differs from the pin")
            if result.nodes != pin["nodes"]:
                problems.append(f"{result.nodes} nodes, pinned {pin['nodes']}")
            if result.total_factor_entries != pin["total_factor_entries"]:
                problems.append("total factor entries differ from the pin")
        elif self.pins:
            problems.append("no pin for this case")
        for problem in problems:
            print(f"op {index} {spec.problem}/{spec.ordering}: {problem}", file=sys.stderr)
        return not problems

    def phase(self, ops: list[Op], tracer: Optional[Tracer] = None) -> Phase:
        return run_phase(ops, self.execute, tracer=tracer, after=self.check, keep_outputs=False)


def run(
    *, seed: int, seconds: float, trace: bool, root: Path, trace_path: Path,
    **_,
) -> RunResult:
    bench = ColdAnalysis()
    if trace:
        bench.setup()
        ops = make_ops(seed, 1)
        untraced = bench.phase(ops)
        bench.reset_counts()
        traced = bench.phase(ops, Tracer())
        phases = [untraced, traced]
        setup_s = 0.0
    else:
        def setup():
            fresh_import(root)
            bench.setup()

        setup_s, _ = median_setup(setup, SETUP_REPEATS)
        ops = make_ops(seed, passes_for(seconds, PASS_S, MIN_PASSES))
        phases = [bench.phase(ops)]
    return finish_run(
        trace=trace,
        phases=phases,
        setup_s=setup_s,
        rss_mb=vm_hwm_mb(),
        counts=bench.counts,
        trace_path=trace_path,
    )

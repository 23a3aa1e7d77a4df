"""strategy-sweep: the paper's experiment, one tree under competing schedulers.

Set-up resolves every analysis stage, split and unsplit, at each processor
count, for four (problem, ordering) pairs that cover SYM/UNS and all four
orderings.  Each op is one ``Session.run`` of a strategy preset on one of
those analyses, so the timed phase only simulates.  Per pass, every
(pair, nprocs, split) group runs the six presets clean plus one preset under
faults with a seeded fault seed (clean baseline + 3 faulted replays on the
batched path): 24 faulted ops among 168, about 1 in 7.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path
from typing import Optional


import repro
from repro.faults import canonical_faults
from repro.pipeline import CaseResult, CaseSpec
from repro.runtime import FactorizationSimulator, SimulationResult

from common import (
    ANALYSIS_STAGES,
    Op,
    Phase,
    SETUP_REPEATS,
    RunResult,
    Tracer,
    finish_run,
    fresh_import,
    mean,
    median_setup,
    passes_for,
    run_phase,
    vm_hwm_mb,
)

PAIRS = (("XENON2", "metis"), ("TWOTONE", "amd"), ("BMWCRA_1", "amf"), ("MSDOOR", "pord"))
PRESETS = ("mumps-workload", "memory-basic", "memory-slave", "memory-task", "memory-full", "hybrid")
NPROCS = (16, 32, 64)
FAULTS = "stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01,retry_timeout=5e-4)"
REPLICATIONS = 3
#: nominal seconds of one pass; ``--seconds`` maps to a pass count with it
PASS_S = 4.5
#: unique clean and faulted specs re-run on the ``reference`` engine after the timed phase
REFERENCE_CLEAN = 8
REFERENCE_FAULTED = 4
#: analysis scale of the benchmark; the self-test runs smaller
SCALE = 1.0


def make_ops(seed: int, passes: int) -> list[Op]:
    """The op list; the seed draws the fault seeds and the order.

    The faulted preset of each group rotates with the group and the pass, the
    same for every seed, so that seeds differ in their fault draws but not in
    which schedulers replay under faults.
    """
    rng = random.Random(seed)
    groups = [
        (problem, ordering, nprocs, split)
        for problem, ordering in PAIRS
        for nprocs in NPROCS
        for split in (False, True)
    ]
    ops: list[Op] = []
    for k in range(passes):
        block: list[Op] = []
        for g, (problem, ordering, nprocs, split) in enumerate(groups):
            for preset in PRESETS:
                spec = CaseSpec(problem, ordering, preset, split=split, nprocs=nprocs)
                block.append(Op("clean", {"spec": spec}))
            spec = CaseSpec(
                problem, ordering, PRESETS[(g + k) % len(PRESETS)], split=split, nprocs=nprocs,
                faults=FAULTS, fault_seed=rng.randrange(1 << 31), replications=REPLICATIONS,
            )
            block.append(Op("faulted", {"spec": spec}))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def simulate_each(
    engine, spec: CaseSpec, sim_engine: Optional[str] = None
) -> tuple[list[SimulationResult], float]:
    """Every simulation of one case, one at a time (no batching).

    Also returns the seconds spent building and running the simulators alone,
    without the pipeline's keys, lookups and result fold around them.
    """
    tree = engine.artifact("split", spec).tree
    mapping = engine.artifact("mapping", spec)
    preset, params = repro.resolve_strategy(spec.strategy)
    out = []
    seconds = 0.0
    for config in engine.replication_configs(spec):
        slave_selector, task_selector = preset.build(**params)
        t0 = time.perf_counter()
        out.append(
            FactorizationSimulator(
                tree, config=config, mapping=mapping, slave_selector=slave_selector,
                task_selector=task_selector, strategy_name=preset.name, engine=sim_engine,
            ).run()
        )
        seconds += time.perf_counter() - t0
    return out, seconds


def fold(engine, spec: CaseSpec, sims: list[SimulationResult]) -> CaseResult:
    analysis = engine.analysis_for(spec)
    if len(sims) == 1:
        return CaseResult.from_simulation(analysis, spec.strategy, sims[0])
    return CaseResult.from_replications(
        analysis, spec.strategy, sims[0], sims[1:],
        faults=canonical_faults(engine.effective_config(spec).faults),
    )


def sim_fields(result: SimulationResult) -> tuple:
    """Every field of a result, arrays as bytes."""
    return (
        result.nprocs,
        result.per_proc_peak_stack.tobytes(),
        result.per_proc_factor_entries.tobytes(),
        result.per_proc_tasks.tobytes(),
        result.total_time,
        result.message_counts,
        result.slave_selections,
        result.nodes,
        result.total_factor_entries,
        result.strategy_name,
    )


class StrategySweep:
    def __init__(self, seed: int, scale: float = SCALE) -> None:
        self.seed = seed
        self.scale = scale
        self.session = None
        self.rss_mb = 0.0
        #: seconds of the bare simulator runs of each spec, from the output check
        self.engine_s: dict[CaseSpec, float] = {}

    def setup(self):
        """A fresh session with every analysis resolved and the simulators warm."""
        session = repro.open_session(nprocs=32, scale=self.scale, cache_dir="")
        for problem, ordering in PAIRS:
            for nprocs in NPROCS:
                for split in (False, True):
                    session.engine.analysis_for(
                        CaseSpec(problem, ordering, split=split, nprocs=nprocs)
                    )
        problem, ordering = PAIRS[0]
        session.run(CaseSpec(problem, ordering, nprocs=NPROCS[0]))
        session.run(
            CaseSpec(problem, ordering, nprocs=NPROCS[0], faults=FAULTS, replications=REPLICATIONS)
        )
        return session

    def execute(self, op: Op, tracer: Optional[Tracer]):
        spec: CaseSpec = op.args["spec"]
        if tracer is None:
            return self.session.run(spec)
        if spec.faults:
            with tracer.span("faults.batch", runs=REPLICATIONS + 1):
                return self.session.run(spec)
        with tracer.span("runtime.sim", nprocs=spec.nprocs):
            return self.session.run(spec)

    def phase(self, ops: list[Op], tracer: Optional[Tracer] = None) -> tuple[Phase, dict]:
        """One timed pass; then every op's output is checked and its work counted."""
        engine = self.session.engine
        before = dict(engine.stage_runs)
        phase = run_phase(ops, self.execute, tracer=tracer)
        self.rss_mb = vm_hwm_mb()
        after = dict(engine.stage_runs)
        counts = {
            "pipeline.analysis_runs": sum(after.get(s, 0) - before.get(s, 0) for s in ANALYSIS_STAGES),
            "pipeline.simulate_runs": after.get("simulate", 0) - before.get("simulate", 0),
        }
        counts.update(self.check(phase))
        return phase, counts

    def check(self, phase: Phase) -> dict:
        """Each op against an unbatched rerun; a seeded sample against ``reference``."""
        engine = self.session.engine
        reruns: dict[CaseSpec, list[SimulationResult]] = {}
        expected: dict[CaseSpec, dict] = {}
        for op in phase.ops:
            spec = op.args["spec"]
            if spec not in reruns:
                reruns[spec], self.engine_s[spec] = simulate_each(engine, spec)
                expected[spec] = fold(engine, spec, reruns[spec]).to_dict()
        for i, (op, output) in enumerate(zip(phase.ops, phase.outputs)):
            if i not in phase.failed and output.to_dict() != expected[op.args["spec"]]:
                print(f"op {i} {op.args['spec'].label()}: differs from its unbatched rerun", file=sys.stderr)
                phase.failed.add(i)

        rng = random.Random(f"{self.seed}/reference")
        specs = sorted(reruns, key=lambda s: s.label() + str(s.fault_seed))
        clean = [s for s in specs if not s.faults]
        faulted = [s for s in specs if s.faults]
        sample = rng.sample(clean, min(REFERENCE_CLEAN, len(clean))) + rng.sample(
            faulted, min(REFERENCE_FAULTED, len(faulted))
        )
        for spec in sample:
            reference, _ = simulate_each(engine, spec, "reference")
            if [sim_fields(r) for r in reference] != [sim_fields(r) for r in reruns[spec]]:
                print(f"{spec.label()}: differs from the reference engine", file=sys.stderr)
                phase.failed.update(i for i, op in enumerate(phase.ops) if op.args["spec"] == spec)

        counts = {"runtime.sims": 0, "runtime.messages": 0, "runtime.slave_selections": 0, "symbolic.nodes": 0}
        entries = []
        for op, output in zip(phase.ops, phase.outputs):
            sims = reruns[op.args["spec"]]
            counts["runtime.sims"] += len(sims)
            counts["runtime.messages"] += sum(sum(r.message_counts.values()) for r in sims)
            counts["runtime.slave_selections"] += sum(r.slave_selections for r in sims)
            counts["symbolic.nodes"] += sims[0].nodes
            entries.append(sims[0].total_factor_entries)
        counts["symbolic.factor_entries"] = math.fsum(entries)
        return counts

    def warm_self_ms(self, traced: Phase) -> float:
        """Mean pipeline self time of a clean op: its ``Session.run`` span
        minus the bare simulator run of the same spec (keys, lookups, preset
        resolution and the ``CaseResult`` fold).  Faulted ops are left out:
        their batched replay has no unbatched twin to subtract."""
        return mean([
            (s.dur - self.engine_s[traced.ops[s.op].args["spec"]]) * 1e3
            for s in traced.tracer.spans
            if s.name == "runtime.sim"
        ])


def run(
    *, seed: int, seconds: float, trace: bool, root: Path, trace_path: Path,
    **_,
) -> RunResult:
    bench = StrategySweep(seed)
    layer_extra = {}
    if trace:
        bench.session = bench.setup()
        ops = make_ops(seed, 1)
        untraced, _ = bench.phase(ops)
        traced, counts = bench.phase(ops, Tracer())
        phases = [untraced, traced]
        setup_s = 0.0
        layer_extra["pipeline.warm_self_ms"] = bench.warm_self_ms(traced)
    else:
        def setup():
            fresh_import(root)
            return bench.setup()

        setup_s, bench.session = median_setup(setup, SETUP_REPEATS)
        ops = make_ops(seed, passes_for(seconds, PASS_S, 1))
        phase, counts = bench.phase(ops)
        phases = [phase]
    return finish_run(
        trace=trace,
        phases=phases,
        setup_s=setup_s,
        rss_mb=bench.rss_mb,
        counts=counts,
        trace_path=trace_path,
        layer_extra=layer_extra,
    )

"""Regeneration of the paper's illustrative Figures 1-8.

The figures of the paper are explanatory diagrams rather than measurement
plots; each function below reconstructs the underlying object with the
reproduction's own machinery and returns it as structured data plus an ascii
rendering, so the figure benchmarks can check that the mechanisms behave as
the figures describe (e.g. Algorithm 1 levels the memory of the selected
slaves, Algorithm 2 delays a large type-2 task while inside a subtree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapping import NodeType, compute_mapping
from repro.ordering import compute_ordering
from repro.pipeline import AnalysisPipeline
from repro.registry import Registry
from repro.runtime import FactorizationSimulator, SimulationConfig
from repro.scheduling import (
    LifoTaskSelector,
    MemoryAwareTaskSelector,
    MemorySlaveSelector,
    SlaveSelectionContext,
    TaskSelectionContext,
    get_strategy,
)
from repro.runtime.tasks import Task, TaskKind
from repro.sparse import SparsePattern, grid_2d
from repro.symbolic import build_assembly_tree
from repro.analysis.flops import type2_slave_block_entries
from repro.analysis.memory import sequential_memory_trace

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "ALL_FIGURES",
]


# --------------------------------------------------------------------------- #
# Figure 1: a matrix and the associated assembly tree
# --------------------------------------------------------------------------- #
def figure1() -> dict[str, object]:
    """The 6×6 example of Section 2: matrix pattern and its assembly tree."""
    # the matrix of Figure 1: variables {1,2}, {3,4} are two independent 2x2
    # blocks coupled through {5,6}
    rows = [
        [0, 1, 4],
        [0, 1, 5],
        [2, 3, 4],
        [2, 3, 5],
        [0, 2, 4, 5],
        [1, 3, 4, 5],
    ]
    pattern = SparsePattern.from_rows(rows, symmetric=True, name="figure1-example")
    tree = build_assembly_tree(pattern, amalgamation_min_pivots=2, amalgamation_relax=0.0)
    return {
        "pattern": pattern,
        "tree": tree,
        "ascii": tree.render_ascii(),
        "nodes": tree.nnodes,
    }


# --------------------------------------------------------------------------- #
# Figure 2: distribution of an assembly tree over four processors
# --------------------------------------------------------------------------- #
def figure2(nprocs: int = 4) -> dict[str, object]:
    """Types and owners of every node of a small tree mapped on ``nprocs`` processors."""
    pattern = grid_2d(24, 24)
    tree = build_assembly_tree(pattern, compute_ordering(pattern, "metis"))
    mapping = compute_mapping(tree, nprocs, type2_front_threshold=40, type2_cb_threshold=8, type3_front_threshold=60)

    def annotate(i: int) -> str:
        kind = NodeType(int(mapping.node_type[i])).name
        owner = int(mapping.owner[i])
        return f"{kind} P{owner}" if owner >= 0 else f"{kind} (all)"

    return {
        "tree": tree,
        "mapping": mapping,
        "summary": mapping.summary(tree),
        "ascii": tree.render_ascii(annotate=annotate, max_nodes=80),
    }


# --------------------------------------------------------------------------- #
# Figure 3: 1-D blocking of type-2 nodes (symmetric vs unsymmetric)
# --------------------------------------------------------------------------- #
def figure3(npiv: int = 40, nfront: int = 200, nslaves: int = 3) -> dict[str, object]:
    """Default (workload-balanced) row blocking of a type-2 front.

    Unsymmetric fronts are cut in equal row blocks; symmetric fronts use
    irregular blocks so that every slave receives the same number of entries
    of the lower trapezoid (later rows are longer).
    """
    ncb = nfront - npiv
    # unsymmetric: regular blocking
    base = ncb // nslaves
    unsym = [base + (1 if i < ncb % nslaves else 0) for i in range(nslaves)]
    # symmetric: choose block boundaries that equalise entries; row i of the CB
    # (1-based) has npiv + i entries in the lower trapezoid
    lengths = npiv + np.arange(1, ncb + 1, dtype=np.float64)
    cumulative = np.cumsum(lengths)
    total = cumulative[-1]
    boundaries = [0]
    for k in range(1, nslaves):
        target = total * k / nslaves
        boundaries.append(int(np.searchsorted(cumulative, target)))
    boundaries.append(ncb)
    sym = [boundaries[k + 1] - boundaries[k] for k in range(nslaves)]
    return {
        "npiv": npiv,
        "nfront": nfront,
        "nslaves": nslaves,
        "unsymmetric_rows": unsym,
        "symmetric_rows": sym,
        "ascii": (
            f"type-2 front npiv={npiv} nfront={nfront}, {nslaves} slaves\n"
            f"  unsymmetric (regular)  blocking: {unsym}\n"
            f"  symmetric  (irregular) blocking: {sym}"
        ),
    }


# --------------------------------------------------------------------------- #
# Figure 4: memory-based slave selection levels the memory
# --------------------------------------------------------------------------- #
def figure4(
    memory_levels: tuple[float, ...] = (1000.0, 6000.0, 2500.0, 4000.0),
    npiv: int = 30,
    nfront: int = 150,
) -> dict[str, object]:
    """Algorithm 1 on a four-processor snapshot (the situation of Figure 4)."""
    nprocs = len(memory_levels)
    mem = np.asarray(memory_levels, dtype=np.float64)
    ctx = SlaveSelectionContext(
        master_proc=0,
        node=0,
        npiv=npiv,
        nfront=nfront,
        ncb=nfront - npiv,
        symmetric=False,
        candidates=list(range(1, nprocs)),
        memory_view=mem,
        effective_memory_view=mem,
        load_view=np.zeros(nprocs),
        own_load=0.0,
        own_memory=float(mem[0]),
        min_rows_per_slave=1,
        max_slaves=nprocs - 1,
    )
    selection = MemorySlaveSelector(use_predictions=False).select(ctx)
    after = mem.copy()
    for proc, rows in selection:
        after[proc] += type2_slave_block_entries(npiv, nfront, rows, False)
    lines = ["proc  before     rows given   after"]
    given = dict(selection)
    for q in range(nprocs):
        tag = "(master)" if q == 0 else ""
        lines.append(f"P{q}    {mem[q]:8.0f}   {given.get(q, 0):10d}   {after[q]:8.0f} {tag}")
    return {
        "memory_before": mem,
        "selection": selection,
        "memory_after": after,
        "ascii": "\n".join(lines),
    }


# --------------------------------------------------------------------------- #
# Figure 5: staleness of the memory information
# --------------------------------------------------------------------------- #
def figure5(latency: float = 5e-4, cache_dir: str | None = None) -> dict[str, object]:
    """Quantify the divergence between a processor's memory and the others' view of it.

    A small problem is simulated twice, with negligible and with large
    bookkeeping latency; the figure's point is that decisions taken from a
    stale view can mis-place slave tasks, which shows up as a (slightly)
    different peak.

    The pattern → ordering → tree chain goes through the pipeline engine;
    with ``REPRO_CACHE_DIR`` set, repeated regenerations reload the persisted
    ordering/analysis artifacts instead of re-running the symbolic phase.
    (The figure's engine parameters differ from the tables' — scale 0.35,
    a coarser amalgamation — so it does not share artifacts with them.)
    """
    engine = AnalysisPipeline(
        nprocs=8, scale=0.35, amalgamation_relax=0.25, amalgamation_min_pivots=8,
        cache_dir=cache_dir,
    )
    tree = engine.tree("XENON2", "metis")
    peaks = {}
    for label, lat in (("fresh views", 1e-9), ("stale views", latency)):
        config = SimulationConfig.paper(8, memory_message_latency=lat, latency=lat)
        strategy = get_strategy("memory-basic")
        slave, task = strategy.build()
        result = FactorizationSimulator(
            tree, config=config, slave_selector=slave, task_selector=task
        ).run()
        peaks[label] = result.max_peak_stack
    return {
        "peaks": peaks,
        "latency": latency,
        "ascii": "\n".join(f"{k:12s}: max stack peak = {v:,.0f} entries" for k, v in peaks.items()),
    }


# --------------------------------------------------------------------------- #
# Figure 6: predicting the activation of incoming master tasks
# --------------------------------------------------------------------------- #
def figure6() -> dict[str, object]:
    """Effect of the Section 5.1 prediction on the slave choice.

    Processor P0 is about to activate a large master task (predicted cost
    added to its effective metric); without predictions Algorithm 1 picks P0
    as the least loaded slave, with predictions it avoids it.
    """
    mem = np.array([500.0, 3000.0, 2600.0], dtype=np.float64)
    predicted = np.array([9000.0, 0.0, 0.0], dtype=np.float64)
    effective = mem + predicted
    common = dict(
        master_proc=1,
        node=0,
        npiv=20,
        nfront=120,
        ncb=100,
        symmetric=False,
        candidates=[0, 2],
        load_view=np.zeros(3),
        own_load=0.0,
        own_memory=float(mem[1]),
        min_rows_per_slave=1,
        max_slaves=2,
    )
    ctx_plain = SlaveSelectionContext(memory_view=mem, effective_memory_view=mem, **common)
    ctx_pred = SlaveSelectionContext(memory_view=mem, effective_memory_view=effective, **common)
    without = MemorySlaveSelector(use_predictions=False).select(ctx_plain)
    with_pred = MemorySlaveSelector(use_predictions=True).select(ctx_pred)
    rows_on_p0_without = dict(without).get(0, 0)
    rows_on_p0_with = dict(with_pred).get(0, 0)
    return {
        "memory": mem,
        "predicted_master": predicted,
        "selection_without_prediction": without,
        "selection_with_prediction": with_pred,
        "rows_on_p0_without": rows_on_p0_without,
        "rows_on_p0_with": rows_on_p0_with,
        "ascii": (
            f"P0 instantaneous memory {mem[0]:.0f}, incoming master task {predicted[0]:.0f}\n"
            f"  without prediction: {without}  (P0 receives {rows_on_p0_without} rows)\n"
            f"  with prediction:    {with_pred}  (P0 receives {rows_on_p0_with} rows)"
        ),
    }


# --------------------------------------------------------------------------- #
# Figure 7: the pool of ready tasks
# --------------------------------------------------------------------------- #
def figure7(nprocs: int = 4) -> dict[str, object]:
    """Initial content of the local pools (leaves grouped per subtree)."""
    pattern = grid_2d(20, 20)
    tree = build_assembly_tree(pattern, compute_ordering(pattern, "metis"))
    config = SimulationConfig(nprocs=nprocs, type2_front_threshold=48, type2_cb_threshold=8, type3_front_threshold=80)
    strategy = get_strategy("mumps-workload")
    slave, task = strategy.build()
    sim = FactorizationSimulator(tree, config=config, slave_selector=slave, task_selector=task)
    pools = {p: sim._initial_pool_order(p) for p in range(nprocs)}
    subtree_of = sim.mapping.subtree_of
    lines = []
    for p, order in pools.items():
        tags = [f"{n}(S{int(subtree_of[n])})" for n in order]
        lines.append(f"P{p}: " + " ".join(tags) if tags else f"P{p}: (empty)")
    return {
        "pools": pools,
        "mapping": sim.mapping,
        "ascii": "\n".join(lines),
    }


# --------------------------------------------------------------------------- #
# Figure 8: critical situation for the task selection
# --------------------------------------------------------------------------- #
def figure8() -> dict[str, object]:
    """Algorithm 2 delays a large type-2 master while a subtree is in progress."""
    def make_task(node: int, kind: TaskKind, memory_cost: float, in_subtree: int) -> Task:
        return Task(kind=kind, node=node, proc=0, flops=1.0, memory_cost=memory_cost, in_subtree=in_subtree)

    pool = [
        make_task(1, TaskKind.TYPE1, 500.0, in_subtree=7),    # bottom of the stack
        make_task(2, TaskKind.TYPE1, 400.0, in_subtree=7),
        make_task(3, TaskKind.TYPE2_MASTER, 50_000.0, in_subtree=-1),  # large ready type-2 node (task A)
    ]
    ctx = TaskSelectionContext(
        proc=0,
        pool=pool,
        current_memory=8_000.0,
        current_subtree=7,
        current_subtree_peak=6_000.0,
        observed_peak=20_000.0,
    )
    lifo_choice = LifoTaskSelector().select(ctx)
    memory_choice = MemoryAwareTaskSelector().select(ctx)
    return {
        "pool": pool,
        "lifo_choice_node": pool[lifo_choice].node,
        "memory_choice_node": pool[memory_choice].node,
        "ascii": (
            "pool (bottom→top): "
            + ", ".join(f"node {t.node} ({t.memory_cost:.0f} entries)" for t in pool)
            + f"\n  LIFO (original MUMPS) activates node {pool[lifo_choice].node}"
            + f"\n  Algorithm 2 activates node {pool[memory_choice].node} (delays the large type-2 node)"
        ),
    }


#: Registry of the figure generators (a Mapping: ``ALL_FIGURES["figure5"]``).
#: ``params`` records the keyword arguments each generator accepts; a figure's
#: CLI verb declares the ``--nprocs`` / ``--cache`` flags among them and no
#: other flag, so argparse rejects the rest instead of silently ignoring them.
ALL_FIGURES: Registry = Registry("figure")
ALL_FIGURES.add("figure1", figure1,
                description="The 6x6 example matrix and its assembly tree (Section 2)")
ALL_FIGURES.add("figure2", figure2,
                description="Distribution of an assembly tree over the processors",
                params={"nprocs": 4})
ALL_FIGURES.add("figure3", figure3,
                description="1-D blocking of type-2 nodes (symmetric vs unsymmetric)",
                params={"npiv": 40, "nfront": 200, "nslaves": 3})
ALL_FIGURES.add("figure4", figure4,
                description="Algorithm 1 levels the memory of the selected slaves")
ALL_FIGURES.add("figure5", figure5,
                description="Staleness of the memory information (bookkeeping latency)",
                params={"latency": 5e-4, "cache_dir": None})
ALL_FIGURES.add("figure6", figure6,
                description="Predicting the activation of incoming master tasks (Section 5.1)")
ALL_FIGURES.add("figure7", figure7,
                description="Initial content of the local task pools",
                params={"nprocs": 4})
ALL_FIGURES.add("figure8", figure8,
                description="Algorithm 2 delays a large type-2 master inside a subtree")

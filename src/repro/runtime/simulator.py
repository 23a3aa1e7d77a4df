"""Discrete-event simulator of the parallel multifrontal factorization.

This is the reproduction's stand-in for "running MUMPS on 32 processors of
the IBM SP": the numerical kernels are replaced by their flop counts, the
network by a latency/bandwidth model, and the memory of every processor is
accounted in entries, exactly the quantity the paper's tables report.  The
scheduling decision points — slave selection for type-2 nodes, task selection
in the local pools — are delegated to strategy objects from
:mod:`repro.scheduling`, so the original MUMPS behaviour and the paper's
memory-based strategies run on an identical substrate and their stack peaks
can be compared head to head.

Two event engines execute the same simulation (selected with the
``engine=`` argument or the ``REPRO_SIM_ENGINE`` environment variable, see
``docs/benchmarks.md`` for the full anatomy):

``soa`` (default)
    The structure-of-arrays engine of :mod:`repro.runtime.soa`: processor
    and task fields live in parallel array slots, point-to-point messages
    dissolve into flat event tuples, and the whole run executes inside one
    monolithic event loop with the handlers and the three built-in task
    selectors inlined.  Shared per-node geometry comes from a memoized
    :class:`~repro.runtime.geometry.SimGeometry`.  A custom (non built-in)
    task selector runs on ``reference``, which honours the full
    ``select()`` contract.

``reference``
    The historical event core — one :class:`ScheduledEvent` dataclass per
    event, string-tagged payloads dispatched through an if/elif chain,
    per-decision candidate list building and context-based task selection —
    kept executable so the fuzz suite can pin ``soa`` bit-identical to it
    (``tests/test_engine_identity.py``).

Faithfulness notes (documented simplifications):

* contribution blocks produced by the children of a node are routed to the
  processor that owns the node's master and freed there once the node's
  elimination finishes; in MUMPS the pieces go to the individual slaves of a
  type-2 parent, but the dominant memory terms (fronts, CB stacks, master
  blocks) are unaffected;
* a slave block's memory is charged to the slave as soon as the slave task
  *arrives* (the paper: slave tasks are activated as soon as they are
  received), even if the processor is still busy with another task;
* the type-3 root is modelled as an even split of its front and flops over
  all processors (ScaLAPACK 2-D block-cyclic distribution).
"""

from __future__ import annotations

import difflib
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.flops import (
    type2_slave_block_entries,
    type2_slave_factor_entries,
    type2_slave_flops,
)
from repro.mapping.layers import NodeType, StaticMapping, compute_mapping
from repro.runtime.config import SimulationConfig
from repro.runtime.events import EventQueue
from repro.runtime.geometry import SimGeometry
from repro.runtime.loadview import ViewBank
from repro.runtime.messages import CommunicationModel, Message, MessageKind
from repro.runtime.processor import ProcessorState
from repro.runtime.soa import (
    TASK_MODE_FIFO,
    TASK_MODE_LIFO,
    TASK_MODE_MEMORY_AWARE,
    SimState,
    run_soa,
    write_views,
)
from repro.runtime.tasks import Task, TaskKind
from repro.runtime.trace import SimulationTrace
from repro.scheduling.base import (
    SlaveSelectionContext,
    TaskSelectionContext,
    SlaveSelector,
    TaskSelector,
    normalize_row_distribution,
)
from repro.scheduling.task_selection import (
    FifoTaskSelector,
    LifoTaskSelector,
    MemoryAwareTaskSelector,
)

__all__ = [
    "FactorizationSimulator",
    "SimulationResult",
    "SIM_ENGINES",
    "SIM_ENGINE_ENV",
    "DEFAULT_ENGINE",
    "resolve_engine",
]

#: the event engines; all produce bit-identical :class:`SimulationResult`.
SIM_ENGINES = ("soa", "reference")

#: engine used when neither ``engine=`` nor the environment selects one.
DEFAULT_ENGINE = "soa"

#: environment variable selecting the engine when ``engine=None``.
SIM_ENGINE_ENV = "REPRO_SIM_ENGINE"


def resolve_engine(engine: str | None = None) -> str:
    """Resolve and validate the engine name.

    Precedence: explicit argument, then the ``REPRO_SIM_ENGINE`` environment
    variable, then :data:`DEFAULT_ENGINE`.  Anything else raises a
    ``ValueError`` with a did-you-mean hint when a close name exists.
    """
    if engine is None:
        engine = os.environ.get(SIM_ENGINE_ENV) or DEFAULT_ENGINE
    engine = str(engine).strip().lower()
    if engine not in SIM_ENGINES:
        close = difflib.get_close_matches(engine, SIM_ENGINES, n=1, cutoff=0.5)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"unknown simulator engine {engine!r}: choose one of {SIM_ENGINES} "
            f"(or set {SIM_ENGINE_ENV}){hint}"
        )
    return engine


@dataclass
class SimulationResult:
    """Outcome of one simulated parallel factorization."""

    nprocs: int
    per_proc_peak_stack: np.ndarray
    per_proc_factor_entries: np.ndarray
    per_proc_tasks: np.ndarray
    total_time: float
    message_counts: dict[str, int]
    slave_selections: int
    nodes: int
    total_factor_entries: float
    trace: Optional[SimulationTrace] = None
    strategy_name: str = ""

    @property
    def max_peak_stack(self) -> float:
        """Maximum over the processors of the stack-memory peak (the paper's metric)."""
        return float(self.per_proc_peak_stack.max()) if self.per_proc_peak_stack.size else 0.0

    @property
    def avg_peak_stack(self) -> float:
        return float(self.per_proc_peak_stack.mean()) if self.per_proc_peak_stack.size else 0.0

    @property
    def sum_peak_stack(self) -> float:
        return float(self.per_proc_peak_stack.sum()) if self.per_proc_peak_stack.size else 0.0

    @property
    def peak_imbalance(self) -> float:
        """Max over avg of the per-processor peaks (1.0 = perfectly balanced)."""
        avg = self.avg_peak_stack
        return self.max_peak_stack / avg if avg > 0 else 1.0

    def summary(self) -> dict[str, float]:
        return {
            "max_peak_stack": self.max_peak_stack,
            "avg_peak_stack": self.avg_peak_stack,
            "sum_peak_stack": self.sum_peak_stack,
            "peak_imbalance": self.peak_imbalance,
            "total_time": self.total_time,
            "total_factor_entries": self.total_factor_entries,
            "messages": float(sum(self.message_counts.values())),
        }


class _NodeState:
    """Book-keeping of one assembly-tree node during the simulation."""

    __slots__ = (
        "children_remaining",
        "completed",
        "master_done",
        "slaves_pending",
        "cb_pieces",
        "activated",
        "root_shares_pending",
    )

    def __init__(self, nchildren: int) -> None:
        self.children_remaining = nchildren
        self.completed = False
        self.master_done = False
        self.slaves_pending = 0
        self.cb_pieces: list[tuple[int, float]] = []
        self.activated = False
        self.root_shares_pending = 0


class FactorizationSimulator:
    """Simulate one parallel multifrontal factorization of an assembly tree."""

    def __init__(
        self,
        tree,
        *,
        config: SimulationConfig | None = None,
        mapping: StaticMapping | None = None,
        slave_selector: SlaveSelector,
        task_selector: TaskSelector,
        strategy_name: str = "",
        engine: str | None = None,
    ) -> None:
        self.tree = tree
        self.config = config if config is not None else SimulationConfig()
        self.engine = resolve_engine(engine)
        # the SoA loop inlines the three built-in task selectors (exact types:
        # a subclass may override ``select``); any other selector needs the
        # object pool its ``select`` contract reads, so it runs on
        # ``reference`` — same results, full contract
        self._soa_task_mode = _SOA_TASK_MODES.get(type(task_selector))
        self._exec_engine = "reference" if self._soa_task_mode is None else self.engine
        if mapping is None:
            mapping = compute_mapping(tree, self.config.nprocs, **self.config.mapping_params())
        if mapping.nprocs != self.config.nprocs:
            raise ValueError("mapping.nprocs does not match config.nprocs")
        self.mapping = mapping
        self.slave_selector = slave_selector
        self.task_selector = task_selector
        self.strategy_name = strategy_name

        self.comm = CommunicationModel(
            latency=self.config.latency,
            bandwidth_entries=self.config.bandwidth_entries,
            small_message_latency=self.config.memory_message_latency,
        )
        # deterministic fault injection: the compiled plan (or None) plus one
        # message-loss draw stream per simulator run.  ``faults=None`` must
        # keep every engine bit-identical, so the plan gates each perturbed
        # expression behind an explicit ``is None`` branch.
        if self.config.faults:
            from repro.faults import FaultPlan  # deferred: keeps runtime importable alone

            self.fault_plan = FaultPlan.compile(
                self.config.faults, nprocs=self.config.nprocs, seed=self.config.fault_seed
            )
            self._fault_msg = self.fault_plan.message_stream()
        else:
            self.fault_plan = None
            self._fault_msg = None
        self._views: ViewBank | None = None
        self.geometry: SimGeometry | None = None
        #: the SoA run's final ``(procs, tasks, views)`` lists; ``state`` and
        #: ``views`` are built from them when read
        self.run_end = None
        self._state = None
        self.message_counts: dict[str, int] = defaultdict(int)
        self.slave_selections = 0
        self._finished_nodes = 0
        self._ran = False
        # the reference engine's objects; the SoA loop keeps its own heap and
        # lists and sets ``queue`` to one holding its final clock
        self.queue: EventQueue | None = None
        self.procs: list[ProcessorState] | None = None
        # per-node book-keeping of the reference engine; built in ``_setup``
        self.node_state: list[_NodeState] | None = None
        if self._exec_engine == "reference":
            self._init_reference()

    def _init_reference(self) -> None:
        """Build the event queue, processors and views the reference loop uses."""
        nprocs = self.config.nprocs
        self.queue = EventQueue()
        # all system views live in one bank: broadcast and reservation events
        # touch every processor at once, which the bank applies as single
        # numpy column updates instead of per-processor loops
        views = self.views
        self.procs = [
            ProcessorState(proc=p, nprocs=nprocs, view=views.view(p)) for p in range(nprocs)
        ]
        for p in self.procs:
            p.memory.track_trace = self.config.track_traces
        # upper-layer tasks owned by a processor whose activation is imminent
        # (>= 1 child completed) — drives the Section 5.1 master prediction
        self.upcoming_master: list[dict[int, float]] = [dict() for _ in range(nprocs)]

    @property
    def views(self) -> ViewBank:
        """Every processor's view of the others.

        Live during a ``reference`` run.  After an SoA run, each read writes
        the run's final views into the bank, so it reads as the reference
        engine would leave it.
        """
        if self._views is None:
            self._views = ViewBank(self.config.nprocs)
        if self.run_end is not None:
            write_views(self._views, self.run_end[2])
        return self._views

    @property
    def state(self):
        """The final :class:`~repro.runtime.soa.SimState` of an SoA run, built
        when first read (``None`` until the SoA loop has run)."""
        if self._state is None and self.run_end is not None:
            self._state = SimState(*self.run_end[:2])
        return self._state

    # ------------------------------------------------------------------ #
    # geometry helpers (fast scalar reads of the arrays built in _setup)
    # ------------------------------------------------------------------ #
    def _make_static_task(self, node: int) -> Task:
        if self._node_type[node] == _TYPE2:
            task_kind = TaskKind.TYPE2_MASTER
        else:
            task_kind = TaskKind.TYPE1
        return Task(
            kind=task_kind,
            node=node,
            proc=self._owner[node],
            flops=self._task_flops[node],
            memory_cost=self._task_memory[node],
            in_subtree=self._subtree_of[node],
        )

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def _precompute_geometry(self) -> None:
        """Bind the per-node scheduling geometry (shared :class:`SimGeometry`).

        The geometry is a pure function of ``(tree, mapping, nprocs)``, so the
        memoized :meth:`SimGeometry.for_run` provides it.  Scalar plain-list
        mirrors are re-exposed under the historical attribute names the
        object engines read on their per-event hot paths.
        """
        if getattr(self, "_geometry_ready", False):
            return
        geom = SimGeometry.for_run(self.tree, self.mapping, self.config.nprocs)
        self.geometry = geom
        self._task_flops = geom.task_flops
        self._task_memory = geom.task_memory
        self._front_entries = geom.front_entries
        self._factor_entries = geom.factor_entries
        self._cb_entries = geom.cb_entries
        self._master_entries = geom.master_entries
        self._assembly_flops = geom.assembly_flops
        self._npiv = geom.npiv
        self._nfront = geom.nfront
        self._node_type = geom.node_type
        self._owner = geom.owner
        self._subtree_of = geom.subtree_of
        self._parent = geom.parent
        self._children = geom.children
        self._tree_leaves = geom.tree_leaves
        self.subtree_peaks = geom.subtree_peaks
        # only flag readiness once every array exists: a mid-build failure
        # must surface again at the next call, not as a distant AttributeError
        self._geometry_ready = True

    def _initial_pool_order(self, proc: int, my_subtrees: list[int] | None = None) -> list[int]:
        """Leaf nodes assigned to ``proc`` in the order they should be processed.

        Delegates to :meth:`SimGeometry.initial_pool_order` (the Section 5.2
        pool initialisation); kept as a method for standalone callers such as
        the Figure 7 harness.
        """
        self._precompute_geometry()
        return self.geometry.initial_pool_order(proc, my_subtrees)

    def _setup(self) -> None:
        cfg = self.config
        self._precompute_geometry()
        geom = self.geometry
        self.node_state = [_NodeState(n) for n in geom.nchildren]
        initial_load = geom.initial_load
        for p in self.procs:
            p.load_remaining = float(initial_load[p.proc])
            # everyone starts with the same (exact) static knowledge of the loads
            for q in range(cfg.nprocs):
                p.view.set_load(q, float(initial_load[q]))

        # initial pools: the leaves, deepest-first subtree by subtree
        for p in self.procs:
            for node in reversed(geom.pool_orders[p.proc]):
                p.push_ready_task(self._make_static_task(node))

        # a single-node tree (or type-3 leaves) must still start somewhere
        for i in self._tree_leaves:
            if self._node_type[i] == _TYPE3:
                self._root_ready(i, 0.0)

        for p in range(cfg.nprocs):
            self.queue.push_kick(0.0, p)

    # ------------------------------------------------------------------ #
    # broadcasts and views
    # ------------------------------------------------------------------ #
    def _broadcast(self, kind: str, source: int, value: float, delay: float | None = None) -> None:
        if self.config.nprocs <= 1:
            return
        if delay is None:
            delay = self.comm.notification_time()
        self.queue.push_broadcast_after(delay, kind, source, value)
        self.message_counts[kind] += self.config.nprocs - 1

    def _memory_changed(self, proc: int) -> None:
        p = self.procs[proc]
        p.note_observed_peak()
        value = float(p.memory.stack)
        if value != p.last_broadcast_memory:
            p.last_broadcast_memory = value
            self._broadcast("memory", proc, value)
        # a processor always knows its own memory exactly
        p.view.memory[proc] = value

    def _load_changed(self, proc: int) -> None:
        p = self.procs[proc]
        value = float(p.load_remaining)
        if value != p.last_broadcast_load:
            p.last_broadcast_load = value
            self._broadcast("load", proc, value)
        p.view.load[proc] = max(value, 0.0)

    def _prediction_changed(self, proc: int) -> None:
        p = self.procs[proc]
        value = max(self.upcoming_master[proc].values(), default=0.0)
        if value != p.last_broadcast_prediction:
            p.last_broadcast_prediction = value
            self._broadcast("prediction", proc, value)
        p.view.predicted_master[proc] = max(value, 0.0)

    def _subtree_changed(self, proc: int, value: float) -> None:
        p = self.procs[proc]
        p.current_subtree_peak = value
        p.view.subtree_peak[proc] = max(value, 0.0)
        self._broadcast("subtree", proc, value)

    # ------------------------------------------------------------------ #
    # task activation
    # ------------------------------------------------------------------ #
    def _try_start(self, proc: int) -> None:
        """Historical task activation: context object over a copied pool."""
        p = self.procs[proc]
        if p.current_task is not None:
            return
        now = self.queue.now
        task: Task | None = None
        if p.slave_queue:
            task = p.slave_queue.popleft()
        elif p.pool:
            ctx = TaskSelectionContext(
                proc=proc,
                pool=list(p.pool),
                current_memory=float(p.memory.stack),
                current_subtree=p.current_subtree,
                current_subtree_peak=p.current_subtree_peak,
                observed_peak=p.observed_peak,
            )
            index = int(self.task_selector.select(ctx))
            if not 0 <= index < len(p.pool):
                raise ValueError(
                    f"task selector {self.task_selector!r} returned invalid index {index}"
                )
            task = p.pop_task(index)
        if task is None:
            return
        self._activate(task, now)

    def _activate(self, task: Task, now: float) -> None:
        p = self.procs[task.proc]
        p.current_task = task
        kind = task.kind
        if kind == TaskKind.TYPE1:
            duration = self._activate_type1(task, now)
        elif kind == TaskKind.TYPE2_MASTER:
            duration = self._activate_type2_master(task, now)
        elif kind == TaskKind.TYPE2_SLAVE:
            if self.fault_plan is None:
                duration = task.flops / self.config.flop_rate
            else:
                duration = task.flops / self.config.flop_rate * self.fault_plan.speed_at(
                    task.proc, now
                )
        elif kind == TaskKind.ROOT_SHARE:
            p.memory.allocate_stack(task.memory_cost, now)
            self._memory_changed(task.proc)
            if self.fault_plan is None:
                duration = task.flops / self.config.flop_rate
            else:
                duration = task.flops / self.config.flop_rate * self.fault_plan.speed_at(
                    task.proc, now
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown task kind {task.kind}")
        self.queue.push_task_done(now + duration, task.proc, task)

    def _pull_children_cbs(self, node: int, dest: int, now: float) -> tuple[float, float]:
        """Route the children CB pieces to ``dest``.

        Returns ``(total_entries, comm_time)``: the entries that end up on the
        destination's stack (remote pieces are added to it, local pieces are
        already there) and the longest individual transfer time.
        """
        total = 0.0
        comm_time = 0.0
        moved = 0.0
        for c in self._children[node]:
            for (q, entries) in self.node_state[c].cb_pieces:
                total += entries
                if q != dest:
                    self.procs[q].memory.free_stack(entries, now)
                    self._memory_changed(q)
                    self.procs[dest].memory.allocate_stack(entries, now)
                    moved += entries
                    comm_time = max(comm_time, self.comm.transfer_time(entries))
                    self.message_counts["cb_transfer"] += 1
        if moved > 0:
            self._memory_changed(dest)
        return total, comm_time

    def _enter_subtree_if_needed(self, task: Task, now: float) -> None:
        p = self.procs[task.proc]
        if task.in_subtree >= 0 and p.current_subtree != task.in_subtree:
            p.current_subtree = task.in_subtree
            self._subtree_changed(task.proc, float(self.subtree_peaks[task.in_subtree]))

    def _leave_subtree_if_needed(self, task: Task, now: float) -> None:
        p = self.procs[task.proc]
        if task.in_subtree >= 0 and task.node == task.in_subtree:
            p.current_subtree = -1
            self._subtree_changed(task.proc, 0.0)

    def _note_upper_activation(self, task: Task, now: float) -> None:
        """The Section 5.1 prediction: an upper-layer task got activated."""
        if task.in_subtree >= 0:
            return
        upcoming = self.upcoming_master[task.proc]
        if task.node in upcoming:
            del upcoming[task.node]
            self._prediction_changed(task.proc)

    def _activate_type1(self, task: Task, now: float) -> float:
        node = task.node
        p = self.procs[task.proc]
        self._enter_subtree_if_needed(task, now)
        self._note_upper_activation(task, now)
        self.node_state[node].activated = True
        _, comm_time = self._pull_children_cbs(node, task.proc, now)
        p.memory.allocate_stack(self._front_entries[node], now)
        self._memory_changed(task.proc)
        cfg = self.config
        if self.fault_plan is None:
            duration = (
                comm_time
                + self._assembly_flops[node] / cfg.assembly_rate
                + self._task_flops[node] / cfg.flop_rate
            )
        else:
            duration = comm_time + (
                self._assembly_flops[node] / cfg.assembly_rate
                + self._task_flops[node] / cfg.flop_rate
            ) * self.fault_plan.speed_at(task.proc, now)
        return duration

    def _release_children_cbs(self, node: int, now: float, observer: int | None = None) -> tuple[float, float]:
        """Free the children CB pieces where they live (type-2/3 parents).

        The pieces of a type-2 parent are re-assembled into the *distributed*
        front (master + slaves), so they leave their current owners at
        activation time; the assembly shares are charged to the master and
        the slaves separately by the caller.  Returns the total entries and
        the largest single transfer time.

        ``observer`` (the master doing the assembly) updates its own view of
        the releasing processors immediately — it is the one causing the
        release, so waiting for their memory broadcasts would make the slave
        selection it is about to perform systematically biased against the
        processors that merely stored its children's contribution blocks.
        """
        total = 0.0
        comm_time = 0.0
        for c in self._children[node]:
            st = self.node_state[c]
            for (q, entries) in st.cb_pieces:
                total += entries
                self.procs[q].memory.free_stack(entries, now)
                self._memory_changed(q)
                if observer is not None and q != observer:
                    self.procs[observer].view.add_memory(q, -entries)
                comm_time = max(comm_time, self.comm.transfer_time(entries))
                self.message_counts["cb_transfer"] += 1
            st.cb_pieces = []
        return total, comm_time

    def _candidates_for(self, node: int, master: int) -> list[int]:
        candidates = [q for q in self.mapping.candidates.get(node, []) if q != master]
        if not candidates:
            candidates = [q for q in range(self.config.nprocs) if q != master]
        return candidates

    def _activate_type2_master(self, task: Task, now: float) -> float:
        node = task.node
        p = self.procs[task.proc]
        tree = self.tree
        cfg = self.config
        self._enter_subtree_if_needed(task, now)
        self._note_upper_activation(task, now)
        self.node_state[node].activated = True
        total_cb, comm_time = self._release_children_cbs(node, now, observer=task.proc)
        # the master's assembly share: the rows of the children CBs that land
        # in the fully summed part of the front
        npiv = self._npiv[node]
        nfront = self._nfront[node]
        nfront_f = float(max(nfront, 1))
        master_assembly = total_cb * float(npiv) / nfront_f
        task.extra_transient = master_assembly
        p.memory.allocate_stack(self._master_entries[node] + master_assembly, now)
        self._memory_changed(task.proc)

        # ------------------- dynamic slave selection ---------------------- #
        ncb = nfront - npiv
        candidates = self._candidates_for(node, task.proc)
        view = p.view
        mem_view = array("d", view.memory.tolist())
        # the Section 5.1 metric, summed as m + (s + p) like the SoA engine
        eff_view = array("d", (view.memory + (view.subtree_peak + view.predicted_master)).tolist())
        load_view = array("d", view.load.tolist())
        ctx = SlaveSelectionContext(
            master_proc=task.proc,
            node=node,
            npiv=npiv,
            nfront=nfront,
            ncb=ncb,
            symmetric=tree.symmetric,
            candidates=candidates,
            memory_view=mem_view,
            effective_memory_view=eff_view,
            load_view=load_view,
            own_load=float(p.load_remaining),
            own_memory=float(p.memory.stack),
            min_rows_per_slave=cfg.min_rows_per_slave,
            max_slaves=cfg.effective_max_slaves(),
        )
        assignment = normalize_row_distribution(self.slave_selector.select(ctx), ncb, candidates)
        self.slave_selections += 1

        state = self.node_state[node]
        state.slaves_pending = len(assignment)
        symmetric = tree.symmetric
        descriptor_delay = self.comm.transfer_time(npiv * 2)  # task descriptor, small
        reservations: list[tuple[int, float]] = []
        for (q, rows) in assignment:
            block = float(type2_slave_block_entries(npiv, nfront, rows, symmetric))
            flops = type2_slave_flops(npiv, nfront, rows, symmetric)
            # the slave also receives its share of the children CB rows to assemble
            slave_assembly = total_cb * float(rows) / nfront_f
            slave_task = Task(
                kind=TaskKind.TYPE2_SLAVE,
                node=node,
                proc=q,
                flops=flops,
                memory_cost=block,
                rows=rows,
                in_subtree=-1,
                master=task.proc,
                extra_transient=slave_assembly,
            )
            delay = descriptor_delay
            if self._fault_msg is not None:
                penalty, retries = self.fault_plan.message_penalty(self._fault_msg)
                if retries:
                    self.message_counts["msg_lost"] += 1
                    self.message_counts["msg_retries"] += retries
                delay = descriptor_delay + penalty
            self.queue.push_message_after(delay, Message(
                kind=MessageKind.SLAVE_TASK, source=task.proc, dest=q, node=node,
                rows=rows, entries=int(block), payload={"task": slave_task},
            ))
            self.message_counts["slave_task"] += 1
            # the master immediately accounts for its own decision (coherence
            # mechanism of Section 4) and tells the others about it
            p.view.add_memory(q, block)
            reservations.append((q, block))
        if assignment and cfg.nprocs > 1:
            self.queue.push_reservation_after(
                self.comm.notification_time(), task.proc, reservations
            )
            self.message_counts["reservation"] += cfg.nprocs - 1

        if self.fault_plan is None:
            duration = (
                comm_time
                + self._assembly_flops[node] / cfg.assembly_rate
                + self._task_flops[node] / cfg.flop_rate
            )
        else:
            duration = comm_time + (
                self._assembly_flops[node] / cfg.assembly_rate
                + self._task_flops[node] / cfg.flop_rate
            ) * self.fault_plan.speed_at(task.proc, now)
        return duration

    # ------------------------------------------------------------------ #
    # completions
    # ------------------------------------------------------------------ #
    def _finish_task(self, proc: int, task: Task, now: float) -> None:
        p = self.procs[proc]
        p.current_task = None
        p.tasks_done += 1
        kind = task.kind
        if kind == TaskKind.TYPE1:
            self._finish_type1(task, now)
        elif kind == TaskKind.TYPE2_MASTER:
            self._finish_type2_master(task, now)
        elif kind == TaskKind.TYPE2_SLAVE:
            self._finish_type2_slave(task, now)
        elif kind == TaskKind.ROOT_SHARE:
            self._finish_root_share(task, now)
        self._try_start(proc)

    def _consume_children_cbs(self, node: int, dest: int, now: float) -> None:
        """Free the children CB pieces (they all sit on ``dest`` by now)."""
        total = 0.0
        for c in self._children[node]:
            st = self.node_state[c]
            total += sum(entries for (_q, entries) in st.cb_pieces)
            st.cb_pieces = []
        if total > 0:
            self.procs[dest].memory.free_stack(total, now)
            self._memory_changed(dest)

    def _finish_type1(self, task: Task, now: float) -> None:
        node = task.node
        p = self.procs[task.proc]
        self._consume_children_cbs(node, task.proc, now)
        p.memory.free_stack(self._front_entries[node], now)
        p.memory.add_factors(self._factor_entries[node], now)
        cb = self._cb_entries[node]
        if cb > 0:
            p.memory.allocate_stack(cb, now)
            self.node_state[node].cb_pieces = [(task.proc, cb)]
        self._memory_changed(task.proc)
        p.load_remaining = max(p.load_remaining - task.flops, 0.0)
        self._load_changed(task.proc)
        self._leave_subtree_if_needed(task, now)
        self._complete_node(node, now)

    def _finish_type2_master(self, task: Task, now: float) -> None:
        node = task.node
        p = self.procs[task.proc]
        master = self._master_entries[node]
        p.memory.free_stack(master + task.extra_transient, now)
        p.memory.add_factors(master, now)
        self._memory_changed(task.proc)
        p.load_remaining = max(p.load_remaining - task.flops, 0.0)
        self._load_changed(task.proc)
        state = self.node_state[node]
        state.master_done = True
        if state.slaves_pending == 0:
            self._complete_node(node, now)

    def _finish_type2_slave(self, task: Task, now: float) -> None:
        node = task.node
        q = task.proc
        p = self.procs[q]
        factor_part = float(type2_slave_factor_entries(
            self._npiv[node], self._nfront[node], task.rows, self.tree.symmetric
        ))
        cb_part = max(task.memory_cost - factor_part, 0.0)
        p.memory.free_stack(factor_part + task.extra_transient, now)
        p.memory.add_factors(factor_part, now)
        self._memory_changed(q)
        p.load_remaining = max(p.load_remaining - task.flops, 0.0)
        self._load_changed(q)
        state = self.node_state[node]
        if cb_part > 0:
            state.cb_pieces.append((q, cb_part))
        state.slaves_pending -= 1
        self.message_counts["slave_done"] += 1
        if state.slaves_pending == 0 and state.master_done:
            self._complete_node(node, now)

    def _finish_root_share(self, task: Task, now: float) -> None:
        node = task.node
        p = self.procs[task.proc]
        share_front = task.memory_cost
        share_factors = self._factor_entries[node] / self.config.nprocs
        p.memory.free_stack(share_front, now)
        p.memory.add_factors(share_factors, now)
        self._memory_changed(task.proc)
        p.load_remaining = max(p.load_remaining - task.flops, 0.0)
        self._load_changed(task.proc)
        state = self.node_state[node]
        state.root_shares_pending -= 1
        if state.root_shares_pending == 0:
            # root CB (normally empty) stays on processor 0 by convention
            cb = self._cb_entries[node]
            if cb > 0:
                self.procs[0].memory.allocate_stack(cb, now)
                self._memory_changed(0)
                state.cb_pieces = [(0, cb)]
            self._complete_node(node, now)

    # ------------------------------------------------------------------ #
    # readiness propagation
    # ------------------------------------------------------------------ #
    def _complete_node(self, node: int, now: float) -> None:
        state = self.node_state[node]
        if state.completed:
            raise RuntimeError(f"node {node} completed twice")
        state.completed = True
        self._finished_nodes += 1
        parent = self._parent[node]
        if parent < 0:
            return
        child_owner = self._owner[node] if self._owner[node] >= 0 else 0
        parent_owner = self._owner[parent]
        if parent_owner < 0:
            parent_owner = 0  # type-3 root: bookkeeping held by processor 0
        if child_owner == parent_owner:
            self._on_child_completed(parent, now)
        else:
            delay = self.comm.notification_time()
            if self._fault_msg is not None:
                penalty, retries = self.fault_plan.message_penalty(self._fault_msg)
                if retries:
                    self.message_counts["msg_lost"] += 1
                    self.message_counts["msg_retries"] += retries
                delay = delay + penalty
            self.queue.push_message_after(
                delay,
                Message(
                    kind=MessageKind.CHILD_COMPLETED, source=child_owner, dest=parent_owner, node=parent,
                ),
            )
            self.message_counts["child_completed"] += 1

    def _on_child_completed(self, parent: int, now: float) -> None:
        state = self.node_state[parent]
        # Section 5.1: the owner of the parent now expects this master task
        if self._subtree_of[parent] < 0 and self._node_type[parent] != _TYPE3:
            owner = self._owner[parent]
            upcoming = self.upcoming_master[owner]
            if parent not in upcoming and not state.activated:
                upcoming[parent] = self._task_memory[parent]
                self._prediction_changed(owner)
        state.children_remaining -= 1
        if state.children_remaining == 0:
            self._node_ready(parent, now)

    def _node_ready(self, node: int, now: float) -> None:
        if self._node_type[node] == _TYPE3:
            self._root_ready(node, now)
            return
        owner = self._owner[node]
        task = self._make_static_task(node)
        p = self.procs[owner]
        p.push_ready_task(task)
        # the workload-based scheduling counts a task as load when it enters the pool
        if task.in_subtree < 0:
            p.load_remaining += task.flops
            self._load_changed(owner)
        self._try_start(owner)

    def _root_ready(self, node: int, now: float) -> None:
        cfg = self.config
        state = self.node_state[node]
        # the 2-D distribution scatters the children CBs: free them where they live
        for c in self._children[node]:
            st = self.node_state[c]
            for (q, entries) in st.cb_pieces:
                self.procs[q].memory.free_stack(entries, now)
                self._memory_changed(q)
            st.cb_pieces = []
        state.root_shares_pending = cfg.nprocs
        share_flops = self._task_flops[node] / cfg.nprocs
        share_front = self._front_entries[node] / cfg.nprocs
        for q in range(cfg.nprocs):
            task = Task(
                kind=TaskKind.ROOT_SHARE,
                node=node,
                proc=q,
                flops=share_flops,
                memory_cost=share_front,
                in_subtree=-1,
            )
            self.procs[q].push_ready_task(task)
            self.procs[q].load_remaining += share_flops
            self._load_changed(q)
            self._try_start(q)
        self.message_counts["root_ready"] += cfg.nprocs - 1

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _handle_message(self, msg: Message, now: float) -> None:
        if msg.kind == MessageKind.SLAVE_TASK:
            q = msg.dest
            p = self.procs[q]
            task: Task = msg.payload["task"]
            # the slave block (plus its assembly share of the children CBs) is
            # charged upon reception (Section 3: slave tasks are activated as
            # soon as they are received)
            p.memory.allocate_stack(task.memory_cost + task.extra_transient, now)
            self._memory_changed(q)
            p.load_remaining += task.flops
            self._load_changed(q)
            p.queue_slave_task(task)
            self._try_start(q)
        elif msg.kind == MessageKind.CHILD_COMPLETED:
            self._on_child_completed(msg.node, now)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind}")

    def _handle_broadcast(self, kind: str, source: int, value: float) -> None:
        self._views.apply_broadcast(kind, source, value)

    def _handle_reservation(self, source: int, reservations: list[tuple[int, float]]) -> None:
        self._views.apply_reservations(source, reservations)

    # ------------------------------------------------------------------ #
    # main loops
    # ------------------------------------------------------------------ #
    def _run_reference(self) -> None:
        """The historical event loop: dataclass events, string-tag dispatch."""
        while self.queue:
            event = self.queue.pop()
            payload = event.payload
            tag = payload[0]
            if tag == "task_done":
                _, proc, task = payload
                self._finish_task(proc, task, event.time)
            elif tag == "message":
                self._handle_message(payload[1], event.time)
            elif tag == "broadcast":
                _, kind, source, value = payload
                self._handle_broadcast(kind, source, value)
            elif tag == "reservation":
                _, source, reservations = payload
                self._handle_reservation(source, reservations)
            elif tag == "kick":
                self._try_start(payload[1])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown event {tag}")

    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the metrics."""
        if self._ran:
            raise RuntimeError("a FactorizationSimulator instance can only run once")
        self._ran = True
        if self._exec_engine == "soa":
            self._precompute_geometry()
            return run_soa(self)
        self._setup()
        self._run_reference()

        if self._finished_nodes != self.tree.nnodes:
            unfinished = [i for i, s in enumerate(self.node_state) if not s.completed]
            raise RuntimeError(
                f"simulation deadlocked: {len(unfinished)} nodes never completed "
                f"(first few: {unfinished[:5]})"
            )

        per_peak = np.array([p.memory.peak_stack for p in self.procs], dtype=np.float64)
        per_factors = np.array([p.memory.factors for p in self.procs], dtype=np.float64)
        per_tasks = np.array([p.tasks_done for p in self.procs], dtype=np.float64)
        trace = SimulationTrace.from_processors(self.procs) if self.config.track_traces else None
        return SimulationResult(
            nprocs=self.config.nprocs,
            per_proc_peak_stack=per_peak,
            per_proc_factor_entries=per_factors,
            per_proc_tasks=per_tasks,
            total_time=float(self.queue.now),
            message_counts=dict(self.message_counts),
            slave_selections=self.slave_selections,
            nodes=self.tree.nnodes,
            total_factor_entries=float(per_factors.sum()),
            trace=trace,
            strategy_name=self.strategy_name,
        )


#: module-level int mirrors of the NodeType members compared on the hot path
_TYPE2 = int(NodeType.TYPE2)
_TYPE3 = int(NodeType.TYPE3)

#: built-in task selector type → the SoA loop's inlined task-selection mode
_SOA_TASK_MODES = {
    LifoTaskSelector: TASK_MODE_LIFO,
    FifoTaskSelector: TASK_MODE_FIFO,
    MemoryAwareTaskSelector: TASK_MODE_MEMORY_AWARE,
}

"""Structure-of-arrays simulation engine (``engine="soa"``).

The ``reference`` engine keeps one ``ProcessorState`` / ``ProcessorMemory`` /
``Task`` instance per entity and spends most of a run in attribute lookups
and small method calls, spread over ``_memory_changed`` / ``_broadcast`` /
``push_*`` chains of three to four frames each.  This module replaces all of
that with parallel arrays:

* processor fields (``stack``, ``factors``, ``peak_stack``, ``load``,
  ``observed_peak``, broadcast dedup values, …) live in ``(nprocs,)`` slots;
* task fields (``kind``, ``node``, ``proc``, ``flops``, ``memory_cost``,
  ``rows``, ``in_subtree``, ``master``, ``extra_transient``) live in
  ``(ntasks,)`` columns appended as tasks are created, and an event names a
  task by its integer id;
* point-to-point messages dissolve into the flat ``(time, seq, tag, a, b,
  c)`` event tuples themselves (tags ``EV_SLAVE_TASK`` /
  ``EV_CHILD_COMPLETED``), so the event heap doubles as the message ring
  buffer;
* view broadcasts and reservations are no events at all: they go to a log
  that is delivered right before a type-2 slave selection reads the views,
  into one vector per broadcast kind (see ``deliver`` in :func:`run_soa`).

:func:`run_soa` is one monolithic event loop over that layout: every handler
of the reference engine is inlined into the loop body or a single-level
closure, state lives in hoisted locals (plain CPython lists — dense integer
indexing without the ndarray scalar boxing), and events are pushed with
inline ``heappush`` of tuples.  A type-2 slave selection hands the selector
the master's rows of the views as ``array("d")`` rows and runs the per-slave
loop on the integer coefficients that :class:`SimGeometry` precomputes.

The run builds nothing the loop does not read.  It leaves its final lists in
``sim.run_end``; the canonical :class:`SimState` (numpy form) and the final
view matrices (:func:`write_views`) are built from them only when
``sim.state`` / ``sim.views`` are read — the identity tests read them, the
pipeline, the batched path and the service never do.

Bit-identity with the reference engine is load-bearing: both engines create
the same events and broadcasts in the same order (so sequence numbers and
pop order match) and perform every float operation with the same
association — this is pinned by ``tests/test_engine_identity.py`` over the
full scenario matrix, traces, message counts, every selection context and
the final views included.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.runtime.events import (
    EV_CHILD_COMPLETED,
    EV_KICK,
    EV_SLAVE_TASK,
    EV_TASK_DONE,
    EventQueue,
)
from repro.runtime.trace import SimulationTrace, TraceBuffer
from repro.scheduling.base import SlaveSelectionContext, normalize_row_distribution

__all__ = ["SimState", "run_soa", "write_views"]

# integer task-kind codes (the SoA twin of runtime.tasks.TaskKind)
K_TYPE1 = 0
K_TYPE2_MASTER = 1
K_TYPE2_SLAVE = 2
K_ROOT_SHARE = 3

#: task-selector modes inlined in the loop (resolved by the simulator from
#: the exact built-in selector types; anything else runs the reference engine)
TASK_MODE_LIFO = 0
TASK_MODE_FIFO = 1
TASK_MODE_MEMORY_AWARE = 2


class SimState:
    """Canonical structure-of-arrays state of one finished SoA run.

    Processor fields are ``(nprocs,)`` numpy arrays, task fields ``(ntasks,)``
    arrays in creation order, built from the run loop's plain lists (CPython
    indexes lists faster than it unboxes ndarray scalars) in slot order.
    """

    __slots__ = (
        "nprocs",
        "ntasks",
        "stack",
        "factors",
        "peak_stack",
        "peak_time",
        "load_remaining",
        "observed_peak",
        "tasks_done",
        "current_subtree",
        "task_kind",
        "task_node",
        "task_proc",
        "task_flops",
        "task_memory",
        "task_rows",
        "task_subtree",
        "task_master",
        "task_extra",
    )

    #: dtype of every column slot after ``nprocs`` and ``ntasks``, in slot order
    DTYPES = (np.float64,) * 6 + (np.int64,) * 2 + (
        np.int8, np.int64, np.int64, np.float64, np.float64, np.int64, np.int64, np.int64,
        np.float64,
    )

    def __init__(self, procs, tasks) -> None:
        self.nprocs = len(procs[0])
        self.ntasks = len(tasks[0])
        for name, dtype, values in zip(self.__slots__[2:], self.DTYPES, procs + tasks):
            setattr(self, name, np.array(values, dtype=dtype))


def write_views(bank, views) -> None:
    """Leave ``bank`` as the reference engine's run leaves it, from the loop's
    final ``(dm, over, dl, own)`` view lists."""
    dm, over, dl, own = views
    diag = np.arange(bank.nprocs)
    for kind, mat in enumerate((bank.memory, bank.load, bank.subtree_peak, bank.predicted_master)):
        mat[:] = dl[kind] if kind else dm
        mat[diag, diag] = own[kind]
    for s, ov in enumerate(over):
        for o, b in ov.items():
            bank.memory[o, s] = b


def run_soa(sim):
    """Run ``sim`` to completion with the SoA event loop.

    Returns the :class:`~repro.runtime.simulator.SimulationResult`, leaves
    the final ``(procs, tasks, views)`` lists in ``sim.run_end`` and mirrors
    ``sim.message_counts`` / ``sim.slave_selections`` and the final clock
    like the reference engine does.
    """
    cfg = sim.config
    geom = sim.geometry
    tracing = bool(cfg.track_traces)
    nprocs = cfg.nprocs
    nnodes = geom.nnodes
    multi = nprocs > 1
    n1 = nprocs - 1
    notif = sim.comm.notification_time()
    lat = sim.comm.latency
    bw = sim.comm.bandwidth_entries
    flop_rate = cfg.flop_rate
    asm_rate = cfg.assembly_rate
    min_rows = cfg.min_rows_per_slave
    max_slaves = cfg.effective_max_slaves()
    symmetric = sim.tree.symmetric
    task_mode = sim._soa_task_mode
    slave_select = sim.slave_selector.select
    normalize_rows = normalize_row_distribution
    # fault injection (hoisted; ``plan is None`` keeps every expression and
    # event route byte-identical to the unperturbed engine)
    plan = sim.fault_plan
    speed_at = plan.speed_at if plan is not None else None
    msg_stream = sim._fault_msg
    msg_penalty = plan.message_penalty if msg_stream is not None else None

    # ---------------- geometry (hoisted plain-list mirrors) ---------------- #
    tflops = geom.task_flops
    tmem = geom.task_memory
    g_front = geom.front_entries
    g_factor = geom.factor_entries
    g_cb = geom.cb_entries
    g_master = geom.master_entries
    g_asm = geom.assembly_flops
    g_npiv = geom.npiv
    g_nfront = geom.nfront
    g_ntype = geom.node_type
    g_owner = geom.owner
    g_sub = geom.subtree_of
    g_parent = geom.parent
    g_children = geom.children
    g_cands = geom.type2_candidates
    g_t2 = geom.type2_slave
    speaks = [float(x) for x in geom.subtree_peaks]
    from repro.mapping.layers import NodeType

    T2 = int(NodeType.TYPE2)
    T3 = int(NodeType.TYPE3)

    # ---------------- processor state (list mirrors of SimState) ----------- #
    stack = [0.0] * nprocs
    factors = [0.0] * nprocs
    peak = [0.0] * nprocs
    peak_t = [0.0] * nprocs
    observed = [0.0] * nprocs
    load = [0.0] * nprocs
    cur_sub = [-1] * nprocs
    cur_speak = [0.0] * nprocs
    last_m = [0.0] * nprocs
    last_l = [0.0] * nprocs
    last_p = [0.0] * nprocs
    tdone = [0] * nprocs
    current = [-1] * nprocs
    pools = [[] for _ in range(nprocs)]
    slaveq = [deque() for _ in range(nprocs)]
    upcoming = [dict() for _ in range(nprocs)]
    tb = [TraceBuffer() for _ in range(nprocs)] if tracing else None

    # ---------------- node state ------------------------------------------ #
    child_rem = list(geom.nchildren)
    completed = [False] * nnodes
    master_done = [False] * nnodes
    slaves_pend = [0] * nnodes
    activated = [False] * nnodes
    root_pend = [0] * nnodes
    cbp = [[] for _ in range(nnodes)]
    finished = 0

    # ---------------- task SoA columns (grow by append) -------------------- #
    t_kind = []
    t_node = []
    t_proc = []
    t_flops = []
    t_mem = []
    t_rows = []
    t_sub = []
    t_master = []
    t_extra = []

    # ---------------- views ------------------------------------------------ #
    # Broadcasts outnumber the points where the views are *read* — a type-2
    # slave selection — by two orders of magnitude, so they never enter the
    # event queues: two logs hold them in creation order, which is (time,
    # seq) order since the notification delay is constant, and ``deliver``
    # applies the prefix the reference engine would already have popped.
    # They still take a ``seq``, so every other event keeps its number.
    # Observer q's belief about s != q is ``dl[kind][s]`` for the load /
    # subtree / prediction kinds — ``llog`` holds (time, seq, dl[kind], src,
    # clamped value), and the last value delivered wins; for memory it is
    # ``dm[s]`` unless ``over[s]`` holds q's own belief (the master's
    # observer updates, and the announcing master, which a reservation
    # skips) — ``vlog`` holds (time, seq, kind, src, value) of the memory
    # broadcasts (kind 0) and reservations (kind 4), whose order matters.
    # q's own slot is ``own[kind][q]``.
    vlog = []
    llog = []
    dm = [0.0] * nprocs
    over = [{} for _ in range(nprocs)]
    dl = (None, [0.0] * nprocs, [0.0] * nprocs, [0.0] * nprocs)
    dl_l, dl_s, dl_p = dl[1:]
    own = ([0.0] * nprocs, [0.0] * nprocs, [0.0] * nprocs, [0.0] * nprocs)
    own_m, own_l, own_s, own_p = own

    # ---------------- event queues ----------------------------------------- #
    # Two sources, one global (time, seq) order.  Child-completed relays are
    # scheduled with the constant notification delay, so they have
    # non-decreasing timestamps and monotone sequence numbers: a plain FIFO
    # deque already holds them sorted, they skip the heap and the pop site
    # merges the two fronts.
    heap = []
    nq = deque()
    seq = 0
    now = 0.0
    ev = (0.0, -1)  # the event being handled; none during setup

    # ---------------- message counters ------------------------------------- #
    c_mem = c_load = c_sub = c_pred = 0
    c_cbt = c_stask = c_resv = c_sdone = c_child = c_root = 0
    c_lost = c_retr = 0
    root_seen = False
    n_sel = 0

    # ------------------------------------------------------------------ #
    # single-level closures (the reference engine's 3-4 frame call chains
    # collapse to one call over shared cells; float ops keep its exact
    # association)
    # ------------------------------------------------------------------ #
    def _alloc(q, e):
        s2 = stack[q] + e
        stack[q] = s2
        if s2 > peak[q]:
            peak[q] = s2
            peak_t[q] = now
        if tracing:
            tb[q].append(now, s2, factors[q])

    def _free(q, e):
        s2 = stack[q] - e
        stack[q] = s2
        if s2 < -1e-6:
            raise RuntimeError(
                f"processor {q}: stack memory became negative ({s2:.1f} entries)"
            )
        if tracing:
            tb[q].append(now, s2, factors[q])

    def _add_factors(q, e):
        f2 = factors[q] + e
        factors[q] = f2
        if tracing:
            tb[q].append(now, stack[q], f2)

    def mem_changed(q):
        nonlocal seq, c_mem
        s = stack[q]
        if s > observed[q]:
            observed[q] = s
        if s != last_m[q]:
            last_m[q] = s
            if multi:
                vlog.append((now + notif, seq, 0, q, s))
                seq += 1
                c_mem += n1
        own_m[q] = s

    def load_changed(q):
        nonlocal seq, c_load
        v = load[q]
        c = 0.0 if v < 0.0 else v
        if v != last_l[q]:
            last_l[q] = v
            if multi:
                llog.append((now + notif, seq, dl_l, q, c))
                seq += 1
                c_load += n1
        own_l[q] = c

    def pred_changed(q):
        nonlocal seq, c_pred
        v = max(upcoming[q].values(), default=0.0)
        c = 0.0 if v < 0.0 else v
        if v != last_p[q]:
            last_p[q] = v
            if multi:
                llog.append((now + notif, seq, dl_p, q, c))
                seq += 1
                c_pred += n1
        own_p[q] = c

    def subtree_changed(q, v):
        nonlocal seq, c_sub
        cur_speak[q] = v
        c = 0.0 if v < 0.0 else v
        own_s[q] = c
        if multi:
            llog.append((now + notif, seq, dl_s, q, c))
            seq += 1
            c_sub += n1

    def complete_node(node):
        nonlocal seq, finished, c_child, c_lost, c_retr
        if completed[node]:
            raise RuntimeError(f"node {node} completed twice")
        completed[node] = True
        finished += 1
        par = g_parent[node]
        if par < 0:
            return
        co = g_owner[node]
        if co < 0:
            co = 0
        po = g_owner[par]
        if po < 0:
            po = 0  # type-3 root: bookkeeping held by processor 0
        if co == po:
            on_child_completed(par)
        else:
            if msg_penalty is None:
                nq.append((now + notif, seq, EV_CHILD_COMPLETED, par, 0, 0))
            else:
                # a loss-delayed relay would break the FIFO deque's monotone
                # timestamps, so under msgloss these events go to the heap —
                # the pop site merges both fronts by (time, seq), so the
                # route does not affect ordering
                penalty, retries = msg_penalty(msg_stream)
                if retries:
                    c_lost += 1
                    c_retr += retries
                heappush(heap, (now + (notif + penalty), seq, EV_CHILD_COMPLETED, par, 0, 0))
            seq += 1
            c_child += 1

    def on_child_completed(par):
        # Section 5.1: the owner of the parent now expects this master task
        if g_sub[par] < 0 and g_ntype[par] != T3:
            ow = g_owner[par]
            up = upcoming[ow]
            if par not in up and not activated[par]:
                up[par] = tmem[par]
                pred_changed(ow)
        r = child_rem[par] - 1
        child_rem[par] = r
        if r == 0:
            node_ready(par)

    def node_ready(node):
        if g_ntype[node] == T3:
            root_ready(node)
            return
        ow = g_owner[node]
        sub = g_sub[node]
        tid = len(t_kind)
        t_kind.append(K_TYPE2_MASTER if g_ntype[node] == T2 else K_TYPE1)
        t_node.append(node)
        t_proc.append(ow)
        t_flops.append(tflops[node])
        t_mem.append(tmem[node])
        t_rows.append(0)
        t_sub.append(sub)
        t_master.append(-1)
        t_extra.append(0.0)
        pools[ow].append(tid)
        # the workload-based scheduling counts a task as load when it enters the pool
        if sub < 0:
            load[ow] = load[ow] + tflops[node]
            load_changed(ow)
        try_start(ow)

    def root_ready(node):
        nonlocal seq, c_root, root_seen
        # the 2-D distribution scatters the children CBs: free them where they live
        for c in g_children[node]:
            for cq, e in cbp[c]:
                _free(cq, e)
                mem_changed(cq)
            cbp[c] = []
        root_pend[node] = nprocs
        shf = tflops[node] / nprocs
        shm = g_front[node] / nprocs
        for sq2 in range(nprocs):
            tid = len(t_kind)
            t_kind.append(K_ROOT_SHARE)
            t_node.append(node)
            t_proc.append(sq2)
            t_flops.append(shf)
            t_mem.append(shm)
            t_rows.append(0)
            t_sub.append(-1)
            t_master.append(-1)
            t_extra.append(0.0)
            pools[sq2].append(tid)
            load[sq2] = load[sq2] + shf
            load_changed(sq2)
            try_start(sq2)
        c_root += n1
        root_seen = True

    def deliver(until):
        # apply the logged broadcasts ordered before the event ``until``
        # (its (time, seq) prefix decides: seq is unique); in ``vlog``, kind
        # 4 is a reservation from master ``src``, ``val`` its [(slave, block)]
        # list
        k = bisect_left(llog, until)
        for _t, _s, row, src, val in llog[:k]:
            row[src] = val
        del llog[:k]
        k = bisect_left(vlog, until)
        for _t, _s, kind, src, val in vlog[:k]:
            if kind == 0:
                dm[src] = val
                ov = over[src]
                if ov:
                    ov.clear()
            else:
                # everyone but the master and the slave itself adds the block
                for sq2, block in val:
                    ov = over[sq2]
                    if src not in ov:
                        ov[src] = dm[sq2]
                    x = dm[sq2] + block
                    dm[sq2] = 0.0 if x < 0.0 else x
                    for o, b in ov.items():
                        if o != src:
                            x = b + block
                            ov[o] = 0.0 if x < 0.0 else x
        del vlog[:k]

    def activate_t2(tid, q, node):
        nonlocal seq, c_cbt, c_stask, c_resv, n_sel, c_lost, c_retr
        deliver(ev)
        sub = t_sub[tid]
        if sub >= 0:
            if cur_sub[q] != sub:
                cur_sub[q] = sub
                subtree_changed(q, speaks[sub])
        else:
            up = upcoming[q]
            if node in up:
                del up[node]
                pred_changed(q)
        activated[node] = True
        # release the children CBs where they live; the master (observer)
        # updates its own view of the releasing processors immediately
        total = 0.0
        comm = 0.0
        for c in g_children[node]:
            for cq, e in cbp[c]:
                total += e
                _free(cq, e)
                mem_changed(cq)
                if cq != q:
                    ov = over[cq]
                    x = ov.get(q, dm[cq]) - e
                    ov[q] = 0.0 if x < 0.0 else x
                tt = lat + e / bw
                if tt > comm:
                    comm = tt
                c_cbt += 1
            cbp[c] = []
        npv = g_npiv[node]
        nfr = g_nfront[node]
        nfr_f = float(nfr if nfr > 1 else 1)
        # the master's assembly share: the rows of the children CBs that land
        # in the fully summed part of the front
        masm = total * float(npv) / nfr_f
        t_extra[tid] = masm
        _alloc(q, g_master[node] + masm)
        mem_changed(q)

        # ------------------- dynamic slave selection ------------------- #
        ncb = nfr - npv
        cset, row_flops, blk_a, blk_b = g_t2[node]
        # observer q's rows of the views; the Section 5.1 metric is summed
        # element by element with the reference engine's m + (s + p)
        vm = array("d", [ov.get(q, d) for ov, d in zip(over, dm)])
        vm[q] = own_m[q]
        ve = array("d", [m + (s + p) for m, s, p in zip(vm, dl_s, dl_p)])
        ve[q] = vm[q] + (own_s[q] + own_p[q])
        vl = array("d", dl_l)
        vl[q] = own_l[q]
        ctx = SlaveSelectionContext(
            master_proc=q,
            node=node,
            npiv=npv,
            nfront=nfr,
            ncb=ncb,
            symmetric=symmetric,
            candidates=g_cands[node],
            memory_view=vm,
            effective_memory_view=ve,
            load_view=vl,
            own_load=load[q],
            own_memory=stack[q],
            min_rows_per_slave=min_rows,
            max_slaves=max_slaves,
        )
        assignment = normalize_rows(slave_select(ctx), ncb, cset)
        n_sel += 1
        slaves_pend[node] = len(assignment)
        desc_delay = lat + float(npv * 2) / bw  # task descriptor, small
        if assignment:
            t_arrive = now + desc_delay
            reservations = []
            for sq2, rows in assignment:
                # repro.analysis.flops' slave block and flops, from the
                # node's integer coefficients
                block = float(rows * blk_a + (rows * blk_b) // 2)
                fl = float(rows * row_flops)
                # the slave's share of the children CB rows to assemble
                sasm = total * float(rows) / nfr_f
                stid = len(t_kind)
                t_kind.append(K_TYPE2_SLAVE)
                t_node.append(node)
                t_proc.append(sq2)
                t_flops.append(fl)
                t_mem.append(block)
                t_rows.append(rows)
                t_sub.append(-1)
                t_master.append(q)
                t_extra.append(sasm)
                if msg_penalty is None:
                    heappush(heap, (t_arrive, seq, EV_SLAVE_TASK, sq2, stid, 0))
                else:
                    penalty, retries = msg_penalty(msg_stream)
                    if retries:
                        c_lost += 1
                        c_retr += retries
                    heappush(
                        heap, (now + (desc_delay + penalty), seq, EV_SLAVE_TASK, sq2, stid, 0)
                    )
                seq += 1
                c_stask += 1
                # the master immediately accounts for its own decision
                ov = over[sq2]
                x = ov.get(q, dm[sq2]) + block
                ov[q] = 0.0 if x < 0.0 else x
                reservations.append((sq2, block))
            if multi:
                vlog.append((now + notif, seq, 4, q, reservations))
                seq += 1
                c_resv += n1
        if plan is None:
            return comm + g_asm[node] / asm_rate + tflops[node] / flop_rate
        return comm + (g_asm[node] / asm_rate + tflops[node] / flop_rate) * speed_at(q, now)

    def activate(tid, q):
        nonlocal seq, c_cbt
        current[q] = tid
        k = t_kind[tid]
        node = t_node[tid]
        if k == K_TYPE1:
            sub = t_sub[tid]
            if sub >= 0:
                if cur_sub[q] != sub:
                    cur_sub[q] = sub
                    subtree_changed(q, speaks[sub])
            else:
                up = upcoming[q]
                if node in up:
                    del up[node]
                    pred_changed(q)
            activated[node] = True
            # pull the children CB pieces onto the owner
            comm = 0.0
            moved = 0.0
            for c in g_children[node]:
                for cq, e in cbp[c]:
                    if cq != q:
                        _free(cq, e)
                        mem_changed(cq)
                        _alloc(q, e)
                        moved += e
                        tt = lat + e / bw
                        if tt > comm:
                            comm = tt
                        c_cbt += 1
            if moved > 0:
                mem_changed(q)
            _alloc(q, g_front[node])
            mem_changed(q)
            if plan is None:
                duration = comm + g_asm[node] / asm_rate + tflops[node] / flop_rate
            else:
                duration = comm + (
                    g_asm[node] / asm_rate + tflops[node] / flop_rate
                ) * speed_at(q, now)
        elif k == K_TYPE2_MASTER:
            duration = activate_t2(tid, q, node)
        elif k == K_TYPE2_SLAVE:
            if plan is None:
                duration = t_flops[tid] / flop_rate
            else:
                duration = t_flops[tid] / flop_rate * speed_at(q, now)
        else:  # K_ROOT_SHARE
            _alloc(q, t_mem[tid])
            mem_changed(q)
            if plan is None:
                duration = t_flops[tid] / flop_rate
            else:
                duration = t_flops[tid] / flop_rate * speed_at(q, now)
        heappush(heap, (now + duration, seq, EV_TASK_DONE, q, tid, 0))
        seq += 1

    def try_start(q):
        if current[q] != -1:
            return
        sq = slaveq[q]
        if sq:
            activate(sq.popleft(), q)
            return
        pl = pools[q]
        if not pl:
            return
        if task_mode == TASK_MODE_LIFO:
            i = len(pl) - 1
        elif task_mode == TASK_MODE_FIFO:
            i = 0
        else:  # Algorithm 2, inlined over the live pool of task ids
            top = len(pl) - 1
            cs = cur_sub[q]
            if cs >= 0 and t_sub[pl[top]] == cs:
                i = top
            else:
                cur = stack[q] + (cur_speak[q] if cs >= 0 else 0.0)
                obs = observed[q]
                i = top
                for j in range(top, -1, -1):
                    tid = pl[j]
                    if t_mem[tid] + cur <= obs:
                        i = j
                        break
                    if t_sub[tid] >= 0:
                        i = j
                        break
        activate(pl.pop(i), q)

    # ------------------------------------------------------------------ #
    # setup (same order of operations as FactorizationSimulator._setup)
    # ------------------------------------------------------------------ #
    il = geom.initial_load
    for q in range(nprocs):
        v = float(il[q])
        load[q] = v
        # everyone starts with the same (exact) static knowledge of the loads
        own_l[q] = dl_l[q] = 0.0 if v < 0.0 else v

    # initial pools: the leaves, deepest-first subtree by subtree
    for p in range(nprocs):
        for node in reversed(geom.pool_orders[p]):
            tid = len(t_kind)
            t_kind.append(K_TYPE2_MASTER if g_ntype[node] == T2 else K_TYPE1)
            t_node.append(node)
            t_proc.append(p)
            t_flops.append(tflops[node])
            t_mem.append(tmem[node])
            t_rows.append(0)
            t_sub.append(g_sub[node])
            t_master.append(-1)
            t_extra.append(0.0)
            pools[p].append(tid)

    # a single-node tree (or type-3 leaves) must still start somewhere
    for i in geom.tree_leaves:
        if g_ntype[i] == T3:
            root_ready(i)

    for p in range(nprocs):
        heappush(heap, (0.0, seq, EV_KICK, p, 0, 0))
        seq += 1

    # ------------------------------------------------------------------ #
    # the event loop (two ordered fronts merged by (time, seq) — tuple
    # comparison never reaches the payload because seq is unique)
    # ------------------------------------------------------------------ #
    while True:
        if heap:
            if nq and nq[0] < heap[0]:
                ev = nq.popleft()
            else:
                ev = heappop(heap)
        elif nq:
            ev = nq.popleft()
        else:
            break
        now = ev[0]
        tag = ev[2]
        if tag == EV_TASK_DONE:
            q = ev[3]
            tid = ev[4]
            current[q] = -1
            tdone[q] += 1
            k = t_kind[tid]
            node = t_node[tid]
            if k == K_TYPE1:
                # the children CB pieces all sit on the owner by now
                total = 0.0
                for c in g_children[node]:
                    lst = cbp[c]
                    if lst:
                        ssum = 0.0
                        for _cq, e in lst:
                            ssum += e
                        total += ssum
                        cbp[c] = []
                if total > 0:
                    _free(q, total)
                    mem_changed(q)
                _free(q, g_front[node])
                _add_factors(q, g_factor[node])
                cbv = g_cb[node]
                if cbv > 0:
                    _alloc(q, cbv)
                    cbp[node] = [(q, cbv)]
                mem_changed(q)
                l = load[q] - t_flops[tid]
                load[q] = 0.0 if l < 0.0 else l
                load_changed(q)
                sub = t_sub[tid]
                if sub >= 0 and node == sub:
                    cur_sub[q] = -1
                    subtree_changed(q, 0.0)
                complete_node(node)
            elif k == K_TYPE2_MASTER:
                me = g_master[node]
                _free(q, me + t_extra[tid])
                _add_factors(q, me)
                mem_changed(q)
                l = load[q] - t_flops[tid]
                load[q] = 0.0 if l < 0.0 else l
                load_changed(q)
                master_done[node] = True
                if slaves_pend[node] == 0:
                    complete_node(node)
            elif k == K_TYPE2_SLAVE:
                fp = float(t_rows[tid] * g_npiv[node])  # the slave's factor entries
                cb_part = t_mem[tid] - fp
                if cb_part < 0.0:
                    cb_part = 0.0
                _free(q, fp + t_extra[tid])
                _add_factors(q, fp)
                mem_changed(q)
                l = load[q] - t_flops[tid]
                load[q] = 0.0 if l < 0.0 else l
                load_changed(q)
                if cb_part > 0:
                    cbp[node].append((q, cb_part))
                slaves_pend[node] -= 1
                c_sdone += 1
                if slaves_pend[node] == 0 and master_done[node]:
                    complete_node(node)
            else:  # K_ROOT_SHARE
                _free(q, t_mem[tid])
                _add_factors(q, g_factor[node] / nprocs)
                mem_changed(q)
                l = load[q] - t_flops[tid]
                load[q] = 0.0 if l < 0.0 else l
                load_changed(q)
                rp = root_pend[node] - 1
                root_pend[node] = rp
                if rp == 0:
                    # root CB (normally empty) stays on processor 0 by convention
                    cbv = g_cb[node]
                    if cbv > 0:
                        _alloc(0, cbv)
                        mem_changed(0)
                        cbp[node] = [(0, cbv)]
                    complete_node(node)
            try_start(q)
        elif tag == EV_SLAVE_TASK:
            dq = ev[3]
            tid = ev[4]
            # the slave block (plus its assembly share) is charged upon
            # reception (Section 3: slave tasks activate as soon as received)
            _alloc(dq, t_mem[tid] + t_extra[tid])
            mem_changed(dq)
            load[dq] = load[dq] + t_flops[tid]
            load_changed(dq)
            slaveq[dq].append(tid)
            try_start(dq)
        elif tag == EV_CHILD_COMPLETED:
            on_child_completed(ev[3])
        else:  # EV_KICK
            try_start(ev[3])

    # ------------------------------------------------------------------ #
    # finalize: write the list mirrors back into the canonical SimState
    # ------------------------------------------------------------------ #
    if finished != nnodes:
        unfinished = [i for i in range(nnodes) if not completed[i]]
        raise RuntimeError(
            f"simulation deadlocked: {len(unfinished)} nodes never completed "
            f"(first few: {unfinished[:5]})"
        )
    # the reference engine pops the undelivered broadcasts too: the last one
    # sets its final clock
    for log in (vlog, llog):
        if log and log[-1][0] > now:
            now = log[-1][0]
    deliver((float("inf"),))
    sim.run_end = (
        (stack, factors, peak, peak_t, load, observed, tdone, cur_sub),
        (t_kind, t_node, t_proc, t_flops, t_mem, t_rows, t_sub, t_master, t_extra),
        (dm, over, dl, own),
    )

    message_counts = {}
    for name, count in (
        ("memory", c_mem),
        ("load", c_load),
        ("subtree", c_sub),
        ("prediction", c_pred),
        ("cb_transfer", c_cbt),
        ("slave_task", c_stask),
        ("reservation", c_resv),
        ("slave_done", c_sdone),
        ("child_completed", c_child),
        ("msg_lost", c_lost),
        ("msg_retries", c_retr),
    ):
        if count:
            message_counts[name] = count
    if root_seen:
        # the reference engine touches this key even at nprocs == 1 (+= 0)
        message_counts["root_ready"] = c_root
    sim.message_counts = message_counts
    sim.slave_selections = n_sel
    sim.queue = EventQueue()
    sim.queue._now = now
    sim._finished_nodes = finished

    from repro.runtime.simulator import SimulationResult

    trace = SimulationTrace.from_buffers(tb) if tracing else None
    per_factors = np.array(factors, dtype=np.float64)
    return SimulationResult(
        nprocs=nprocs,
        per_proc_peak_stack=np.array(peak, dtype=np.float64),
        per_proc_factor_entries=per_factors,
        per_proc_tasks=np.array(tdone, dtype=np.float64),
        total_time=now,
        message_counts=dict(message_counts),
        slave_selections=n_sel,
        nodes=nnodes,
        total_factor_entries=float(per_factors.sum()),
        trace=trace,
        strategy_name=sim.strategy_name,
    )

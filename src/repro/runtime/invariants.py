"""Oracle-free invariants of a finished simulation.

The ``reference`` engine pins ``soa`` bit for bit, but two engines can agree
on a wrong answer.  The checks here need no second engine: they hold for any
correct run of the model in :mod:`repro.runtime.simulator`.

Makespan lower bound
    A task keeps one processor busy for at least its assembly flops over
    ``assembly_rate`` plus its factorization flops over ``flop_rate``, times
    the processor's smallest fault multiplier.  So the makespan is at least

    * the critical path: along any leaf-to-root path, the work that must run
      one task after the other — a type-1 front, a type-2 master (its slaves
      start only after it), a type-3 root's share on the slowest processor.
      Two delays the static mapping fixes lie on that path too: the
      child-completed notification when a child's owner is not its
      parent's, and the transfer of a type-1 child's contribution block,
      which stays on the child's owner until the parent pulls it (a type-1
      parent on another processor) or releases it (a type-2 parent);
    * the total work, slave tasks included, spread over the ``P``
      processors.
"""

from __future__ import annotations

from repro.mapping.layers import NodeType
from repro.runtime.geometry import SimGeometry
from repro.runtime.messages import CommunicationModel

__all__ = ["makespan_lower_bound", "check"]

_TYPE1 = int(NodeType.TYPE1)
_TYPE2 = int(NodeType.TYPE2)
_TYPE3 = int(NodeType.TYPE3)

#: relative slack for the float rounding of the simulated clock: the run adds
#: its durations one event at a time, the bound sums the same terms in
#: another order
_ROUNDING = 1e-9


def _min_multipliers(config) -> list[float]:
    """Per processor, the smallest duration multiplier the fault plan can apply."""
    nprocs = config.nprocs
    if not config.faults:
        return [1.0] * nprocs
    from repro.faults import FaultPlan  # deferred: keeps runtime importable alone

    plan = FaultPlan.compile(config.faults, nprocs=nprocs, seed=config.fault_seed)
    dip = 1.0
    if plan.spec.slowdown is not None:
        # windows may overlap: at most n of them apply at once
        dip = min(1.0, plan.spec.slowdown.factor) ** plan.spec.slowdown.n
    return [float(s) * dip for s in plan.speed_factors]


def makespan_lower_bound(tree, mapping, config) -> float:
    """``max(critical path, total work / P)`` in seconds, fault multipliers included."""
    nprocs = config.nprocs
    geom = SimGeometry.for_run(tree, mapping, nprocs)
    slow = _min_multipliers(config)
    rate = config.flop_rate
    asm_rate = config.assembly_rate
    comm = CommunicationModel(
        latency=config.latency,
        bandwidth_entries=config.bandwidth_entries,
        small_message_latency=config.memory_message_latency,
    )
    notif = comm.notification_time()
    ntype = geom.node_type
    owner = [max(q, 0) for q in geom.owner]  # a type-3 root is booked on processor 0
    path = [0.0] * geom.nnodes  # seconds, leaves up (the tree is postordered)
    work = 0.0  # seconds of every task at full speed
    for node in range(geom.nnodes):
        kind = ntype[node]
        if kind == _TYPE3:
            # nprocs equal shares side by side, no assembly term
            seconds = geom.task_flops[node] / rate
            own = seconds / nprocs * max(slow)
        else:
            seconds = geom.assembly_flops[node] / asm_rate + geom.task_flops[node] / rate
            own = seconds * slow[owner[node]]
        if kind == _TYPE2:
            _cset, row_flops, _a, _b = geom.type2_slave[node]
            seconds += float((geom.nfront[node] - geom.npiv[node]) * row_flops) / rate
        work += seconds
        ready = 0.0
        transfer = 0.0
        for c in geom.children[node]:
            remote = owner[c] != owner[node]
            ready = max(ready, path[c] + notif if remote else path[c])
            cb = geom.cb_entries[c]
            if ntype[c] == _TYPE1 and cb > 0 and (kind == _TYPE2 or (kind == _TYPE1 and remote)):
                transfer = max(transfer, comm.transfer_time(cb))
        path[node] = ready + transfer + own
    return max(max(path, default=0.0), work * min(slow) / nprocs)


def check(result, tree, mapping, config) -> None:
    """Raise ``AssertionError`` if ``result`` breaks an invariant."""
    bound = makespan_lower_bound(tree, mapping, config)
    if result.total_time < bound * (1.0 - _ROUNDING):
        raise AssertionError(
            f"makespan {result.total_time!r} s is below its lower bound {bound!r} s"
        )

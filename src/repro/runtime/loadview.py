"""Stale remote views of the other processors.

Every processor keeps an approximate view of the others: their stack
occupation (fed by the memory-variation broadcasts of Section 4), their
remaining workload (MUMPS' original metric, Section 3), the peak of the
subtree they are currently processing and the cost of the next master task
they are about to activate (the two Section 5.1 prediction mechanisms).

The views are only updated when the corresponding broadcast *arrives*, so
they lag reality by the message latency — exactly the coherence hazard the
paper illustrates in Figure 5.  All processors' views live in one
:class:`ViewBank` of ``(nprocs, nprocs)`` matrices, so delivering a broadcast
or a reservation is one numpy column update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.events import BK_MEMORY, BROADCAST_KIND_IDS

__all__ = ["SystemView", "ViewBank"]


@dataclass(slots=True)
class SystemView:
    """What one processor believes about the whole system."""

    nprocs: int
    owner: int
    memory: np.ndarray = field(default=None)
    load: np.ndarray = field(default=None)
    subtree_peak: np.ndarray = field(default=None)
    predicted_master: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = np.zeros(self.nprocs, dtype=np.float64)
        if self.load is None:
            self.load = np.zeros(self.nprocs, dtype=np.float64)
        if self.subtree_peak is None:
            self.subtree_peak = np.zeros(self.nprocs, dtype=np.float64)
        if self.predicted_master is None:
            self.predicted_master = np.zeros(self.nprocs, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # updates driven by message arrivals (or by local knowledge)
    # ------------------------------------------------------------------ #
    def set_memory(self, proc: int, value: float) -> None:
        self.memory[proc] = value

    def add_memory(self, proc: int, delta: float) -> None:
        """Apply an increment (used for slave reservations known in advance)."""
        self.memory[proc] = max(self.memory[proc] + delta, 0.0)

    def set_load(self, proc: int, value: float) -> None:
        self.load[proc] = max(value, 0.0)

    def set_subtree_peak(self, proc: int, value: float) -> None:
        self.subtree_peak[proc] = max(value, 0.0)

    def set_predicted_master(self, proc: int, value: float) -> None:
        self.predicted_master[proc] = max(value, 0.0)

    # ------------------------------------------------------------------ #
    # metrics used by the slave-selection strategies
    # ------------------------------------------------------------------ #
    def instantaneous_memory(self, proc: int) -> float:
        """Believed stack occupation of ``proc`` (Section 4 metric)."""
        return float(self.memory[proc])

    def effective_memory(self, proc: int, *, with_predictions: bool = True) -> float:
        """Slave-selection metric of Section 5.1.

        Instantaneous memory plus the peak of the subtree the processor is
        treating plus the predicted cost of its next upper-layer master task;
        with ``with_predictions=False`` it degrades to the plain Section 4
        metric.
        """
        value = float(self.memory[proc])
        if with_predictions:
            value += float(self.subtree_peak[proc]) + float(self.predicted_master[proc])
        return value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the arrays (for traces and debugging)."""
        return {
            "memory": self.memory.copy(),
            "load": self.load.copy(),
            "subtree_peak": self.subtree_peak.copy(),
            "predicted_master": self.predicted_master.copy(),
        }


class ViewBank:
    """All processors' :class:`SystemView` s backed by shared matrices.

    A broadcast event delivers the same value to every processor but the
    sender at the same simulated instant, and a reservation notification
    applies the same increments to every third party's view.  The bank stores
    the four view quantities as ``(nprocs, nprocs)`` matrices indexed
    ``[observer, subject]``; each processor's :class:`SystemView` wraps the
    matrix *rows* (plain numpy views, zero copies), so a broadcast collapses
    to one column assignment and a reservation to one clamped column update.
    ``tests/test_vectorized_views.py`` pins these column operations to a
    per-view scalar oracle.
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = int(nprocs)
        self.memory = np.zeros((nprocs, nprocs), dtype=np.float64)
        self.load = np.zeros((nprocs, nprocs), dtype=np.float64)
        self.subtree_peak = np.zeros((nprocs, nprocs), dtype=np.float64)
        self.predicted_master = np.zeros((nprocs, nprocs), dtype=np.float64)
        # kind-id → matrix, indexed consistently with events.BK_*
        self._kind_arrays = (self.memory, self.load, self.subtree_peak, self.predicted_master)
        self._views = [
            SystemView(
                nprocs=nprocs,
                owner=p,
                memory=self.memory[p],
                load=self.load[p],
                subtree_peak=self.subtree_peak[p],
                predicted_master=self.predicted_master[p],
            )
            for p in range(nprocs)
        ]

    def view(self, proc: int) -> SystemView:
        """The (live) view owned by processor ``proc``."""
        return self._views[proc]

    # ------------------------------------------------------------------ #
    # batched event application
    # ------------------------------------------------------------------ #
    def apply_broadcast(self, kind: str, source: int, value: float) -> None:
        """Deliver one broadcast to every processor except the sender.

        Equivalent to calling the per-kind ``SystemView`` setter on each
        non-source view; the sender's own row is untouched (it always knows
        its exact state and updated it when the broadcast was emitted).
        """
        try:
            kind_id = BROADCAST_KIND_IDS[kind]
        except KeyError:
            raise ValueError(f"unknown broadcast kind {kind}") from None
        if kind_id != BK_MEMORY:
            # the scalar setters clamp at zero; one scalar max keeps the
            # column assignment bit-identical to the per-view calls
            value = max(float(value), 0.0)
        column = self._kind_arrays[kind_id][:, source]
        keep = column[source]
        column[:] = value
        column[source] = keep

    def apply_reservations(self, source: int, reservations: list[tuple[int, float]]) -> None:
        """Apply slave-block reservations announced by ``source``.

        Every processor other than the announcing master adds ``block`` to its
        belief about slave ``q``'s memory (``q`` itself skips its own entry:
        it learns the true value when the slave task message arrives).
        """
        memory = self.memory
        for (q, block) in reservations:
            column = memory[:, q]
            keep_source = column[source]
            keep_self = column[q]
            np.maximum(column + block, 0.0, out=column)
            column[source] = keep_source
            column[q] = keep_self

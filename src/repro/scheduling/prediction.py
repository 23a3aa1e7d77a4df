"""Section 5.1: injecting static knowledge into the dynamic metric.

Two broadcast mechanisms feed the remote views maintained by the runtime:

* when a processor starts a leaf subtree it broadcasts the *peak* of that
  subtree (subtree tasks are small and frequent, so broadcasting each of them
  would be pointless — the peak is the right summary);
* when a child of an upper-layer node completes, the processor in charge of
  the parent broadcasts the memory cost of the largest master task it is
  about to activate, and refreshes that value whenever it activates one.

Both values are maintained by the simulator (see
:meth:`repro.runtime.simulator.FactorizationSimulator`); this module only
holds the *metric* that combines them with the instantaneous memory, so the
slave selectors and the tests share a single definition.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduling.base import SlaveSelectionContext

__all__ = ["selection_metric"]


def selection_metric(ctx: SlaveSelectionContext, *, use_predictions: bool) -> Sequence[float]:
    """Per-processor memory metric used by the memory-based slave selection.

    With ``use_predictions=False`` this is the believed instantaneous memory
    (Section 4); with ``use_predictions=True`` it is the Section 5.1 sum
    "instantaneous memory + current-subtree peak + predicted next master
    task", which the runtime exposes as ``effective_memory_view``.  The
    view is returned as it is, indexed by processor.
    """
    return ctx.effective_memory_view if use_predictions else ctx.memory_view

"""Named strategy bundles used throughout the experiments.

A *strategy* is a (slave selector, task selector) pair:

============== ============================== ===========================
name           slave selection                task selection
============== ============================== ===========================
mumps-workload workload-based (Section 3)      LIFO stack (original MUMPS)
memory-basic   Algorithm 1, no predictions     LIFO stack
memory-slave   Algorithm 1 + Section 5.1       LIFO stack
memory-task    workload-based                  Algorithm 2
memory-full    Algorithm 1 + Section 5.1       Algorithm 2
hybrid         workload/memory blend           Algorithm 2
============== ============================== ===========================

``memory-full`` is "the dynamic memory strategies" whose gains the paper's
Tables 2, 3 and 5 report against ``mumps-workload``; the intermediate presets
switch the paper's ingredients on one at a time.

Strategies live in the :data:`STRATEGIES` registry and may declare keyword
parameters; :func:`resolve_strategy` accepts the spec mini-language, so
``"hybrid(alpha=0.25)"`` is a valid strategy name everywhere one is expected
(:func:`repro.simulate`, :class:`~repro.pipeline.stage.CaseSpec`, the CLI's
``--strategies``):

>>> strategy, params = resolve_strategy("hybrid(alpha=0.25)")
>>> slave, task = strategy.build(**params)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.registry import Registry, validate_params
from repro.scheduling.base import SlaveSelector, TaskSelector
from repro.scheduling.hybrid import HybridSlaveSelector
from repro.scheduling.memory_slave import MemorySlaveSelector
from repro.scheduling.task_selection import LifoTaskSelector, MemoryAwareTaskSelector
from repro.scheduling.workload import WorkloadSlaveSelector
from repro.specs import ParamSpec

__all__ = [
    "SchedulingStrategy",
    "STRATEGIES",
    "get_strategy",
    "resolve_strategy",
    "canonical_strategy",
]


@dataclass
class SchedulingStrategy:
    """A named pair of scheduling policies, ready to hand to the simulator.

    ``params`` declares the keyword parameters :meth:`build` accepts (name →
    default); they are forwarded to the slave-selector factory, so a preset
    like ``hybrid`` can be instantiated as ``hybrid(alpha=0.25)`` without
    registering one preset per parameter value.
    """

    name: str
    description: str
    make_slave_selector: Callable[..., SlaveSelector]
    make_task_selector: Callable[[], TaskSelector]
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self, **params) -> tuple[SlaveSelector, TaskSelector]:
        """Fresh selector instances configured with ``params``.

        Unknown parameters raise ``ValueError`` naming the accepted set
        (strategies are stateless but cheap to rebuild).
        """
        validate_params("strategy", self.name, self.params, params)
        merged = {**self.params, **params}
        return self.make_slave_selector(**merged), self.make_task_selector()


STRATEGIES: Registry[SchedulingStrategy] = Registry("strategy")


def _add(strategy: SchedulingStrategy) -> None:
    STRATEGIES.add(
        strategy.name,
        strategy,
        description=strategy.description,
        params=strategy.params,
    )


_add(
    SchedulingStrategy(
        name="mumps-workload",
        description="Original MUMPS: workload-based slave selection, LIFO task pool (Section 3)",
        make_slave_selector=WorkloadSlaveSelector,
        make_task_selector=LifoTaskSelector,
    )
)
_add(
    SchedulingStrategy(
        name="memory-basic",
        description="Algorithm 1 with the instantaneous-memory metric only (Section 4)",
        make_slave_selector=lambda: MemorySlaveSelector(use_predictions=False),
        make_task_selector=LifoTaskSelector,
    )
)
_add(
    SchedulingStrategy(
        name="memory-slave",
        description="Algorithm 1 with the Section 5.1 prediction metric, LIFO task pool",
        make_slave_selector=lambda: MemorySlaveSelector(use_predictions=True),
        make_task_selector=LifoTaskSelector,
    )
)
_add(
    SchedulingStrategy(
        name="memory-task",
        description="Workload-based slave selection with the Algorithm 2 task pool (Section 5.2)",
        make_slave_selector=WorkloadSlaveSelector,
        make_task_selector=MemoryAwareTaskSelector,
    )
)
_add(
    SchedulingStrategy(
        name="memory-full",
        description="The paper's full dynamic memory strategy: Algorithm 1 + Section 5.1 + Algorithm 2",
        make_slave_selector=lambda: MemorySlaveSelector(use_predictions=True),
        make_task_selector=MemoryAwareTaskSelector,
    )
)
_add(
    SchedulingStrategy(
        name="hybrid",
        description="Workload/memory blended ranking (the future work sketched in the conclusion)",
        make_slave_selector=lambda alpha=0.5, use_predictions=True: HybridSlaveSelector(
            alpha=alpha, use_predictions=use_predictions
        ),
        make_task_selector=MemoryAwareTaskSelector,
        params={"alpha": 0.5, "use_predictions": True},
    )
)


def get_strategy(name: str) -> SchedulingStrategy:
    """Look up a strategy preset by name (case-insensitive, did-you-mean errors).

    ``name`` may carry the spec mini-language's parameters
    (``"hybrid(alpha=0.3)"``); they are validated and discarded here — use
    :func:`resolve_strategy` to keep them.
    """
    return resolve_strategy(name)[0]


def resolve_strategy(spec: str | ParamSpec) -> tuple[SchedulingStrategy, dict[str, object]]:
    """Parse a strategy spec into (preset, bound parameters).

    Validates the parameter names against the preset's declared ``params``,
    so a typo (``hybrid(aplha=0.3)``) fails at parse time rather than at
    simulation time.
    """
    entry, params = STRATEGIES.resolve(spec)
    return entry.value, params  # type: ignore[return-value]


def canonical_strategy(spec: str | ParamSpec) -> str:
    """Canonical spec string with the preset's defaults bound.

    ``"hybrid"`` and ``"HYBRID(alpha=0.5)"`` both canonicalise to
    ``"hybrid(alpha=0.5,use_predictions=true)"`` — the form the pipeline
    cache keys use, so equivalent spellings share artifacts and distinct
    parameterisations never collide.
    """
    return STRATEGIES.canonical(spec)

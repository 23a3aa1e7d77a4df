"""Distributed-memory execution substrate: a discrete-event simulator of the
asynchronous parallel multifrontal factorization.

The paper's experiments run MUMPS on 32 processors of an IBM SP; offline we
replace the machine and the numerical factorization by a discrete-event
simulation that keeps everything the scheduling study depends on: the
assembly-tree task graph, the static mapping, per-processor task pools with
LIFO semantics, dynamic slave selection for type-2 nodes, message latencies
(including the staleness of the memory/load views that Section 4 worries
about), and per-processor accounting of the factor area and of the stack of
contribution blocks in *entries* — the unit of every table of the paper.
"""

from repro.runtime.config import SimulationConfig
from repro.runtime.events import EventQueue
from repro.runtime.geometry import SimGeometry
from repro.runtime.messages import CommunicationModel, Message, MessageKind
from repro.runtime.memory_state import ProcessorMemory
from repro.runtime.loadview import SystemView, ViewBank
from repro.runtime.tasks import Task, TaskKind
from repro.runtime.processor import ProcessorState
from repro.runtime.simulator import (
    DEFAULT_ENGINE,
    SIM_ENGINE_ENV,
    SIM_ENGINES,
    FactorizationSimulator,
    SimulationResult,
    resolve_engine,
)
from repro.runtime.soa import SimState
from repro.runtime.trace import SimulationTrace, TraceBuffer

__all__ = [
    "SimulationConfig",
    "EventQueue",
    "SIM_ENGINES",
    "SIM_ENGINE_ENV",
    "DEFAULT_ENGINE",
    "resolve_engine",
    "CommunicationModel",
    "Message",
    "MessageKind",
    "ProcessorMemory",
    "SystemView",
    "ViewBank",
    "Task",
    "TaskKind",
    "ProcessorState",
    "FactorizationSimulator",
    "SimulationResult",
    "SimulationTrace",
    "TraceBuffer",
    "SimGeometry",
    "SimState",
]

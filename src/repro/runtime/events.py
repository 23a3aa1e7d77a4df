"""Event core of the discrete-event simulator.

* :class:`EventQueue` — the reference engine's deterministic min-heap keyed
  by ``(time, sequence)``, one :class:`ScheduledEvent` dataclass per event
  carrying a string-tagged payload tuple.  The sequence number makes the
  simulation fully reproducible when several events share a timestamp
  (frequent with the zero-latency configurations used in tests).
* The integer vocabulary of the SoA engine (:mod:`repro.runtime.soa`): its
  events are raw ``(time, seq, tag, a, b, c)`` tuples whose ``tag`` is one of
  the ``EV_*`` constants.  View broadcasts are no events there but entries of
  a delivery log, whose kinds are the ``BK_*`` ids (the order of the
  :class:`~repro.runtime.loadview.ViewBank` matrices).  Both engines number
  events and broadcasts alike, so they handle them in the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "EV_TASK_DONE",
    "EV_KICK",
    "EV_SLAVE_TASK",
    "EV_CHILD_COMPLETED",
    "BK_MEMORY",
    "BK_LOAD",
    "BK_SUBTREE",
    "BK_PREDICTION",
    "BROADCAST_KIND_NAMES",
    "BROADCAST_KIND_IDS",
]

# ---------------------------------------------------------------------------- #
# integer event vocabulary (the SoA engine's tuple tags)
# ---------------------------------------------------------------------------- #
EV_TASK_DONE = 0    # (proc, task_id) — a processor finished its current task
EV_KICK = 4         # (proc,) — initial "look at your pool" nudge at t=0

# The SoA engine dissolves point-to-point :class:`Message` objects into the
# flat tuples themselves (the heap doubles as the message ring buffer): the
# two message kinds become dedicated tags carrying integer operands.
EV_SLAVE_TASK = 5        # (dest, task_id) — a type-2 slave task descriptor arrives
EV_CHILD_COMPLETED = 6   # (parent,) — a child-completed notification arrives

#: broadcast kinds, indexed consistently with ``ViewBank`` column banks (the
#: SoA delivery log also carries reservations, as kind 4).
BK_MEMORY = 0
BK_LOAD = 1
BK_SUBTREE = 2
BK_PREDICTION = 3

BROADCAST_KIND_NAMES = ("memory", "load", "subtree", "prediction")
BROADCAST_KIND_IDS = {name: i for i, name in enumerate(BROADCAST_KIND_NAMES)}


@dataclass(order=True)
class ScheduledEvent:
    """One scheduled event: a timestamp, a tie-breaking sequence and a payload."""

    time: float
    seq: int
    payload: Any = field(compare=False)


class EventQueue:
    """Deterministic min-heap of :class:`ScheduledEvent` (the reference engine).

    The generic ``push``/``pop`` API is unchanged from the original engine;
    the typed helpers build the historical string-tagged payload tuples.
    """

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the last popped event (the simulation clock)."""
        return self._now

    def push(self, time: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` at absolute ``time``."""
        if time < self._now - 1e-15:
            raise ValueError(f"cannot schedule event in the past ({time} < {self._now})")
        ev = ScheduledEvent(time=float(time), seq=self._seq, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def push_after(self, delay: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` ``delay`` seconds after the current clock."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.push(self._now + delay, payload)

    def pop(self) -> ScheduledEvent:
        """Pop the next event and advance the clock."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        ev = heapq.heappop(self._heap)
        self._now = ev.time
        return ev

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[ScheduledEvent]:
        """Iterate over the remaining events in time order (consuming them)."""
        while self._heap:
            yield self.pop()

    # ------------------------------------------------------------------ #
    # typed pushes (historical payloads)
    # ------------------------------------------------------------------ #
    def push_kick(self, time: float, proc: int) -> None:
        self.push(time, ("kick", proc))

    def push_task_done(self, time: float, proc: int, task) -> None:
        self.push(time, ("task_done", proc, task))

    def push_message_after(self, delay: float, msg) -> None:
        self.push_after(delay, ("message", msg))

    def push_broadcast_after(self, delay: float, kind: str, source: int, value: float) -> None:
        self.push_after(delay, ("broadcast", kind, source, value))

    def push_reservation_after(self, delay: float, source: int, reservations: list) -> None:
        self.push_after(delay, ("reservation", source, reservations))


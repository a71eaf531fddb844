"""Event types and the time-ordered event queue of the simulator."""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.exceptions import SimulationError


class EventKind(str, enum.Enum):
    """Kinds of simulation events."""

    ARRIVAL = "arrival"
    PREFILL_DONE = "prefill_done"
    KV_ARRIVED = "kv_arrived"
    DECODE_STEP = "decode_step"
    #: re-dispatch of a request after a fault-triggered backoff delay; the
    #: payload is the :class:`~repro.core.types.Request`
    RETRY = "retry"
    REPLICA_STEP = "replica_step"  # co-located replicas (vLLM/HexGen baselines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=False)
class Event:
    """A single simulation event.

    Events are ordered by time; ties are broken by an insertion sequence number so
    the simulation is fully deterministic.
    """

    time: float
    kind: EventKind
    #: replica (group) id the event belongs to, if any
    replica_id: Optional[int] = None
    #: request id the event belongs to, if any
    request_id: Optional[int] = None
    #: free-form payload (e.g. the batch of requests finishing prefill)
    payload: Any = None


class EventQueue:
    """Min-heap of events keyed by (time, sequence number)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> int:
        """Insert an event; returns the assigned tie-breaking sequence number."""
        if event.time < 0:
            raise SimulationError(f"event time must be >= 0, got {event.time}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (event.time, seq, event))
        return seq

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek_key(self) -> Optional[tuple[float, int]]:
        """(time, sequence number) of the earliest event, or ``None`` when empty."""
        return self._heap[0][:2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


__all__ = ["Event", "EventKind", "EventQueue"]

"""Compiled replica-level fault timelines consumed by the simulation engines.

A :class:`~repro.faults.taxonomy.FaultSchedule` speaks in GPU ids; the
simulator speaks in serving-group (replica) ids.  :func:`compile_fault_timeline`
folds the capacity events of a schedule against a
:class:`~repro.scheduling.deployment.DeploymentPlan` and emits a
:class:`FaultTimeline` — the replica deaths and revivals the engines apply
*inside* a run, at the exact fault instant, instead of slicing the trace into
windows around it:

* a serving group **dies** the moment any of its GPUs is removed (tensor/
  pipeline shards are not independently useful), and every in-flight request
  on it gets a typed disposition under the run's
  :class:`~repro.faults.retry.RetryPolicy`;
* it **revives** fresh (empty queues, reset KV cache) once all of its GPUs are
  back — partial recoveries keep it dead.

Link-degradation and straggler events have no replica-death semantics and are
ignored here; the serving layer continues to price them through cluster and
slowdown state between windows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.core.types import Phase
from repro.faults.taxonomy import CAPACITY_LOSS_KINDS, FaultKind, FaultSchedule
from repro.scheduling.deployment import DeploymentPlan


@dataclass(frozen=True)
class ReplicaFaultEvent:
    """Replica deaths and revivals taking effect at one simulation instant.

    Group ids are sorted tuples; the same group never appears in both the dead
    and revived list of one event.  At the instant ``time`` the engines apply
    deaths first (disposing every in-flight request on a dead replica), then
    revivals — an event is allowed to carry both.
    """

    time: float
    dead_prefill: Tuple[int, ...] = ()
    dead_decode: Tuple[int, ...] = ()
    revived_prefill: Tuple[int, ...] = ()
    revived_decode: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        for name in ("dead_prefill", "dead_decode", "revived_prefill", "revived_decode"):
            ids = getattr(self, name)
            object.__setattr__(self, name, tuple(sorted(int(g) for g in ids)))
        if set(self.dead_prefill) & set(self.revived_prefill) or set(
            self.dead_decode
        ) & set(self.revived_decode):
            raise ValueError("a replica cannot die and revive in the same event")

    @property
    def noop(self) -> bool:
        """Whether the event changes nothing (no deaths, no revivals)."""
        return not (
            self.dead_prefill
            or self.dead_decode
            or self.revived_prefill
            or self.revived_decode
        )


@dataclass(frozen=True)
class FaultTimeline:
    """Time-ordered replica fault events for one simulation run.

    The engines treat the timeline as ground truth: at each event's instant —
    fault events win exact-time ties against simulation events — the listed
    replicas die or revive and in-flight work is disposed.  Events are sorted
    by time at construction; no-op events are dropped.
    """

    events: Tuple[ReplicaFaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        kept = tuple(
            sorted((e for e in self.events if not e.noop), key=lambda e: e.time)
        )
        times = [e.time for e in kept]
        if len(set(times)) != len(times):
            raise ValueError("fault timeline events must have distinct times")
        object.__setattr__(self, "events", kept)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def signature(self) -> int:
        """CRC-32 fingerprint for replay verification and telemetry."""
        parts = []
        for e in self.events:
            parts.append(
                f"{e.time!r}|{e.dead_prefill}|{e.dead_decode}"
                f"|{e.revived_prefill}|{e.revived_decode}"
            )
        return zlib.crc32(";".join(parts).encode()) & 0xFFFFFFFF


def _group_phases(plan: DeploymentPlan) -> Dict[int, Phase]:
    phases: Dict[int, Phase] = {}
    for group in plan.prefill_groups:
        phases[group.group_id] = Phase.PREFILL
    for group in plan.decode_groups:
        phases[group.group_id] = Phase.DECODE
    return phases


def compile_fault_timeline(
    schedule: FaultSchedule, plan: DeploymentPlan
) -> FaultTimeline:
    """Compile a GPU-level fault schedule into a replica-level timeline.

    Folds the schedule's capacity events (preemptions, node crashes,
    recoveries) over the plan's serving groups and records, per fault instant,
    which groups transition dead or alive.  Non-capacity kinds (link
    degradation, stragglers) are skipped.  Same-time events fold together
    into a single :class:`ReplicaFaultEvent`.
    """
    phases = _group_phases(plan)
    gpu_sets: Dict[int, FrozenSet[int]] = {
        g.group_id: frozenset(g.gpu_ids) for g in plan.groups
    }
    removed: set = set()
    dead: set = set()
    events: List[ReplicaFaultEvent] = []
    schedule_events = [
        e
        for e in schedule.events
        if e.kind in CAPACITY_LOSS_KINDS or e.kind is FaultKind.RECOVERY
    ]
    i = 0
    while i < len(schedule_events):
        t = schedule_events[i].time
        while i < len(schedule_events) and schedule_events[i].time == t:
            event = schedule_events[i]
            if event.kind is FaultKind.RECOVERY:
                removed -= set(event.gpu_ids)
            else:
                removed |= set(event.gpu_ids)
            i += 1
        now_dead = {gid for gid, gpus in gpu_sets.items() if gpus & removed}
        died = sorted(now_dead - dead)
        revived = sorted(dead - now_dead)
        dead = now_dead
        if not died and not revived:
            continue
        events.append(
            ReplicaFaultEvent(
                time=float(t),
                dead_prefill=tuple(g for g in died if phases[g] is Phase.PREFILL),
                dead_decode=tuple(g for g in died if phases[g] is Phase.DECODE),
                revived_prefill=tuple(g for g in revived if phases[g] is Phase.PREFILL),
                revived_decode=tuple(g for g in revived if phases[g] is Phase.DECODE),
            )
        )
    return FaultTimeline(events=tuple(events))


__all__ = [
    "ReplicaFaultEvent",
    "FaultTimeline",
    "compile_fault_timeline",
]

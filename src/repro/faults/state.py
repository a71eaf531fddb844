"""Cluster fault state: fold fault events into a degraded cluster view.

:class:`ClusterFaultState` is the pure state machine between a fault schedule
and the serving system.  It holds the *pristine* cluster (full roster, healthy
network) and tracks three orthogonal degradations:

* the set of removed GPU ids (capacity loss / recovery),
* the current link scaling (absolute multipliers vs. the pristine network),
* per-GPU straggler slowdowns.

Applying an event is always safe: capacity loss only removes GPUs that are
currently alive, recovery only revives GPUs that are currently removed, and
the delta that actually took effect is reported back as an
:class:`AppliedFault` — so interleaved or overlapping fail/recover sequences
(two fault processes striking the same GPU, a replayed schedule applied
twice) can never double-remove a GPU or resurrect one that was never lost.
Removing the last alive GPU does not raise: the state enters *outage*
(:attr:`ClusterFaultState.outage` true, :meth:`ClusterFaultState.current_cluster`
returns ``None``) and leaves it when capacity recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.hardware.cluster import Cluster
from repro.faults.taxonomy import CAPACITY_LOSS_KINDS, FaultEvent, FaultKind


@dataclass(frozen=True)
class AppliedFault:
    """What one fault event actually changed when folded into the state."""

    event: FaultEvent
    #: GPU ids this application newly removed (alive -> removed)
    removed: Tuple[int, ...] = ()
    #: GPU ids this application newly revived (removed -> alive)
    revived: Tuple[int, ...] = ()
    #: whether the network scaling changed
    network_changed: bool = False
    #: whether any straggler slowdown changed
    slowdown_changed: bool = False

    @property
    def noop(self) -> bool:
        """True when the event changed nothing (e.g. victims already gone)."""
        return (
            not self.removed
            and not self.revived
            and not self.network_changed
            and not self.slowdown_changed
        )


class ClusterFaultState:
    """Tracks the degraded view of a cluster under an applied fault sequence.

    Parameters
    ----------
    cluster:
        The pristine cluster (full capacity, healthy network).  Never mutated;
        degraded views are derived from it on demand so repeated degradation
        and repair can never accumulate float drift.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.pristine = cluster
        self.removed: Set[int] = set()
        self.bandwidth_scale: float = 1.0
        self.latency_scale: float = 1.0
        self.slowdowns: Dict[int, float] = {}
        self.applied: List[AppliedFault] = []

    # ------------------------------------------------------------------ views
    @property
    def alive_gpu_ids(self) -> List[int]:
        """Sorted ids of GPUs currently alive under the applied faults."""
        return sorted(set(self.pristine.gpu_ids) - self.removed)

    @property
    def outage(self) -> bool:
        """True when every GPU is removed (total loss — nothing can serve)."""
        return len(self.removed) >= self.pristine.num_gpus

    @property
    def degraded(self) -> bool:
        """True when any fault is currently active."""
        return (
            bool(self.removed)
            or bool(self.slowdowns)
            or self.bandwidth_scale != 1.0
            or self.latency_scale != 1.0
        )

    def active_slowdowns(self) -> Dict[int, float]:
        """Slowdowns of currently-alive GPUs (removed stragglers are moot)."""
        alive = set(self.alive_gpu_ids)
        return {g: s for g, s in self.slowdowns.items() if g in alive}

    def current_cluster(self) -> Optional[Cluster]:
        """Return the degraded cluster view, or ``None`` during a total outage."""
        if self.outage:
            return None
        cluster = self.pristine
        if self.removed:
            cluster = cluster.without_gpus(sorted(self.removed))
        if self.bandwidth_scale != 1.0 or self.latency_scale != 1.0:
            degraded_net = self.pristine.network.scaled(
                bandwidth_scale=self.bandwidth_scale,
                latency_scale=self.latency_scale,
            )
            cluster = cluster.with_network(degraded_net)
        return cluster

    # ------------------------------------------------------------------ apply
    def apply(self, event: FaultEvent) -> AppliedFault:
        """Fold one event into the state and return the delta that took effect."""
        kind = event.kind
        roster = set(self.pristine.gpu_ids)
        if kind in CAPACITY_LOSS_KINDS:
            # Intersect with the roster first: an id that was never part of
            # the cluster must not count towards the outage threshold (and
            # must never become revivable later).
            victims = tuple(sorted((set(event.gpu_ids) & roster) - self.removed))
            self.removed.update(victims)
            applied = AppliedFault(event=event, removed=victims)
        elif kind is FaultKind.RECOVERY:
            revived = tuple(sorted(set(event.gpu_ids) & self.removed))
            self.removed.difference_update(revived)
            applied = AppliedFault(event=event, revived=revived)
        elif kind is FaultKind.LINK_DEGRADATION:
            changed = (
                event.bandwidth_scale != self.bandwidth_scale
                or event.latency_scale != self.latency_scale
            )
            self.bandwidth_scale = event.bandwidth_scale
            self.latency_scale = event.latency_scale
            applied = AppliedFault(event=event, network_changed=changed)
        elif kind is FaultKind.LINK_RECOVERY:
            changed = self.bandwidth_scale != 1.0 or self.latency_scale != 1.0
            self.bandwidth_scale = 1.0
            self.latency_scale = 1.0
            applied = AppliedFault(event=event, network_changed=changed)
        elif kind is FaultKind.STRAGGLER:
            changed = False
            for g in sorted(set(event.gpu_ids) & roster):
                if self.slowdowns.get(g) != event.slowdown:
                    self.slowdowns[g] = event.slowdown
                    changed = True
            applied = AppliedFault(event=event, slowdown_changed=changed)
        elif kind is FaultKind.STRAGGLER_RECOVERY:
            targets = event.gpu_ids or tuple(self.slowdowns)
            recovered = [g for g in targets if g in self.slowdowns]
            for g in recovered:
                del self.slowdowns[g]
            applied = AppliedFault(event=event, slowdown_changed=bool(recovered))
        else:  # pragma: no cover - FaultKind is closed
            raise ValueError(f"unknown fault kind {kind!r}")
        self.applied.append(applied)
        return applied

__all__ = ["ClusterFaultState", "AppliedFault"]

"""Fault injection: typed fault taxonomy, seeded injector, cluster fault state.

The paper's robustness story (Fig. 11, Table 4) is about the full failure
lifecycle — degrade, detect, replan, recover — not just one-way GPU loss.
This package models that lifecycle:

* :mod:`repro.faults.taxonomy` — the typed fault vocabulary
  (:class:`FaultKind`, :class:`FaultEvent`, :class:`FaultSchedule`):
  GPU/spot preemption, whole-node crash, capacity recovery/rejoin,
  network-link degradation and per-replica straggler slowdown, with
  construction-time validation against a scenario duration and a cluster.
* :mod:`repro.faults.injector` — :class:`FaultProcess` /
  :class:`FaultInjector`: seeded stochastic fault processes (per-class
  MTBF/MTTR alternating renewal) compiled into deterministic, replayable
  :class:`FaultSchedule` objects.
* :mod:`repro.faults.state` — :class:`ClusterFaultState`: the pure state
  machine that folds fault events into a degraded cluster view (removed GPU
  set, link scaling, straggler slowdowns, total-loss outage detection)
  without ever double-removing or resurrecting unknown GPUs.
* :mod:`repro.faults.timeline` — :class:`ReplicaFaultEvent` /
  :class:`FaultTimeline` / :func:`compile_fault_timeline`: GPU-level capacity
  events compiled into replica-level death/revival timelines the simulation
  engines apply *inside* a run, at the exact fault instant.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: bounded attempts,
  exponential backoff with deterministic per-request jitter, and optional
  per-request deadlines governing the typed disposition of in-flight work.

The live serving loop (:class:`~repro.serving.live.LiveServer`) compiles the
intra-window slice of its schedule into a timeline handed to the engine and
keeps folding cluster-level state (links, stragglers, replanning) between
windows; see ``docs/architecture.md`` for the end-to-end wiring.
"""

from repro.faults.injector import FaultInjector, FaultProcess
from repro.faults.retry import RetryPolicy, fault_uniform
from repro.faults.state import AppliedFault, ClusterFaultState
from repro.faults.taxonomy import FaultEvent, FaultKind, FaultSchedule
from repro.faults.timeline import (
    FaultTimeline,
    ReplicaFaultEvent,
    compile_fault_timeline,
)

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "FaultProcess",
    "FaultInjector",
    "ClusterFaultState",
    "AppliedFault",
    "RetryPolicy",
    "fault_uniform",
    "FaultTimeline",
    "ReplicaFaultEvent",
    "compile_fault_timeline",
]

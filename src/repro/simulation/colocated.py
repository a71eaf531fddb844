"""Simulator for co-locating (non-phase-splitting) deployments.

vLLM-style systems (and HexGen's replicas) serve both prefill and decode on the
same model replica with continuous batching.  New prompts are prefills scheduled
*ahead of* decode iterations, which is precisely the prefill/decode interference
that phase splitting removes: while a long prompt is being prefilled, every active
sequence's next token is delayed by the full prefill latency.

The co-located simulator models each replica as a single work loop: at every step
boundary it either (a) admits and prefills up to ``max_prefill_batch_requests``
waiting requests as one batch — as many as KV memory allows — or (b) runs one
decode step for the whole active batch.  Service times come from the same
roofline cost model used everywhere else, and the prefill batching knob matches
the phase-splitting simulator's ``SimulatorConfig.max_prefill_batch_requests``
so baseline comparisons hold the batching policy constant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.rng import ensure_rng
from repro.core.types import Request, RequestMetrics, RequestOutcome
from repro.costmodel.latency import (
    CostModelParams,
    DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    DEFAULT_PARAMS,
    ReplicaCostModel,
)
from repro.hardware.cluster import Cluster
from repro.kvcache.paged import PagedKVCache
from repro.model.architecture import ModelConfig
from repro.parallelism.config import ReplicaPlan
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricArrays, SimulationResult
from repro.workload.trace import Trace


@dataclass
class _ColocatedReplica:
    """Run-time state of one co-located replica."""

    replica_id: int
    cost: ReplicaCostModel
    kv: PagedKVCache
    max_batch: int
    waiting: Deque[Request] = field(default_factory=deque)
    #: request_id -> [current context length, remaining tokens]
    active: Dict[int, List[int]] = field(default_factory=dict)
    busy: bool = False


class ColocatedSimulator:
    """Simulates co-locating replicas (the vLLM / HexGen execution model)."""

    #: Default slowdown applied to work executed while a replica is juggling both
    #: phases.  Co-locating prefill and decode forces batch re-formation, kernel
    #: interleaving and scheduler preemptions; DistServe and Splitwise measure a
    #: 20-30% efficiency loss from this interference, which phase splitting removes.
    DEFAULT_INTERFERENCE_PENALTY = 0.25

    def __init__(
        self,
        cluster: Cluster,
        replica_plans: Sequence[ReplicaPlan],
        model: ModelConfig,
        params: CostModelParams = DEFAULT_PARAMS,
        kv_block_size: int = 16,
        seed: int = 0,
        routing_weights: Optional[Sequence[float]] = None,
        interference_penalty: float = DEFAULT_INTERFERENCE_PENALTY,
        max_prefill_batch_requests: int = DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    ) -> None:
        if not replica_plans:
            raise SimulationError("at least one replica plan is required")
        if interference_penalty < 0:
            raise SimulationError("interference_penalty must be >= 0")
        if max_prefill_batch_requests < 1:
            raise SimulationError("max_prefill_batch_requests must be >= 1")
        self.cluster = cluster
        self.model = model
        self.params = params
        self.interference_penalty = interference_penalty
        self.max_prefill_batch_requests = max_prefill_batch_requests
        self._rng = ensure_rng(seed)
        self.replicas: List[_ColocatedReplica] = []
        for idx, plan in enumerate(replica_plans):
            cost = ReplicaCostModel(cluster, plan, model, params)
            capacity = cost.kv_token_capacity()
            self.replicas.append(
                _ColocatedReplica(
                    replica_id=idx,
                    cost=cost,
                    kv=PagedKVCache(num_blocks=max(0, capacity // kv_block_size), block_size=kv_block_size),
                    max_batch=params.max_decode_batch,
                )
            )
        if routing_weights is not None:
            weights = np.asarray(list(routing_weights), dtype=float)
            if weights.shape != (len(self.replicas),) or np.any(weights < 0) or weights.sum() <= 0:
                raise SimulationError("routing_weights must be non-negative, one per replica")
            self._weights = weights / weights.sum()
        else:
            # Weight replicas by their decode token capacity so heterogeneous
            # replicas receive proportionate load (HexGen-style dispatching).
            context = 1024
            caps = np.array([max(r.cost.decode_throughput(context), 1e-6) for r in self.replicas])
            self._weights = caps / caps.sum()

        self._events = EventQueue()
        self._metrics: Dict[int, RequestMetrics] = {}
        self._clock = 0.0

    # ------------------------------------------------------------------ run
    def run(self, trace: Trace, label: str = "colocated") -> SimulationResult:
        """Replay a trace and return per-request metrics."""
        self._events = EventQueue()
        self._metrics = {}
        self._clock = 0.0
        for replica in self.replicas:
            replica.waiting.clear()
            replica.active.clear()
            replica.kv.reset()
            replica.busy = False
        for request in trace:
            self._events.push(Event(time=request.arrival_time, kind=EventKind.ARRIVAL, payload=request))

        while self._events:
            event = self._events.pop()
            self._clock = max(self._clock, event.time)
            if event.kind is EventKind.ARRIVAL:
                self._on_arrival(event.payload, event.time)
            elif event.kind is EventKind.REPLICA_STEP:
                self._on_step_done(event.replica_id, event.payload, event.time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unexpected event kind {event.kind}")

        metrics = [self._metrics[rid] for rid in sorted(self._metrics)]
        return SimulationResult(
            MetricArrays.from_metrics(metrics),
            makespan=self._clock,
            trace_duration=trace.duration,
            label=label,
            requests=[m.request for m in metrics],
        )

    # ------------------------------------------------------------------ handlers
    def _on_arrival(self, request: Request, now: float) -> None:
        idx = int(self._rng.choice(len(self.replicas), p=self._weights))
        replica = self.replicas[idx]
        metrics = RequestMetrics(request=request, enqueue_time=now)
        metrics.prefill_replica = idx
        metrics.decode_replica = idx
        self._metrics[request.request_id] = metrics
        replica.waiting.append(request)
        if not replica.busy:
            self._schedule_work(replica, now)

    def _interference_factor(self, replica: _ColocatedReplica) -> float:
        """Slowdown applied when the replica is serving both phases at once."""
        mixed = bool(replica.waiting) and bool(replica.active)
        return 1.0 + self.interference_penalty if mixed else 1.0

    def _schedule_work(self, replica: _ColocatedReplica, now: float) -> None:
        """Pick the next unit of work (prefill beats decode, as in vLLM's scheduler)."""
        factor = self._interference_factor(replica)
        # Try to admit waiting requests first — up to max_prefill_batch_requests
        # of them as one batched prefill, as many as KV memory and the
        # continuous-batching slot limit allow (FIFO, stop at the first misfit).
        if replica.waiting and len(replica.active) < replica.max_batch:
            batch: List[Request] = []
            planned_blocks = 0
            while (
                replica.waiting
                and len(batch) < self.max_prefill_batch_requests
                and len(replica.active) + len(batch) < replica.max_batch
            ):
                request = replica.waiting[0]
                needed = replica.kv.blocks_needed(request.total_tokens)
                if planned_blocks + needed > replica.kv.free_blocks:
                    break
                replica.waiting.popleft()
                planned_blocks += needed
                batch.append(request)
            if batch:
                replica.busy = True
                max_input = max(r.input_length for r in batch)
                latency = (
                    replica.cost.prefill_latency(max_input, batch_size=len(batch)) * factor
                )
                for request in batch:
                    self._metrics[request.request_id].prefill_start = now
                self._events.push(
                    Event(
                        time=now + latency,
                        kind=EventKind.REPLICA_STEP,
                        replica_id=replica.replica_id,
                        payload=("prefill", batch),
                    )
                )
                return
        if replica.active:
            replica.busy = True
            batch = len(replica.active)
            mean_context = int(np.mean([state[0] for state in replica.active.values()]))
            latency = replica.cost.decode_step_latency(batch, max(1, mean_context)) * factor
            self._events.push(
                Event(
                    time=now + latency,
                    kind=EventKind.REPLICA_STEP,
                    replica_id=replica.replica_id,
                    payload=("decode", None),
                )
            )
            return
        replica.busy = False

    def _on_step_done(self, replica_id: int, payload: Tuple[str, Optional[List[Request]]], now: float) -> None:
        replica = self.replicas[replica_id]
        kind, batch = payload
        if kind == "prefill":
            assert batch is not None
            for request in batch:
                metrics = self._metrics[request.request_id]
                metrics.first_token_time = now
                metrics.kv_transfer_done = now  # co-located: no transfer
                if request.output_length <= 1:
                    metrics.completion_time = now
                    metrics.finished = True
                    metrics.outcome = RequestOutcome.FINISHED
                else:
                    replica.kv.allocate(request.request_id, request.total_tokens)
                    replica.active[request.request_id] = [
                        request.input_length + 1,
                        request.output_length - 1,
                    ]
        else:
            finished_ids: List[int] = []
            for request_id, state in replica.active.items():
                state[0] += 1
                state[1] -= 1
                if state[1] <= 0:
                    finished_ids.append(request_id)
            for request_id in finished_ids:
                del replica.active[request_id]
                replica.kv.free(request_id)
                metrics = self._metrics[request_id]
                metrics.completion_time = now
                metrics.finished = True
                metrics.outcome = RequestOutcome.FINISHED
        self._schedule_work(replica, now)


__all__ = ["ColocatedSimulator"]

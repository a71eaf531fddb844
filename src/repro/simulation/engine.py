"""Discrete-event simulator for phase-splitting deployments.

The simulator replays a request trace against a :class:`DeploymentPlan`:

1. arrivals are dispatched to a prefill replica and a decode replica according to
   the plan's routing policy (the ``X`` / ``Y`` of §3.3);
2. each prefill replica serves its queue in FIFO order, one batch at a time, with
   service times from the roofline cost model;
3. the resulting KV cache is transferred to the decode replica over the cluster
   network (alpha-beta model, optionally 4-bit compressed);
4. each decode replica runs continuous batching: at every step boundary it admits
   pending requests while KV-cache memory allows, then advances every active
   sequence by one token.

The per-request metrics collected here are what the end-to-end experiments
(Figures 7–9, 11, 12, Tables 5 and 8) aggregate.

Two engines implement the same semantics:

* ``engine="fast"`` (the default) keeps the whole request lifecycle in
  **struct-of-arrays form**: requests are integer rows into owned numpy
  columns (ids, arrival times, lengths, routing targets, and the metric
  timestamps) that grow in place by one ``resize`` per ingested chunk and are
  read and written through memoryviews, so no per-request Python object
  is created on the fast path and every scalar read is a plain Python int or
  float.  The columns become the result's columns when the run is finalized,
  without a copy.  Traces are ingested chunk by
  chunk — :meth:`ServingSimulator.run_stream` accepts any iterator of
  :class:`~repro.workload.trace.RequestArrays` blocks, bounding memory by the
  chunk size — and arrivals are driven by a cursor over the ingested columns
  instead of one heap event per request.  The event heap is a plain
  ``heapq`` list of ``(time, seq, kind, replica_id, payload)`` tuples with
  ``seq`` drawn from one push counter, so exact-time ties resolve in push
  order, as in the reference engine's :class:`~repro.simulation.events.EventQueue`.

  On the prefill side it **coalesces queued batches into epochs**: when a
  replica picks up work, the whole queue is chunked into multi-request batches
  (greedy FIFO, up to ``max_prefill_batch_requests`` per batch), and one scalar
  pass prices every batch through the memoized
  :meth:`~repro.costmodel.latency.ReplicaCostModel.prefill_latency_memo` and
  precomputes the per-batch completion times.  Each completion pushes the
  next batch's event, where the per-event engine pushes its own.  A new
  arrival on the replica cancels the trailing batch if it is underfull and
  not yet started (re-queueing its rows), exactly where the per-event engine
  would re-form batches.  The heap holds nothing but these batch completions
  and fault retries.

  **Decode replicas are sinks**: nothing upstream reads their state
  (routing is drawn at ingest, prefill has no back-pressure), so they stay
  off the heap.  A batch completion appends each KV handoff to its decode
  replica's **log** of pending deliveries, and the replica replays its own
  timeline from that log (:meth:`ServingSimulator._decode_until`) only when
  something needs it: a fault that kills it, the horizon or the end of the
  run, a chunk ingest, or a log grown to ``_LOG_BOUND`` entries.  Each
  replica keeps its running batch as a step counter, a min-heap of
  ``(finish_step, row)`` and a running context sum, and **coalesces decode
  steps into epochs**: the batch composition is constant until the earliest
  completion, and with a constant batch of ``n`` the mean context of step
  ``t`` is ``ctx_sum // n + t`` (the reference's truncated float64 mean,
  exactly, below 2**53).  So an epoch's step latencies are one contiguous
  slice of the batch size's dense latency row
  (:meth:`~repro.costmodel.latency.ReplicaCostModel.decode_step_row`), turned
  into boundary times by ``itertools.accumulate`` — the reference's
  sequential ``now + latency`` float adds.  A delivery mid-epoch truncates
  the epoch at the first step boundary after it (on a boundary, at that one
  when the per-event engine pops the delivery before the step), exactly
  where the per-event engine would admit the request; when nothing is
  admitted there, the epoch runs on unchanged (its remaining step times are
  a pure function of unchanged batch state).  Boundaries are priced lazily, only as far as
  the next logged delivery needs.  KV memory is one plain int of free blocks
  per replica.

* ``engine="reference"`` retains the original per-event implementation: one
  ``ARRIVAL`` heap event per request, one ``PREFILL_DONE`` event per prefill
  batch, one ``KV_ARRIVED`` event per request and one heap event per decode
  step, with per-request :class:`~repro.core.types.RequestMetrics` objects.
  It is the ground truth the equivalence suite
  (``tests/test_engine_equivalence.py``) and the ``bench_simulator_core`` /
  ``bench_prefill_core`` / ``bench_megatrace`` benchmarks compare against:
  both engines produce bitwise-identical per-request metrics.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate, count
from math import nextafter
from operator import itemgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.rng import ensure_rng
from repro.core.types import Request, RequestMetrics, RequestOutcome
from repro.faults.retry import RetryPolicy, fault_uniform
from repro.faults.timeline import FaultTimeline, ReplicaFaultEvent
from repro.costmodel.kv_transfer import kv_link, kv_transfer_seconds
from repro.costmodel.latency import (
    CostModelParams,
    CostModelPool,
    DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    DEFAULT_PARAMS,
    ReplicaCostModel,
)
from repro.model.memory import kv_cache_bytes_per_token
from repro.hardware.cluster import Cluster
from repro.kvcache.paged import PagedKVCache, blocks_for
from repro.model.architecture import ModelConfig
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import COLUMN_DTYPES, MetricArrays, SimulationResult
from repro.workload.trace import RequestArrays, Spans, Trace

#: valid decode-engine selectors of :class:`SimulatorConfig`
ENGINES = ("fast", "reference")

# RequestOutcome values as plain ints for the fast engine's outcome column.
_OUT_FINISHED = int(RequestOutcome.FINISHED)
_OUT_RETRIED = int(RequestOutcome.RETRIED_THEN_FINISHED)
_OUT_TIMED_OUT = int(RequestOutcome.TIMED_OUT)
_OUT_DROPPED = int(RequestOutcome.DROPPED_OUTAGE)

# Event kinds of the fast engine's tuple heap: prefill batch completion,
# fault-retry re-dispatch.
_PREFILL_BATCH, _RETRY = range(2)

#: a decode replica whose log of pending KV deliveries reaches this many
#: entries replays it at once, so a one-chunk ``run`` keeps every log short
_LOG_BOUND = 1024

_INF = float("inf")

#: the longest prompt or response the length columns hold
_MAX_LENGTH = int(np.iinfo(COLUMN_DTYPES["input_length"]).max)


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the discrete-event simulator."""

    #: maximum number of requests batched into a single prefill execution
    max_prefill_batch_requests: int = DEFAULT_MAX_PREFILL_BATCH_REQUESTS
    #: KV block size (tokens) of the paged cache used for decode admission
    kv_block_size: int = 16
    #: hard cap on simulated time (seconds); ``None`` lets the system fully drain
    max_sim_time: Optional[float] = None
    #: RNG seed for routing draws
    seed: int = 0
    #: decode-path implementation: "fast" (vectorized, event-coalescing) or
    #: "reference" (one heap event per decode step); both produce identical
    #: per-request metrics
    engine: str = "fast"
    #: per-GPU straggler slowdowns as sorted ``(gpu_id, multiplier)`` pairs; a
    #: serving group containing a slowed GPU prices every latency through the
    #: largest multiplier among its GPUs (fault injection plumbs this through
    #: :meth:`~repro.serving.system.ThunderServe.apply_gpu_slowdowns`)
    gpu_slowdowns: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.max_prefill_batch_requests < 1:
            raise ValueError("max_prefill_batch_requests must be >= 1")
        if self.kv_block_size < 1:
            raise ValueError("kv_block_size must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        for gpu_id, slowdown in self.gpu_slowdowns:
            if slowdown <= 0:
                raise ValueError(f"slowdown for GPU {gpu_id} must be positive")

    def group_slowdown(self, gpu_ids) -> float:
        """Largest configured slowdown among ``gpu_ids`` (1.0 when none)."""
        if not self.gpu_slowdowns:
            return 1.0
        table = dict(self.gpu_slowdowns)
        return max((table.get(g, 1.0) for g in gpu_ids), default=1.0)


@dataclass(slots=True)
class _PrefillReplica:
    """Run-time state of one prefill replica.

    The reference engine only uses ``queue`` / ``busy`` (the queue holds
    :class:`Request` objects and batches are re-formed at every
    ``PREFILL_DONE``); the fast engine queues integer request rows and
    additionally carries the plan of the current coalesced prefill epoch: one
    ``(rows, start, done)`` tuple per batch, holding the batch's rows and its
    precomputed start and completion times.  An idle fast replica has an
    empty queue.
    """

    group_id: int
    cost: ReplicaCostModel
    #: FIFO queue: request rows (fast engine) or :class:`Request` objects
    #: (reference engine)
    queue: Deque = field(default_factory=deque)
    busy: bool = False
    #: batches of the current epoch not yet completed, in execution order:
    #: ``epoch[0]`` is running, and arrival truncation drops the trailing one
    epoch: List[tuple] = field(default_factory=list)
    #: death-incarnation counter; batch events carrying an older value are
    #: stale (both engines stamp their in-flight batch event with it)
    epoch_seq: int = 0
    #: requests of the in-flight batch (reference engine only) — the rows a
    #: capacity-loss fault must dispose alongside the queue
    inflight_batch: Optional[List] = None


@dataclass(slots=True)
class _DecodeReplica:
    """Run-time state of one decode replica.

    The reference engine tracks the running batch in ``active`` (request_id ->
    [context, remaining]), queues :class:`Request` objects in ``pending`` and
    accounts KV memory in the :class:`PagedKVCache` ``kv``.
    The fast engine queues request rows and keeps the batch as a step counter
    ``steps_done``, a min-heap ``heap`` of ``(finish_step, row)`` and the
    running context sum ``ctx_sum``.  A row admitted at step ``s`` with ``o``
    output tokens enters with context ``in_len + 1`` (the prefill produced the
    first token) and finishes at step ``s + o - 1`` with context
    ``in_len + o``.  Applying a span of steps is O(1), retiring a finisher is
    one heap pop, and the earliest completion is ``heap[0][0] - steps_done``
    steps away.  KV memory is the plain int ``kv_free`` out of ``kv_blocks``:
    a row holds ``blocks_for(in_len + out_len, block_size)`` blocks from
    admission to completion, exactly what ``kv`` would allocate.

    A fast replica is never on the event heap.  Its ``log`` holds the KV
    deliveries handed off to it and not yet replayed, as ``(arrival,
    handoff instant, row)`` in handoff order; it is the replica's in-flight
    set.  Its current epoch runs ``epoch_len`` steps from ``epoch_start`` to
    the earliest completion, priced lazily into ``epoch_times``, and its next
    wake is ``epoch_cut`` steps in: the epoch end, or the boundary where a
    delivery waits for admission.
    """

    group_id: int
    cost: ReplicaCostModel
    kv: PagedKVCache
    #: KV capacity in blocks (the size of ``kv``; the fast engine's ``kv_free``
    #: starts here)
    kv_blocks: int
    max_batch: int
    #: request_id -> [current context length, remaining tokens] (reference engine)
    active: Dict[int, List[int]] = field(default_factory=dict)
    #: admission queue: request rows (fast engine) or :class:`Request` objects
    #: (reference engine)
    pending: Deque = field(default_factory=deque)
    stepping: bool = False
    # ---- reference engine ----
    #: epoch generation counter; step events carrying an older value are stale
    epoch_seq: int = 0
    #: death-incarnation counter; KV transfers in flight toward an older
    #: incarnation are stale (their requests were disposed at the death instant)
    incarnation: int = 0
    #: in-flight KV transfers toward this replica: request id -> request; a
    #: capacity-loss fault disposes every entry because the destination KV
    #: memory is gone
    inflight: Dict[int, Request] = field(default_factory=dict)
    # ---- fast engine ----
    #: min-heap of (finish step, request row) over the running batch
    heap: List[Tuple[int, int]] = field(default_factory=list)
    #: decode steps run so far; finish steps are counted on this clock
    steps_done: int = 0
    #: sum of the running rows' current context lengths
    ctx_sum: int = 0
    #: free KV blocks (the reference engine asks ``kv``)
    kv_free: int = 0
    #: pending KV deliveries ``(arrival, handoff instant, row)``, in handoff
    #: order; sorted stably by arrival when replayed
    log: List[Tuple[float, float, int]] = field(default_factory=list)
    #: the instant the current epoch's step boundaries count from
    epoch_start: float = 0.0
    #: steps from ``epoch_start`` to the earliest completion
    epoch_len: int = 0
    #: steps from ``epoch_start`` to the next wake (at most ``epoch_len``)
    epoch_cut: int = 0
    #: the step boundaries priced so far, ``epoch_start`` excluded
    epoch_times: List[float] = field(default_factory=list)
    #: the batch size's latency row and the row index of the epoch's first step
    epoch_row: Optional[Sequence[float]] = None
    epoch_m0: int = 0
    #: the instant the per-event engine pushed the event at ``epoch_start``
    #: (the boundary before it, or the handoff of the delivery that started
    #: an idle replica); :meth:`ServingSimulator._delivery_first` reads it
    start_pushed: float = 0.0


#: the fast engine's request columns: the request attributes, the routing
#: targets, the fault-disposition count ``_att`` and the metric columns
#: (``_m_out`` holds the RequestOutcome code), each with the dtype of the
#: result column it becomes
_COLUMNS = {
    "_req_id": "request_id",
    "_arr": "arrival_time",
    "_inlen": "input_length",
    "_outlen": "output_length",
    "_pre_rep": "prefill_replica",
    "_dec_rep": "decode_replica",
    "_att": "attempts",
    "_m_pstart": "prefill_start",
    "_m_first": "first_token_time",
    "_m_kvdone": "kv_transfer_done",
    "_m_comp": "completion_time",
    "_m_fin": "finished",
    "_m_out": "outcome",
}


class ServingSimulator:
    """Simulates a phase-splitting deployment serving a request trace.

    ``cost_models`` is the :class:`~repro.costmodel.latency.CostModelPool`
    the replicas' cost models come from; without one the simulator builds
    its own.  Either way it prices the same bits: a pooled model only
    arrives with warm memos.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: DeploymentPlan,
        model: ModelConfig,
        params: CostModelParams = DEFAULT_PARAMS,
        config: SimulatorConfig = SimulatorConfig(),
        cost_models: Optional[CostModelPool] = None,
    ) -> None:
        if not plan.prefill_groups or not plan.decode_groups:
            raise SimulationError("the deployment plan must contain prefill and decode replicas")
        self.cluster = cluster
        self.plan = plan
        self.model = model
        self.params = params
        self.config = config
        build = ReplicaCostModel if cost_models is None else cost_models.get

        self.prefills: Dict[int, _PrefillReplica] = {}
        for group in plan.prefill_groups:
            if group.plan is None:
                raise SimulationError(f"prefill group {group.group_id} has no parallel plan")
            self.prefills[group.group_id] = _PrefillReplica(
                group_id=group.group_id,
                cost=build(
                    cluster, group.plan, model, params,
                    slowdown=config.group_slowdown(group.gpu_ids),
                ),
            )
        self.decodes: Dict[int, _DecodeReplica] = {}
        for group in plan.decode_groups:
            if group.plan is None:
                raise SimulationError(f"decode group {group.group_id} has no parallel plan")
            cost = build(
                cluster, group.plan, model, params,
                slowdown=config.group_slowdown(group.gpu_ids),
            )
            kv_blocks = max(0, cost.kv_token_capacity() // config.kv_block_size)
            self.decodes[group.group_id] = _DecodeReplica(
                group_id=group.group_id,
                cost=cost,
                kv=PagedKVCache(num_blocks=kv_blocks, block_size=config.kv_block_size),
                kv_blocks=kv_blocks,
                max_batch=params.max_decode_batch,
            )

        self.routing = plan.routing or RoutingPolicy.uniform(
            [g.group_id for g in plan.prefill_groups],
            [g.group_id for g in plan.decode_groups],
        )
        # Normalized routing distributions and their cumulative tables are fixed
        # for the lifetime of the plan, so they are built once here instead of
        # renormalizing x / x.sum() on every arrival.
        x = self.routing.x
        y = self.routing.y
        self._x_norm = x / x.sum()
        self._x_cdf = np.cumsum(self._x_norm)
        row_sums = y.sum(axis=1, keepdims=True)
        # Same activity threshold as RoutingPolicy's validator: a replica with
        # meaningful traffic share but nowhere to dispatch must fail loudly, not
        # silently route to the clamped last decode group; LP noise below the
        # threshold is unreachable in practice and stays accepted.
        if np.any((x > 1e-12) & (row_sums[:, 0] <= 0)):
            raise SimulationError(
                "routing policy has an active prefill replica with an all-zero dispatch row"
            )
        self._y_norm = y / np.where(row_sums > 0, row_sums, 1.0)
        self._y_cdf = np.cumsum(self._y_norm, axis=1)
        self._pgid_arr = np.asarray(
            self.routing.prefill_group_ids, dtype=COLUMN_DTYPES["prefill_replica"]
        )
        self._dgid_arr = np.asarray(
            self.routing.decode_group_ids, dtype=COLUMN_DTYPES["decode_replica"]
        )

        self._fast = config.engine == "fast"
        #: KV-transport bytes per prompt token at the plan's precision — the
        #: constant factor of every transfer the fast engine prices vectorized
        self._kv_bytes_per_token = kv_cache_bytes_per_token(
            model, bits=plan.kv_transport_bits
        )
        #: (prefill group, decode group) -> (alpha, beta) of the best link;
        #: lazily filled
        self._kv_links: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._reset_fast_state()

    # ------------------------------------------------------------------ reset
    def _reset_replicas(self) -> None:
        """Reset run-scoped shared state (RNG, events, clock, replica queues)."""
        self._rng = ensure_rng(self.config.seed)
        self._events = EventQueue()
        self._metrics: Dict[int, RequestMetrics] = {}
        self._prefill_start: Dict[int, float] = {}
        self._decode_target: Dict[int, int] = {}
        self._clock = 0.0
        self._fault_events: Tuple[ReplicaFaultEvent, ...] = ()
        self._fault_pos = 0
        self._faults_active = False
        self._retry = RetryPolicy()
        self._dead_prefills: set = set()
        self._dead_decodes: set = set()
        self._alive_prefill_ids: List[int] = sorted(self.prefills)
        self._alive_decode_ids: List[int] = sorted(self.decodes)
        for replica in self.prefills.values():
            replica.queue.clear()
            replica.busy = False
            replica.epoch = []
            replica.epoch_seq = 0
            replica.inflight_batch = None
        for replica in self.decodes.values():
            replica.active.clear()
            replica.kv.reset()
            replica.epoch_seq = 0
            replica.incarnation = 0
            replica.inflight.clear()
            self._reset_decode(replica)

    @staticmethod
    def _reset_decode(replica: _DecodeReplica) -> None:
        """Empty a decode replica's fast-engine state (run start, or its death)."""
        replica.pending.clear()
        replica.stepping = False
        replica.heap = []
        replica.steps_done = 0
        replica.ctx_sum = 0
        replica.kv_free = replica.kv_blocks
        replica.log = []
        replica.epoch_len = 0
        replica.epoch_cut = 0
        replica.epoch_times = []
        replica.epoch_row = None

    def _begin_fault_run(
        self, faults: Optional[FaultTimeline], retry: Optional[RetryPolicy]
    ) -> None:
        """Arm the run-scoped fault timeline and retry policy (after a reset)."""
        if faults is None or not faults:
            return
        known = set(self.prefills) | set(self.decodes)
        for entry in faults.events:
            listed = (
                set(entry.dead_prefill)
                | set(entry.dead_decode)
                | set(entry.revived_prefill)
                | set(entry.revived_decode)
            )
            unknown = listed - known
            if unknown:
                raise SimulationError(
                    f"fault timeline names unknown serving groups {sorted(unknown)}"
                )
            if set(entry.dead_prefill) & set(self.decodes) or set(
                entry.dead_decode
            ) & set(self.prefills):
                raise SimulationError("fault timeline mixes up prefill and decode groups")
        self._fault_events = faults.events
        self._fault_pos = 0
        self._faults_active = True
        if retry is not None:
            self._retry = retry

    def _reset_fast_state(self) -> None:
        """Reset the struct-of-arrays request store and the event heap."""
        self._reset_replicas()
        self._n = 0
        self._cursor = 0
        self._new_store()
        self._heap: List[tuple] = []
        self._heap_seq = count()
        self._workload_spans: List[Tuple[int, str]] = []
        self._chunk_iter: Optional[Iterator[RequestArrays]] = None
        self._chunks_done = True

    def _new_store(self) -> None:
        """Start an empty request store and bind its column views."""
        self._store = {
            name: np.zeros(0, dtype=COLUMN_DTYPES[field]) for name, field in _COLUMNS.items()
        }
        self._bind_views()

    def _bind_views(self) -> None:
        """Expose every store column as a ``memoryview`` attribute (``self._arr``, ...).

        Scalar reads and writes through a memoryview take and give plain
        Python ints, floats and bools, as fast as ``array.array`` indexing.
        """
        for name, column in self._store.items():
            setattr(self, name, memoryview(column))

    def _release_views(self) -> None:
        """Release the column views: a store column may only be resized after this."""
        for name in self._store:
            getattr(self, name).release()

    def _push(self, time: float, kind: int, replica_id: int, payload) -> int:
        """Push one fast-engine heap entry; return its tie-breaking sequence."""
        seq = next(self._heap_seq)
        heappush(self._heap, (time, seq, kind, replica_id, payload))
        return seq

    # ------------------------------------------------------------------ dispatch
    def _choose_pair(self) -> Tuple[int, int]:
        """Sample a (prefill group, decode group) pair from the routing policy.

        Inverse-CDF sampling against the precomputed cumulative tables; one
        uniform draw per level instead of a full ``rng.choice`` with its per-call
        probability validation.  The fast engine consumes the identical draws
        two-per-request in ingestion order, vectorized per chunk
        (:meth:`_load_chunk`).
        """
        i = int(np.searchsorted(self._x_cdf, self._rng.random(), side="right"))
        i = min(i, self._x_cdf.size - 1)
        row = self._y_cdf[i]
        j = int(np.searchsorted(row, self._rng.random(), side="right"))
        j = min(j, row.size - 1)
        return self.routing.prefill_group_ids[i], self.routing.decode_group_ids[j]

    # ------------------------------------------------------------------ run
    def run(
        self,
        trace: Trace,
        label: str = "thunderserve",
        faults: Optional[FaultTimeline] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> SimulationResult:
        """Replay a trace and return the per-request metrics.

        Every run starts from a clean slate — including the routing RNG — so a
        simulator instance can be reused across traces (e.g. the windowed serving
        of failure scenarios) with results identical to a freshly built one.

        ``faults`` hands the run a compiled
        :class:`~repro.faults.timeline.FaultTimeline`: at each entry's instant
        (fault entries win exact-time ties against simulation events) the listed
        replicas die or revive and every in-flight request on a dead replica
        gets a typed disposition — re-dispatched to a surviving replica after a
        deterministic backoff, or cancelled as ``timed_out`` /
        ``dropped_outage`` — governed by ``retry`` (defaults to
        :class:`~repro.faults.retry.RetryPolicy`'s bounded exponential
        backoff).  Both engines apply identical semantics, so results stay
        bitwise-identical under any timeline.
        """
        if not self._fast:
            return self._run_reference(trace, label, faults=faults, retry=retry)
        self._reset_fast_state()
        self._begin_fault_run(faults, retry)
        return self._run_fast(
            iter((trace.arrays,)), spans=trace.spans, trace_duration=trace.duration, label=label
        )

    def run_stream(
        self,
        chunks: Iterable[RequestArrays],
        label: str = "thunderserve",
        faults: Optional[FaultTimeline] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> SimulationResult:
        """Replay a streamed trace of arrival-ordered request chunks.

        The fast engine ingests one chunk at a time, so peak memory is bounded
        by the chunk size plus the per-request metric columns — a
        million-request trace never materializes request objects.  Chunks must
        be time-ordered end to end (each chunk's first arrival at or after the
        previous chunk's last), as produced by
        :meth:`~repro.workload.generator.PoissonArrivalGenerator.iter_chunks`.
        The result is bitwise-identical to :meth:`run` on the concatenated
        trace.

        The reference engine has no streaming path: it concatenates the chunks
        into a full in-memory trace first (each chunk's rows keep its workload
        tag), which defeats the memory bound but preserves the oracle
        semantics for equivalence checks.
        """
        if not self._fast:
            return self._run_reference(Trace.concat(chunks), label, faults=faults, retry=retry)
        self._reset_fast_state()
        self._begin_fault_run(faults, retry)
        return self._run_fast(iter(chunks), spans=None, trace_duration=None, label=label)

    # ------------------------------------------------------------------ fast loop
    def _load_chunk(self) -> None:
        """Ingest the next non-empty chunk into the request columns.

        Appends the four request columns, then assigns routing targets for
        the whole chunk in one vectorized pass consuming exactly the scalar
        draws :meth:`_choose_pair` would: two uniforms per request,
        interleaved in ingestion order.  Every store column grows in place by
        one ``ndarray.resize`` (a ``realloc``; the new rows are zero, which is
        where the metric columns start) after its view is released, and the
        views are bound again over the grown columns.
        """
        assert self._chunk_iter is not None
        while True:
            try:
                chunk = next(self._chunk_iter)
            except StopIteration:
                self._chunks_done = True
                return
            if len(chunk):
                break
        c = len(chunk)
        n = self._n
        if n and float(chunk.arrival_time[0]) < self._arr[n - 1]:
            raise SimulationError("streamed chunks must be time-ordered end to end")
        # A numpy copy into the narrower length columns would wrap silently.
        if max(int(chunk.input_length.max()), int(chunk.output_length.max())) > _MAX_LENGTH:
            raise SimulationError(f"request lengths must be at most {_MAX_LENGTH} tokens")
        draws = self._rng.random(2 * c)
        xi = np.searchsorted(self._x_cdf, draws[0::2], side="right")
        np.minimum(xi, self._x_cdf.size - 1, out=xi)
        yj = np.sum(self._y_cdf[xi] <= draws[1::2, None], axis=1)
        np.minimum(yj, self._y_cdf.shape[1] - 1, out=yj)
        self._release_views()
        store = self._store
        for column in store.values():
            # No reference check: under a tracer or profiler CPython binds a
            # temporary method object holding the array for the call event,
            # so numpy's count would reject every resize.
            column.resize(n + c, refcheck=False)
        store["_req_id"][n:] = chunk.request_id
        store["_arr"][n:] = chunk.arrival_time
        store["_inlen"][n:] = chunk.input_length
        store["_outlen"][n:] = chunk.output_length
        store["_pre_rep"][n:] = self._pgid_arr[xi]
        store["_dec_rep"][n:] = self._dgid_arr[yj]
        self._bind_views()
        if not self._workload_spans or self._workload_spans[-1][1] != chunk.workload:
            self._workload_spans.append((n, chunk.workload))
        self._n = n + c

    def _run_fast(
        self,
        chunks: Iterator[RequestArrays],
        spans: Optional[Spans],
        trace_duration: Optional[float],
        label: str,
    ) -> SimulationResult:
        """Drive the struct-of-arrays engine over a chunk stream.

        ``spans`` gives the workload tags of the ingested rows (a whole
        :class:`~repro.workload.trace.Trace`'s spans); ``None`` takes each
        chunk's own tag.

        The heap holds prefill batch completions and retries; decode replicas
        replay their own logs (:meth:`_decode_until`) when something needs
        them, and all of them finish at the horizon, or at the end of the run.
        """
        self._chunk_iter = chunks
        self._chunks_done = False
        heap = self._heap
        prefills = self.prefills
        decodes = self.decodes.values()
        horizon = self.config.max_sim_time
        fault_events = self._fault_events
        num_faults = len(fault_events)
        cursor = n = 0
        while True:
            # Keep the arrival cursor ahead of the heap: whenever the ingested
            # rows are exhausted, pull chunks before deciding what runs next.
            if cursor == n:
                while self._n == cursor and not self._chunks_done:
                    self._load_chunk()
                # A load re-binds the column views; refresh the local ones.
                arr = self._arr
                pre_rep = self._pre_rep
                if self._n > n:
                    n = self._n
                    # Nothing processed from here on is earlier than the next
                    # arrival, heap entry, fault or the horizon: the decode
                    # replicas can safely replay up to there.
                    bound = arr[cursor]
                    if heap:
                        bound = min(bound, heap[0][0])
                    if self._fault_pos < num_faults:
                        bound = min(bound, fault_events[self._fault_pos].time)
                    if horizon is not None:
                        bound = min(bound, horizon)
                    for replica in decodes:
                        self._decode_until(replica, bound)
            have_arrival = cursor < n
            if self._fault_pos < num_faults:
                entry = fault_events[self._fault_pos]
                at = entry.time
                if horizon is not None and at > horizon:
                    self._fault_pos = num_faults  # past the horizon: never applied
                else:
                    # Fault entries win exact-time ties against simulation
                    # work: they apply the moment the next candidate event is
                    # not strictly earlier (the per-event engine's rule).
                    # With no arrival or heap entry left, the candidates are
                    # the decode replicas' own events.
                    if have_arrival or heap:
                        due = (not have_arrival or at <= arr[cursor]) and (
                            not heap or at <= heap[0][0]
                        )
                    else:
                        for replica in decodes:
                            self._decode_until(replica, at)
                        due = any(r.stepping or r.log for r in decodes)
                    if due:
                        self._fault_pos += 1
                        self._apply_fault_fast(entry)
                        continue
            if not have_arrival and not heap:
                break
            if have_arrival and (not heap or arr[cursor] <= heap[0][0]):
                # Arrivals win exact-time ties: the per-event engine pushes all
                # ARRIVAL events at setup, giving them the lowest heap seqs.
                row = cursor
                at = arr[row]
                if horizon is not None and at > horizon:
                    break
                cursor = row + 1
                if at > self._clock:
                    self._clock = at
                pre = pre_rep[row]
                if self._faults_active and pre in self._dead_prefills:
                    self._dispose_fast(row, at)
                else:
                    self._on_prefill_arrival_fast(prefills[pre], row, at)
                continue
            t, _, kind, replica_id, payload = heappop(heap)
            if horizon is not None and t > horizon:
                break
            if kind == _PREFILL_BATCH:
                replica = prefills[replica_id]
                if payload != replica.epoch_seq:
                    continue  # the replica died; no clock update
                if t > self._clock:
                    self._clock = t
                self._on_prefill_batch(replica, t)
            else:  # _RETRY: the payload is the request row
                if t > self._clock:
                    self._clock = t
                pre = pre_rep[payload]
                if pre in self._dead_prefills:
                    self._dispose_fast(payload, t)
                else:
                    self._on_prefill_arrival_fast(prefills[pre], payload, t)
        self._cursor = cursor
        # The per-event engine processes every event at or before the horizon.
        stop = _INF if horizon is None else nextafter(horizon, _INF)
        for replica in decodes:
            self._decode_until(replica, stop)
        return self._finalize_fast(spans, trace_duration, label)

    def _finalize_fast(
        self,
        spans: Optional[Spans],
        trace_duration: Optional[float],
        label: str,
    ) -> SimulationResult:
        """Package the metric columns of the processed arrivals as a result.

        Only rows whose arrival was processed are included (a horizon-truncated
        run drops later arrivals entirely, like the per-event engine).  Columns
        are reordered by request id when the ingested ids are not already
        strictly increasing, matching the reference engine's sorted output.
        The store columns are owned numpy arrays, so in id order they become
        the result's columns as they are, with no copy (a shorter run is cut
        to length in place); the engine starts a new empty store.
        """
        n = self._cursor
        self._release_views()
        store = self._store
        self._new_store()
        ids = store["_req_id"][:n]
        order: Optional[np.ndarray] = None
        if n and not bool(np.all(ids[1:] > ids[:-1])):
            order = np.argsort(ids, kind="stable")
        del ids  # no view may outlive the in-place cut below
        if trace_duration is None:
            arrivals = store["_arr"]
            trace_duration = float(arrivals[-1] - arrivals[0]) if arrivals.size >= 2 else 0.0

        def take(name: str) -> np.ndarray:
            column = store.pop(name)
            if order is not None:
                return column[order]
            column.resize(n, refcheck=False)
            return column

        columns = {field: take(name) for name, field in _COLUMNS.items()}
        # The per-event engine sets enqueue_time to the arrival-event time,
        # which is exactly the arrival column: share it.
        arrays = MetricArrays(enqueue_time=columns["arrival_time"], **columns)
        return SimulationResult(
            arrays,
            makespan=self._clock,
            trace_duration=trace_duration,
            label=label,
            workload_spans=list(self._workload_spans if spans is None else spans),
            row_order=order,
        )

    # ----------------------------------------------------- prefill (fast engine)
    def _on_prefill_arrival_fast(
        self, replica: _PrefillReplica, row: int, now: float
    ) -> None:
        """Start an epoch on an idle replica, or queue behind the running one.

        The per-event engine re-forms batches from the live queue at every batch
        boundary, but FIFO order makes almost every planned batch immune to a
        later arrival: the arrival joins the *back* of the queue, so a planned
        batch that is already full keeps exactly its composition.  Only the
        trailing **underfull** batch (greedy chunking leaves at most one) could
        absorb the newcomer when it is eventually formed — so unless it is the
        running batch, it is cancelled and re-queued ahead of the arrival; the
        replan at the last surviving batch boundary re-forms it exactly like
        the per-event engine would.  Every batch behind the running one is
        still unstarted: it starts at or after the running batch's completion,
        and an arrival at that very instant runs first (see :meth:`_run_fast`),
        as in the per-event engine.
        """
        if not replica.busy:
            self._plan_prefill_epoch(replica, now, [row])
            return
        replica.queue.append(row)
        epoch = replica.epoch
        if len(epoch) >= 2 and len(epoch[-1][0]) < self.config.max_prefill_batch_requests:
            replica.queue.extendleft(reversed(epoch.pop()[0]))

    def _plan_prefill_epoch(
        self, replica: _PrefillReplica, now: float, rows: List[int]
    ) -> None:
        """Start a coalesced prefill epoch at ``now`` over the queued ``rows``.

        Chunks ``rows`` into greedy FIFO batches (up to
        ``max_prefill_batch_requests`` rows each) and walks them in order:
        each batch is priced by the memoized scalar
        :meth:`~repro.costmodel.latency.ReplicaCostModel.prefill_latency_memo`
        at its longest prompt, and its completion time accumulates ``t = t +
        latency`` (the reference engine's per-batch ``now + latency`` chain).
        One planner serves every queue size: a queue that fits one batch is
        one loop iteration.  Only the first batch's
        ``PREFILL_BATCH`` event is pushed now; each completion pushes the
        next one, at the point where the per-event engine pushes its
        ``PREFILL_DONE``, so exact-time ties between replicas resolve alike.
        An arrival mid-epoch truncates the not-yet-started tail (see
        :meth:`_on_prefill_arrival_fast`).
        """
        replica.busy = True
        inlen = self._inlen
        price = replica.cost.prefill_latency_memo
        cap = self.config.max_prefill_batch_requests
        epoch = []
        t = now
        for lo in range(0, len(rows), cap):
            batch = rows[lo : lo + cap]
            start = t
            t = t + price(max(map(inlen.__getitem__, batch)), len(batch))
            epoch.append((batch, start, t))
        replica.epoch = epoch
        heappush(
            self._heap,
            (epoch[0][2], next(self._heap_seq), _PREFILL_BATCH, replica.group_id, replica.epoch_seq),
        )

    def _kv_link(self, prefill_id: int, decode_id: int) -> Tuple[float, float]:
        """:func:`~repro.costmodel.kv_transfer.kv_link` of a prefill and a decode group.

        Groups never share GPUs (:class:`DeploymentPlan` rejects it), so every
        pair has a real link; results are cached per pair.
        """
        key = (prefill_id, decode_id)
        link = self._kv_links.get(key)
        if link is None:
            link = self._kv_links[key] = kv_link(
                self.cluster.network,
                self.plan.group(prefill_id).gpu_ids,
                self.plan.group(decode_id).gpu_ids,
            )
        return link

    def _on_prefill_batch(self, replica: _PrefillReplica, now: float) -> None:
        """Complete the running batch of the replica's epoch (fast engine).

        Staleness (replica death) is checked by the main loop before the
        clock advances.  Single-token rows finish here.  Every other row's
        KV transfer lands at ``now + (alpha + bytes / beta)`` over the cached
        link — the operation order of
        :func:`~repro.costmodel.kv_transfer.kv_transfer_seconds` — and is
        appended to its decode replica's log; under an active fault
        timeline, rows whose decode target is dead at the handoff instant are
        disposed here instead, exactly where the per-event engine makes the
        same call.  Then the next batch's completion is pushed; the last
        batch instead starts the next epoch over whatever queued meanwhile,
        or retires the replica to idle in place.
        """
        epoch = replica.epoch
        rows, start, _ = epoch.pop(0)
        inlen = self._inlen
        outlen = self._outlen
        dec_rep = self._dec_rep
        m_pstart = self._m_pstart
        m_first = self._m_first
        decodes = self.decodes
        prefill_id = replica.group_id
        kv_bytes = self._kv_bytes_per_token
        dead_decodes = self._dead_decodes if self._faults_active else ()
        dead_rows: List[int] = []
        for r in rows:
            m_pstart[r] = start
            m_first[r] = now
            if outlen[r] <= 1:
                # Single-token responses finish at prefill; no KV transfer needed.
                self._m_kvdone[r] = now
                self._m_comp[r] = now
                self._m_fin[r] = True
                self._m_out[r] = _OUT_RETRIED if self._att[r] > 0 else _OUT_FINISHED
                continue
            decode_id = dec_rep[r]
            if decode_id in dead_decodes:
                dead_rows.append(r)
                continue
            # The alpha-beta arithmetic is inlined: this runs once per
            # request, where a kv_transfer_seconds call would redo its
            # validation and link lookup.
            alpha, beta = self._kv_link(prefill_id, decode_id)
            target = decodes[decode_id]
            log = target.log
            log.append((now + (alpha + (kv_bytes * (inlen[r] + 1)) / beta), now, r))
            if len(log) >= _LOG_BOUND:
                # Every later handoff lands after ``now``.
                self._decode_until(target, now)
        if dead_rows:
            dead_rows.sort(key=self._req_id.__getitem__)
            for r in dead_rows:
                self._dispose_fast(r, now)
        if epoch:
            heappush(
                self._heap,
                (epoch[0][2], next(self._heap_seq), _PREFILL_BATCH, prefill_id, replica.epoch_seq),
            )
        elif replica.queue:
            rows = list(replica.queue)
            replica.queue.clear()
            self._plan_prefill_epoch(replica, now, rows)
        else:
            replica.busy = False

    # ------------------------------------------------------ decode (fast engine)
    def _decode_until(self, replica: _DecodeReplica, stop: float) -> None:
        """Replay a decode replica's own timeline strictly before ``stop``.

        The events are the logged KV deliveries and the replica's wakes, in
        time order; the caller guarantees that no delivery earlier than
        ``stop`` is still to be logged, and that no fault kills the replica
        before ``stop``.  The log is sorted stably by arrival, so same-time
        deliveries keep their handoff order (the per-event engine's push
        order).

        * **Delivery.**  Stamps the row's KV arrival and queues it for
          admission.  An idle replica starts an epoch at once.  A running
          one moves its wake to the first step boundary at or after the
          arrival (``bisect_left``; the one after, at a tie the step wins) —
          exactly where the per-event engine's per-step admission would pick
          the request up — unless a FIFO head is already waiting: then
          admission is blocked on capacity that only a completion can free,
          and the epoch end already covers it.
        * **Wake** (:meth:`_decode_wake`): applies the steps, retires
          finishers, admits and plans the next epoch.

        A delivery landing exactly on a step boundary, the wake or one
        before it, is admitted there only when the per-event engine would pop
        it before that step (:meth:`_delivery_first`); otherwise it waits for
        the boundary after.  Step boundaries are priced only as far as the
        next delivery or ``stop`` needs.  The clock
        takes every replayed time, including the running epoch's boundaries
        before ``stop``.
        """
        log = replica.log
        stepping = replica.stepping
        if not stepping and not log:
            return
        if len(log) > 1:
            log.sort(key=itemgetter(0))  # stable: ties keep handoff order
        pending = replica.pending
        m_kvdone = self._m_kvdone
        clock = self._clock
        nlog = len(log)
        i = 0
        a = log[0][0] if nlog else _INF
        # The epoch state lives in locals between wakes.
        times = replica.epoch_times
        cut = replica.epoch_cut
        while True:
            if stepping:
                p = len(times)
                if cut > p:
                    # The wake is the epoch end, not priced this far yet:
                    # price past the next delivery or ``stop``.  The chain
                    # continues from the last priced boundary, so pricing in
                    # pieces gives the same floats as pricing at once; step
                    # latencies grow with the context, so the current one
                    # bounds how many steps reach the limit.
                    limit = a if a < stop else stop
                    t = times[-1] if p else replica.epoch_start
                    if t <= limit:
                        k = replica.epoch_len
                        lat = replica.epoch_row
                        m0 = replica.epoch_m0
                        while p < k and t <= limit:
                            q = k
                            if limit < _INF:
                                q = min(k, p + int((limit - t) / lat[m0 + p]) + 2)
                            steps = accumulate(lat[m0 + p : m0 + q], initial=t)
                            next(steps)
                            times.extend(steps)
                            p = q
                            t = times[-1]
                    w = times[cut - 1] if cut <= p else _INF
                else:
                    w = times[cut - 1]
            else:
                w = _INF
            if a < w or (a == w < _INF and self._delivery_first(replica, log[i], cut)):
                if a >= stop:
                    break
                _, handoff, row = log[i]
                i += 1
                if a > clock:
                    clock = a
                m_kvdone[row] = a
                if not stepping:
                    pending.append(row)
                    self._decode_wake(replica, a, handoff)
                    stepping = replica.stepping
                    times = replica.epoch_times
                    cut = replica.epoch_cut
                elif pending:
                    pending.append(row)
                else:
                    pending.append(row)
                    hi = cut if cut < p else p
                    idx = bisect_left(times, a, 0, hi)
                    if idx < hi and times[idx] == a and not self._delivery_first(
                        replica, log[i - 1], idx + 1
                    ):
                        idx += 1
                    if idx + 1 < cut:
                        cut = replica.epoch_cut = idx + 1
                a = log[i][0] if i < nlog else _INF
            else:
                if w >= stop:
                    break
                if w > clock:
                    clock = w
                self._decode_wake(replica, w, times[cut - 2] if cut > 1 else replica.epoch_start)
                stepping = replica.stepping
                times = replica.epoch_times
                cut = replica.epoch_cut
        del log[:i]
        if stepping:
            # Steps strictly before ``stop`` fired: the per-event engine
            # advanced its clock through each of them.
            fired = bisect_left(times, stop, 0, min(cut, len(times)))
            if fired and times[fired - 1] > clock:
                clock = times[fired - 1]
        self._clock = clock

    def _delivery_first(
        self, replica: _DecodeReplica, entry: Tuple[float, float, int], k: int
    ) -> bool:
        """Whether a delivery landing exactly on boundary ``k`` precedes that step.

        ``k`` counts the current epoch's boundaries from one.  The per-event
        engine pops same-instant events in push order: the delivery's
        ``KV_ARRIVED`` was pushed at its handoff, the step's ``DECODE_STEP``
        at the boundary before (``epoch_start`` for ``k = 1``).  So the
        delivery goes first, and is admitted at this boundary, when its
        handoff came before that boundary.  When the two are the same
        instant, the events processed there were themselves popped in push
        order: the batch completion, pushed when its batch started, against
        the event at the previous boundary, pushed at the boundary before it
        (``start_pushed`` for ``k = 1``).  A tie at that level too lets the
        step go first.
        """
        _, handoff, row = entry
        times = replica.epoch_times
        prev = times[k - 2] if k > 1 else replica.epoch_start
        if handoff != prev:
            return handoff < prev
        if k > 2:
            pushed = times[k - 3]
        else:
            pushed = replica.epoch_start if k == 2 else replica.start_pushed
        return self._m_pstart[row] < pushed

    def _decode_wake(self, replica: _DecodeReplica, now: float, pushed: float) -> None:
        """Run a decode replica to its wake at ``now`` and start its next epoch.

        Applies the ``epoch_cut`` steps of the current epoch (none on an idle
        replica), admits pending rows while capacity allows, and plans the
        next epoch from ``now``.  ``pushed`` is the instant the per-event
        engine pushed its event at ``now``: the step boundary before the wake,
        or the handoff of the delivery that wakes an idle replica.

        * **Completion wake.**  An epoch runs to the earliest completion, so
          a full-length wake retires every row whose finish step is now, each
          at the last boundary and taking its final context ``in_len +
          out_len`` out of ``ctx_sum`` and its blocks back into ``kv_free``.
        * **Truncated wake.**  A delivery cut the epoch short, so nothing
          finishes here.  When nothing can be admitted either (capacity), the
          epoch runs on from here to its end: the remaining boundary times
          are a pure function of batch state the truncation did not change.
        * **Admission** replays the reference's FIFO ``kv.can_allocate``
          guarded loop over plain ints, pushing each newcomer's finish step
          onto the batch heap and its context onto ``ctx_sum``.
        * **Planning.**  The batch composition cannot change before the
          earliest completion (``heap[0][0] - steps_done`` steps away), so
          the epoch spans that many steps with a **constant batch** of ``n``.
          The reference prices step ``t`` at mean context ``int((ctx_sum +
          n*t) / n)``, which for integers below 2**53 equals ``ctx_sum // n +
          t``: the epoch's step latencies are the contiguous slice ``row[m0 :
          m0 + k]`` of the batch size's latency row
          (:meth:`~repro.costmodel.latency.ReplicaCostModel.decode_step_row`),
          and :meth:`_decode_until` turns it into boundary times by the
          reference's left-to-right ``now + latency`` chain.
        """
        heap = replica.heap
        pending = replica.pending
        steps = replica.epoch_cut
        ctx_sum = replica.ctx_sum
        kv_free = replica.kv_free
        block = self.config.kv_block_size
        inlen = self._inlen
        outlen = self._outlen
        truncated = False
        if steps:
            now_step = replica.steps_done + steps
            replica.steps_done = now_step
            ctx_sum += len(heap) * steps
            if steps < replica.epoch_len:
                truncated = True
            else:
                att = self._att
                m_comp = self._m_comp
                m_fin = self._m_fin
                m_out = self._m_out
                while heap and heap[0][0] == now_step:
                    row = heappop(heap)[1]
                    total = inlen[row] + outlen[row]
                    ctx_sum -= total
                    kv_free += blocks_for(total, block)
                    m_comp[row] = now
                    m_fin[row] = True
                    m_out[row] = _OUT_RETRIED if att[row] > 0 else _OUT_FINISHED
        admitted = False
        n = len(heap)
        max_batch = replica.max_batch
        if pending and n < max_batch:
            # The prefill already produced the first output token: a row
            # enters with context ``i + 1`` and ``o - 1`` steps to go.
            finish_base = replica.steps_done - 1
            while pending and n < max_batch:
                row = pending[0]
                i = inlen[row]
                o = outlen[row]
                need = blocks_for(i + o, block)
                if need > kv_free:
                    break
                pending.popleft()
                kv_free -= need
                ctx_sum += i + 1
                heappush(heap, (finish_base + o, row))
                n += 1
                admitted = True
        replica.ctx_sum = ctx_sum
        replica.kv_free = kv_free
        replica.start_pushed = pushed
        if n == 0:
            replica.stepping = False
            replica.epoch_cut = 0
            replica.epoch_row = None
            return
        if truncated and not admitted:
            # Run on: the epoch restarts here with its own remaining steps.
            del replica.epoch_times[:steps]
            replica.epoch_m0 += steps
            replica.epoch_len -= steps
        else:
            k = heap[0][0] - replica.steps_done
            m0 = ctx_sum // n
            replica.epoch_row = replica.cost.decode_step_row(n, m0 + k)
            replica.epoch_m0 = m0
            replica.epoch_len = k
            replica.epoch_times = []
            replica.stepping = True
        replica.epoch_start = now
        replica.epoch_cut = replica.epoch_len

    # ------------------------------------------------------- faults (fast engine)
    def _dispose_fast(self, row: int, now: float) -> None:
        """Apply the typed disposition of one fault-stricken request (fast).

        The request's current attempt is lost (its per-attempt stamps reset);
        under the run's :class:`~repro.faults.retry.RetryPolicy` it is either
        re-dispatched to a hash-routed surviving (prefill, decode) pair after a
        deterministic backoff delay, or cancelled — ``dropped_outage`` when no
        capacity survives or the retry budget is exhausted, ``timed_out`` when
        the retry would land past the per-request deadline.  Terminal outcomes
        keep the partial stamps of the failed attempt.
        """
        att = self._att[row] + 1
        self._att[row] = att
        policy = self._retry
        alive_p = self._alive_prefill_ids
        alive_d = self._alive_decode_ids
        if not alive_p or not alive_d or att > policy.max_retries:
            self._m_out[row] = _OUT_DROPPED
            return
        rid = self._req_id[row]
        seed = self.config.seed
        retry_time = now + policy.backoff_delay(seed, rid, att)
        if (
            policy.deadline_s is not None
            and retry_time - self._arr[row] > policy.deadline_s
        ):
            self._m_out[row] = _OUT_TIMED_OUT
            return
        up = fault_uniform("route-prefill", seed, rid, att)
        ud = fault_uniform("route-decode", seed, rid, att)
        self._pre_rep[row] = alive_p[int(up * len(alive_p))]
        self._dec_rep[row] = alive_d[int(ud * len(alive_d))]
        self._m_pstart[row] = 0.0
        self._m_first[row] = 0.0
        self._m_kvdone[row] = 0.0
        self._m_comp[row] = 0.0
        self._m_fin[row] = False
        self._m_out[row] = 0
        self._push(retry_time, _RETRY, -1, row)

    def _apply_fault_fast(self, entry: ReplicaFaultEvent) -> None:
        """Apply one fault-timeline entry at its instant (fast engine).

        Deaths first: a dying decode replica replays its timeline strictly
        before the fault instant, then every dead replica is wiped (queues,
        epoch state, KV cache, the in-flight transfers in its log) and its
        victims — collected
        across all replicas dying at this instant — are disposed in request-id
        order, so retry scheduling is deterministic and engine-independent.
        Revivals simply mark the (already clean) replica routable again.
        """
        t = entry.time
        victims: List[int] = []
        for gid in entry.dead_prefill:
            if gid in self._dead_prefills:
                continue
            self._dead_prefills.add(gid)
            replica = self.prefills[gid]
            victims.extend(replica.queue)
            # The epoch holds the batches not yet completed (a completion at
            # ``t`` loses the tie: fault entries win); they are lost with the
            # replica.
            for batch in replica.epoch:
                victims.extend(batch[0])
            replica.queue.clear()
            replica.busy = False
            replica.epoch = []
            replica.epoch_seq += 1
        for gid in entry.dead_decode:
            if gid in self._dead_decodes:
                continue
            self._dead_decodes.add(gid)
            replica = self.decodes[gid]
            # Everything strictly before ``t`` happened (ties lose — fault
            # entries win); what is left in the log is in flight.
            self._decode_until(replica, t)
            victims.extend(row for _, row in replica.heap)
            victims.extend(replica.pending)
            victims.extend(row for _, _, row in replica.log)
            self._reset_decode(replica)
        for gid in entry.revived_prefill:
            self._dead_prefills.discard(gid)
        for gid in entry.revived_decode:
            self._dead_decodes.discard(gid)
        self._alive_prefill_ids = sorted(
            g for g in self.prefills if g not in self._dead_prefills
        )
        self._alive_decode_ids = sorted(
            g for g in self.decodes if g not in self._dead_decodes
        )
        victims.sort(key=self._req_id.__getitem__)
        for row in victims:
            self._dispose_fast(row, t)

    # ------------------------------------------------------------------ reference
    def _run_reference(
        self,
        trace: Trace,
        label: str,
        faults: Optional[FaultTimeline] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> SimulationResult:
        """Replay a trace through the per-event oracle engine.

        Fault semantics mirror the fast engine exactly: fault entries win
        exact-time ties against heap events, death-stale events (a prefill
        batch, KV transfer, or decode step whose replica died while it was in
        flight) advance no clock, and dispositions use the same hash-based
        jitter and routing — which is what keeps results bitwise-identical
        under any timeline.
        """
        self._reset_replicas()
        self._begin_fault_run(faults, retry)
        for request in trace:
            self._events.push(
                Event(time=request.arrival_time, kind=EventKind.ARRIVAL, payload=request)
            )
        horizon = self.config.max_sim_time
        events = self._events
        fault_events = self._fault_events
        num_faults = len(fault_events)
        while True:
            top = events.peek_key()
            if top is None:
                break
            if self._fault_pos < num_faults:
                # Fault entries win exact-time ties against simulation work
                # (same rule as the fast engine's arrival/heap race).
                entry = fault_events[self._fault_pos]
                if entry.time <= top[0]:
                    if horizon is not None and entry.time > horizon:
                        self._fault_pos = num_faults
                    else:
                        self._fault_pos += 1
                        self._apply_fault_reference(entry)
                    continue
            event = events.pop()
            if horizon is not None and event.time > horizon:
                break
            if event.kind is EventKind.ARRIVAL:
                self._clock = max(self._clock, event.time)
                self._on_arrival(event.payload, event.time)
            elif event.kind is EventKind.PREFILL_DONE:
                replica = self.prefills[event.replica_id]
                seq, batch = event.payload
                if seq != replica.epoch_seq:
                    continue  # replica died while the batch ran; no clock update
                self._clock = max(self._clock, event.time)
                self._on_prefill_done(event.replica_id, batch, event.time)
            elif event.kind is EventKind.KV_ARRIVED:
                incarnation, request = event.payload
                if incarnation != self.decodes[event.replica_id].incarnation:
                    continue  # target replica died; the request was disposed
                self._clock = max(self._clock, event.time)
                self._on_kv_arrived(event.replica_id, request, event.time)
            elif event.kind is EventKind.DECODE_STEP:
                replica = self.decodes[event.replica_id]
                if event.payload != replica.epoch_seq:
                    continue  # replica died mid-step; no clock update
                self._clock = max(self._clock, event.time)
                self._on_decode_step(event.replica_id, event.time)
            elif event.kind is EventKind.RETRY:
                self._clock = max(self._clock, event.time)
                self._on_retry_reference(event.payload, event.time)
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

    def _on_arrival(self, request: Request, now: float) -> None:
        prefill_id, decode_id = self._choose_pair()
        metrics = RequestMetrics(request=request, enqueue_time=now)
        metrics.prefill_replica = prefill_id
        metrics.decode_replica = decode_id
        self._metrics[request.request_id] = metrics
        self._decode_target[request.request_id] = decode_id
        if self._faults_active and prefill_id in self._dead_prefills:
            self._dispose_reference(request, now)
            return
        replica = self.prefills[prefill_id]
        replica.queue.append(request)
        if not replica.busy:
            self._start_prefill_batch(replica, now)

    def _start_prefill_batch(self, replica: _PrefillReplica, now: float) -> None:
        if not replica.queue:
            replica.busy = False
            replica.inflight_batch = None
            return
        batch: List[Request] = []
        while replica.queue and len(batch) < self.config.max_prefill_batch_requests:
            batch.append(replica.queue.popleft())
        replica.busy = True
        replica.inflight_batch = batch
        max_input = max(r.input_length for r in batch)
        latency = replica.cost.prefill_latency(max_input, batch_size=len(batch))
        for request in batch:
            self._prefill_start[request.request_id] = now
        self._events.push(
            Event(
                time=now + latency,
                kind=EventKind.PREFILL_DONE,
                replica_id=replica.group_id,
                payload=(replica.epoch_seq, batch),
            )
        )

    def _on_prefill_done(self, replica_id: int, batch: List[Request], now: float) -> None:
        replica = self.prefills[replica_id]
        replica.inflight_batch = None
        prefill_group = self.plan.group(replica_id)
        dead_targets: List[Request] = []
        for request in batch:
            metrics = self._metrics[request.request_id]
            metrics.prefill_start = self._prefill_start[request.request_id]
            metrics.first_token_time = now
            decode_id = self._decode_target[request.request_id]
            if request.output_length <= 1:
                # Single-token responses finish at prefill; no KV transfer needed.
                metrics.kv_transfer_done = now
                metrics.completion_time = now
                metrics.finished = True
                metrics.outcome = (
                    RequestOutcome.RETRIED_THEN_FINISHED
                    if metrics.attempts > 0
                    else RequestOutcome.FINISHED
                )
                continue
            if self._faults_active and decode_id in self._dead_decodes:
                # The decode target died while prefill ran: the KV has nowhere
                # to land, so the request is disposed at the handoff instant.
                dead_targets.append(request)
                continue
            decode_group = self.plan.group(decode_id)
            transfer = kv_transfer_seconds(
                self.cluster.network,
                prefill_group.gpu_ids,
                decode_group.gpu_ids,
                self.model,
                num_tokens=request.input_length + 1,
                bits=self.plan.kv_transport_bits,
            )
            target = self.decodes[decode_id]
            if self._faults_active:
                target.inflight[request.request_id] = request
            self._events.push(
                Event(
                    time=now + transfer,
                    kind=EventKind.KV_ARRIVED,
                    replica_id=decode_id,
                    payload=(target.incarnation, request),
                )
            )
        if dead_targets:
            dead_targets.sort(key=lambda r: r.request_id)
            for request in dead_targets:
                self._dispose_reference(request, now)
        # Keep the prefill replica busy with the next batch, if any.
        self._start_prefill_batch(replica, now)

    def _on_kv_arrived(self, replica_id: int, request: Request, now: float) -> None:
        metrics = self._metrics[request.request_id]
        metrics.kv_transfer_done = now
        replica = self.decodes[replica_id]
        if self._faults_active:
            replica.inflight.pop(request.request_id, None)
        replica.pending.append(request)
        if not replica.stepping:
            self._schedule_decode_step(replica, now)

    def _admit_pending(self, replica: _DecodeReplica) -> None:
        """Admit pending requests while KV memory and the batch cap allow."""
        while replica.pending and len(replica.active) < replica.max_batch:
            request = replica.pending[0]
            final_context = request.total_tokens
            if not replica.kv.can_allocate(final_context):
                break
            replica.pending.popleft()
            replica.kv.allocate(request.request_id, final_context)
            # The prefill already produced the first output token.
            replica.active[request.request_id] = [
                request.input_length + 1,
                request.output_length - 1,
            ]

    def _schedule_decode_step(self, replica: _DecodeReplica, now: float) -> None:
        self._admit_pending(replica)
        if not replica.active:
            replica.stepping = False
            return
        replica.stepping = True
        batch = len(replica.active)
        mean_context = int(np.mean([state[0] for state in replica.active.values()]))
        latency = replica.cost.decode_step_latency(batch, max(1, mean_context))
        self._events.push(
            Event(
                time=now + latency,
                kind=EventKind.DECODE_STEP,
                replica_id=replica.group_id,
                payload=replica.epoch_seq,
            )
        )

    def _on_decode_step(self, replica_id: int, now: float) -> None:
        replica = self.decodes[replica_id]
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
            metrics.outcome = (
                RequestOutcome.RETRIED_THEN_FINISHED
                if metrics.attempts > 0
                else RequestOutcome.FINISHED
            )
        self._schedule_decode_step(replica, now)

    # -------------------------------------------------- faults (reference engine)
    def _dispose_reference(self, request: Request, now: float) -> None:
        """Typed disposition of one fault-stricken request (per-event oracle).

        Mirrors :meth:`_dispose_fast` exactly — same attempt accounting, same
        hash-based backoff/jitter and routing draws, same terminal causes —
        operating on :class:`~repro.core.types.RequestMetrics` objects instead
        of metric columns.
        """
        metrics = self._metrics[request.request_id]
        metrics.attempts += 1
        att = metrics.attempts
        policy = self._retry
        alive_p = self._alive_prefill_ids
        alive_d = self._alive_decode_ids
        if not alive_p or not alive_d or att > policy.max_retries:
            metrics.outcome = RequestOutcome.DROPPED_OUTAGE
            return
        rid = request.request_id
        seed = self.config.seed
        retry_time = now + policy.backoff_delay(seed, rid, att)
        if (
            policy.deadline_s is not None
            and retry_time - request.arrival_time > policy.deadline_s
        ):
            metrics.outcome = RequestOutcome.TIMED_OUT
            return
        up = fault_uniform("route-prefill", seed, rid, att)
        ud = fault_uniform("route-decode", seed, rid, att)
        metrics.prefill_replica = alive_p[int(up * len(alive_p))]
        metrics.decode_replica = alive_d[int(ud * len(alive_d))]
        self._decode_target[rid] = metrics.decode_replica
        metrics.prefill_start = 0.0
        metrics.first_token_time = 0.0
        metrics.kv_transfer_done = 0.0
        metrics.completion_time = 0.0
        metrics.finished = False
        metrics.outcome = RequestOutcome.PENDING
        self._prefill_start.pop(rid, None)
        self._events.push(Event(time=retry_time, kind=EventKind.RETRY, payload=request))

    def _on_retry_reference(self, request: Request, now: float) -> None:
        """Re-dispatch a retried request at its backoff expiry (oracle)."""
        metrics = self._metrics[request.request_id]
        prefill_id = metrics.prefill_replica
        if prefill_id in self._dead_prefills:
            # The routed target died during the backoff: dispose again.
            self._dispose_reference(request, now)
            return
        replica = self.prefills[prefill_id]
        replica.queue.append(request)
        if not replica.busy:
            self._start_prefill_batch(replica, now)

    def _apply_fault_reference(self, entry: ReplicaFaultEvent) -> None:
        """Apply one fault-timeline entry at its instant (per-event oracle).

        Victim collection mirrors :meth:`_apply_fault_fast`: a dead prefill
        loses its queue plus the in-flight batch (its ``PREFILL_DONE`` goes
        stale via ``epoch_seq``); a dead decode loses its running batch,
        admission queue, and every KV transfer in flight toward it (stale via
        ``incarnation``).  Victims across all deaths at this instant are
        disposed in request-id order.
        """
        t = entry.time
        victims: List[Request] = []
        for gid in entry.dead_prefill:
            if gid in self._dead_prefills:
                continue
            self._dead_prefills.add(gid)
            replica = self.prefills[gid]
            victims.extend(replica.queue)
            if replica.inflight_batch:
                victims.extend(replica.inflight_batch)
            replica.queue.clear()
            replica.busy = False
            replica.inflight_batch = None
            replica.epoch_seq += 1
        for gid in entry.dead_decode:
            if gid in self._dead_decodes:
                continue
            self._dead_decodes.add(gid)
            replica = self.decodes[gid]
            victims.extend(self._metrics[rid].request for rid in replica.active)
            victims.extend(replica.pending)
            victims.extend(replica.inflight.values())
            replica.active.clear()
            replica.pending.clear()
            replica.inflight.clear()
            replica.kv.reset()
            replica.stepping = False
            replica.epoch_seq += 1
            replica.incarnation += 1
        for gid in entry.revived_prefill:
            self._dead_prefills.discard(gid)
        for gid in entry.revived_decode:
            self._dead_decodes.discard(gid)
        self._alive_prefill_ids = sorted(
            g for g in self.prefills if g not in self._dead_prefills
        )
        self._alive_decode_ids = sorted(
            g for g in self.decodes if g not in self._dead_decodes
        )
        victims.sort(key=lambda r: r.request_id)
        for request in victims:
            self._dispose_reference(request, t)


__all__ = ["ServingSimulator", "SimulatorConfig", "ENGINES"]

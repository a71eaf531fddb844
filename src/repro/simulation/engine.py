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
  **struct-of-arrays form**: requests are integer rows into plain
  :class:`array.array` columns (ids, arrival times, lengths, routing targets,
  and the metric timestamps) that grow by one ``frombytes`` per ingested
  chunk, so no per-request Python object is created on the fast path and
  every scalar read is a plain Python int or float.  The columns are copied
  into numpy once, when the run is finalized.  Traces are ingested chunk by
  chunk — :meth:`ServingSimulator.run_stream` accepts any iterator of
  :class:`~repro.workload.trace.RequestArrays` blocks, bounding memory by the
  chunk size — and arrivals are driven by a cursor over the ingested columns
  instead of one heap event per request.  The event heap is a plain
  ``heapq`` list of ``(time, seq, kind, replica_id, payload)`` tuples with
  ``seq`` drawn from one push counter, so exact-time ties resolve in push
  order, as in the reference engine's :class:`~repro.simulation.events.EventQueue`.

  On the decode side each replica keeps its running batch as a step counter,
  a min-heap of ``(finish_step, row)`` and a running context sum, and
  **coalesces decode steps into epochs**: the batch composition is constant
  until the earliest completion, and with a constant batch of ``n`` the mean
  context of step ``t`` is ``ctx_sum // n + t`` (the reference's truncated
  float64 mean, exactly, below 2**53).  So an epoch's step latencies are one
  contiguous slice of the batch size's dense latency row
  (:meth:`~repro.costmodel.latency.ReplicaCostModel.decode_step_row`), turned
  into boundary times by ``itertools.accumulate`` — the reference's
  sequential ``now + latency`` float adds — and a single wake event replaces
  thousands of per-token heap events.  A KV arrival mid-epoch truncates the
  epoch at the first step boundary after the arrival, exactly where the
  per-event engine would admit the request — and when nothing was admitted at
  a truncated boundary, the **surviving suffix of the old plan is reused**
  verbatim instead of re-pricing it (the remaining step times are a pure
  function of unchanged batch state).  The per-epoch step budget adapts to the
  interruption rate, doubling on quiet replicas and shrinking on busy ones.

  On the prefill side it **coalesces queued batches into epochs**: when a
  replica picks up work, the whole queue is chunked into multi-request batches
  (greedy FIFO, up to ``max_prefill_batch_requests`` per batch), and one scalar
  pass prices every batch through the memoized
  :meth:`~repro.costmodel.latency.ReplicaCostModel.prefill_latency_memo` and
  precomputes the per-batch completion times plus every KV-transfer handoff up
  front.  A new arrival on the replica truncates the
  epoch at the first batch that has not yet started (re-queueing its rows),
  exactly where the per-event engine would re-form batches.  The resulting KV
  transfers are emitted as **coalesced arrival batches** (one ``KV_BATCH``
  cursor per (prefill batch, decode replica) instead of one heap event per
  request) that feed the decode epochs in exact per-request arrival order.

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

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate, count
from operator import itemgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.rng import ensure_rng
from repro.core.types import Request, RequestMetrics, RequestOutcome
from repro.faults.retry import RetryPolicy, fault_uniform
from repro.faults.timeline import FaultTimeline, ReplicaFaultEvent
from repro.costmodel.kv_transfer import kv_transfer_seconds
from repro.costmodel.latency import (
    CostModelParams,
    DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    DEFAULT_PARAMS,
    ReplicaCostModel,
)
from repro.model.memory import kv_cache_bytes_per_token
from repro.hardware.cluster import Cluster
from repro.kvcache.paged import PagedKVCache
from repro.model.architecture import ModelConfig
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricArrays, SimulationResult
from repro.workload.trace import RequestArrays, Trace

#: valid decode-engine selectors of :class:`SimulatorConfig`
ENGINES = ("fast", "reference")

#: decode epoch budget floor: epochs shrink to this many steps under pressure
_MIN_EPOCH_BUDGET = 16
#: decode epoch budget ceiling: quiet replicas coalesce up to this many steps
_MAX_EPOCH_BUDGET = 4096

# RequestOutcome values as plain ints for the fast engine's outcome column.
_OUT_FINISHED = int(RequestOutcome.FINISHED)
_OUT_RETRIED = int(RequestOutcome.RETRIED_THEN_FINISHED)
_OUT_TIMED_OUT = int(RequestOutcome.TIMED_OUT)
_OUT_DROPPED = int(RequestOutcome.DROPPED_OUTAGE)

# Event kinds of the fast engine's tuple heap: decode epoch wake, prefill
# batch completion, coalesced KV-arrival cursor, fault-retry re-dispatch.
_DECODE_WAKE, _PREFILL_BATCH, _KV_BATCH, _RETRY = range(4)


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


@dataclass
class _PrefillReplica:
    """Run-time state of one prefill replica.

    The reference engine only uses ``queue`` / ``busy`` (the queue holds
    :class:`Request` objects and batches are re-formed at every
    ``PREFILL_DONE``); the fast engine queues integer request rows and
    additionally carries the state of the current coalesced prefill epoch (as
    plain lists): the planned batch rows and their offsets, precomputed
    start/completion times, the precomputed KV-transfer handoffs and
    single-token rows of every batch, and the truncation bookkeeping.
    """

    group_id: int
    cost: ReplicaCostModel
    #: FIFO queue: request rows (fast engine) or :class:`Request` objects
    #: (reference engine)
    queue: Deque = field(default_factory=deque)
    busy: bool = False
    # ---- fast engine coalesced-epoch state ----
    #: rows of every batch of the current epoch, concatenated in execution order
    epoch_rows: Optional[List[int]] = None
    #: batch ``k`` spans ``epoch_rows[epoch_offsets[k]:epoch_offsets[k + 1]]``
    epoch_offsets: Optional[List[int]] = None
    #: absolute start time of every planned batch
    epoch_starts: Optional[List[float]] = None
    #: absolute completion time of every planned batch
    epoch_dones: Optional[List[float]] = None
    #: per batch: coalesced KV handoffs as (decode group, rows sorted by
    #: arrival, arrival times) — precomputed at plan time
    epoch_kv: List[List[Tuple[int, Sequence[int], Sequence[float]]]] = field(default_factory=list)
    #: per batch: single-token rows, which finish at prefill with no handoff
    epoch_single: List[List[int]] = field(default_factory=list)
    #: number of leading batches still valid (arrival truncation shortens this)
    epoch_cut: int = 0
    #: epoch generation counter; batch events carrying an older value are stale
    #: (bumped by arrival truncation, superseding epochs, and replica death —
    #: the reference engine uses it purely as a death-incarnation stamp on its
    #: in-flight ``PREFILL_DONE`` event)
    epoch_seq: int = 0
    #: requests of the in-flight batch (reference engine only) — the rows a
    #: capacity-loss fault must dispose alongside the queue
    inflight_batch: Optional[List] = None


@dataclass
class _KVBatch:
    """Cursor over a coalesced array of KV arrivals for one decode replica.

    Replaces one ``KV_ARRIVED`` heap event per request with a single ``KV_BATCH``
    heap entry whose handler drains arrivals in order, yielding back to the
    heap (re-pushed under its original sequence number, so exact-time ties
    keep their per-event ordering) whenever another event — or a
    not-yet-ingested trace arrival — is due first.
    """

    decode_id: int
    rows: Sequence[int]
    times: Sequence[float]
    #: index of the next undelivered arrival
    pos: int = 0
    #: heap sequence number assigned at the first push; reused on every repush
    heap_seq: int = -1
    #: death-incarnation of the target decode replica at creation; a mismatch
    #: at pop time means the replica died (the rows were already disposed)
    incarnation: int = 0


@dataclass
class _DecodeReplica:
    """Run-time state of one decode replica.

    The reference engine tracks the running batch in ``active`` (request_id ->
    [context, remaining]) and queues :class:`Request` objects in ``pending``.
    The fast engine queues request rows and keeps the batch as a step counter
    ``steps_done``, a min-heap ``heap`` of ``(finish_step, row)`` and the
    running context sum ``ctx_sum``.  A row admitted at step ``s`` with ``o``
    output tokens enters with context ``in_len + 1`` (the prefill produced the
    first token) and finishes at step ``s + o - 1`` with context
    ``in_len + o``.  Applying a span of steps is O(1), retiring a finisher is
    one heap pop, and the earliest completion is ``heap[0][0] - steps_done``
    steps away.  Beside the batch it holds the precomputed step boundary
    times of the current coalesced epoch.
    """

    group_id: int
    cost: ReplicaCostModel
    kv: PagedKVCache
    max_batch: int
    #: request_id -> [current context length, remaining tokens] (reference engine)
    active: Dict[int, List[int]] = field(default_factory=dict)
    #: admission queue: request rows (fast engine) or :class:`Request` objects
    #: (reference engine)
    pending: Deque = field(default_factory=deque)
    stepping: bool = False
    # ---- fast engine batch ----
    #: min-heap of (finish step, request row) over the running batch
    heap: List[Tuple[int, int]] = field(default_factory=list)
    #: decode steps run so far; finish steps are counted on this clock
    steps_done: int = 0
    #: sum of the running rows' current context lengths
    ctx_sum: int = 0
    #: absolute times of the current epoch's step boundaries (b_1 .. b_K)
    epoch_times: Optional[List[float]] = None
    #: number of steps the epoch was planned with
    epoch_len: int = 0
    #: number of steps the scheduled wake will apply (truncation shortens this)
    epoch_cut: int = 0
    #: epoch generation counter; wake events carrying an older value are stale
    epoch_seq: int = 0
    #: adaptive per-epoch step cap (doubles on quiet replicas, shrinks when
    #: arrivals keep truncating epochs)
    epoch_budget: int = _MIN_EPOCH_BUDGET
    #: death-incarnation counter; KV transfers in flight toward an older
    #: incarnation are stale (their requests were disposed at the death instant)
    incarnation: int = 0
    #: in-flight KV transfers toward this replica: request row (fast engine) or
    #: request id (reference engine) -> payload; a capacity-loss fault disposes
    #: every entry because the destination KV memory is gone
    inflight: Dict[int, object] = field(default_factory=dict)


#: int64 request columns, ``array('q')`` (``_att`` counts fault dispositions,
#: ``_m_out`` holds the RequestOutcome code); ``_m_fin`` is an ``array('B')``
_INT_COLUMNS = ("_req_id", "_inlen", "_outlen", "_pre_rep", "_dec_rep", "_att", "_m_out")
#: float64 request columns, ``array('d')`` (arrival plus metric timestamps)
_FLOAT_COLUMNS = ("_arr", "_m_pstart", "_m_first", "_m_kvdone", "_m_comp")
#: the 8-byte metric columns, zero for every newly ingested row
_ZERO_COLUMNS = ("_att", "_m_out", "_m_pstart", "_m_first", "_m_kvdone", "_m_comp")


class ServingSimulator:
    """Simulates a phase-splitting deployment serving a request trace."""

    def __init__(
        self,
        cluster: Cluster,
        plan: DeploymentPlan,
        model: ModelConfig,
        params: CostModelParams = DEFAULT_PARAMS,
        config: SimulatorConfig = SimulatorConfig(),
    ) -> None:
        if not plan.prefill_groups or not plan.decode_groups:
            raise SimulationError("the deployment plan must contain prefill and decode replicas")
        self.cluster = cluster
        self.plan = plan
        self.model = model
        self.params = params
        self.config = config

        self.prefills: Dict[int, _PrefillReplica] = {}
        for group in plan.prefill_groups:
            if group.plan is None:
                raise SimulationError(f"prefill group {group.group_id} has no parallel plan")
            self.prefills[group.group_id] = _PrefillReplica(
                group_id=group.group_id,
                cost=ReplicaCostModel(
                    cluster, group.plan, model, params,
                    slowdown=config.group_slowdown(group.gpu_ids),
                ),
            )
        self.decodes: Dict[int, _DecodeReplica] = {}
        for group in plan.decode_groups:
            if group.plan is None:
                raise SimulationError(f"decode group {group.group_id} has no parallel plan")
            cost = ReplicaCostModel(
                cluster, group.plan, model, params,
                slowdown=config.group_slowdown(group.gpu_ids),
            )
            capacity_tokens = cost.kv_token_capacity()
            kv = PagedKVCache(
                num_blocks=max(0, capacity_tokens // config.kv_block_size),
                block_size=config.kv_block_size,
            )
            self.decodes[group.group_id] = _DecodeReplica(
                group_id=group.group_id,
                cost=cost,
                kv=kv,
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
        self._pgid_arr = np.asarray(self.routing.prefill_group_ids, dtype=np.int64)
        self._dgid_arr = np.asarray(self.routing.decode_group_ids, dtype=np.int64)

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
            replica.epoch_rows = None
            replica.epoch_offsets = None
            replica.epoch_starts = None
            replica.epoch_dones = None
            replica.epoch_kv = []
            replica.epoch_single = []
            replica.epoch_cut = 0
            replica.epoch_seq = 0
            replica.inflight_batch = None
        for replica in self.decodes.values():
            replica.active.clear()
            replica.pending.clear()
            replica.kv.reset()
            replica.stepping = False
            replica.heap = []
            replica.steps_done = 0
            replica.ctx_sum = 0
            replica.epoch_times = None
            replica.epoch_len = 0
            replica.epoch_cut = 0
            replica.epoch_seq = 0
            replica.epoch_budget = _MIN_EPOCH_BUDGET
            replica.incarnation = 0
            replica.inflight.clear()

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
        for name in _INT_COLUMNS:
            setattr(self, name, array("q"))
        for name in _FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self._m_fin = array("B")
        self._heap: List[tuple] = []
        self._heap_seq = count()
        self._workload_spans: List[Tuple[int, str]] = []
        self._chunk_iter: Optional[Iterator[RequestArrays]] = None
        self._chunks_done = True

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
            iter((trace.arrays(),)),
            requests=trace.requests,
            trace_duration=trace.duration,
            label=label,
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
        into a full in-memory trace first (per-chunk workload tags may collapse
        to ``"mixed"`` on heterogeneous streams), which defeats the memory
        bound but preserves the oracle semantics for equivalence checks.
        """
        if not self._fast:
            return self._run_reference(
                RequestArrays.concat(list(chunks)).to_trace(),
                label,
                faults=faults,
                retry=retry,
            )
        self._reset_fast_state()
        self._begin_fault_run(faults, retry)
        return self._run_fast(iter(chunks), requests=None, trace_duration=None, label=label)

    # ------------------------------------------------------------------ fast loop
    def _load_chunk(self) -> None:
        """Ingest the next non-empty chunk into the request columns.

        Appends the four request columns, then assigns routing targets for
        the whole chunk in one vectorized pass consuming exactly the scalar
        draws :meth:`_choose_pair` would: two uniforms per request,
        interleaved in ingestion order.  Every column grows by one
        ``frombytes``; the metric columns start at zero.
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
        self._req_id.frombytes(chunk.request_id.tobytes())
        self._arr.frombytes(chunk.arrival_time.tobytes())
        self._inlen.frombytes(chunk.input_length.tobytes())
        self._outlen.frombytes(chunk.output_length.tobytes())
        draws = self._rng.random(2 * c)
        xi = np.searchsorted(self._x_cdf, draws[0::2], side="right")
        np.minimum(xi, self._x_cdf.size - 1, out=xi)
        yj = np.sum(self._y_cdf[xi] <= draws[1::2, None], axis=1)
        np.minimum(yj, self._y_cdf.shape[1] - 1, out=yj)
        self._pre_rep.frombytes(self._pgid_arr[xi].tobytes())
        self._dec_rep.frombytes(self._dgid_arr[yj].tobytes())
        zeros = bytes(8 * c)
        for name in _ZERO_COLUMNS:
            getattr(self, name).frombytes(zeros)
        self._m_fin.frombytes(bytes(c))
        if not self._workload_spans or self._workload_spans[-1][1] != chunk.workload:
            self._workload_spans.append((n, chunk.workload))
        self._n = n + c

    def _run_fast(
        self,
        chunks: Iterator[RequestArrays],
        requests: Optional[Sequence[Request]],
        trace_duration: Optional[float],
        label: str,
    ) -> SimulationResult:
        """Drive the struct-of-arrays engine over a chunk stream."""
        self._chunk_iter = chunks
        self._chunks_done = False
        heap = self._heap
        arr = self._arr
        pre_rep = self._pre_rep
        prefills = self.prefills
        decodes = self.decodes
        horizon = self.config.max_sim_time
        fault_events = self._fault_events
        num_faults = len(fault_events)
        truncated = False
        while True:
            # Keep the arrival cursor ahead of the heap: whenever the ingested
            # rows are exhausted, pull chunks before deciding what runs next.
            # KV_BATCH drains never advance the cursor, so "cursor < _n or
            # stream done" holds inside every handler as well.
            while self._cursor >= self._n and not self._chunks_done:
                self._load_chunk()
            have_arrival = self._cursor < self._n
            if not have_arrival and not heap:
                break
            if self._fault_pos < num_faults:
                # Fault entries win exact-time ties against simulation work:
                # they apply the moment the next candidate event is not
                # strictly earlier (the per-event engine uses the same rule).
                next_t = arr[self._cursor] if have_arrival else heap[0][0]
                if have_arrival and heap:
                    next_t = min(next_t, heap[0][0])
                entry = fault_events[self._fault_pos]
                if entry.time <= next_t:
                    if horizon is not None and entry.time > horizon:
                        self._fault_pos = num_faults
                    else:
                        self._fault_pos += 1
                        self._apply_fault_fast(entry)
                    continue
            if have_arrival and (not heap or arr[self._cursor] <= heap[0][0]):
                # Arrivals win exact-time ties: the per-event engine pushes all
                # ARRIVAL events at setup, giving them the lowest heap seqs.
                row = self._cursor
                at = arr[row]
                if horizon is not None and at > horizon:
                    truncated = True
                    break
                self._cursor = row + 1
                self._clock = max(self._clock, at)
                pre = pre_rep[row]
                if self._faults_active and pre in self._dead_prefills:
                    self._dispose_fast(row, at)
                else:
                    self._on_prefill_arrival_fast(prefills[pre], row, at)
                continue
            t, _, kind, replica_id, payload = heappop(heap)
            if horizon is not None and t > horizon:
                truncated = True
                break
            if kind == _DECODE_WAKE:
                replica = decodes[replica_id]
                if payload != replica.epoch_seq:
                    continue  # stale wake from a truncated epoch; no clock update
                self._clock = max(self._clock, t)
                self._on_decode_wake(replica, t)
            elif kind == _PREFILL_BATCH:
                replica = prefills[replica_id]
                seq, idx = payload
                if seq != replica.epoch_seq or idx >= replica.epoch_cut:
                    continue  # cancelled batch / superseded epoch; no clock update
                self._clock = max(self._clock, t)
                self._on_prefill_batch(replica, idx, t)
            elif kind == _KV_BATCH:
                if self._faults_active and payload.incarnation != decodes[replica_id].incarnation:
                    continue  # target replica died; the rows were disposed
                self._clock = max(self._clock, t)
                self._on_kv_batch(payload, horizon)
            else:  # _RETRY: the payload is the request row
                self._clock = max(self._clock, t)
                pre = pre_rep[payload]
                if pre in self._dead_prefills:
                    self._dispose_fast(payload, t)
                else:
                    self._on_prefill_arrival_fast(prefills[pre], payload, t)
        if truncated and horizon is not None:
            self._flush_epochs(horizon)
        return self._finalize_fast(requests, trace_duration, label)

    def _finalize_fast(
        self,
        requests: Optional[Sequence[Request]],
        trace_duration: Optional[float],
        label: str,
    ) -> SimulationResult:
        """Package the metric columns of the processed arrivals as a result.

        Only rows whose arrival was processed are included (a horizon-truncated
        run drops later arrivals entirely, like the per-event engine).  Columns
        are reordered by request id when the ingested ids are not already
        strictly increasing, matching the reference engine's sorted output.
        Every column is copied out of its ``array`` buffer, so the result owns
        its memory and holds no buffer export on the engine's columns.  Each
        engine column is released as soon as it is copied, so the request
        store is never held twice in full (this bounds peak memory).
        """
        n = self._cursor
        ids = np.frombuffer(self._req_id, dtype=np.int64, count=n)
        order: Optional[np.ndarray] = None
        if n and not bool(np.all(ids[1:] > ids[:-1])):
            order = np.argsort(ids, kind="stable")
        del ids  # a live view would keep ``_req_id`` from being released
        if trace_duration is None:
            trace_duration = self._arr[self._n - 1] - self._arr[0] if self._n >= 2 else 0.0

        def take(name: str, dtype=np.int64) -> np.ndarray:
            column = getattr(self, name)
            setattr(self, name, array(column.typecode))
            view = np.frombuffer(column, dtype=dtype, count=n)
            return view.copy() if order is None else view[order]

        arr_col = take("_arr", np.float64)
        arrays = MetricArrays(
            request_id=take("_req_id"),
            arrival_time=arr_col,
            input_length=take("_inlen"),
            output_length=take("_outlen"),
            # The per-event engine sets enqueue_time to the arrival-event time,
            # which is exactly the arrival column: share it.
            enqueue_time=arr_col,
            prefill_start=take("_m_pstart", np.float64),
            first_token_time=take("_m_first", np.float64),
            kv_transfer_done=take("_m_kvdone", np.float64),
            completion_time=take("_m_comp", np.float64),
            finished=take("_m_fin", np.bool_),
            prefill_replica=take("_pre_rep"),
            decode_replica=take("_dec_rep"),
            outcome=take("_m_out"),
            attempts=take("_att"),
        )
        backing: Optional[List[Request]] = None
        if requests is not None:
            backing = list(requests[:n])
            if order is not None:
                backing = [backing[i] for i in order.tolist()]
        return SimulationResult(
            arrays,
            makespan=self._clock,
            trace_duration=trace_duration,
            label=label,
            requests=backing,
            workload_spans=list(self._workload_spans),
            row_order=order,
        )

    # ----------------------------------------------------- prefill (fast engine)
    def _on_prefill_arrival_fast(
        self, replica: _PrefillReplica, row: int, now: float
    ) -> None:
        """Queue an arrival, truncating the replica's in-flight prefill epoch.

        The per-event engine re-forms batches from the live queue at every batch
        boundary, but FIFO order makes almost every planned batch immune to a
        later arrival: the arrival joins the *back* of the queue, so a planned
        batch that is already full keeps exactly its composition.  Only the
        trailing **underfull** batch (greedy chunking leaves at most one) could
        absorb the newcomer when it is eventually formed — so if that batch has
        not started yet, it alone is cancelled and re-queued ahead of the
        arrival; the replan at the last surviving batch boundary re-forms it
        exactly like the per-event engine would.  Batches already running
        complete as planned.
        """
        replica.queue.append(row)
        if not replica.busy:
            self._plan_prefill_epoch(replica, now)
            return
        assert replica.epoch_starts is not None and replica.epoch_offsets is not None
        offsets = replica.epoch_offsets
        last = replica.epoch_cut - 1
        if offsets[last + 1] - offsets[last] >= self.config.max_prefill_batch_requests:
            return  # every pending batch is full; composition cannot change
        # The trailing batch is underfull: cancel it unless it already started.
        # Arrivals run before equal-time batch boundaries (see _run_fast), so a
        # batch starting exactly at ``now`` is formed *after* this request
        # joined the queue in the per-event engine — start >= now means "not
        # started".  The leading batch always survives: the epoch was planned
        # strictly before ``now`` (an arrival at the plan instant would have
        # been processed first).
        if last >= 1 and replica.epoch_starts[last] >= now:
            assert replica.epoch_rows is not None
            cancelled = replica.epoch_rows[offsets[last] : offsets[last + 1]]
            replica.queue.extendleft(cancelled[::-1])
            replica.epoch_cut = last

    def _plan_prefill_epoch(self, replica: _PrefillReplica, now: float) -> None:
        """Start a coalesced prefill epoch at ``now``.

        Drains the replica's queue into greedy FIFO batches (up to
        ``max_prefill_batch_requests`` rows each) and walks them in order:
        each batch is priced by the memoized scalar
        :meth:`~repro.costmodel.latency.ReplicaCostModel.prefill_latency_memo`
        at its longest prompt, its completion time accumulates ``t = t +
        latency`` (the reference engine's per-batch ``now + latency`` chain),
        and every multi-token row's KV arrival is ``done + (alpha + bytes /
        beta)`` over the cached link — the operation order of
        :func:`~repro.costmodel.kv_transfer.kv_transfer_seconds`.  Arrivals are
        grouped per decode replica in first-appearance order (the order the
        per-event engine pushes their heap events) and stably sorted by time,
        so one :class:`_KVBatch` cursor per group drains them in exact heap
        order.  One cheap ``PREFILL_BATCH`` event per batch replays the plan;
        an arrival mid-epoch truncates the not-yet-started tail (see
        :meth:`_on_prefill_arrival_fast`).
        """
        if not replica.queue:
            replica.busy = False
            replica.epoch_rows = None
            replica.epoch_offsets = None
            replica.epoch_cut = 0
            return
        replica.busy = True
        rows = list(replica.queue)
        replica.queue.clear()
        nq = len(rows)
        inlen = self._inlen
        outlen = self._outlen
        dec_rep = self._dec_rep
        cap = self.config.max_prefill_batch_requests
        price = replica.cost.prefill_latency_memo
        kv_bytes = self._kv_bytes_per_token
        prefill_id = replica.group_id
        offsets = list(range(0, nq, cap))
        offsets.append(nq)
        starts: List[float] = []
        dones: List[float] = []
        plan: List[List[Tuple[int, Sequence[int], Sequence[float]]]] = []
        singles: List[List[int]] = []
        t = now
        for lo, hi in zip(offsets, offsets[1:]):
            batch = rows[lo:hi]
            starts.append(t)
            t = t + price(max(map(inlen.__getitem__, batch)), hi - lo)
            dones.append(t)
            groups: Dict[int, List[Tuple[float, int]]] = {}
            single: List[int] = []
            for r in batch:
                if outlen[r] <= 1:
                    single.append(r)
                    continue
                decode_id = dec_rep[r]
                alpha, beta = self._kv_link(prefill_id, decode_id)
                arrival = t + (alpha + (kv_bytes * (inlen[r] + 1)) / beta)
                groups.setdefault(decode_id, []).append((arrival, r))
            per_batch: List[Tuple[int, Sequence[int], Sequence[float]]] = []
            for decode_id, handoffs in groups.items():
                handoffs.sort(key=itemgetter(0))  # stable: ties keep queue order
                arrivals, kv_rows = zip(*handoffs)
                per_batch.append((decode_id, kv_rows, arrivals))
            plan.append(per_batch)
            singles.append(single)
        replica.epoch_rows = rows
        replica.epoch_offsets = offsets
        replica.epoch_starts = starts
        replica.epoch_dones = dones
        replica.epoch_kv = plan
        replica.epoch_single = singles
        replica.epoch_cut = len(dones)
        replica.epoch_seq += 1
        for k, done in enumerate(dones):
            self._push(done, _PREFILL_BATCH, prefill_id, (replica.epoch_seq, k))

    def _kv_link(self, prefill_id: int, decode_id: int) -> Tuple[float, float]:
        """(alpha, beta) of the best link between a prefill and a decode group.

        Groups never share GPUs (:class:`DeploymentPlan` rejects it), so every
        pair has a real link; results are cached per pair.
        """
        key = (prefill_id, decode_id)
        link = self._kv_links.get(key)
        if link is None:
            network = self.cluster.network
            i, j, _bw = network.best_link_between(
                list(self.plan.group(prefill_id).gpu_ids),
                list(self.plan.group(decode_id).gpu_ids),
            )
            link = (network.latency_s(i, j), network.bandwidth_bytes(i, j))
            self._kv_links[key] = link
        return link

    def _on_prefill_batch(self, replica: _PrefillReplica, idx: int, now: float) -> None:
        """Apply one precomputed prefill-batch completion (fast engine).

        Staleness (cancelled batches, superseded epochs, replica death) is
        checked by the main loop before the clock advances.  Under an active
        fault timeline, rows whose decode target is dead at the handoff
        instant are disposed here instead of emitting a doomed KV transfer —
        exactly where the per-event engine makes the same call.
        """
        assert (
            replica.epoch_rows is not None
            and replica.epoch_offsets is not None
            and replica.epoch_starts is not None
        )
        offsets = replica.epoch_offsets
        start = replica.epoch_starts[idx]
        m_pstart = self._m_pstart
        m_first = self._m_first
        for r in replica.epoch_rows[offsets[idx] : offsets[idx + 1]]:
            m_pstart[r] = start
            m_first[r] = now
        # Single-token responses finish at prefill; no KV transfer needed.
        for r in replica.epoch_single[idx]:
            self._m_kvdone[r] = now
            self._m_comp[r] = now
            self._m_fin[r] = True
            self._m_out[r] = _OUT_RETRIED if self._att[r] > 0 else _OUT_FINISHED
        if not self._faults_active:
            for decode_id, kv_rows, times in replica.epoch_kv[idx]:
                holder = _KVBatch(decode_id=decode_id, rows=kv_rows, times=times)
                holder.heap_seq = self._push(times[0], _KV_BATCH, decode_id, holder)
        else:
            dead_rows: List[int] = []
            for decode_id, kv_rows, times in replica.epoch_kv[idx]:
                if decode_id in self._dead_decodes:
                    dead_rows.extend(kv_rows)
                    continue
                target = self.decodes[decode_id]
                for r in kv_rows:
                    target.inflight[r] = True
                holder = _KVBatch(
                    decode_id=decode_id,
                    rows=kv_rows,
                    times=times,
                    incarnation=target.incarnation,
                )
                holder.heap_seq = self._push(times[0], _KV_BATCH, decode_id, holder)
            if dead_rows:
                dead_rows.sort(key=self._req_id.__getitem__)
                for r in dead_rows:
                    self._dispose_fast(r, now)
        if idx == replica.epoch_cut - 1:
            # Last valid batch: pick up whatever queued (or was re-queued by a
            # truncation) while the epoch ran.
            self._plan_prefill_epoch(replica, now)

    def _on_kv_batch(self, holder: _KVBatch, horizon: Optional[float]) -> None:
        """Drain a coalesced KV-arrival cursor in exact per-event order.

        Arrivals are delivered while they remain the earliest pending work;
        whenever another heap entry — or a not-yet-processed trace arrival,
        which the per-event engine would hold as an earlier-seq heap event —
        is due first, the cursor is re-inserted at the next arrival under its
        original sequence number so exact-time ties keep per-event ordering.
        """
        times = holder.times
        rows = holder.rows
        n = len(rows)
        seq = holder.heap_seq
        heap = self._heap
        fault_events = self._fault_events
        while holder.pos < n:
            t = times[holder.pos]
            if (
                # A fault entry is due first: the main loop applies it (it may
                # dispose this very cursor's remaining rows).
                (self._fault_pos < len(fault_events) and fault_events[self._fault_pos].time <= t)
                # Beyond the horizon: the main loop observes (and truncates
                # at) the remainder like the per-event engine.
                or (horizon is not None and t > horizon)
                or (self._cursor < self._n and self._arr[self._cursor] <= t)
                # Sequence numbers are unique, so this tuple comparison is
                # decided by (time, seq) alone.
                or (heap and heap[0] < (t, seq))
            ):
                heappush(heap, (t, seq, _KV_BATCH, holder.decode_id, holder))
                return
            holder.pos += 1
            self._clock = max(self._clock, t)
            self._on_kv_arrived_fast(holder.decode_id, rows[holder.pos - 1], t)

    # ------------------------------------------------------ decode (fast engine)
    def _admit_pending_fast(self, replica: _DecodeReplica) -> int:
        """Admit pending rows while capacity allows; return the admitted count.

        Replays the reference's FIFO ``kv.can_allocate``-guarded loop, pushing
        each newcomer's finish step onto the batch heap and its context onto
        ``ctx_sum``.
        """
        heap = replica.heap
        pending = replica.pending
        max_batch = replica.max_batch
        if not pending or len(heap) >= max_batch:
            return 0
        inlen = self._inlen
        outlen = self._outlen
        kv = replica.kv
        # The prefill already produced the first output token: a row enters
        # with context ``i + 1`` and ``o - 1`` steps to go.
        finish_base = replica.steps_done - 1
        ctx_sum = replica.ctx_sum
        admitted = 0
        while pending and len(heap) < max_batch:
            row = pending[0]
            i = inlen[row]
            o = outlen[row]
            if not kv.can_allocate(i + o):
                break
            pending.popleft()
            kv.allocate(row, i + o)
            ctx_sum += i + 1
            heappush(heap, (finish_base + o, row))
            admitted += 1
        replica.ctx_sum = ctx_sum
        return admitted

    def _plan_epoch(self, replica: _DecodeReplica, now: float, admit: bool = True) -> None:
        """Start a coalesced decode epoch at ``now``.

        The batch composition cannot change before the earliest completion
        (``heap[0][0] - steps_done`` steps away), so the epoch spans that many
        steps, capped at ``epoch_budget``, with a **constant batch** of ``n``.
        The reference prices step ``t`` at mean context
        ``int((ctx_sum + n*t) / n)``, which for integers below 2**53 equals
        ``ctx_sum // n + t``: the epoch's step latencies are the contiguous
        slice ``row[m0 : m0 + k]`` of the batch size's latency row
        (:meth:`~repro.costmodel.latency.ReplicaCostModel.decode_step_row`),
        and ``accumulate`` turns it into boundary times by the reference's
        left-to-right ``now + latency`` chain.  One DECODE_WAKE event stands
        in for the whole jump; a KV arrival mid-epoch truncates it at the
        first boundary after the arrival, and an epoch ending at the budget
        (no completion, no admission) simply replans from unchanged state — a
        pure scheduling horizon, invisible in the metrics.
        """
        if admit:
            self._admit_pending_fast(replica)
        heap = replica.heap
        n = len(heap)
        if n == 0:
            replica.stepping = False
            replica.epoch_times = None
            replica.epoch_len = 0
            replica.epoch_cut = 0
            return
        replica.stepping = True
        k = min(heap[0][0] - replica.steps_done, replica.epoch_budget)
        m0 = replica.ctx_sum // n
        row = replica.cost.decode_step_row(n, m0 + k)
        times = list(accumulate(row[m0 : m0 + k], initial=now))
        del times[0]
        replica.epoch_times = times
        replica.epoch_len = k
        replica.epoch_cut = k
        replica.epoch_seq += 1
        self._push(times[-1], _DECODE_WAKE, replica.group_id, replica.epoch_seq)

    def _on_decode_wake(self, replica: _DecodeReplica, now: float) -> None:
        """Apply an epoch's steps at its wake and extend or replan.

        A full-length wake (no truncation) replans from the completion
        boundary, doubling the budget when the epoch consumed it whole.  A
        truncated wake admits the arrival that caused the truncation; when
        nothing could be admitted (capacity), the **surviving suffix** of the
        old plan is reinstated as the next epoch without re-pricing — the
        remaining boundary times are a pure function of batch state the
        truncation did not change.
        """
        applied = replica.epoch_cut
        planned = replica.epoch_len
        completed = self._apply_steps(replica, applied)
        if applied < planned:
            # Interrupted by a KV arrival: shrink the budget toward the
            # observed interruption distance.
            replica.epoch_budget = max(_MIN_EPOCH_BUDGET, 2 * applied)
            if completed == 0:
                admitted = self._admit_pending_fast(replica)
                if admitted == 0 and replica.heap:
                    assert replica.epoch_times is not None
                    times = replica.epoch_times[applied:planned]
                    replica.epoch_times = times
                    replica.epoch_len = len(times)
                    replica.epoch_cut = len(times)
                    replica.epoch_seq += 1
                    self._push(times[-1], _DECODE_WAKE, replica.group_id, replica.epoch_seq)
                    return
                self._plan_epoch(replica, now, admit=False)
                return
            self._plan_epoch(replica, now)
            return
        if planned == replica.epoch_budget:
            # The epoch ran its whole budget undisturbed: coalesce harder.
            replica.epoch_budget = min(_MAX_EPOCH_BUDGET, 2 * replica.epoch_budget)
        self._plan_epoch(replica, now)

    def _apply_steps(self, replica: _DecodeReplica, steps: int) -> int:
        """Advance the batch by ``steps`` tokens; return the completion count.

        Epochs never extend past the earliest completion, so every finisher
        sits at the heap top with finish step ``steps_done`` exactly and
        completes at the final applied boundary ``epoch_times[steps - 1]``;
        each takes its final context ``in_len + out_len`` out of ``ctx_sum``.
        """
        if steps <= 0:
            return 0
        heap = replica.heap
        replica.ctx_sum += len(heap) * steps
        replica.steps_done += steps
        now_step = replica.steps_done
        if heap[0][0] > now_step:
            return 0
        assert replica.epoch_times is not None
        done = replica.epoch_times[steps - 1]
        inlen = self._inlen
        outlen = self._outlen
        att = self._att
        kv = replica.kv
        ctx_sum = replica.ctx_sum
        finished = 0
        while heap and heap[0][0] == now_step:
            row = heappop(heap)[1]
            ctx_sum -= inlen[row] + outlen[row]
            self._m_comp[row] = done
            self._m_fin[row] = True
            self._m_out[row] = _OUT_RETRIED if att[row] > 0 else _OUT_FINISHED
            kv.free(row)
            finished += 1
        replica.ctx_sum = ctx_sum
        return finished

    def _on_kv_arrived_fast(self, replica_id: int, row: int, now: float) -> None:
        """Record a KV arrival and truncate the replica's epoch if admissible."""
        self._m_kvdone[row] = now
        replica = self.decodes[replica_id]
        if self._faults_active:
            replica.inflight.pop(row, None)
        head_was_blocked = bool(replica.pending)
        replica.pending.append(row)
        if not replica.stepping:
            self._plan_epoch(replica, now)
            return
        if head_was_blocked:
            # A FIFO head already waiting means admission is blocked on capacity
            # that only a completion can free — the epoch end already covers it.
            return
        times = replica.epoch_times
        assert times is not None
        # First step boundary at or after the arrival: that is where the
        # reference engine's per-step admission would pick the request up.
        idx = bisect_left(times, now, 0, replica.epoch_cut)
        steps = idx + 1
        if steps < replica.epoch_cut:
            replica.epoch_cut = steps
            replica.epoch_seq += 1
            self._push(times[idx], _DECODE_WAKE, replica.group_id, replica.epoch_seq)

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

        Deaths first: every dead replica is wiped (queues, epoch state, KV
        cache, in-flight transfers toward it) and its victims — collected
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
            if replica.busy and replica.epoch_rows is not None:
                # Batches whose completion fired strictly before ``t`` already
                # delivered; everything later (ties included — fault entries
                # win) is lost with the replica.
                cut = replica.epoch_cut
                assert replica.epoch_dones is not None and replica.epoch_offsets is not None
                fired = bisect_left(replica.epoch_dones, t, 0, cut)
                offsets = replica.epoch_offsets
                victims.extend(replica.epoch_rows[offsets[fired] : offsets[cut]])
            replica.queue.clear()
            replica.busy = False
            replica.epoch_rows = None
            replica.epoch_offsets = None
            replica.epoch_starts = None
            replica.epoch_dones = None
            replica.epoch_kv = []
            replica.epoch_single = []
            replica.epoch_cut = 0
            replica.epoch_seq += 1
        for gid in entry.dead_decode:
            if gid in self._dead_decodes:
                continue
            self._dead_decodes.add(gid)
            replica = self.decodes[gid]
            if replica.stepping and replica.epoch_times is not None:
                # Steps that fired strictly before ``t`` (ties lose — fault
                # entries win) delivered their tokens; the reference engine
                # advanced its clock through each of them, so replay the last
                # fired boundary here to keep makespans bitwise-identical.
                times = replica.epoch_times
                fired = bisect_left(times, t, 0, replica.epoch_cut)
                if fired > 0:
                    self._clock = max(self._clock, times[fired - 1])
            victims.extend(row for _, row in replica.heap)
            victims.extend(replica.pending)
            victims.extend(replica.inflight.keys())
            replica.heap = []
            replica.steps_done = 0
            replica.ctx_sum = 0
            replica.pending.clear()
            replica.inflight.clear()
            replica.kv.reset()
            replica.stepping = False
            replica.epoch_times = None
            replica.epoch_len = 0
            replica.epoch_cut = 0
            replica.epoch_seq += 1
            replica.epoch_budget = _MIN_EPOCH_BUDGET
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
        victims.sort(key=self._req_id.__getitem__)
        for row in victims:
            self._dispose_fast(row, t)

    def _flush_epochs(self, horizon: float) -> None:
        """Complete in-flight epoch steps up to ``horizon`` after a truncated run.

        The reference engine processes every per-step event with time <= horizon
        before stopping; coalesced epochs must replay the same boundaries so
        horizon-bounded runs record identical completions.
        """
        for replica in self.decodes.values():
            if not replica.stepping or replica.epoch_times is None:
                continue
            times = replica.epoch_times
            steps = bisect_right(times, horizon, 0, replica.epoch_cut)
            if steps > 0:
                self._apply_steps(replica, steps)
                self._clock = max(self._clock, times[steps - 1])

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
                batch_size=1,
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

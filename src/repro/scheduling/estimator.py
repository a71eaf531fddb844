"""Analytic SLO-attainment estimator used inside the scheduler.

The paper adopts DistServe's inference-task simulator to estimate the SLO
attainment of every (prefill replica, decode replica) pair, extended with the
alpha-beta KV-communication term of Equation 1.  Running a full discrete-event
simulation for every tabu-search candidate would be prohibitively slow, so — like
the paper — the scheduler uses this fast analytic estimator, and the evaluation
experiments validate it against the discrete-event simulator (Figure 19).

The estimator evaluates a small deterministic grid of request shapes (quantiles of
the workload's prompt- and response-length distributions, through :func:`ndtri`,
an in-tree port of cephes' normal inverse CDF that returns scipy's bits without
importing ``scipy.special``) and, for each
(prefill i, decode j) pair, computes TTFT, KV-transfer time, TPOT and E2E latency
of every grid point.  The fraction of grid probability mass meeting the SLO
deadline is the pair's estimated attainment ``D_ij``.

Prefill queueing uses a two-moment M/G/1 (Pollaczek–Khinchine) correction: the
service-time mean and squared coefficient of variation are computed from the
workload grid through the cost model's memoized prefill latency grids
(:meth:`ReplicaCostModel.prefill_service_moments`), so a long-context RAG mix
queues harder than a near-deterministic chat mix at the same utilisation.  The
model is deliberately honest about saturation: at ``rho >= 1`` the queue wait
is driven to :data:`OVERLOAD_QUEUE_WAIT_S` (divergent, capped far beyond any
horizon) and the pair's attainment is exactly zero — an overloaded replica is
infeasible, not "95%-utilised".  The Figure-19 agreement harness and the gated
``bench_estimator_saturation`` benchmark pin the estimator against the
discrete-event simulator across a utilisation ramp up to rho ~ 0.95.

The grid evaluation is fully vectorized: each replica's *distinct* grid lengths
are priced once, in one call to the roofline cost model's array path (the
per-replica latency vectors, expanded to the grid, are cached across calls,
keyed by the replica's structural identity), and the (m, n, grid) latency
tensor is assembled and thresholded with numpy.  The
pre-vectorization scalar implementation is retained as
:meth:`SLOEstimator.attainment_matrix_reference` — it is the ground truth the
property tests and the ``bench_scenario_sweep`` micro-benchmark compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import Phase, SLOSpec, SLOType
from repro.costmodel.kv_transfer import kv_link, kv_transfer_seconds
from repro.costmodel.latency import (
    CostModelParams,
    DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    DEFAULT_PARAMS,
    ReplicaCostModel,
)
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.model.memory import kv_cache_bytes_per_token
from repro.scheduling.deployment import ServingGroup
from repro.workload.spec import WorkloadSpec


#: Queue wait assigned to an overloaded (``rho >= 1``) prefill replica: the
#: M/G/1 wait diverges at saturation, so instead of a silently clamped finite
#: value the estimator reports a wait far beyond any plausible SLO deadline or
#: simulation horizon, which drives the pair's attainment to exactly zero.
OVERLOAD_QUEUE_WAIT_S = 1.0e9

#: Capacity headroom: replicas are planned to run at most at this utilisation,
#: so that queueing delays stay bounded.
TARGET_UTILIZATION = 0.85

#: Quantiles per length dimension of the evaluation grid (``7 x 7`` points).
NUM_QUANTILES = 7

# Rational approximations of cephes ``ndtri`` (Moshier), as scipy.special
# evaluates them: P0/Q0 on the centre |y - 0.5| <= 1/2 - exp(-2), P1/Q1 on the
# tail z = sqrt(-2 log y) in [2, 8), P2/Q2 on z >= 8.  The leading 1 of each Q
# is implicit (``_p1evl``).
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189


def _polevl(x: float, coef: Tuple[float, ...]) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef: Tuple[float, ...]) -> float:
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """Standard normal inverse CDF, bitwise what ``scipy.special.ndtri`` returns.

    A scalar port of cephes ``ndtri``: the same coefficients, Horner order and
    libm ``log``/``sqrt``, so every result carries the same bits (and so
    equals ``scipy.stats.norm.ppf`` at loc 0, scale 1).  ``ndtri(0)`` is
    ``-inf``, ``ndtri(1)`` is ``inf`` and q outside [0, 1] gives NaN.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    return x0 - x1 if upper else -(x0 - x1)


#: Structural identity of a serving group: the GPU set, the phase and the parallel
#: plan's stage layout.  Two groups with the same key have identical cost models
#: regardless of their ``group_id``, so cached performance figures can be shared
#: across tabu-search candidates that reuse the same group.
PerfKey = Tuple[Tuple[int, ...], Phase, Tuple[Tuple[Tuple[int, ...], int, int], ...]]


def _perf_key(group: ServingGroup) -> PerfKey:
    if group.plan is None:
        raise ValueError(f"group {group.group_id} has no parallel plan")
    plan_sig = tuple(
        (tuple(stage.gpu_ids), stage.num_layers, stage.tp) for stage in group.plan.stages
    )
    return (tuple(sorted(group.gpu_ids)), group.phase, plan_sig)


@dataclass
class ReplicaPerformance:
    """Cached analytic performance figures of one serving group.

    Attributes
    ----------
    group:
        The serving group (GPUs + phase + parallel plan).
    cost:
        The replica's roofline cost model.
    prefill_service_s:
        Workload-weighted mean per-request prefill service time under the
        engine's *padded* prefill batching: a coalesced batch is priced at its
        longest prompt, so a saturated replica's per-request service time is
        the batched latency at the max-of-``B`` prompt length, amortised over
        the batch (see :meth:`ReplicaCostModel.prefill_service_moments`).
        Equal to the grid-weighted solo latency when ``prefill_batch_requests``
        is 1.  This is the service time the M/G/1 queueing term and the
        capacity figures are built from — it is what bounds a replica's real
        sustainable throughput, not the solo rate.
    prefill_service_cv2:
        Squared coefficient of variation of that service time across the
        workload grid (``E[S^2]/E[S]^2 - 1``) — the second moment the
        Pollaczek–Khinchine queueing correction needs.  Zero for a
        deterministic prompt-length mix; grows with prompt-length spread.
    prefill_capacity_rps:
        Sustainable prefill requests/s at the target utilisation.
    decode_max_batch:
        Largest KV-feasible decode batch at the workload's mean context length.
    decode_token_capacity:
        Sustainable generated tokens/s at the target utilisation (max batch).
    """

    group: ServingGroup
    cost: ReplicaCostModel
    prefill_service_s: float
    prefill_service_cv2: float
    prefill_capacity_rps: float
    decode_max_batch: int
    decode_token_capacity: float

    def decode_operating_batch(self, token_rate: float, context_length: int) -> int:
        """Smallest batch size able to sustain ``token_rate`` generated tokens/s.

        Found by a binary search over batch sizes (decode throughput is
        monotone in the batch size for a memory-bound replica), reading the
        step latencies from the cost model's memoized column at
        ``context_length`` (:meth:`ReplicaCostModel.decode_step_column`, bitwise
        equal to scalar ``decode_step_latency`` calls).  Returns the max batch
        when even it cannot keep up, and 0 when the replica is KV-infeasible
        (``decode_max_batch == 0``) — no batch at all fits, so callers must
        treat the replica as unable to serve rather than silently running it
        at batch 1.
        """
        if self.decode_max_batch < 1:
            return 0
        if token_rate <= 0:
            return 1
        lo, hi = 1, max(1, self.decode_max_batch)
        latency = self.cost.decode_step_column(context_length, hi)
        best = hi
        while lo <= hi:
            mid = (lo + hi) // 2
            throughput = mid / latency[mid - 1]
            if throughput >= token_rate:
                best = mid
                hi = mid - 1
            else:
                lo = mid + 1
        return best


class SLOEstimator:
    """Analytic estimator of per-pair and system-level SLO attainment.

    Parameters
    ----------
    cluster, model, workload:
        The serving context.
    slo:
        Absolute SLO deadlines.
    request_rate:
        Mean arrival rate (requests/s) the deployment must sustain.
    kv_transport_bits:
        KV-cache transport precision (4 with compression, 16 without).
    prefill_batch_requests:
        Prefill batching the serving engine applies (the simulator's
        ``max_prefill_batch_requests``); the queueing and capacity terms use
        the effective per-request service time at this batch size.
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        slo: SLOSpec,
        request_rate: float,
        kv_transport_bits: int = 4,
        params: CostModelParams = DEFAULT_PARAMS,
        prefill_batch_requests: int = DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    ) -> None:
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if prefill_batch_requests < 1:
            raise ValueError("prefill_batch_requests must be >= 1")
        self.cluster = cluster
        self.model = model
        self.workload = workload
        self.slo = slo
        self.request_rate = request_rate
        self.kv_transport_bits = kv_transport_bits
        self.params = params
        self.prefill_batch_requests = prefill_batch_requests
        self.mean_input = max(1, int(round(workload.mean_input_length)))
        self.mean_output = max(1, int(round(workload.mean_output_length)))
        self._grid = self._build_grid()
        self._init_grid_arrays()
        # Caches keyed by a replica's structural identity (PerfKey).  The tabu
        # search revisits the same serving groups in many candidate solutions, so
        # the expensive cost-model evaluations are shared across iterations.
        # The grid caches hold per-grid-point vectors, already expanded from the
        # distinct lengths, so attainment_matrix only copies them in.
        self._perf_cache: Dict[PerfKey, ReplicaPerformance] = {}
        self._prefill_grid_cache: Dict[PerfKey, np.ndarray] = {}
        self._decode_grid_cache: Dict[Tuple[PerfKey, int], np.ndarray] = {}
        self._kv_grid_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], np.ndarray] = {}

    # ------------------------------------------------------------------ grid
    def _build_grid(self) -> List[Tuple[float, int, int]]:
        """Deterministic (weight, input_len, output_len) grid from length quantiles."""
        qs = np.linspace(0.08, 0.92, NUM_QUANTILES)
        # Inverse-CDF of the (log-normal) length distributions at the quantiles:
        # ``ndtri`` is the standard normal's inverse CDF, bitwise what
        # ``scipy.stats.norm.ppf`` returns at loc 0 and scale 1.
        def lognormal_q(median: float, sigma: float, q: np.ndarray) -> np.ndarray:
            if sigma == 0:
                return np.full_like(q, median, dtype=float)
            return median * np.exp(sigma * np.array([ndtri(v) for v in q.tolist()]))

        inputs = np.clip(
            lognormal_q(self.workload.median_input_length, self.workload.input_sigma, qs),
            self.workload.min_input_length, self.workload.max_input_length,
        )
        outputs = np.clip(
            lognormal_q(self.workload.median_output_length, self.workload.output_sigma, qs),
            self.workload.min_output_length, self.workload.max_output_length,
        )
        weight = 1.0 / (NUM_QUANTILES * NUM_QUANTILES)
        grid = []
        for s_in in inputs:
            for s_out in outputs:
                grid.append((weight, int(round(s_in)), int(round(s_out))))
        return grid

    def _init_grid_arrays(self) -> None:
        """Precompute the vectorized views of the evaluation grid."""
        self._weights = np.array([w for w, _, _ in self._grid])
        self._weight_sum = float(np.sum(self._weights))
        self._s_ins = np.array([s for _, s, _ in self._grid], dtype=np.int64)
        self._s_outs = np.array([o for _, _, o in self._grid], dtype=np.int64)
        # Grid latencies only depend on the *distinct* lengths: map every grid
        # point to its index in the distinct-value vectors so per-replica latency
        # vectors are computed once per distinct value and gathered with fancy
        # indexing.
        self._distinct_inputs = sorted(set(int(s) for s in self._s_ins))
        input_pos = {s: k for k, s in enumerate(self._distinct_inputs)}
        self._input_idx = np.array([input_pos[int(s)] for s in self._s_ins])
        #: probability mass of each distinct prompt length (feeds the M/G/1
        #: service-time moments of every prefill replica)
        self._distinct_input_weights = np.bincount(
            self._input_idx, weights=self._weights, minlength=len(self._distinct_inputs)
        )
        ctxs = [int(s + o // 2) for s, o in zip(self._s_ins, self._s_outs)]
        self._distinct_ctxs = sorted(set(ctxs))
        ctx_pos = {c: k for k, c in enumerate(self._distinct_ctxs)}
        self._ctx_idx = np.array([ctx_pos[c] for c in ctxs])
        self._out_factor = np.maximum(0, self._s_outs - 1)
        #: KV-cache bytes shipped per prompt token at the transport precision.
        self._kv_bytes_per_token = kv_cache_bytes_per_token(
            self.model, bits=self.kv_transport_bits
        )
        #: transfer volume per distinct prompt length
        self._kv_volume = self._kv_bytes_per_token * np.array(
            self._distinct_inputs, dtype=float
        )

    # ------------------------------------------------------------------ replicas
    def replica_performance(self, group: ServingGroup) -> ReplicaPerformance:
        """Build (or fetch) the cached performance view of one serving group.

        Memoised on the group's structural identity (GPU set, phase, stage
        layout) — ``group_id`` is free to differ between candidate solutions, so
        the cached figures are re-wrapped around the requesting group.
        """
        if group.plan is None:
            raise ValueError(f"group {group.group_id} has no parallel plan")
        key = _perf_key(group)
        cached = self._perf_cache.get(key)
        if cached is not None:
            if cached.group is group:
                return cached
            return ReplicaPerformance(
                group=group,
                cost=cached.cost,
                prefill_service_s=cached.prefill_service_s,
                prefill_service_cv2=cached.prefill_service_cv2,
                prefill_capacity_rps=cached.prefill_capacity_rps,
                decode_max_batch=cached.decode_max_batch,
                decode_token_capacity=cached.decode_token_capacity,
            )
        cost = ReplicaCostModel(self.cluster, group.plan, self.model, self.params)
        # Effective per-request service time under the engine's prefill
        # batching: a loaded replica drains its queue in coalesced batches, so
        # its throughput is the batched latency amortised over the batch.  At
        # batch 1 this is exactly the solo prefill latency.  The first and
        # second moments are taken across the workload grid's prompt lengths so
        # the M/G/1 queueing term sees the mix's real service-time variability,
        # not just its mean-prompt point value.
        batch = self.prefill_batch_requests
        m1, m2 = cost.prefill_service_moments(
            self._distinct_inputs, self._distinct_input_weights, batch_size=batch
        )
        prefill_service = m1
        prefill_cv2 = max(0.0, m2 / (m1 * m1) - 1.0) if m1 > 0 else 0.0
        prefill_capacity = TARGET_UTILIZATION / prefill_service
        context = self.mean_input + self.mean_output
        max_batch = cost.max_decode_batch(context)
        token_capacity = (
            TARGET_UTILIZATION * cost.decode_throughput(context, max_batch)
            if max_batch > 0
            else 0.0
        )
        perf = ReplicaPerformance(
            group=group,
            cost=cost,
            prefill_service_s=prefill_service,
            prefill_service_cv2=prefill_cv2,
            prefill_capacity_rps=prefill_capacity,
            decode_max_batch=max_batch,
            decode_token_capacity=token_capacity,
        )
        self._perf_cache[key] = perf
        return perf

    # ------------------------------------------------------------------ cached grids
    def _prefill_grid(self, perf: ReplicaPerformance) -> np.ndarray:
        """Prefill latency per grid point (no queueing term), cached per replica.

        Priced once per distinct prompt length through the cost model's array
        path, which is bitwise equal to the scalar :meth:`prefill_latency`.
        """
        key = _perf_key(perf.group)
        grid = self._prefill_grid_cache.get(key)
        if grid is None:
            inputs = self._distinct_inputs
            per_distinct = perf.cost.prefill_latency_grid(inputs, np.ones(len(inputs), np.int64))
            grid = self._prefill_grid_cache[key] = per_distinct[self._input_idx]
        return grid

    def _decode_grid(self, perf: ReplicaPerformance, batch: int) -> np.ndarray:
        """Decode step latency per grid point at ``batch``, cached per replica.

        Priced once per distinct context through the cost model's array path,
        which is bitwise equal to the scalar :meth:`decode_step_latency`.
        """
        key = (_perf_key(perf.group), int(batch))
        grid = self._decode_grid_cache.get(key)
        if grid is None:
            ctxs = self._distinct_ctxs
            per_distinct = perf.cost.decode_step_latency_array(
                np.full(len(ctxs), int(batch), np.int64), ctxs
            )
            grid = self._decode_grid_cache[key] = per_distinct[self._ctx_idx]
        return grid

    def _kv_grid(self, prefill: ReplicaPerformance, decode: ReplicaPerformance) -> np.ndarray:
        """KV transfer time per grid point for one (prefill, decode) pair.

        Uses the best link between the two replicas' GPU sets (zero when they
        share a GPU), cached per pair of GPU sets.
        """
        src, dst = prefill.group.gpu_ids, decode.group.gpu_ids
        key = (tuple(src), tuple(dst))
        grid = self._kv_grid_cache.get(key)
        if grid is None:
            link = kv_link(self.cluster.network, src, dst)
            if link is None:
                grid = np.zeros(len(self._grid))
            else:
                # kv_transfer_seconds' alpha + bytes / beta, over every
                # distinct prompt length in one array expression
                alpha, beta = link
                grid = (alpha + self._kv_volume / beta)[self._input_idx]
            self._kv_grid_cache[key] = grid
        return grid

    def _queue_wait(self, prefill: ReplicaPerformance, utilization: float) -> float:
        """Congestion delay (queueing + batch co-service) of one prefill replica.

        The first term is the M/G/1 (Pollaczek–Khinchine) wait
        ``W_q = rho / (1 - rho) * (1 + CV^2) / 2 * E[S]`` with the service-time
        mean and squared coefficient of variation taken across the workload
        grid.  ``prefill_service_s`` is the *batching-effective* per-request
        service time — the padded batch latency amortised over the batch — so
        the wait already accounts for the engine coalescing queued prompts into
        multi-request batches.

        The second term models batch co-service: the engine's FIFO batching
        releases a request's first token only when its whole batch completes,
        so under load a request additionally waits for its batch-mates.  The
        expected batch fill follows from Little's law — a batch picks up
        roughly the ``lambda * W_q`` requests that queued while the previous
        batch ran, capped at the engine's batch limit — and each extra
        batch-mate adds one amortised service time.

        The utilisation is NOT clamped: as ``rho`` approaches 1 the wait
        diverges, and at ``rho >= 1`` (an overloaded replica) it is pinned to
        :data:`OVERLOAD_QUEUE_WAIT_S` so attainment collapses to zero instead
        of flattering an infeasible operating point.
        """
        rho = max(utilization, 0.0)
        if rho >= 1.0:
            return OVERLOAD_QUEUE_WAIT_S
        wait = (
            rho / (1.0 - rho)
            * (1.0 + prefill.prefill_service_cv2) / 2.0
            * prefill.prefill_service_s
        )
        if prefill.prefill_service_s > 0.0:
            fill = min(
                float(self.prefill_batch_requests),
                1.0 + rho / prefill.prefill_service_s * wait,
            )
            wait += (fill - 1.0) * prefill.prefill_service_s
        return min(wait, OVERLOAD_QUEUE_WAIT_S)

    @staticmethod
    def _wait_hit_prob(slack: np.ndarray, wait: float, rho: float) -> np.ndarray:
        """P[congestion wait <= slack] per grid point.

        Thresholding a deterministic wait would make estimated attainment a
        knife-edge step function of utilisation, which the simulator does not
        exhibit.  Instead the congestion delay is modelled with the classic
        two-parameter M/G/1 approximation (exact for M/M/1): an arriving
        request waits only with probability ``rho`` (PASTA — the server is
        busy), and the conditional wait is exponential with mean ``W / rho`` so
        the unconditional mean stays ``W``:

        ``P[wait > t] = rho * exp(-rho * t / W)``.

        At ``W == 0`` this degenerates to the sharp indicator ``slack >= 0``;
        negative slack (deadline unmeetable even with an empty queue) is always
        a miss.
        """
        hit = (slack >= 0.0).astype(np.float64)
        if wait > 0.0 and rho > 0.0:
            hit = hit * (
                (1.0 - rho) - rho * np.expm1(-rho * np.maximum(slack, 0.0) / wait)
            )
        return hit

    def operating_points(
        self,
        prefills: Sequence[ReplicaPerformance],
        decodes: Sequence[ReplicaPerformance],
        prefill_shares: Sequence[float],
        decode_shares: Sequence[float],
    ) -> Tuple[List[float], List[int]]:
        """Per-replica prefill utilisation and decode operating batch at routed shares.

        ``prefill_shares[i]`` and ``decode_shares[j]`` are the fractions of the
        offered request rate that reach prefill replica ``i`` and decode
        replica ``j``.  A replica's utilisation is ``share * rate * service``,
        passed through *unclamped*: a routing that overloads a prefill replica
        yields ``rho >= 1``, which :meth:`attainment_matrix` turns into zero
        attainment for its row.  A decode replica runs at the smallest batch
        that sustains ``share * rate * mean_output`` tokens/s at the mean
        context; a KV-infeasible one reports batch 0, which zeroes its column.
        """
        rate = self.request_rate
        context = self.mean_input + self.mean_output
        utilizations = [
            share * rate * perf.prefill_service_s for share, perf in zip(prefill_shares, prefills)
        ]
        batches = [
            perf.decode_operating_batch(share * rate * self.mean_output, context)
            for share, perf in zip(decode_shares, decodes)
        ]
        return utilizations, batches

    def attainment_matrix(
        self,
        prefills: Sequence[ReplicaPerformance],
        decodes: Sequence[ReplicaPerformance],
        prefill_utilizations: Optional[Sequence[float]] = None,
        decode_batches: Optional[Sequence[int]] = None,
        slo_type: SLOType = SLOType.E2E,
    ) -> np.ndarray:
        """Estimated attainment ``D_ij`` for every (prefill, decode) pair.

        The whole (m, n, grid) latency tensor is assembled with numpy from cached
        per-replica latency vectors: the cost model is invoked only for grid
        lengths not already cached for a replica, and the SLO thresholding is a
        single vectorized comparison.

        Saturation semantics: a prefill replica at ``rho >= 1`` (its M/G/1 wait
        has diverged) zeroes its whole row, and a KV-infeasible decode replica
        (``decode_max_batch == 0`` or an operating batch of 0) zeroes its whole
        column — for *every* SLO type, since a pair that cannot serve attains
        nothing regardless of which latency the SLO measures.
        """
        m, n = len(prefills), len(decodes)
        d = np.zeros((m, n))
        if m == 0 or n == 0:
            return d
        w = self._weights
        total_w = self._weight_sum

        # Per-prefill congestion wait and base (no-queue) TTFT per grid point.
        ttft = np.empty((m, len(self._grid)))
        waits = np.empty(m)
        rhos = np.empty(m)
        overloaded = np.zeros(m, dtype=bool)
        for i, p in enumerate(prefills):
            rho = prefill_utilizations[i] if prefill_utilizations is not None else 0.5
            overloaded[i] = rho >= 1.0
            waits[i] = self._queue_wait(p, rho)
            rhos[i] = min(max(rho, 0.0), 1.0)
            ttft[i] = self._prefill_grid(p)

        # KV-infeasible decode replicas (no batch fits) cannot serve at all.
        infeasible = np.zeros(n, dtype=bool)
        batches = np.empty(n, dtype=np.int64)
        for j, q in enumerate(decodes):
            batch = decode_batches[j] if decode_batches is not None else None
            if batch is None:
                batch = min(q.decode_max_batch, 8)
            batches[j] = int(batch)
            infeasible[j] = q.decode_max_batch < 1 or int(batch) < 1

        if slo_type is SLOType.TTFT:
            att = np.empty(m)
            for i in range(m):
                hit = self._wait_hit_prob(self.slo.ttft - ttft[i], waits[i], rhos[i])
                att[i] = (w * hit).sum() / total_w
            att[overloaded] = 0.0
            d = np.repeat(att[:, None], n, axis=1)
            d[:, infeasible] = 0.0
            return d

        # Per-decode TPOT per grid point (step latency at the operating batch).
        tpot = np.empty((n, len(self._grid)))
        for j, q in enumerate(decodes):
            if infeasible[j]:
                tpot[j] = OVERLOAD_QUEUE_WAIT_S
            else:
                tpot[j] = self._decode_grid(q, int(batches[j]))

        if slo_type is SLOType.TPOT:
            att = (w * (tpot <= self.slo.tpot)).sum(axis=1) / total_w
            att[infeasible] = 0.0
            d = np.repeat(att[None, :], m, axis=0)
            d[overloaded, :] = 0.0
            return d

        # Per-pair KV transfer time (depends on s_in and the pair's best link).
        kv = np.empty((m, n, len(self._grid)))
        for i, p in enumerate(prefills):
            for j, q in enumerate(decodes):
                kv[i, j] = self._kv_grid(p, q)
        e2e = ttft[:, None, :] + kv + (tpot * self._out_factor)[None, :, :]
        for i in range(m):
            hit = self._wait_hit_prob(self.slo.e2e - e2e[i], waits[i], rhos[i])
            d[i] = (w * hit).sum(axis=1) / total_w
        d[overloaded, :] = 0.0
        d[:, infeasible] = 0.0
        return d

    def attainment_matrix_reference(
        self,
        prefills: Sequence[ReplicaPerformance],
        decodes: Sequence[ReplicaPerformance],
        prefill_utilizations: Optional[Sequence[float]] = None,
        decode_batches: Optional[Sequence[int]] = None,
        slo_type: SLOType = SLOType.E2E,
    ) -> np.ndarray:
        """Scalar reference implementation of :meth:`attainment_matrix`.

        Kept as the ground truth for the vectorized fast path: the property
        tests assert agreement to 1e-9 — including the M/G/1 queueing term, the
        ``rho >= 1`` overload collapse and the KV-infeasible decode handling —
        and ``bench_scenario_sweep`` measures the speedup against it.  It
        deliberately bypasses the estimator's per-replica caches, invoking the
        cost model per distinct grid length on every call like the original
        code did.
        """
        m, n = len(prefills), len(decodes)
        d = np.zeros((m, n))
        if m == 0 or n == 0:
            return d
        weights = np.array([w for w, _, _ in self._grid])
        s_ins = np.array([s for _, s, _ in self._grid])
        s_outs = np.array([o for _, _, o in self._grid])
        distinct_inputs = sorted(set(int(s) for s in s_ins))

        ttft = np.zeros((m, len(self._grid)))
        waits = [0.0] * m
        rhos = [0.0] * m
        overloaded = [False] * m
        for i, p in enumerate(prefills):
            rho = prefill_utilizations[i] if prefill_utilizations is not None else 0.5
            rho = max(rho, 0.0)
            if rho >= 1.0:
                # The M/G/1 wait diverges at saturation: an overloaded replica
                # gets a horizon-dwarfing wait and exactly zero attainment.
                overloaded[i] = True
                queue_wait = OVERLOAD_QUEUE_WAIT_S
            else:
                # P-K wait plus the Little's-law batch co-service term, with
                # float operations in the exact order of ``_queue_wait``.
                queue_wait = (
                    rho / (1.0 - rho)
                    * (1.0 + p.prefill_service_cv2) / 2.0
                    * p.prefill_service_s
                )
                if p.prefill_service_s > 0.0:
                    fill = min(
                        float(self.prefill_batch_requests),
                        1.0 + rho / p.prefill_service_s * queue_wait,
                    )
                    queue_wait += (fill - 1.0) * p.prefill_service_s
                queue_wait = min(queue_wait, OVERLOAD_QUEUE_WAIT_S)
            waits[i] = queue_wait
            rhos[i] = min(max(rho, 0.0), 1.0)
            per_input = {
                s: p.cost.prefill_latency(s, batch_size=1) for s in distinct_inputs
            }
            ttft[i] = [per_input[int(s)] for s in s_ins]

        tpot = np.zeros((n, len(self._grid)))
        infeasible = [False] * n
        for j, q in enumerate(decodes):
            batch = decode_batches[j] if decode_batches is not None else None
            if batch is None:
                batch = min(q.decode_max_batch, 8)
            batch = int(batch)
            if q.decode_max_batch < 1 or batch < 1:
                # KV-infeasible decode replica: no batch fits, nothing is served.
                infeasible[j] = True
                tpot[j] = OVERLOAD_QUEUE_WAIT_S
                continue
            cache: Dict[int, float] = {}
            vals = []
            for s_in, s_out in zip(s_ins, s_outs):
                ctx = int(s_in + s_out // 2)
                if ctx not in cache:
                    cache[ctx] = q.cost.decode_step_latency(batch, ctx)
                vals.append(cache[ctx])
            tpot[j] = vals

        for i, p in enumerate(prefills):
            kv_per_input = {}
            for j, q in enumerate(decodes):
                for s in distinct_inputs:
                    kv_per_input[(j, s)] = kv_transfer_seconds(
                        self.cluster.network,
                        p.group.gpu_ids,
                        q.group.gpu_ids,
                        self.model,
                        num_tokens=s,
                        bits=self.kv_transport_bits,
                    )
            for j in range(n):
                if overloaded[i] or infeasible[j]:
                    d[i, j] = 0.0
                    continue
                kv = np.array([kv_per_input[(j, int(s))] for s in s_ins])
                e2e = ttft[i] + kv + tpot[j] * np.maximum(0, s_outs - 1)
                if slo_type is SLOType.E2E:
                    hit = self._wait_hit_prob(self.slo.e2e - e2e, waits[i], rhos[i])
                elif slo_type is SLOType.TTFT:
                    hit = self._wait_hit_prob(self.slo.ttft - ttft[i], waits[i], rhos[i])
                else:
                    hit = tpot[j] <= self.slo.tpot
                d[i, j] = float(np.sum(weights * hit) / np.sum(weights))
        return d

    # ------------------------------------------------------------------ demand
    @property
    def token_demand(self) -> float:
        """System-wide generated-token demand (tokens/s)."""
        return self.request_rate * self.mean_output

    def prefill_capacity_fraction(self, perf: ReplicaPerformance) -> float:
        """Fraction of the total request rate one prefill replica can absorb."""
        return min(1.0, perf.prefill_capacity_rps / self.request_rate)

    def decode_capacity_fraction(self, perf: ReplicaPerformance) -> float:
        """Fraction of the total request rate one decode replica can absorb."""
        if self.token_demand <= 0:
            return 1.0
        return min(1.0, perf.decode_token_capacity / self.token_demand)


__all__ = [
    "OVERLOAD_QUEUE_WAIT_S",
    "ReplicaPerformance",
    "SLOEstimator",
]

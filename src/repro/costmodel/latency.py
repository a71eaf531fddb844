"""Roofline latency model for prefill and decode phases.

The model follows the structure the paper inherits from HexGen: each pipeline
stage's execution time is the maximum of its compute time (FLOPs divided by the
stage's effective FLOPS) and its memory time (bytes moved divided by the stage's
aggregate memory bandwidth), plus tensor-parallel collective costs within the stage
and pipeline (activation) communication between consecutive stages.

Two phase-specific regimes emerge directly from the arithmetic intensity:

* **Prefill** processes the whole prompt at once, so the GEMMs are large and the
  phase is *compute bound* — stages built from high-FLOPS GPUs (A40) are fast, and
  batching beyond ~1k total tokens yields little benefit (Figure 2, left).
* **Decode** emits one token per step per sequence, so every step must re-stream
  the weights and the growing KV cache — the phase is *memory-bandwidth bound*,
  high-bandwidth GPUs (3090Ti) are fast and batching is essential (Figure 2,
  right).

Each phase has one roofline formula (``_prefill_seconds`` and
``_decode_step_seconds``), written over per-stage views and evaluated on Python
ints or int64 arrays alike.  :class:`ReplicaCostModel`'s scalar and array
methods and :func:`single_gpu_phase_latency` (a one-stage TP 1 view) all price
through it, so their values agree bitwise by construction.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import Phase
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUSpec
from repro.model.architecture import ModelConfig
from repro.model.flops import mlp_flops
from repro.model.memory import (
    kv_cache_bytes_per_token,
    parameter_bytes,
    weight_bytes_per_layer,
)
from repro.parallelism.config import ReplicaPlan


@dataclass(frozen=True)
class CostModelParams:
    """Tunable efficiency constants of the roofline model.

    The defaults are calibrated to give realistic absolute magnitudes (tens of
    milliseconds of TTFT for LLaMA-7B on a single GPU, tens of milliseconds per
    decode step for LLaMA-30B across a small group) — but the experiments only rely
    on *relative* behaviour, which is governed by the GPU specs themselves.
    """

    #: Peak model FLOPs utilisation reached by large prefill batches.
    prefill_mfu_max: float = 0.55
    #: Token count at which prefill utilisation approaches saturation (Figure 2).
    prefill_saturation_tokens: float = 300.0
    #: Fraction of peak memory bandwidth achieved by streaming kernels.
    memory_efficiency: float = 0.85
    #: Model FLOPs utilisation of the small GEMMs in decode steps.
    decode_mfu: float = 0.30
    #: Relative tensor-parallel efficiency loss per extra GPU.
    tp_overhead: float = 0.03
    #: Fixed per-layer kernel launch / scheduling overhead (seconds).
    per_layer_overhead_s: float = 2.0e-5
    #: Fixed per-stage overhead (seconds) for framework dispatch.
    per_stage_overhead_s: float = 5.0e-4
    #: Fraction of device memory reserved for activations / fragmentation.
    kv_reserve_fraction: float = 0.1
    #: Hard cap on the decode batch size (continuous-batching slot limit).
    max_decode_batch: int = 256

    def tp_efficiency(self, tp: int) -> float:
        """Multiplicative compute-efficiency factor for a TP group of size ``tp``."""
        if tp < 1:
            raise ConfigurationError("tp must be >= 1")
        return 1.0 / (1.0 + self.tp_overhead * (tp - 1))

    def prefill_mfu(self, total_tokens: float) -> float:
        """Prefill utilisation as a saturating function of the batched token count."""
        if total_tokens <= 0:
            return 1e-3
        return self.prefill_mfu_max * (1.0 - math.exp(-total_tokens / self.prefill_saturation_tokens))


DEFAULT_PARAMS = CostModelParams()

#: cap on the total entries of a replica's decode-step latency rows (8 bytes
#: each, so a few MB per replica); when an extension would pass it, every row
#: is dropped and rebuilt on demand
DECODE_STEP_MEMO_MAX = 262_144

#: cap on the per-replica prefill-latency memo (keys are (input_length,
#: batch_size); prompt lengths are far more diverse than decode grid points, so
#: the cap is smaller — the memo restarts cold when it fills)
PREFILL_LATENCY_MEMO_MAX = 65_536

#: cap on the cost models one :class:`CostModelPool` holds; when a new build
#: would pass it, the pool restarts empty (as the per-replica memos do)
COST_MODEL_POOL_MAX = 512

#: default number of requests coalesced into one prefill batch, shared by the
#: discrete-event simulators (``SimulatorConfig.max_prefill_batch_requests``,
#: ``ColocatedSimulator``) and the scheduler's :class:`SLOEstimator` so the
#: analytic queueing model and the simulated execution assume the same batching
DEFAULT_MAX_PREFILL_BATCH_REQUESTS = 8


@dataclass
class _StageView:
    """Cached per-stage quantities read by the roofline.

    The model-accounting terms (``mlp_flops_1`` onward) are fixed per stage,
    so :func:`_stage_view` computes them once, by the same functions and
    operation order as the per-call formulas in :mod:`repro.model.flops`.
    """

    gpu_ids: tuple
    num_layers: int
    tp: int
    #: slowest link inside the stage, in bytes/s (``1e15`` for one GPU)
    intra_bandwidth_bytes: float
    #: largest latency between two GPUs of the stage (``0.0`` for one GPU)
    intra_latency_s: float
    #: ``mlp_flops(model, 1, num_layers)``: projection + FFN FLOPs of one token
    mlp_flops_1: float
    #: ``parameter_bytes(model) * (num_layers / model.num_layers)``
    weight_bytes: float
    #: ``kv_cache_bytes_per_token(model, num_layers=num_layers)``
    kv_bytes_per_token: float
    #: device memory left for the KV cache: the stage's memory minus the
    #: ``kv_reserve_fraction`` headroom and its layer weights
    kv_memory_bytes: float
    #: summed peak FLOPS times ``tp_efficiency(tp)``: the prefill compute
    #: denominator before the batch-dependent MFU factor
    tp_flops: float
    #: ``tp_flops * decode_mfu``: the decode compute denominator
    decode_flops: float
    #: summed memory bandwidth times ``memory_efficiency``: the memory-time
    #: denominator
    mem_rate: float
    #: ``num_layers * per_layer_overhead_s + per_stage_overhead_s``
    overhead_s: float


def _stage_view(
    model: ModelConfig,
    params: CostModelParams,
    specs: Sequence[GPUSpec],
    gpu_ids: Sequence[int],
    num_layers: int,
    tp: int,
    intra_bandwidth_bytes: float,
    intra_latency_s: float,
) -> _StageView:
    """The :class:`_StageView` of ``num_layers`` layers on GPUs of ``specs``."""
    tp_flops = sum(s.peak_fp16_flops for s in specs) * params.tp_efficiency(tp)
    memory = sum(s.memory_bytes for s in specs)
    return _StageView(
        gpu_ids=tuple(gpu_ids),
        num_layers=num_layers,
        tp=tp,
        intra_bandwidth_bytes=intra_bandwidth_bytes,
        intra_latency_s=intra_latency_s,
        mlp_flops_1=mlp_flops(model, 1, num_layers),
        weight_bytes=parameter_bytes(model) * (num_layers / model.num_layers),
        kv_bytes_per_token=kv_cache_bytes_per_token(model, num_layers=num_layers),
        kv_memory_bytes=(
            memory * (1.0 - params.kv_reserve_fraction)
            - weight_bytes_per_layer(model) * num_layers
        ),
        tp_flops=tp_flops,
        decode_flops=tp_flops * params.decode_mfu,
        mem_rate=sum(s.memory_bandwidth_bytes for s in specs) * params.memory_efficiency,
        overhead_s=num_layers * params.per_layer_overhead_s + params.per_stage_overhead_s,
    )


# ------------------------------------------------------------------ roofline
# One formula per phase, shared by the scalar, array and single-GPU prices.
# Token counts ``s``, ``b`` and ``c`` are Python ints or int64 arrays; every
# element takes the same sequence of float64 operations either way (integer
# intermediates stay below 2**53, so int-to-float conversions round alike),
# which is what keeps scalar and array prices bitwise equal.


def _comm_seconds(stage: _StageView, num_bytes):
    """Tensor-parallel all-reduce time of one forward pass through a stage.

    Two ring all-reduces of ``num_bytes`` per rank run in every transformer
    block (after attention and after the MLP); each takes ``2 (p - 1)``
    latency-bound steps and moves ``2 (p - 1) / p`` of the bytes.  A TP 1
    stage costs nothing.
    """
    p = stage.tp
    if p <= 1:
        return 0.0
    volume = 2.0 * (p - 1) / p * num_bytes
    allreduce = 2.0 * (p - 1) * stage.intra_latency_s + volume / stage.intra_bandwidth_bytes
    return (2.0 * allreduce) * stage.num_layers


def _replica_seconds(stages, links, model, slowdown, stage_seconds, tokens):
    """Sum the stages' roofline times, TP all-reduces and PP transfers, times ``slowdown``.

    ``stage_seconds`` holds each stage's ``max(compute, memory)`` time and
    ``tokens`` the activations' token count; ``links`` are the ``(alpha,
    beta)`` pairs between consecutive stages.
    """
    num_bytes = tokens * model.hidden_size * model.dtype_bytes
    total = 0.0
    for stage, seconds in zip(stages, stage_seconds):
        total = total + ((seconds + stage.overhead_s) + _comm_seconds(stage, num_bytes))
    if links:
        pp = 0.0
        for alpha, beta in links:
            pp = pp + (alpha + num_bytes / beta)
        total = total + pp
    return total * slowdown


def _prefill_seconds(stages, links, model, slowdown, s, b, mfu, maximum):
    """Prefill time of ``b`` prompts of ``s`` tokens at utilisation ``mfu``.

    ``maximum`` is ``max`` for scalars and ``np.maximum`` for arrays.
    """
    h = model.hidden_size
    roofline = []
    for stage in stages:
        layers = stage.num_layers
        # (mlp_flops + attention_flops) * b; mlp_flops is linear in the
        # token count, so the one-token value scales exactly.
        flops = (stage.mlp_flops_1 * s + layers * 4.0 * s * s * h) * b
        compute_t = flops / (stage.tp_flops * mfu)
        # prefill_memory_bytes: weights once, plus the KV cache and
        # activations written for the batch
        kv_written = stage.kv_bytes_per_token * s * b
        activations = 2.0 * h * model.dtype_bytes * s * b * layers
        mem_t = (stage.weight_bytes + kv_written + activations) / stage.mem_rate
        roofline.append(maximum(compute_t, mem_t))
    return _replica_seconds(stages, links, model, slowdown, roofline, s * b)


def _decode_step_seconds(stages, links, model, slowdown, b, c, maximum):
    """Time of one decode step of ``b`` sequences at context ``c``.

    ``maximum`` is ``max`` for scalars and ``np.maximum`` for arrays.
    """
    h = model.hidden_size
    roofline = []
    for stage in stages:
        # decode_flops_per_token * b
        flops = (stage.mlp_flops_1 + stage.num_layers * 4.0 * 1 * c * h) * b
        compute_t = flops / stage.decode_flops
        # decode_memory_bytes_per_token: the weights plus every sequence's KV
        mem_t = (stage.weight_bytes + stage.kv_bytes_per_token * c * b) / stage.mem_rate
        roofline.append(maximum(compute_t, mem_t))
    return _replica_seconds(stages, links, model, slowdown, roofline, b)


def _positive_int_arrays(a, b, names: str) -> Tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as int64 arrays of one shape, every entry >= 1."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"{names} must have the same shape")
    if a.size and (int(a.min()) < 1 or int(b.min()) < 1):
        raise ValueError(f"{names} must be >= 1")
    return a, b


def single_gpu_phase_latency(
    spec: GPUSpec,
    model: ModelConfig,
    phase: Phase,
    input_length: int,
    output_length: int = 1,
    batch_size: int = 1,
    params: CostModelParams = DEFAULT_PARAMS,
) -> float:
    """Latency of one phase of one batched request on a single GPU (TP=PP=1).

    For prefill this is the time to process ``batch_size`` prompts of
    ``input_length`` tokens; for decode it is the time to generate
    ``output_length`` tokens per sequence, priced as that many steps at the
    mid-generation context.  It is the one-stage roofline of
    :class:`ReplicaCostModel`, used by the Figure 1 price analysis and by the
    A100 reference latencies that anchor SLO scales.
    """
    if input_length < 1 or output_length < 1 or batch_size < 1:
        raise ValueError("input_length, output_length and batch_size must be >= 1")
    stages = [_stage_view(model, params, [spec], (), model.num_layers, 1, 1e15, 0.0)]
    if phase is Phase.PREFILL:
        mfu = params.prefill_mfu(input_length * batch_size)
        return _prefill_seconds(stages, (), model, 1.0, input_length, batch_size, mfu, max)
    context = int(input_length + output_length / 2.0)
    step = _decode_step_seconds(stages, (), model, 1.0, batch_size, context, max)
    return step * output_length


class ReplicaCostModel:
    """Analytic latency / throughput model of one model replica.

    Parameters
    ----------
    cluster:
        Cluster providing GPU specs and the network model.
    plan:
        Concrete :class:`ReplicaPlan` (stage GPU groups + layer split).
    model:
        Model architecture being served.
    params:
        Efficiency constants.
    slowdown:
        Uniform latency multiplier on every prefill/decode latency this
        replica produces (straggler injection: a degraded GPU slows the whole
        replica down).  ``1.0`` is bitwise-neutral — multiplying a float by
        ``1.0`` is exact, so the default path and the scalar/array parity
        contracts are unaffected.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: ReplicaPlan,
        model: ModelConfig,
        params: CostModelParams = DEFAULT_PARAMS,
        slowdown: float = 1.0,
    ) -> None:
        if plan.total_layers != model.num_layers:
            raise ConfigurationError(
                f"plan hosts {plan.total_layers} layers but the model has {model.num_layers}"
            )
        if slowdown <= 0:
            raise ConfigurationError("slowdown must be positive")
        self.cluster = cluster
        self.plan = plan
        self.model = model
        self.params = params
        self.slowdown = float(slowdown)
        #: dense decode-step latency rows, one per batch size:
        #: ``self._decode_rows[n][c]`` is the step latency at batch ``n`` and
        #: mean context ``max(1, c)``; see :meth:`decode_step_row`
        self._decode_rows: Dict[int, array] = {}
        #: decode-step latency columns, one per context length:
        #: ``self._decode_columns[c][n - 1]`` is the step latency at batch ``n``
        #: and context ``c``; see :meth:`decode_step_column`
        self._decode_columns: Dict[int, List[float]] = {}
        #: memoized prefill latencies keyed by (input_length, batch_size);
        #: filled by :meth:`prefill_latency_memo` / :meth:`prefill_latency_grid`
        #: and shared across prefill epochs
        self._prefill_memo: Dict[Tuple[int, int], float] = {}
        self._pp_links: List[Tuple[float, float]] | None = None
        self._stages: List[_StageView] = []
        network = cluster.network
        for stage in plan.stages:
            ids = stage.gpu_ids
            intra_bw = network.min_bandwidth_within(ids)
            if math.isinf(intra_bw):  # one GPU: no tensor-parallel link
                intra = (1e15, 0.0)
            else:
                intra = (intra_bw * 1e9, max(network.latency_s(i, j) for i in ids for j in ids))
            specs = [cluster.gpu(g).spec for g in ids]
            self._stages.append(
                _stage_view(model, params, specs, ids, stage.num_layers, stage.tp, *intra)
            )

    # ------------------------------------------------------------------ helpers
    def _stage_links(self) -> List[Tuple[float, float]]:
        """``(alpha, beta)`` of the links between consecutive stages, built on first use.

        A link's latency is the largest between the two stages' GPUs and its
        bandwidth their mean pairwise bandwidth.  Caching is exact: the
        cluster's network model is never mutated (degraded views are copies),
        so every pricing path — scalar, array and memo — reads the same links
        a fresh build would return.
        """
        if self._pp_links is None:
            network = self.cluster.network
            self._pp_links = [
                (
                    max(network.latency_s(i, j) for i in a.gpu_ids for j in b.gpu_ids),
                    network.mean_bandwidth_between(a.gpu_ids, b.gpu_ids) * 1e9,
                )
                for a, b in zip(self._stages[:-1], self._stages[1:])
            ]
        return self._pp_links

    # ------------------------------------------------------------------ prefill
    def prefill_latency(self, input_length: int, batch_size: int = 1) -> float:
        """Time to run the prefill phase for ``batch_size`` prompts of ``input_length`` tokens."""
        if input_length < 1 or batch_size < 1:
            raise ValueError("input_length and batch_size must be >= 1")
        mfu = self.params.prefill_mfu(input_length * batch_size)
        return _prefill_seconds(
            self._stages, self._stage_links(), self.model, self.slowdown,
            input_length, batch_size, mfu, max,
        )

    def prefill_latency_array(
        self, input_lengths: Sequence[int] | np.ndarray, batch_sizes: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`prefill_latency` over parallel (input, batch) arrays.

        Bitwise-identical to the scalar method: both price through the same
        roofline formula.  The saturating-MFU factor is the one place the
        formula calls a libm transcendental (``math.exp``), whose numpy
        counterpart is not guaranteed ULP-identical — so that factor alone is
        computed element by element through the scalar helper.  It fills
        :meth:`prefill_latency_grid`'s memo misses.
        """
        s, b = _positive_int_arrays(input_lengths, batch_sizes, "input lengths and batch sizes")
        if s.size == 0:
            return np.zeros(0, dtype=np.float64)
        prefill_mfu = self.params.prefill_mfu
        mfu = np.array([prefill_mfu(t) for t in (s * b).tolist()], dtype=np.float64)
        return _prefill_seconds(
            self._stages, self._stage_links(), self.model, self.slowdown, s, b, mfu, np.maximum
        )

    def prefill_latency_memo(self, input_length: int, batch_size: int) -> float:
        """Memoized scalar prefill latency, sharing :meth:`prefill_latency_grid`'s memo.

        The prefill twin of :meth:`decode_step_memo`: the fast simulator's
        prefill-epoch planner prices one batch at a time through it.  Because
        :meth:`prefill_latency` and :meth:`prefill_latency_array` are
        bitwise-identical, the cached values agree no matter which path
        filled them.
        """
        memo = self._prefill_memo
        key = (input_length, batch_size)
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = self.prefill_latency(input_length, batch_size)
        if len(memo) >= PREFILL_LATENCY_MEMO_MAX:
            memo.clear()
        memo[key] = value
        return value

    def prefill_latency_grid(
        self, input_lengths: np.ndarray, batch_sizes: np.ndarray
    ) -> np.ndarray:
        """Memoized elementwise prefill latencies.

        Looks every (input_length, batch_size) pair up in the per-replica memo
        and computes only the missing entries with :meth:`prefill_latency_array`
        — the prefill analogue of :meth:`decode_step_grid`, used where a whole
        grid is priced at once (:meth:`prefill_service_moments`).  The memo is
        shared with :meth:`prefill_latency_memo`.
        """
        s = np.asarray(input_lengths, dtype=np.int64)
        b = np.asarray(batch_sizes, dtype=np.int64)
        out = np.empty(s.shape, dtype=np.float64)
        memo = self._prefill_memo
        missing: List[int] = []
        s_list = s.tolist()
        b_list = b.tolist()
        for i, key in enumerate(zip(s_list, b_list)):
            cached = memo.get(key)
            if cached is None:
                missing.append(i)
            else:
                out[i] = cached
        if missing:
            idx = np.asarray(missing, dtype=np.intp)
            values = self.prefill_latency_array(s[idx], b[idx])
            out[idx] = values
            if len(memo) + len(missing) > PREFILL_LATENCY_MEMO_MAX:
                memo.clear()
            for i, value in zip(missing, values.tolist()):
                memo[(s_list[i], b_list[i])] = value
        return out

    def prefill_service_moments(
        self,
        input_lengths: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        batch_size: int = 1,
    ) -> Tuple[float, float]:
        """Weighted first and second moments of the per-request prefill service time.

        ``input_lengths`` are the distinct prompt lengths of a workload grid and
        ``weights`` their probability masses (normalised internally).  The
        serving engine pads a coalesced batch to its *longest* prompt — a batch
        of ``B`` requests costs ``prefill_latency(max length, B)`` — so the
        per-request service time a saturated replica actually delivers is
        ``prefill_latency(max of B iid draws, B) / B``.  The max-of-``B`` prompt
        length distribution follows from the grid by order statistics
        (``P[max <= l_k] = F(l_k)^B``), each outcome is priced through the
        memoized :meth:`prefill_latency_grid` and amortised over the batch.  At
        ``batch_size == 1`` this reduces to the plain grid-weighted solo
        moments.  The returned ``(E[S], E[S^2])`` feed the scheduler's M/G/1
        (Pollaczek–Khinchine) queueing correction: the squared coefficient of
        variation ``E[S^2]/E[S]^2 - 1`` is what separates a long-context RAG
        mix from a near-deterministic chat mix at the same utilisation.
        """
        s = np.asarray(input_lengths, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if s.shape != w.shape:
            raise ValueError("input_lengths and weights must have the same shape")
        if s.size == 0:
            raise ValueError("at least one input length is required")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if float(w.min()) < 0 or float(w.sum()) <= 0:
            raise ValueError("weights must be non-negative with positive mass")
        order = np.argsort(s, kind="stable")
        s = s[order]
        w = w[order] / w.sum()
        # Distribution of the padded batch length: max of ``batch_size`` iid
        # draws from the grid mix, P[max = l_k] = F(l_k)^B - F(l_{k-1})^B.
        cdf = np.cumsum(w)
        cdf[-1] = 1.0  # guard against float drift in the top cell
        p_max = np.power(cdf, batch_size) - np.power(
            np.concatenate(([0.0], cdf[:-1])), batch_size
        )
        batches = np.full(s.shape, batch_size, dtype=np.int64)
        service = self.prefill_latency_grid(s, batches) / float(batch_size)
        m1 = float(np.sum(p_max * service))
        m2 = float(np.sum(p_max * service * service))
        return m1, m2

    # ------------------------------------------------------------------ decode
    def decode_step_latency(self, batch_size: int, context_length: int) -> float:
        """Time of one decode step (one token per sequence) for a batch."""
        if batch_size < 1 or context_length < 1:
            raise ValueError("batch_size and context_length must be >= 1")
        return _decode_step_seconds(
            self._stages, self._stage_links(), self.model, self.slowdown,
            batch_size, context_length, max,
        )

    def decode_step_latency_array(
        self, batch_sizes: Sequence[int] | np.ndarray, context_lengths: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`decode_step_latency` over parallel (batch, context) arrays.

        Bitwise-identical to the scalar method: both price through the same
        roofline formula.  It fills the latency rows of
        :meth:`decode_step_row` and the columns of :meth:`decode_step_column`.
        """
        b, c = _positive_int_arrays(batch_sizes, context_lengths, "batch sizes and contexts")
        if b.size == 0:
            return np.zeros(0, dtype=np.float64)
        return _decode_step_seconds(
            self._stages, self._stage_links(), self.model, self.slowdown, b, c, np.maximum
        )

    def decode_step_row(self, batch_size: int, length: int) -> array:
        """The decode-step latency row of ``batch_size``, at least ``length`` long.

        Entry ``c`` of the row is ``decode_step_latency(batch_size, max(1, c))``:
        the price of one step at mean context ``c``, with the simulator's clamp
        to one.  A decode epoch of ``k`` steps at constant batch ``n`` has the
        consecutive mean contexts ``m0 .. m0 + k - 1``, so its step latencies
        are the slice ``row[m0 : m0 + k]``.  Rows are filled by
        :meth:`decode_step_latency_array`, which is bitwise equal to the
        scalar method, and grow by doubling.  When the rows of this replica
        would hold more than ``DECODE_STEP_MEMO_MAX`` entries, all of them are
        dropped first.
        """
        rows = self._decode_rows
        row = rows.get(batch_size)
        if row is not None and len(row) >= length:
            return row
        have = 0 if row is None else len(row)
        size = max(length, 2 * have)
        held = sum(len(r) for r in rows.values())
        if held + size - have > DECODE_STEP_MEMO_MAX:
            rows.clear()
            row = None
            have = 0
            size = length
        contexts = np.arange(have, size, dtype=np.int64)
        np.maximum(contexts, 1, out=contexts)
        values = self.decode_step_latency_array(
            np.full(size - have, batch_size, dtype=np.int64), contexts
        )
        if row is None:
            row = rows[batch_size] = array("d")
        row.frombytes(values.tobytes())
        return row

    def decode_step_column(self, context_length: int, max_batch: int) -> List[float]:
        """Decode-step latencies at ``context_length`` for batches ``1..max_batch``.

        Entry ``n - 1`` is ``decode_step_latency(n, context_length)``; the
        column may be longer than asked.  It is the transpose of
        :meth:`decode_step_row`, read by the estimator's search for a decode
        replica's operating batch.  Columns are filled by
        :meth:`decode_step_latency_array`, which is bitwise equal to the scalar
        method, and live as long as this cost model.  When they would hold more
        than ``DECODE_STEP_MEMO_MAX`` entries, all of them are dropped first.
        """
        columns = self._decode_columns
        column = columns.get(context_length)
        if column is not None and len(column) >= max_batch:
            return column
        if sum(len(c) for c in columns.values()) + max_batch > DECODE_STEP_MEMO_MAX:
            columns.clear()
        batches = np.arange(1, max_batch + 1, dtype=np.int64)
        column = columns[context_length] = self.decode_step_latency_array(
            batches, np.full_like(batches, context_length)
        ).tolist()
        return column

    def decode_step_memo(self, batch_size: int, context_length: int) -> float:
        """Scalar decode-step latency read from :meth:`decode_step_row`.

        Bitwise equal to :meth:`decode_step_latency`, at the cost of a row
        lookup once the row is built.
        """
        if batch_size < 1 or context_length < 1:
            raise ValueError("batch_size and context_length must be >= 1")
        return self.decode_step_row(batch_size, context_length + 1)[context_length]

    def decode_step_grid(
        self, batch_sizes: np.ndarray, context_lengths: np.ndarray
    ) -> np.ndarray:
        """Elementwise :meth:`decode_step_memo` over parallel (batch, context) arrays."""
        b, c = _positive_int_arrays(batch_sizes, context_lengths, "batch sizes and contexts")
        pairs = zip(b.ravel().tolist(), c.ravel().tolist())
        values = [self.decode_step_memo(n, m) for n, m in pairs]
        return np.array(values, dtype=np.float64).reshape(b.shape)

    def decode_latency(self, batch_size: int, context_length: int, num_tokens: int) -> float:
        """Time to generate ``num_tokens`` tokens per sequence for a batch.

        Uses the mid-generation context length, which is accurate to first order
        because decode step time is affine in the context length.
        """
        if num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        mid_context = context_length + num_tokens // 2
        return self.decode_step_latency(batch_size, mid_context) * num_tokens

    def max_decode_batch(self, context_length: int) -> int:
        """Largest decode batch whose KV cache fits in every stage's memory."""
        if context_length < 1:
            raise ValueError("context_length must be >= 1")
        limit = self.params.max_decode_batch
        for stage in self._stages:
            if stage.kv_memory_bytes <= 0:
                return 0
            per_seq = stage.kv_bytes_per_token * context_length
            limit = min(limit, int(stage.kv_memory_bytes // per_seq))
        return max(0, limit)

    def decode_throughput(self, context_length: int, batch_size: int | None = None) -> float:
        """Decode throughput in generated tokens per second.

        With no explicit ``batch_size`` the maximum feasible batch is used, which
        is where a memory-bound decode replica reaches its best throughput.
        """
        if batch_size is None:
            batch_size = self.max_decode_batch(context_length)
        if batch_size <= 0:
            return 0.0
        return batch_size / self.decode_step_latency(batch_size, context_length)

    # ------------------------------------------------------------------ memory
    def kv_token_capacity(self) -> int:
        """Total number of KV-cache tokens the replica can hold (bottleneck stage)."""
        capacity = math.inf
        for stage in self._stages:
            if stage.kv_memory_bytes <= 0:
                return 0
            capacity = min(capacity, stage.kv_memory_bytes / stage.kv_bytes_per_token)
        return int(capacity)

    def fits_in_memory(self) -> bool:
        """Whether every stage can hold its layer weights plus the KV reserve."""
        return self.kv_token_capacity() > 0


class CostModelPool:
    """Shared :class:`ReplicaCostModel` objects, one per distinct replica pricing.

    A cost model reads, and prices from, exactly the network's matrices
    (:meth:`~repro.hardware.network.NetworkModel.state_key`), the specs of
    the replica's GPUs, the replica plan, the model, the params and the
    slowdown; its memos cache prices that every path computes bitwise alike.
    So :meth:`get` hands out one object per equal key, memos warm: a serving
    system prices each replica once across its simulators, shadow replays and
    searches.  Removing GPUs from a cluster keeps its network, so the replicas
    that survive a fault keep their cost models; a degraded network, another
    slowdown or another plan is a new key.  The pool holds at most
    :data:`COST_MODEL_POOL_MAX` models and restarts empty when a build would
    pass that.
    """

    def __init__(self) -> None:
        self._models: Dict[tuple, ReplicaCostModel] = {}

    def __len__(self) -> int:
        return len(self._models)

    def get(
        self,
        cluster: Cluster,
        plan: ReplicaPlan,
        model: ModelConfig,
        params: CostModelParams = DEFAULT_PARAMS,
        slowdown: float = 1.0,
    ) -> ReplicaCostModel:
        """The pool's cost model for these arguments (those of :class:`ReplicaCostModel`)."""
        specs = tuple(cluster.gpu(g).spec for g in plan.gpu_ids)
        key = (cluster.network.state_key(), specs, plan, model, params, float(slowdown))
        models = self._models
        cost = models.get(key)
        if cost is None:
            cost = ReplicaCostModel(cluster, plan, model, params, slowdown)
            if len(models) >= COST_MODEL_POOL_MAX:
                models.clear()
            models[key] = cost
        return cost


__all__ = [
    "CostModelParams",
    "CostModelPool",
    "DEFAULT_PARAMS",
    "DEFAULT_MAX_PREFILL_BATCH_REQUESTS",
    "single_gpu_phase_latency",
    "ReplicaCostModel",
]

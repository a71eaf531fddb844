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
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import Phase
from repro.costmodel.alpha_beta import AlphaBetaModel
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUSpec
from repro.model.architecture import ModelConfig
from repro.model.flops import (
    attention_flops,
    decode_flops_per_token,
    decode_memory_bytes_per_token,
    mlp_flops,
    prefill_flops,
    prefill_memory_bytes,
)
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

#: default number of requests coalesced into one prefill batch, shared by the
#: discrete-event simulators (``SimulatorConfig.max_prefill_batch_requests``,
#: ``ColocatedSimulator``) and the scheduler's :class:`SLOEstimator` so the
#: analytic queueing model and the simulated execution assume the same batching
DEFAULT_MAX_PREFILL_BATCH_REQUESTS = 8


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
    ``output_length`` tokens per sequence.  Used by the Figure 1 price analysis and
    by the A100 reference latencies that anchor SLO scales.
    """
    if input_length < 1 or output_length < 1 or batch_size < 1:
        raise ValueError("input_length, output_length and batch_size must be >= 1")
    eff_flops = spec.peak_fp16_flops
    eff_bw = spec.memory_bandwidth_bytes * params.memory_efficiency
    layer_overhead = model.num_layers * params.per_layer_overhead_s + params.per_stage_overhead_s
    if phase is Phase.PREFILL:
        total_tokens = input_length * batch_size
        flops = prefill_flops(model, input_length) * batch_size
        compute_t = flops / (eff_flops * params.prefill_mfu(total_tokens))
        mem_t = prefill_memory_bytes(model, input_length, batch_size) / eff_bw
        return max(compute_t, mem_t) + layer_overhead
    # Decode: one step per generated token; use the mid-generation context length.
    context = input_length + output_length / 2.0
    flops = decode_flops_per_token(model, int(context)) * batch_size
    compute_t = flops / (eff_flops * params.decode_mfu)
    mem_t = decode_memory_bytes_per_token(model, int(context), batch_size) / eff_bw
    step_t = max(compute_t, mem_t) + layer_overhead
    return step_t * output_length


@dataclass
class _StageView:
    """Cached per-stage quantities used by the replica cost model.

    The model-accounting terms (``mlp_flops_1`` onward) are fixed per stage,
    so they are computed once here by the same functions and operation order
    the per-call formulas used; every latency path reads them, which keeps
    scalar and array pricing bitwise equal.
    """

    gpu_ids: tuple
    num_layers: int
    tp: int
    sum_flops: float
    sum_bandwidth: float
    intra_bandwidth_bytes: float
    intra_latency_s: float
    total_memory_bytes: float
    #: ``mlp_flops(model, 1, num_layers)``: projection + FFN FLOPs of one token
    mlp_flops_1: float
    #: ``parameter_bytes(model) * (num_layers / model.num_layers)``
    weight_bytes: float
    #: ``kv_cache_bytes_per_token(model, num_layers=num_layers)``
    kv_bytes_per_token: float
    #: ``sum_flops * tp_efficiency(tp)``: the prefill compute denominator
    #: before the batch-dependent MFU factor
    tp_flops: float
    #: ``tp_flops * decode_mfu``: the decode compute denominator
    decode_flops: float
    #: ``sum_bandwidth * memory_efficiency``: the memory-time denominator
    mem_rate: float
    #: ``num_layers * per_layer_overhead_s + per_stage_overhead_s``
    overhead_s: float
    #: the stage's tensor-parallel link, built from ``intra_latency_s`` and
    #: ``intra_bandwidth_bytes``
    tp_link: AlphaBetaModel


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
        #: memoized prefill latencies keyed by (input_length, batch_size);
        #: filled by :meth:`prefill_latency_memo` / :meth:`prefill_latency_grid`
        #: and shared across prefill epochs
        self._prefill_memo: Dict[Tuple[int, int], float] = {}
        self._pp_links: List[AlphaBetaModel] | None = None
        self._stages: List[_StageView] = []
        network = cluster.network
        param_bytes = parameter_bytes(model)
        for stage in plan.stages:
            gpus = [cluster.gpu(g) for g in stage.gpu_ids]
            layers = stage.num_layers
            sum_flops = sum(g.spec.peak_fp16_flops for g in gpus)
            sum_bandwidth = sum(g.spec.memory_bandwidth_bytes for g in gpus)
            tp_flops = sum_flops * params.tp_efficiency(stage.tp)
            intra_bw = network.min_bandwidth_within(stage.gpu_ids)
            if math.isinf(intra_bw):
                intra_bw_bytes = 1e15
                intra_lat = 0.0
            else:
                intra_bw_bytes = intra_bw * 1e9
                intra_lat = max(network.latency_s(i, j) for i in stage.gpu_ids for j in stage.gpu_ids)
            self._stages.append(
                _StageView(
                    gpu_ids=tuple(stage.gpu_ids),
                    num_layers=layers,
                    tp=stage.tp,
                    sum_flops=sum_flops,
                    sum_bandwidth=sum_bandwidth,
                    intra_bandwidth_bytes=intra_bw_bytes,
                    intra_latency_s=intra_lat,
                    total_memory_bytes=sum(g.spec.memory_bytes for g in gpus),
                    mlp_flops_1=mlp_flops(model, 1, layers),
                    weight_bytes=param_bytes * (layers / model.num_layers),
                    kv_bytes_per_token=kv_cache_bytes_per_token(model, num_layers=layers),
                    tp_flops=tp_flops,
                    decode_flops=tp_flops * params.decode_mfu,
                    mem_rate=sum_bandwidth * params.memory_efficiency,
                    overhead_s=layers * params.per_layer_overhead_s + params.per_stage_overhead_s,
                    tp_link=AlphaBetaModel(alpha_s=intra_lat, beta_bytes_per_s=intra_bw_bytes),
                )
            )

    # ------------------------------------------------------------------ helpers
    def _stage_link(self, a: _StageView, b: _StageView) -> AlphaBetaModel:
        network = self.cluster.network
        bw = network.mean_bandwidth_between(a.gpu_ids, b.gpu_ids) * 1e9
        lat = max(
            network.latency_s(i, j) for i in a.gpu_ids for j in b.gpu_ids
        )
        return AlphaBetaModel(alpha_s=lat, beta_bytes_per_s=bw)

    def _stage_links(self) -> List[AlphaBetaModel]:
        """Links between consecutive pipeline stages, built on first use.

        Caching is exact: the cluster's network model is never mutated
        (degraded views are copies), so every pricing path — scalar, array
        and memo — reads the same links a fresh build would return.
        """
        if self._pp_links is None:
            self._pp_links = [
                self._stage_link(a, b) for a, b in zip(self._stages[:-1], self._stages[1:])
            ]
        return self._pp_links

    def _tp_comm_time(self, stage: _StageView, tokens: int, batch_size: int) -> float:
        """Tensor-parallel all-reduce time across one stage for a forward pass."""
        if stage.tp <= 1:
            return 0.0
        activation_bytes = tokens * batch_size * self.model.hidden_size * self.model.dtype_bytes
        # Two all-reduces per transformer block (after attention and after the MLP).
        per_layer = 2.0 * stage.tp_link.allreduce_seconds(activation_bytes, stage.tp)
        return per_layer * stage.num_layers

    def _pp_comm_time(self, tokens: int, batch_size: int) -> float:
        """Total pipeline activation-transfer time across stage boundaries."""
        if len(self._stages) <= 1:
            return 0.0
        activation_bytes = tokens * batch_size * self.model.hidden_size * self.model.dtype_bytes
        total = 0.0
        for link in self._stage_links():
            total += link.transfer_seconds(activation_bytes)
        return total

    # ------------------------------------------------------------------ prefill
    def prefill_latency(self, input_length: int, batch_size: int = 1) -> float:
        """Time to run the prefill phase for ``batch_size`` prompts of ``input_length`` tokens."""
        if input_length < 1 or batch_size < 1:
            raise ValueError("input_length and batch_size must be >= 1")
        total_tokens = input_length * batch_size
        mfu = self.params.prefill_mfu(total_tokens)
        model = self.model
        total = 0.0
        for stage in self._stages:
            layers = stage.num_layers
            # mlp_flops is linear in seq_len, so the one-token value scales
            # exactly (see model.flops).
            flops = (
                stage.mlp_flops_1 * input_length
                + attention_flops(model, input_length, input_length, layers)
            ) * batch_size
            compute_t = flops / (stage.tp_flops * mfu)
            # mem_bytes = prefill_memory_bytes(model, input_length, batch_size, layers)
            kv_written = stage.kv_bytes_per_token * input_length * batch_size
            activations = (
                2.0 * model.hidden_size * model.dtype_bytes * input_length * batch_size * layers
            )
            mem_bytes = float(stage.weight_bytes + kv_written + activations)
            mem_t = mem_bytes / stage.mem_rate
            total += (
                max(compute_t, mem_t)
                + stage.overhead_s
                + self._tp_comm_time(stage, input_length, batch_size)
            )
        total += self._pp_comm_time(input_length, batch_size)
        return total * self.slowdown

    def prefill_throughput(self, input_length: int, batch_size: int = 1) -> float:
        """Prefill throughput in prompt tokens per second."""
        latency = self.prefill_latency(input_length, batch_size)
        return input_length * batch_size / latency

    def prefill_latency_array(
        self, input_lengths: Sequence[int] | np.ndarray, batch_sizes: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`prefill_latency` over parallel (input, batch) arrays.

        Bitwise-identical to the scalar method: every element goes through the
        same sequence of float64 operations.  The saturating-MFU factor is the
        one place the scalar path calls a libm transcendental (``math.exp``),
        whose numpy counterpart is not guaranteed ULP-identical — so that factor
        alone is computed through the scalar helper, which costs O(n) cheap
        python calls while all per-stage roofline math stays vectorized.  It
        fills :meth:`prefill_latency_grid`'s memo misses.
        """
        s = np.asarray(input_lengths, dtype=np.int64)
        b = np.asarray(batch_sizes, dtype=np.int64)
        if s.shape != b.shape:
            raise ValueError("input_lengths and batch_sizes must have the same shape")
        if s.size == 0:
            return np.zeros(0, dtype=np.float64)
        if int(s.min()) < 1 or int(b.min()) < 1:
            raise ValueError("input_length and batch_size must be >= 1")
        model = self.model
        params = self.params
        # params.prefill_mfu(input_length * batch_size), element for element.
        mfu = np.array(
            [params.prefill_mfu(t) for t in (s * b).tolist()], dtype=np.float64
        )
        h = model.hidden_size
        total = np.zeros(s.shape, dtype=np.float64)
        for stage in self._stages:
            layers = stage.num_layers
            # flops = (mlp_flops(model, s, layers)
            #          + attention_flops(model, s, s, layers)) * batch, with the
            # scalar path's exact multiplication order.
            mlp = stage.mlp_flops_1 * s
            att = layers * 4.0 * s * s * h
            flops = (mlp + att) * b
            compute_t = flops / (stage.tp_flops * mfu)
            # mem_bytes = prefill_memory_bytes(model, s, batch, layers)
            kv_written = stage.kv_bytes_per_token * s * b
            activations = 2.0 * model.hidden_size * model.dtype_bytes * s * b * layers
            mem_t = (stage.weight_bytes + kv_written + activations) / stage.mem_rate
            overhead = stage.overhead_s
            if stage.tp <= 1:
                tp_comm: np.ndarray | float = 0.0
            else:
                activation_bytes = s * b * model.hidden_size * model.dtype_bytes
                volume = 2.0 * (stage.tp - 1) / stage.tp * activation_bytes
                allreduce = (
                    2.0 * (stage.tp - 1) * stage.intra_latency_s
                    + volume / stage.intra_bandwidth_bytes
                )
                tp_comm = (2.0 * allreduce) * stage.num_layers
            total = total + ((np.maximum(compute_t, mem_t) + overhead) + tp_comm)
        if len(self._stages) > 1:
            activation_bytes = s * b * model.hidden_size * model.dtype_bytes
            pp = 0.0
            for link in self._stage_links():
                pp = pp + (link.alpha_s + activation_bytes / link.beta_bytes_per_s)
            total = total + pp
        return total * self.slowdown

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
        h = self.model.hidden_size
        total = 0.0
        for stage in self._stages:
            # decode_flops_per_token(model, context_length, layers) * batch
            flops = (
                stage.mlp_flops_1 + stage.num_layers * 4.0 * 1 * context_length * h
            ) * batch_size
            compute_t = flops / stage.decode_flops
            # decode_memory_bytes_per_token(model, context_length, batch, layers)
            mem_bytes = float(
                stage.weight_bytes + stage.kv_bytes_per_token * context_length * batch_size
            )
            mem_t = mem_bytes / stage.mem_rate
            total += (
                max(compute_t, mem_t) + stage.overhead_s + self._tp_comm_time(stage, 1, batch_size)
            )
        total += self._pp_comm_time(1, batch_size)
        return total * self.slowdown

    def decode_step_latency_array(
        self, batch_sizes: Sequence[int] | np.ndarray, context_lengths: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`decode_step_latency` over parallel (batch, context) arrays.

        Bitwise-identical to the scalar method: every element goes through the
        same sequence of float64 operations (all integer intermediates stay below
        2**53, so the int-to-float conversion points round identically).  It
        fills the latency rows of :meth:`decode_step_row`.
        """
        b = np.asarray(batch_sizes, dtype=np.int64)
        c = np.asarray(context_lengths, dtype=np.int64)
        if b.shape != c.shape:
            raise ValueError("batch_sizes and context_lengths must have the same shape")
        if b.size == 0:
            return np.zeros(0, dtype=np.float64)
        if int(b.min()) < 1 or int(c.min()) < 1:
            raise ValueError("batch_size and context_length must be >= 1")
        model = self.model
        total = np.zeros(b.shape, dtype=np.float64)
        for stage in self._stages:
            # flops = decode_flops_per_token(model, ctx, layers) * batch, with the
            # scalar path's exact multiplication order (see model.flops).
            att = stage.num_layers * 4.0 * 1 * c * model.hidden_size
            flops = (stage.mlp_flops_1 + att) * b
            compute_t = flops / stage.decode_flops
            # mem_bytes = decode_memory_bytes_per_token(model, ctx, batch, layers)
            kv_read = stage.kv_bytes_per_token * c * b
            mem_t = (stage.weight_bytes + kv_read) / stage.mem_rate
            overhead = stage.overhead_s
            if stage.tp <= 1:
                tp_comm: np.ndarray | float = 0.0
            else:
                activation_bytes = 1 * b * model.hidden_size * model.dtype_bytes
                volume = 2.0 * (stage.tp - 1) / stage.tp * activation_bytes
                allreduce = (
                    2.0 * (stage.tp - 1) * stage.intra_latency_s
                    + volume / stage.intra_bandwidth_bytes
                )
                tp_comm = (2.0 * allreduce) * stage.num_layers
            total = total + ((np.maximum(compute_t, mem_t) + overhead) + tp_comm)
        if len(self._stages) > 1:
            activation_bytes = 1 * b * model.hidden_size * model.dtype_bytes
            pp = 0.0
            for link in self._stage_links():
                pp = pp + (link.alpha_s + activation_bytes / link.beta_bytes_per_s)
            total = total + pp
        return total * self.slowdown

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
        b = np.asarray(batch_sizes, dtype=np.int64)
        c = np.asarray(context_lengths, dtype=np.int64)
        if b.shape != c.shape:
            raise ValueError("batch_sizes and context_lengths must have the same shape")
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
            weights = weight_bytes_per_layer(self.model) * stage.num_layers
            usable = stage.total_memory_bytes * (1.0 - self.params.kv_reserve_fraction) - weights
            if usable <= 0:
                return 0
            per_seq = kv_cache_bytes_per_token(self.model, num_layers=stage.num_layers) * context_length
            limit = min(limit, int(usable // per_seq))
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
            weights = weight_bytes_per_layer(self.model) * stage.num_layers
            usable = stage.total_memory_bytes * (1.0 - self.params.kv_reserve_fraction) - weights
            if usable <= 0:
                return 0
            per_token = kv_cache_bytes_per_token(self.model, num_layers=stage.num_layers)
            capacity = min(capacity, usable / per_token)
        return int(capacity)

    def fits_in_memory(self) -> bool:
        """Whether every stage can hold its layer weights plus the KV reserve."""
        return self.kv_token_capacity() > 0


__all__ = [
    "CostModelParams",
    "DEFAULT_PARAMS",
    "DEFAULT_MAX_PREFILL_BATCH_REQUESTS",
    "single_gpu_phase_latency",
    "ReplicaCostModel",
]

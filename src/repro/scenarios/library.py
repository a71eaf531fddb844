"""The built-in scenario library.

Seven named, parameterized scenarios covering the operating conditions a
production phase-splitting deployment actually meets:

* :class:`DiurnalTrafficScenario` — a compressed day/night sinusoidal load cycle;
* :class:`BurstySpikesScenario` — steady traffic punctuated by short spikes;
* :class:`LongContextRAGScenario` — retrieval-augmented prompts (very long
  inputs, moderate outputs) that stress prefill and KV transfer;
* :class:`LongPromptRAGScenario` — retrieval lookups (even heavier prompts,
  near-vanishing decodes) that concentrate essentially all work in the prefill
  phase — the stress test of the coalesced prefill batching path;
* :class:`AgenticCodingMixScenario` — an agentic mix of coding and conversation
  turns, the workload-shift situation of §3.4;
* :class:`MultiTenantSLOTiersScenario` — gold/silver/bronze tenants sharing the
  fleet under different SLO tiers;
* :class:`SpotPreemptionScenario` — steady traffic with spot-instance
  preemptions injected mid-run (the Figure 11 failure situation).

The two RAG scenarios and the spot-preemption one draw steady Poisson traffic
of one workload and share :class:`SteadyPoissonScenario`'s trace and planning
workload.  All scenarios are frozen dataclasses: parameterize by constructing
with different field values, and rely on
:meth:`~repro.scenarios.base.Scenario.build_trace` being deterministic under a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.core.exceptions import ConfigurationError
from repro.core.rng import RNGLike, ensure_rng, spawn_rng
from repro.faults.taxonomy import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.cluster import Cluster
from repro.scenarios.base import Scenario, thinned_poisson_trace
from repro.workload.generator import PoissonArrivalGenerator
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD, WorkloadSpec
from repro.workload.trace import Trace, merge_traces


#: Retrieval-augmented generation: prompts carry several retrieved passages, so
#: inputs are several times longer than plain conversation while outputs stay
#: moderate — the most prefill- and KV-transfer-heavy shape in the library.
RAG_WORKLOAD = WorkloadSpec(
    name="rag",
    median_input_length=3072.0,
    median_output_length=160.0,
    input_sigma=0.25,
    output_sigma=0.5,
    max_input_length=8192,
)


class SteadyPoissonScenario(Scenario):
    """A scenario whose traffic is steady Poisson arrivals of its ``workload``.

    Subclasses are frozen dataclasses declaring ``request_rate``, ``duration``
    and ``workload``; what sets them apart is the workload shape or, for
    :class:`SpotPreemptionScenario`, the faults injected on top.
    """

    #: the one workload the scenario's traffic is drawn from
    workload: WorkloadSpec

    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Sample steady Poisson arrivals of :attr:`workload`."""
        gen = PoissonArrivalGenerator(self.workload, self.request_rate, seed=seed)
        trace = gen.generate(duration=self.duration)
        return Trace(requests=trace.requests, name=self.name)

    def planning_workload(self) -> WorkloadSpec:
        """The workload the scheduler plans for (the steady traffic's own spec)."""
        return self.workload


@dataclass(frozen=True)
class DiurnalTrafficScenario(Scenario):
    """A day/night load cycle compressed into the trace duration.

    The arrival rate follows ``base + (peak - base) * (1 - cos(2*pi*t/T)) / 2``:
    it starts at the overnight trough, peaks mid-trace and returns to the trough,
    like one diurnal period of a consumer-facing service.  ``request_rate`` is
    the *peak* rate — the figure capacity must be planned for.
    """

    name: ClassVar[str] = "diurnal"
    description: ClassVar[str] = "sinusoidal day/night traffic cycle"

    request_rate: float = 6.0
    duration: float = 120.0
    trough_fraction: float = 0.25
    workload: WorkloadSpec = CONVERSATION_WORKLOAD

    def __post_init__(self) -> None:
        if not 0 <= self.trough_fraction <= 1:
            raise ValueError("trough_fraction must be in [0, 1]")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at trace time ``t``."""
        trough = self.trough_fraction * self.request_rate
        swing = self.request_rate - trough
        return trough + swing * (1.0 - math.cos(2.0 * math.pi * t / self.duration)) / 2.0

    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Sample the day/night cycle as a thinned Poisson process."""
        return thinned_poisson_trace(
            self.workload, self.rate_at, self.request_rate, self.duration,
            seed=seed, name=self.name,
        )

    def planning_workload(self) -> WorkloadSpec:
        """The workload the scheduler plans for (the cycle's single spec)."""
        return self.workload


@dataclass(frozen=True)
class BurstySpikesScenario(Scenario):
    """Steady traffic punctuated by short high-rate spikes.

    ``request_rate`` is the baseline; ``num_bursts`` evenly spaced bursts each
    multiply it by ``burst_multiplier`` for ``burst_fraction`` of the burst
    period — a flash-crowd / retry-storm shape that stresses queueing headroom.
    """

    name: ClassVar[str] = "bursty"
    description: ClassVar[str] = "steady load with short flash-crowd spikes"

    request_rate: float = 4.0
    duration: float = 120.0
    burst_multiplier: float = 3.0
    num_bursts: int = 3
    burst_fraction: float = 0.12
    workload: WorkloadSpec = CONVERSATION_WORKLOAD

    def __post_init__(self) -> None:
        if self.burst_multiplier < 1:
            raise ValueError("burst_multiplier must be >= 1")
        if self.num_bursts < 1:
            raise ValueError("num_bursts must be >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at trace time ``t``."""
        period = self.duration / self.num_bursts
        phase = (t % period) / period
        in_burst = phase < self.burst_fraction
        return self.request_rate * (self.burst_multiplier if in_burst else 1.0)

    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Sample baseline-plus-spikes arrivals as a thinned Poisson process."""
        return thinned_poisson_trace(
            self.workload, self.rate_at, self.request_rate * self.burst_multiplier,
            self.duration, seed=seed, name=self.name,
        )

    def planning_workload(self) -> WorkloadSpec:
        """The workload the scheduler plans for (spikes share the base spec)."""
        return self.workload


@dataclass(frozen=True)
class LongContextRAGScenario(SteadyPoissonScenario):
    """Retrieval-augmented generation: very long prompts, moderate outputs."""

    name: ClassVar[str] = "long-context-rag"
    description: ClassVar[str] = "long retrieved-context prompts (prefill heavy)"

    request_rate: float = 2.0
    duration: float = 120.0
    workload: WorkloadSpec = RAG_WORKLOAD


#: Retrieval *lookups*: the prompt carries a whole document bundle but the
#: answer is a short extraction (a citation, a yes/no, a field value).  Decode
#: nearly vanishes, so prefill throughput — and the engine's coalesced prefill
#: batching — is the only thing that matters.
LONG_PROMPT_RAG_WORKLOAD = WorkloadSpec(
    name="long-prompt-rag",
    median_input_length=4096.0,
    median_output_length=24.0,
    input_sigma=0.3,
    output_sigma=0.45,
    max_input_length=8192,
)


@dataclass(frozen=True)
class LongPromptRAGScenario(SteadyPoissonScenario):
    """Retrieval lookups: very heavy prompts with terse answers.

    The prefill-dominated extreme of the library — arrival bursts queue whole
    documents on the prefill replicas while decode replicas sit almost idle.
    Exercises multi-request prefill batches, prefill-epoch truncation by fresh
    arrivals and the coalesced KV-transfer handoffs end to end.
    """

    name: ClassVar[str] = "long-prompt-rag"
    description: ClassVar[str] = "heavy retrieval prompts, terse answers (prefill dominated)"

    request_rate: float = 2.5
    duration: float = 120.0
    workload: WorkloadSpec = LONG_PROMPT_RAG_WORKLOAD


@dataclass(frozen=True)
class AgenticCodingMixScenario(Scenario):
    """An agent loop interleaving coding turns with conversational turns.

    Coding turns dominate by ``coding_fraction``; the remainder are conversation
    turns.  The resulting prefill:decode demand sits between the two pure
    workloads and drifts with the mix — the §3.4 workload-shift situation.
    """

    name: ClassVar[str] = "agentic-mix"
    description: ClassVar[str] = "agentic coding/conversation request mix"

    request_rate: float = 5.0
    duration: float = 120.0
    coding_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.coding_fraction < 1:
            raise ValueError("coding_fraction must be in (0, 1)")

    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Merge independent Poisson streams of coding and conversation turns."""
        rng = ensure_rng(seed)
        coding_rng, conv_rng = spawn_rng(rng, 2)
        coding = PoissonArrivalGenerator(
            CODING_WORKLOAD, self.request_rate * self.coding_fraction, seed=coding_rng
        ).generate(duration=self.duration)
        conversation = PoissonArrivalGenerator(
            CONVERSATION_WORKLOAD, self.request_rate * (1.0 - self.coding_fraction),
            seed=conv_rng,
        ).generate(duration=self.duration)
        return merge_traces([coding, conversation], name=self.name)

    def planning_workload(self) -> WorkloadSpec:
        """Mix-weighted medians: the single spec the scheduler plans the blend with."""
        f = self.coding_fraction
        return WorkloadSpec(
            name=self.name,
            median_input_length=(
                f * CODING_WORKLOAD.median_input_length
                + (1 - f) * CONVERSATION_WORKLOAD.median_input_length
            ),
            median_output_length=(
                f * CODING_WORKLOAD.median_output_length
                + (1 - f) * CONVERSATION_WORKLOAD.median_output_length
            ),
            input_sigma=max(CODING_WORKLOAD.input_sigma, CONVERSATION_WORKLOAD.input_sigma),
            output_sigma=max(CODING_WORKLOAD.output_sigma, CONVERSATION_WORKLOAD.output_sigma),
        )


@dataclass(frozen=True)
class TenantTier:
    """One tenant class of the multi-tenant scenario."""

    tenant: str
    workload: WorkloadSpec
    share: float
    slo_scale: float

    def __post_init__(self) -> None:
        if not 0 < self.share <= 1:
            raise ValueError("share must be in (0, 1]")
        if self.slo_scale <= 0:
            raise ValueError("slo_scale must be positive")


#: Default gold/silver/bronze split: a latency-sensitive interactive tier, a
#: standard tier and a batch-ish tier with a loose deadline.
DEFAULT_TIERS: Tuple[TenantTier, ...] = (
    TenantTier("gold", CONVERSATION_WORKLOAD, share=0.2, slo_scale=3.0),
    TenantTier("silver", CONVERSATION_WORKLOAD, share=0.5, slo_scale=5.0),
    TenantTier("bronze", CODING_WORKLOAD, share=0.3, slo_scale=8.0),
)


@dataclass(frozen=True)
class MultiTenantSLOTiersScenario(Scenario):
    """Several tenants share the fleet, each under its own SLO tier.

    Requests are tagged ``"tenant:<name>"`` so per-tier attainment can be
    reported separately; the scenario-level :meth:`slo_scale` is the tightest
    tier's, since that is the contract hardest to keep.
    """

    name: ClassVar[str] = "multi-tenant"
    description: ClassVar[str] = "gold/silver/bronze tenants with distinct SLO tiers"

    request_rate: float = 5.0
    duration: float = 120.0
    tiers: Tuple[TenantTier, ...] = DEFAULT_TIERS

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tenant tier is required")
        total = sum(t.share for t in self.tiers)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"tenant shares must sum to 1, got {total:g}")
        if len({t.tenant for t in self.tiers}) != len(self.tiers):
            raise ValueError("tenant names must be unique")

    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Merge one tagged Poisson stream per tenant tier."""
        rng = ensure_rng(seed)
        rngs = spawn_rng(rng, len(self.tiers))
        traces = []
        for tier, tier_rng in zip(self.tiers, rngs):
            spec = tier.workload.with_name(f"tenant:{tier.tenant}")
            gen = PoissonArrivalGenerator(spec, self.request_rate * tier.share, seed=tier_rng)
            traces.append(gen.generate(duration=self.duration))
        return merge_traces(traces, name=self.name)

    def planning_workload(self) -> WorkloadSpec:
        """Share-weighted medians across the tenant mix."""
        return WorkloadSpec(
            name=self.name,
            median_input_length=sum(t.share * t.workload.median_input_length for t in self.tiers),
            median_output_length=sum(t.share * t.workload.median_output_length for t in self.tiers),
            input_sigma=max(t.workload.input_sigma for t in self.tiers),
            output_sigma=max(t.workload.output_sigma for t in self.tiers),
        )

    def slo_scale(self) -> float:
        """The tightest tier's scale — the contract hardest to keep."""
        return min(t.slo_scale for t in self.tiers)


@dataclass(frozen=True)
class SpotPreemptionScenario(SteadyPoissonScenario):
    """Steady traffic with spot-instance preemptions injected mid-run.

    At each preemption fraction of the trace, ``gpus_per_preemption`` GPUs are
    reclaimed; the serving system must absorb the loss by replanning between
    windows (Figure 11) with the strategy named by ``reschedule_mode`` —
    ``"lightweight"`` (§3.4 flip-only, the default), ``"full"`` (re-run the
    scheduler, parameters reload) or ``"none"`` (drop dead groups).  Victims
    are drawn at random from whatever the earlier preemptions left alive,
    mirroring how providers reclaim spot capacity; :meth:`fault_schedule` pins
    them up front so the schedule replays deterministically.
    """

    name: ClassVar[str] = "spot-preemption"
    description: ClassVar[str] = "spot-instance GPU preemptions mid-run"

    #: replan strategies accepted by ``reschedule_mode``
    RESCHEDULE_MODES: ClassVar[Tuple[str, ...]] = ("lightweight", "full", "none")

    request_rate: float = 4.0
    duration: float = 120.0
    preemption_fractions: Tuple[float, ...] = (0.4, 0.7)
    gpus_per_preemption: int = 2
    workload: WorkloadSpec = CONVERSATION_WORKLOAD
    reschedule_mode: str = "lightweight"

    def __post_init__(self) -> None:
        if self.gpus_per_preemption < 1:
            raise ValueError("gpus_per_preemption must be >= 1")
        for f in self.preemption_fractions:
            if not 0 < f < 1:
                raise ValueError("preemption fractions must be in (0, 1)")
        if self.reschedule_mode not in self.RESCHEDULE_MODES:
            raise ValueError(
                f"reschedule_mode must be one of {self.RESCHEDULE_MODES}, "
                f"got {self.reschedule_mode!r}"
            )

    def fault_schedule(self, cluster: Cluster, seed: RNGLike = None) -> FaultSchedule:
        """One pinned ``GPU_PREEMPTION`` per preemption fraction, in time order.

        Each event draws ``gpus_per_preemption`` victims (fewer once the
        cluster runs short) from the roster minus earlier victims.  An event
        that finds no GPU left is omitted.

        Raises
        ------
        ConfigurationError
            If ``gpus_per_preemption`` exceeds the cluster's GPU count.
        """
        if self.gpus_per_preemption > cluster.num_gpus:
            raise ConfigurationError(
                f"scenario {self.name!r} preempts {self.gpus_per_preemption} GPUs "
                f"per event but the cluster only has {cluster.num_gpus}"
            )
        rng = ensure_rng(seed)
        alive = sorted(cluster.gpu_ids)
        events = []
        for f in sorted(self.preemption_fractions):
            if not alive:
                break
            count = min(self.gpus_per_preemption, len(alive))
            victims = tuple(int(g) for g in rng.choice(alive, size=count, replace=False))
            events.append(
                FaultEvent(
                    time=f * self.duration,
                    kind=FaultKind.GPU_PREEMPTION,
                    gpu_ids=victims,
                    description=f"spot preemption at {f:.0%} of the trace",
                )
            )
            alive = [g for g in alive if g not in victims]
        return FaultSchedule.from_events(events)

    def rescheduling_mode(self) -> str:
        """The configured per-scenario replan strategy (``reschedule_mode``)."""
        return self.reschedule_mode


__all__ = [
    "RAG_WORKLOAD",
    "LONG_PROMPT_RAG_WORKLOAD",
    "DEFAULT_TIERS",
    "TenantTier",
    "DiurnalTrafficScenario",
    "BurstySpikesScenario",
    "LongContextRAGScenario",
    "LongPromptRAGScenario",
    "AgenticCodingMixScenario",
    "MultiTenantSLOTiersScenario",
    "SpotPreemptionScenario",
]

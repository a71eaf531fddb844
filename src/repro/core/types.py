"""Core value types shared by the scheduler, simulator and serving runtime.

The types here mirror the vocabulary of the paper:

* :class:`Phase` — the two inference phases (prefill and decode) that phase-splitting
  deployments assign to *different* model replicas.
* :class:`Request` — a single inference request with an arrival time, a prompt
  (input) length and a response (output) length.
* :class:`RequestMetrics` — the per-request timings the paper evaluates: TTFT (time
  to first token), TPOT (time per output token), and end-to-end latency, plus the
  breakdown into queueing / prefill / KV-transfer / decode components used by the
  case studies in Appendix H.
* :class:`SLOSpec` / :class:`SLOType` — service-level-objective definitions.  The
  paper scales SLOs as multiples of a reference single-device execution latency
  ("SLO scale"); :meth:`SLOSpec.from_scale` constructs absolute deadlines from that
  convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Phase(str, enum.Enum):
    """The two phases of LLM inference.

    The *prefill* phase processes the whole prompt in one step (compute bound); the
    *decode* phase generates output tokens one at a time (memory-bandwidth bound).
    Under phase splitting each model replica serves exactly one phase.
    """

    PREFILL = "prefill"
    DECODE = "decode"

    def other(self) -> "Phase":
        """Return the opposite phase (used by the flip-phase tabu move)."""
        return Phase.DECODE if self is Phase.PREFILL else Phase.PREFILL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SLOType(str, enum.Enum):
    """Which latency metric an SLO constrains."""

    TTFT = "ttft"
    TPOT = "tpot"
    E2E = "e2e"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RequestOutcome(enum.IntEnum):
    """Terminal disposition of a request under the fault-aware request lifecycle.

    Every arrival reaches exactly one outcome (the conservation invariant the
    simulator enforces): it either finishes — possibly after one or more
    fault-triggered retries — or it is cancelled with a recorded cause.
    ``PENDING`` is only observable on horizon-truncated runs, where in-flight
    requests are cut off before reaching a terminal state.

    The integer values are stable (they are stored in the fast engine's metric
    columns and serialized in telemetry snapshots); new outcomes must append.
    """

    #: not yet terminal (only on horizon-truncated runs)
    PENDING = 0
    #: completed on the first dispatch, no fault ever touched it
    FINISHED = 1
    #: completed after at least one fault-triggered retry
    RETRIED_THEN_FINISHED = 2
    #: cancelled because the next retry would exceed the per-request deadline
    TIMED_OUT = 3
    #: dropped — no surviving capacity to retry on, or retry budget exhausted
    DROPPED_OUTAGE = 4
    #: never produced: nothing sheds requests.  Kept so the integer codes stay
    #: stable and outcome-name listings (perfbench's report) stay complete.
    SHED = 5

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: dict keys of outcome-count mappings, in ``RequestOutcome`` value order
OUTCOME_NAMES = tuple(o.name.lower() for o in RequestOutcome)


@dataclass(frozen=True)
class Request:
    """A single LLM inference request.

    Attributes
    ----------
    request_id:
        Unique integer id (monotonically increasing within a trace).
    arrival_time:
        Absolute arrival time in seconds from the start of the trace.
    input_length:
        Number of prompt tokens processed by the prefill phase.
    output_length:
        Number of tokens generated by the decode phase (>= 1; the first token is
        produced by prefill, subsequent ones by decode).
    workload:
        Free-form tag of the originating workload ("coding", "conversation", ...),
        used by the workload profiler to detect shifts in the request mix.
    """

    request_id: int
    arrival_time: float
    input_length: int
    output_length: int
    workload: str = "generic"

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        if self.input_length < 1:
            raise ValueError(f"input_length must be >= 1, got {self.input_length}")
        if self.output_length < 1:
            raise ValueError(f"output_length must be >= 1, got {self.output_length}")

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens (the KV cache footprint at completion)."""
        return self.input_length + self.output_length


@dataclass
class RequestMetrics:
    """Measured timings for a completed (or rejected) request.

    All times are absolute simulation times in seconds unless stated otherwise.
    """

    request: Request
    #: time the request entered the prefill queue
    enqueue_time: float = 0.0
    #: time the prefill computation started
    prefill_start: float = 0.0
    #: time the first token was emitted (prefill finished)
    first_token_time: float = 0.0
    #: time the KV cache finished transferring to the decode replica
    kv_transfer_done: float = 0.0
    #: time the last output token was emitted
    completion_time: float = 0.0
    #: id of the prefill replica that served this request
    prefill_replica: Optional[int] = None
    #: id of the decode replica that served this request
    decode_replica: Optional[int] = None
    #: whether the request completed within the simulation horizon
    finished: bool = False
    #: typed terminal disposition (``PENDING`` until the request reaches one)
    outcome: RequestOutcome = RequestOutcome.PENDING
    #: number of fault dispositions the request went through (0 = never touched
    #: by a fault; a request dropped on its first dispatch still counts 1)
    attempts: int = 0

    def resolved_outcome(self) -> RequestOutcome:
        """Outcome with the legacy ``finished``-only encoding resolved.

        Producers predating the outcome taxonomy only set ``finished``; for
        them a finished request resolves to ``FINISHED`` (or
        ``RETRIED_THEN_FINISHED`` when retries were recorded) and an
        unfinished one stays ``PENDING``.
        """
        if self.outcome is not RequestOutcome.PENDING:
            return self.outcome
        if self.finished:
            if self.attempts > 0:
                return RequestOutcome.RETRIED_THEN_FINISHED
            return RequestOutcome.FINISHED
        return RequestOutcome.PENDING

    @property
    def ttft(self) -> float:
        """Time to first token: arrival → first token."""
        return self.first_token_time - self.request.arrival_time

    @property
    def tpot(self) -> float:
        """Average time per output token over the decode phase.

        The first token is produced by prefill, so TPOT averages over the remaining
        ``output_length - 1`` tokens; for single-token outputs TPOT is zero.
        """
        extra_tokens = self.request.output_length - 1
        if extra_tokens <= 0:
            return 0.0
        return (self.completion_time - self.first_token_time) / extra_tokens

    @property
    def e2e_latency(self) -> float:
        """End-to-end latency: arrival → last token (includes queueing)."""
        return self.completion_time - self.request.arrival_time

    @property
    def queue_time(self) -> float:
        """Time spent queueing before prefill started."""
        return self.prefill_start - self.request.arrival_time

    def value_for(self, slo_type: SLOType) -> float:
        """Return the latency value compared against an SLO of ``slo_type``."""
        if slo_type is SLOType.TTFT:
            return self.ttft
        if slo_type is SLOType.TPOT:
            return self.tpot
        return self.e2e_latency


@dataclass(frozen=True)
class SLOSpec:
    """Absolute latency deadlines for the three SLO types (seconds).

    The paper expresses SLOs as a *scale* multiplying a reference single-device
    latency measured on an A100 (TTFT reference for prefill, TPOT reference per
    output token, and their combination for E2E).  :meth:`from_scale` implements
    that convention; :meth:`scaled` rescales an existing spec.
    """

    ttft: float
    tpot: float
    e2e: float

    def __post_init__(self) -> None:
        for name in ("ttft", "tpot", "e2e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"SLO {name} must be positive, got {getattr(self, name)}")

    @classmethod
    def from_scale(
        cls,
        scale: float,
        *,
        reference_ttft: float,
        reference_tpot: float,
        mean_output_length: float,
    ) -> "SLOSpec":
        """Build absolute deadlines from an SLO scale and reference latencies.

        ``reference_ttft`` and ``reference_tpot`` are the single-device (A100)
        prefill latency and per-token decode latency for the target workload;
        the E2E deadline is the scaled sum of prefill plus the expected decode
        duration for the mean output length.
        """
        if scale <= 0:
            raise ValueError(f"SLO scale must be positive, got {scale}")
        ttft = scale * reference_ttft
        tpot = scale * reference_tpot
        e2e = scale * (reference_ttft + reference_tpot * max(1.0, mean_output_length))
        return cls(ttft=ttft, tpot=tpot, e2e=e2e)

    def scaled(self, factor: float) -> "SLOSpec":
        """Return a copy with every deadline multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return SLOSpec(ttft=self.ttft * factor, tpot=self.tpot * factor, e2e=self.e2e * factor)

    def deadline_for(self, slo_type: SLOType) -> float:
        """Return the deadline for ``slo_type``."""
        if slo_type is SLOType.TTFT:
            return self.ttft
        if slo_type is SLOType.TPOT:
            return self.tpot
        return self.e2e

    def is_met(self, metrics: RequestMetrics, slo_type: SLOType) -> bool:
        """Whether a completed request meets the SLO of ``slo_type``."""
        if not metrics.finished:
            return False
        return metrics.value_for(slo_type) <= self.deadline_for(slo_type)


__all__ = [
    "Phase",
    "SLOType",
    "Request",
    "RequestMetrics",
    "RequestOutcome",
    "OUTCOME_NAMES",
    "SLOSpec",
]

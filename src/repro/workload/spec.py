"""Workload specifications (length distributions + arrival process parameters).

A :class:`WorkloadSpec` describes the *shape* of a request population: how long the
prompts are, how long the responses are, and how bursty the arrivals are.  The
prefill:decode resource balance that ThunderServe's scheduler discovers is driven
almost entirely by the ratio of prompt to response length, so the two built-in
workloads deliberately sit on opposite sides of that balance:

* :data:`CODING_WORKLOAD` — long prompts (median ≈ 1500 tokens), very short
  responses (median ≈ 13 tokens) → prefill-heavy.
* :data:`CONVERSATION_WORKLOAD` — medium prompts (median ≈ 1024 tokens), long
  responses (median ≈ 129 tokens) → decode-heavy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.rng import RNGLike, ensure_rng


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one request workload.

    Prompt and response lengths are modelled as independent log-normal
    distributions parameterised by their median and the log-space standard
    deviation ``sigma``, truncated to ``[min, max]``.  Log-normals capture the
    heavy right tail observed in production LLM traces.
    """

    name: str
    median_input_length: float
    median_output_length: float
    input_sigma: float = 0.35
    output_sigma: float = 0.6
    min_input_length: int = 8
    max_input_length: int = 8192
    min_output_length: int = 1
    max_output_length: int = 2048

    def __post_init__(self) -> None:
        if self.median_input_length <= 0 or self.median_output_length <= 0:
            raise ConfigurationError("median lengths must be positive")
        if self.input_sigma < 0 or self.output_sigma < 0:
            raise ConfigurationError("sigmas must be non-negative")
        if self.min_input_length < 1 or self.min_output_length < 1:
            raise ConfigurationError("minimum lengths must be >= 1")
        if self.max_input_length < self.min_input_length:
            raise ConfigurationError("max_input_length < min_input_length")
        if self.max_output_length < self.min_output_length:
            raise ConfigurationError("max_output_length < min_output_length")

    # ------------------------------------------------------------------ sampling
    def sample_input_lengths(self, n: int, rng: RNGLike = None) -> np.ndarray:
        """Sample ``n`` prompt lengths (integer token counts)."""
        return self._sample(
            n, self.median_input_length, self.input_sigma,
            self.min_input_length, self.max_input_length, rng,
        )

    def sample_output_lengths(self, n: int, rng: RNGLike = None) -> np.ndarray:
        """Sample ``n`` response lengths (integer token counts)."""
        return self._sample(
            n, self.median_output_length, self.output_sigma,
            self.min_output_length, self.max_output_length, rng,
        )

    @staticmethod
    def _sample(
        n: int, median: float, sigma: float, lo: int, hi: int, rng: RNGLike
    ) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        gen = ensure_rng(rng)
        if sigma == 0:
            values = np.full(n, median)
        else:
            values = gen.lognormal(mean=math.log(median), sigma=sigma, size=n)
        return np.clip(np.round(values), lo, hi).astype(int)

    # ------------------------------------------------------------------ analytics
    @property
    def mean_input_length(self) -> float:
        """Analytic mean of the (untruncated) prompt-length distribution."""
        return self.median_input_length * math.exp(self.input_sigma**2 / 2)

    @property
    def mean_output_length(self) -> float:
        """Analytic mean of the (untruncated) response-length distribution."""
        return self.median_output_length * math.exp(self.output_sigma**2 / 2)

    def with_name(self, name: str) -> "WorkloadSpec":
        """Return a renamed copy (useful when building mixed workloads)."""
        return replace(self, name=name)


@dataclass(frozen=True)
class WorkloadStats:
    """Empirical summary of a window of observed requests.

    Produced by the online workload profiler and consumed by the scheduler's
    shift detector and by the lightweight rescheduler.
    """

    mean_input_length: float
    mean_output_length: float
    request_rate: float
    num_requests: int = 0

    def as_spec(
        self, name: str = "observed", template: "WorkloadSpec | None" = None
    ) -> WorkloadSpec:
        """Convert the observed means into a workload spec for re-planning.

        Without a ``template`` the spec is degenerate (zero variance): the
        observed means become the medians.  With a ``template`` — typically the
        workload the deployment was planned for — its log-normal sigmas and
        length bounds are inherited and the medians are set so the spec's
        *means* match the observed means (a log-normal's mean exceeds its
        median by ``exp(sigma^2 / 2)``).  The profiler only tracks means, so
        the template supplies the spread; feeding the estimator a zero-variance
        spec collapses its quantile grid to a single point and makes per-pair
        attainment all-or-nothing, which is exactly the wrong signal to drive
        an online phase-flip decision with.
        """
        input_sigma = template.input_sigma if template is not None else 0.0
        output_sigma = template.output_sigma if template is not None else 0.0
        spec = WorkloadSpec(
            name=name,
            median_input_length=max(
                1.0, self.mean_input_length / math.exp(input_sigma**2 / 2)
            ),
            median_output_length=max(
                1.0, self.mean_output_length / math.exp(output_sigma**2 / 2)
            ),
            input_sigma=input_sigma,
            output_sigma=output_sigma,
        )
        if template is not None:
            spec = replace(
                spec,
                min_input_length=template.min_input_length,
                max_input_length=template.max_input_length,
                min_output_length=template.min_output_length,
                max_output_length=template.max_output_length,
            )
        return spec


#: Coding workload: long prompts (median > 1000 tokens), very short completions
#: (median 13 tokens) — prefill-heavy.
CODING_WORKLOAD = WorkloadSpec(
    name="coding",
    median_input_length=1152.0,
    median_output_length=13.0,
    input_sigma=0.3,
    output_sigma=0.55,
)

#: Conversation workload: long prompts (median > 1000 tokens), long completions
#: (median 129 tokens) — decode-heavy.
CONVERSATION_WORKLOAD = WorkloadSpec(
    name="conversation",
    median_input_length=1024.0,
    median_output_length=129.0,
    input_sigma=0.35,
    output_sigma=0.6,
)

__all__ = [
    "WorkloadSpec",
    "WorkloadStats",
    "CODING_WORKLOAD",
    "CONVERSATION_WORKLOAD",
]

"""Workload specification, trace generation and online profiling.

The paper evaluates two real-world workloads taken from the Azure LLM inference
traces — *coding* (long prompts, very short responses) and *conversation* (long
prompts, long responses) — with Poisson request arrivals.  We replace the
proprietary traces with synthetic generators whose medians match the numbers the
paper reports (§ "Implementation details": coding has a median prompt above 1000
tokens and a median of 13 output tokens; conversation has a median of 129 output
tokens).
"""

from repro.workload.spec import (
    WorkloadSpec,
    WorkloadStats,
    CODING_WORKLOAD,
    CONVERSATION_WORKLOAD,
)
from repro.workload.generator import (
    DEFAULT_CHUNK_SIZE,
    DiurnalTimeWarp,
    PoissonArrivalGenerator,
    generate_requests,
)
from repro.workload.trace import RequestArrays, Trace, merge_traces
from repro.workload.profiler import WorkloadProfiler, WorkloadShift

__all__ = [
    "WorkloadSpec",
    "WorkloadStats",
    "CODING_WORKLOAD",
    "CONVERSATION_WORKLOAD",
    "DEFAULT_CHUNK_SIZE",
    "DiurnalTimeWarp",
    "PoissonArrivalGenerator",
    "generate_requests",
    "RequestArrays",
    "Trace",
    "merge_traces",
    "WorkloadProfiler",
    "WorkloadShift",
]

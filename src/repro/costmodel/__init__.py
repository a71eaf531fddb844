"""Analytic cost models: roofline latency, alpha-beta communication, prices.

The paper's scheduler never executes the model while searching — it relies on an
analytic cost model (borrowed from HexGen) for per-phase latency/throughput and on
the alpha-beta (Hockney) model for KV-cache communication, then validates both
against real execution (Appendix J).  This subpackage is that cost model; the
discrete-event simulator consumes it to produce end-to-end metrics.

The roofline is written once per phase in :mod:`repro.costmodel.latency`; scalar,
array and single-GPU prices all go through it.  :mod:`repro.costmodel.alpha_beta`
holds only :func:`transfer_seconds`, and :func:`kv_link` is the one place that
chooses the link a KV handoff takes.
"""

from repro.costmodel.alpha_beta import transfer_seconds
from repro.costmodel.latency import (
    CostModelParams,
    ReplicaCostModel,
    single_gpu_phase_latency,
)
from repro.costmodel.kv_transfer import kv_link, kv_transfer_seconds, kv_transfer_bytes
from repro.costmodel.price import phase_price_per_request, phase_price_table
from repro.costmodel.reference import ReferenceLatency, a100_reference_latency

__all__ = [
    "transfer_seconds",
    "CostModelParams",
    "ReplicaCostModel",
    "single_gpu_phase_latency",
    "kv_link",
    "kv_transfer_seconds",
    "kv_transfer_bytes",
    "phase_price_per_request",
    "phase_price_table",
    "ReferenceLatency",
    "a100_reference_latency",
]

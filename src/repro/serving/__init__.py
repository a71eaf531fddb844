"""The ThunderServe serving runtime.

This package is the control plane of the reproduction: the
:class:`ThunderServe` facade that ties scheduling, serving (simulated
execution), workload profiling and lightweight rescheduling together — the
overall routine described in §4 and Appendix E — and the live adaptive
serving layer: SLO objectives and the one serving policy that picks them per
window (:func:`slo_policy`, :mod:`repro.serving.slo_objectives`),
edge-triggered breach tracking (:class:`SLOBreachTracker`) and the windowed
:class:`LiveServer` loop with streaming per-window telemetry
(:mod:`repro.serving.live`), which adapts to the two triggers of §3.4:
workload change and capacity change.

There is no separate dispatcher: the engine routes every request itself, by
sampling its (prefill, decode) pair from the installed plan's ``X`` / ``Y``
orchestration, and :class:`LiveServeReport` is the run's request ledger.
"""

from repro.serving.live import (
    LiveServeConfig,
    LiveServeReport,
    LiveServer,
    PlanHealth,
    WindowTelemetry,
    plan_signature,
)
from repro.serving.monitor import SLOBreachTracker
from repro.serving.slo_objectives import (
    BreachEvent,
    ObjectiveOutcome,
    SLOObjective,
    SLOReport,
    evaluate_slo_objectives,
    slo_policy,
)
from repro.serving.system import ServeEvent, ThunderServe

__all__ = [
    "SLOBreachTracker",
    "ThunderServe",
    "ServeEvent",
    "LiveServer",
    "LiveServeConfig",
    "LiveServeReport",
    "WindowTelemetry",
    "PlanHealth",
    "plan_signature",
    "SLOObjective",
    "ObjectiveOutcome",
    "SLOReport",
    "BreachEvent",
    "evaluate_slo_objectives",
    "slo_policy",
]

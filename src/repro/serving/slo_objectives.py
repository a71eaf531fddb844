"""SLO objectives, the live loop's serving profiles and breach events.

The live serving loop (:mod:`repro.serving.live`) measures a telemetry
*snapshot* per serving window — attainment, queue wait, estimated utilisation —
and judges it under one fixed policy, :func:`slo_policy`: a window is
``"realtime"`` while its E2E attainment stays at or above
:data:`REALTIME_ATTAINMENT_MIN` and the estimated utilisation stays below
:data:`OVERLOAD_RHO`, and ``"degraded"`` otherwise.  Each profile holds the
objectives of :data:`SLO_PROFILES`:

- ``realtime``: availability (``attainment_e2e >= 0.9``) and headroom
  (``estimated_rho <= 0.95``);
- ``degraded``: availability (``attainment_e2e >= 0.5``).

Objectives that fail produce :class:`BreachEvent` records, which the live loop
feeds to the §3.4 lightweight rescheduler.  :func:`evaluate_slo_objectives`
also evaluates any other objective list, in :class:`SLOObjective` or dict form
(the paper-claims registry passes dicts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Comparison operators an objective may use.
SLO_OPS: Tuple[str, ...] = (">=", "<=")

#: Profile label :func:`evaluate_slo_objectives` records when given none.
DEFAULT_PROFILE = "default"

#: Windowed E2E attainment at or above which a window is judged ``realtime``.
REALTIME_ATTAINMENT_MIN = 0.75
#: Estimated utilisation at or beyond which a window is judged ``degraded``;
#: also the ``realtime`` profile's headroom target.
OVERLOAD_RHO = 0.95


@dataclass(frozen=True)
class SLOObjective:
    """One declarative SLO objective: a named threshold on a snapshot metric.

    Parameters
    ----------
    name:
        Stable identifier of the objective (breach events key on it).
    metric:
        Snapshot key the objective reads (e.g. ``"attainment_e2e"``).
    op:
        Comparison direction, ``">="`` or ``"<="``.
    target:
        Threshold the metric is compared against.

    Raises
    ------
    ValueError
        If ``name`` or ``metric`` is empty, or ``op`` is not a known operator.
    """

    name: str
    metric: str
    op: str
    target: float

    def __post_init__(self) -> None:
        if not self.name or not self.metric:
            raise ValueError("objective name and metric must be non-empty")
        if self.op not in SLO_OPS:
            raise ValueError(f"op must be one of {SLO_OPS}, got {self.op!r}")

    def is_met(self, value: Optional[float]) -> bool:
        """Return whether ``value`` satisfies the objective.

        A missing (``None``) or NaN value never satisfies an objective: an
        unobservable metric is treated as a breach, not silently skipped.
        """
        if value is None or math.isnan(value):
            return False
        return value >= self.target if self.op == ">=" else value <= self.target

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SLOObjective":
        """Build an objective from its dict form (``name``/``metric``/``op``/``target``)."""
        return cls(
            name=str(data["name"]),
            metric=str(data["metric"]),
            op=str(data["op"]),
            target=float(data["target"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ObjectiveOutcome:
    """Evaluation of one objective against one snapshot."""

    objective: SLOObjective
    #: the snapshot value the objective read (``None`` when the metric was absent)
    value: Optional[float]
    #: whether the objective was satisfied
    passed: bool


@dataclass(frozen=True)
class SLOReport:
    """Outcome of evaluating a profile's objectives against one snapshot."""

    profile: str
    outcomes: Tuple[ObjectiveOutcome, ...]

    @property
    def passed(self) -> bool:
        """Whether every objective passed."""
        return all(o.passed for o in self.outcomes)

    @property
    def failed(self) -> List[str]:
        """Names of the objectives that failed, in config order."""
        return [o.objective.name for o in self.outcomes if not o.passed]


@dataclass(frozen=True)
class BreachEvent:
    """One SLO-objective crossing from passing to failing.

    Emitted by :class:`~repro.serving.monitor.SLOBreachTracker` exactly once
    per crossing: a persistently failing objective does not re-fire until it
    has recovered (passed) and failed again.
    """

    #: serving-clock time the breach was observed (window end)
    time: float
    #: index of the serving window whose snapshot breached
    window_index: int
    #: profile active when the breach fired
    profile: str
    #: name of the breached objective
    objective: str
    #: snapshot metric the objective reads
    metric: str
    #: comparison direction of the objective
    op: str
    #: objective threshold
    target: float
    #: observed value (``None`` when the metric was absent from the snapshot)
    value: Optional[float]
    #: free-form label of the serving context (scenario name, trace label, ...)
    context: str = ""

    def describe(self) -> str:
        """Return a human-readable one-line summary of the breach."""
        observed = "n/a" if self.value is None else f"{self.value:.4g}"
        return (
            f"SLO breach [{self.profile}] {self.objective}: "
            f"{self.metric}={observed} violates {self.op} {self.target:g} "
            f"(window {self.window_index}, t={self.time:.1f}s)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the event."""
        return {
            "time": self.time,
            "window_index": self.window_index,
            "profile": self.profile,
            "objective": self.objective,
            "metric": self.metric,
            "op": self.op,
            "target": self.target,
            "value": self.value,
            "context": self.context,
        }


def _as_objectives(items: Sequence[object]) -> List[SLOObjective]:
    """Normalise an objective list, instances or dict form, to :class:`SLOObjective` instances."""
    objectives: List[SLOObjective] = []
    for item in items:
        if isinstance(item, SLOObjective):
            objectives.append(item)
        else:
            objectives.append(SLOObjective.from_dict(item))  # type: ignore[arg-type]
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"objective names must be unique within a profile, got {names}")
    return objectives


def evaluate_slo_objectives(
    snapshot: Mapping[str, float],
    objectives: Sequence[object],
    profile: str = DEFAULT_PROFILE,
) -> SLOReport:
    """Evaluate objectives against a telemetry snapshot.

    Parameters
    ----------
    snapshot:
        Metric name → value mapping (a :meth:`WindowTelemetry.snapshot
        <repro.serving.live.WindowTelemetry.snapshot>` or any dict).
    objectives:
        Objective list — :class:`SLOObjective` instances or their dict form.
    profile:
        Profile label recorded on the report (and on any breach events derived
        from it).

    Returns
    -------
    SLOReport
        Per-objective outcomes in config order; a metric absent from the
        snapshot fails its objective.
    """
    outcomes = []
    for objective in _as_objectives(objectives):
        raw = snapshot.get(objective.metric)
        value = None if raw is None else float(raw)
        outcomes.append(
            ObjectiveOutcome(objective=objective, value=value, passed=objective.is_met(value))
        )
    return SLOReport(profile=profile, outcomes=tuple(outcomes))


#: The objectives each serving profile holds, in evaluation order.
SLO_PROFILES: Dict[str, Tuple[SLOObjective, ...]] = {
    "realtime": (
        SLOObjective(name="availability", metric="attainment_e2e", op=">=", target=0.9),
        SLOObjective(name="headroom", metric="estimated_rho", op="<=", target=OVERLOAD_RHO),
    ),
    "degraded": (
        SLOObjective(name="availability", metric="attainment_e2e", op=">=", target=0.5),
    ),
}


def slo_policy(snapshot: Mapping[str, float]) -> Tuple[str, List[SLOObjective]]:
    """Return the profile a snapshot is judged under and that profile's objectives.

    The service is ``"realtime"`` while ``attainment_e2e`` stays at or above
    :data:`REALTIME_ATTAINMENT_MIN` and ``estimated_rho`` stays below
    :data:`OVERLOAD_RHO` (a missing or NaN utilisation counts as 0); otherwise
    it is ``"degraded"``.  A snapshot whose attainment is missing or NaN is
    ``"degraded"``, so the choice is deterministic on partial telemetry.
    """
    profile = "degraded"
    attainment = snapshot.get("attainment_e2e")
    if attainment is not None and not math.isnan(float(attainment)):
        rho = snapshot.get("estimated_rho", 0.0)
        rho = 0.0 if rho is None or math.isnan(float(rho)) else float(rho)
        if float(attainment) >= REALTIME_ATTAINMENT_MIN and rho < OVERLOAD_RHO:
            profile = "realtime"
    return profile, list(SLO_PROFILES[profile])


__all__ = [
    "SLO_OPS",
    "DEFAULT_PROFILE",
    "SLOObjective",
    "ObjectiveOutcome",
    "SLOReport",
    "BreachEvent",
    "REALTIME_ATTAINMENT_MIN",
    "OVERLOAD_RHO",
    "SLO_PROFILES",
    "evaluate_slo_objectives",
    "slo_policy",
]

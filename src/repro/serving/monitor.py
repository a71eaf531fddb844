"""Edge-triggered SLO-breach tracking for the live serving loop.

:class:`SLOBreachTracker` turns per-window
:class:`~repro.serving.slo_objectives.SLOReport` evaluations into breach
events that fire exactly once per objective crossing.  GPU failures and
recoveries are not detected here: they arrive as typed
:class:`~repro.faults.FaultSchedule` events, which the live loop folds through
:class:`~repro.faults.state.ClusterFaultState` at window boundaries.
"""

from __future__ import annotations

from typing import List, Set

from repro.serving.slo_objectives import BreachEvent, SLOReport


class SLOBreachTracker:
    """Edge-triggered breach bookkeeping over per-window SLO reports.

    A breach event fires when an objective crosses from passing (or unseen) to
    failing; while the objective keeps failing in subsequent windows no further
    event is emitted.  When the objective passes again it is re-armed, so the
    next crossing fires a fresh event.  This mirrors how alerting pipelines
    de-duplicate a sustained violation into one page.
    """

    def __init__(self) -> None:
        self._breached: Set[str] = set()

    def update(
        self,
        report: SLOReport,
        time: float,
        window_index: int = 0,
        context: str = "",
    ) -> List[BreachEvent]:
        """Fold one window's report into the tracker and return new breaches.

        Parameters
        ----------
        report:
            The window's :class:`~repro.serving.slo_objectives.SLOReport`.
        time:
            Serving-clock time stamped onto emitted events (the window end).
        window_index:
            Index of the window, recorded on emitted events.
        context:
            Free-form serving context (scenario name, trace label).

        Returns
        -------
        list of BreachEvent
            One event per objective that *newly* crossed into failure this
            window, in report order.  Objectives already breached stay silent;
            objectives that passed are re-armed.
        """
        events: List[BreachEvent] = []
        for outcome in report.outcomes:
            name = outcome.objective.name
            if outcome.passed:
                self._breached.discard(name)
                continue
            if name in self._breached:
                continue
            self._breached.add(name)
            events.append(
                BreachEvent(
                    time=time,
                    window_index=window_index,
                    profile=report.profile,
                    objective=name,
                    metric=outcome.objective.metric,
                    op=outcome.objective.op,
                    target=outcome.objective.target,
                    value=outcome.value,
                    context=context,
                )
            )
        return events


__all__ = ["SLOBreachTracker"]

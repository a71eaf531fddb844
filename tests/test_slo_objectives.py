"""Tests for SLO objectives, the serving SLO policy and breach tracking."""

import json

import pytest

from repro.serving.monitor import SLOBreachTracker
from repro.serving.slo_objectives import (
    DEFAULT_PROFILE,
    BreachEvent,
    SLOObjective,
    evaluate_slo_objectives,
    slo_policy,
)


def _objective(name="availability", metric="attainment_e2e", op=">=", target=0.9):
    return SLOObjective(name=name, metric=metric, op=op, target=target)


class TestSLOObjective:
    def test_geq_and_leq_semantics(self):
        geq = _objective(op=">=", target=0.9)
        assert geq.is_met(0.9) and geq.is_met(1.0)
        assert not geq.is_met(0.89)
        leq = _objective(metric="estimated_rho", op="<=", target=0.95)
        assert leq.is_met(0.95) and leq.is_met(0.1)
        assert not leq.is_met(0.96)

    def test_missing_and_nan_never_satisfy(self):
        obj = _objective()
        assert not obj.is_met(None)
        assert not obj.is_met(float("nan"))

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            _objective(op="==")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _objective(name="")

    def test_dict_round_trip(self):
        data = {"name": "availability", "metric": "attainment_e2e", "op": ">=", "target": 0.9}
        assert SLOObjective.from_dict(data) == _objective()


class TestEvaluate:
    def test_report_pass_and_fail(self):
        snapshot = {"attainment_e2e": 0.95, "estimated_rho": 0.99}
        report = evaluate_slo_objectives(
            snapshot,
            [
                _objective(),
                _objective(name="headroom", metric="estimated_rho", op="<=", target=0.95),
            ],
        )
        assert not report.passed
        assert report.failed == ["headroom"]
        assert report.profile == DEFAULT_PROFILE
        assert [o.passed for o in report.outcomes] == [True, False]

    def test_missing_metric_fails_its_objective(self):
        report = evaluate_slo_objectives({}, [_objective()])
        assert report.failed == ["availability"]
        assert report.outcomes[0].value is None

    def test_accepts_dict_form_objectives(self):
        report = evaluate_slo_objectives(
            {"attainment_e2e": 1.0},
            [{"name": "availability", "metric": "attainment_e2e", "op": ">=", "target": 0.9}],
        )
        assert report.passed

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            evaluate_slo_objectives({}, [_objective(), _objective()])


class TestProfileInference:
    def test_realtime_when_healthy(self):
        snapshot = {"attainment_e2e": 0.9, "estimated_rho": 0.5}
        assert slo_policy(snapshot)[0] == "realtime"

    def test_degraded_on_low_attainment(self):
        assert slo_policy({"attainment_e2e": 0.4, "estimated_rho": 0.5})[0] == "degraded"

    def test_degraded_on_overload(self):
        assert slo_policy({"attainment_e2e": 0.95, "estimated_rho": 0.99})[0] == "degraded"

    def test_missing_attainment_falls_back_deterministically(self):
        # Partial telemetry must resolve the same profile every time.
        snapshots = [{}, {"estimated_rho": 0.1}, {"attainment_e2e": float("nan")}]
        for snapshot in snapshots:
            assert slo_policy(snapshot)[0] == "degraded"


REALTIME = [
    SLOObjective(name="availability", metric="attainment_e2e", op=">=", target=0.9),
    SLOObjective(name="headroom", metric="estimated_rho", op="<=", target=0.95),
]
DEGRADED = [SLOObjective(name="availability", metric="attainment_e2e", op=">=", target=0.5)]
_MISSING = object()
_NAN = float("nan")


def _snapshot(attainment, rho):
    snapshot = {}
    if attainment is not _MISSING:
        snapshot["attainment_e2e"] = attainment
    if rho is not _MISSING:
        snapshot["estimated_rho"] = rho
    return snapshot


class TestResolve:
    def test_profile_form_switches_on_snapshot(self):
        healthy, _ = slo_policy({"attainment_e2e": 0.9, "estimated_rho": 0.5})
        degraded, objectives = slo_policy({"attainment_e2e": 0.2, "estimated_rho": 0.5})
        assert healthy == "realtime"
        assert degraded == "degraded"
        assert [o.name for o in objectives] == ["availability"]

    # One row per grid point: attainment missing, NaN, just below the realtime
    # floor, at it and above it, crossed with rho missing, NaN, just below the
    # overload bound and at it.
    @pytest.mark.parametrize(
        "attainment, rho, profile, objectives",
        [
            (_MISSING, _MISSING, "degraded", DEGRADED),
            (_MISSING, _NAN, "degraded", DEGRADED),
            (_MISSING, 0.94, "degraded", DEGRADED),
            (_MISSING, 0.95, "degraded", DEGRADED),
            (_NAN, _MISSING, "degraded", DEGRADED),
            (_NAN, _NAN, "degraded", DEGRADED),
            (_NAN, 0.94, "degraded", DEGRADED),
            (_NAN, 0.95, "degraded", DEGRADED),
            (0.74, _MISSING, "degraded", DEGRADED),
            (0.74, _NAN, "degraded", DEGRADED),
            (0.74, 0.94, "degraded", DEGRADED),
            (0.74, 0.95, "degraded", DEGRADED),
            (0.75, _MISSING, "realtime", REALTIME),
            (0.75, _NAN, "realtime", REALTIME),
            (0.75, 0.94, "realtime", REALTIME),
            (0.75, 0.95, "degraded", DEGRADED),
            (0.9, _MISSING, "realtime", REALTIME),
            (0.9, _NAN, "realtime", REALTIME),
            (0.9, 0.94, "realtime", REALTIME),
            (0.9, 0.95, "degraded", DEGRADED),
        ],
    )
    def test_policy_grid_pinned(self, attainment, rho, profile, objectives):
        assert slo_policy(_snapshot(attainment, rho)) == (profile, objectives)

    def test_policy_returns_a_fresh_objective_list(self):
        _, objectives = slo_policy({"attainment_e2e": 1.0})
        objectives.clear()
        assert slo_policy({"attainment_e2e": 1.0})[1] == REALTIME


class TestBreachTracker:
    def _report(self, value):
        return evaluate_slo_objectives(
            {"attainment_e2e": value}, [_objective(target=0.9)], profile="realtime"
        )

    def test_breach_fires_exactly_once_per_crossing(self):
        tracker = SLOBreachTracker()
        # pass -> fail fires; staying failed stays silent.
        assert tracker.update(self._report(1.0), time=1.0) == []
        first = tracker.update(self._report(0.5), time=2.0, window_index=1)
        assert len(first) == 1
        assert tracker.update(self._report(0.4), time=3.0, window_index=2) == []
        assert tracker.update(self._report(0.3), time=4.0, window_index=3) == []
        # Recovery re-arms; the next crossing fires a fresh event.
        assert tracker.update(self._report(0.95), time=5.0) == []
        second = tracker.update(self._report(0.2), time=6.0, window_index=5)
        assert len(second) == 1
        assert second[0].window_index == 5

    def test_initial_failure_fires_immediately(self):
        tracker = SLOBreachTracker()
        events = tracker.update(self._report(0.0), time=0.0, context="trace-a")
        assert len(events) == 1
        event = events[0]
        assert event.objective == "availability"
        assert event.profile == "realtime"
        assert event.context == "trace-a"
        assert event.value == 0.0

    def test_reset_rearms_everything(self):
        """A run's reset builds a fresh tracker, which re-arms every objective."""
        tracker = SLOBreachTracker()
        tracker.update(self._report(0.0), time=0.0)
        assert tracker.update(self._report(0.0), time=1.0) == []
        tracker = SLOBreachTracker()
        assert len(tracker.update(self._report(0.0), time=1.0)) == 1


class TestBreachEventSerialisation:
    def test_json_round_trip(self):
        event = BreachEvent(
            time=42.0,
            window_index=3,
            profile="realtime",
            objective="availability",
            metric="attainment_e2e",
            op=">=",
            target=0.9,
            value=0.55,
            context="diurnal",
        )
        data = event.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert BreachEvent(**data) == event

    def test_round_trip_preserves_missing_value(self):
        event = BreachEvent(
            time=1.0, window_index=0, profile="degraded", objective="availability",
            metric="attainment_e2e", op=">=", target=0.5, value=None,
        )
        data = json.loads(json.dumps(event.to_dict()))
        assert data["value"] is None
        assert BreachEvent(**data) == event
        assert "n/a" in event.describe()

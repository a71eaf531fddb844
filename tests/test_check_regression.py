"""Unit tests for the CI bench regression gate (benchmarks/check_regression.py).

The gate only compares fresh reports with their committed baselines; each
benchmark asserts its own absolute contract.  The drift cases are generated
from the manifest, so every row is exercised at its bound, just past it, and
on its better side.
"""

import json
import math
import sys
from pathlib import Path

import pytest

# The benchmarks directory is not a package; import the script by path.
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import check_regression  # noqa: E402
from check_regression import MANIFEST, compare  # noqa: E402

GATES = {gate.benchmark: gate for gate in MANIFEST}
SIMCORE = GATES["bench_simulator_core"]
AGREEMENT = GATES["bench_estimator_saturation"]
CHAOS = GATES["bench_chaos_recovery"]
RELIABILITY = GATES["bench_request_reliability"]
BASELINE_FILES = sorted(p.name for p in (BENCHMARKS / "baselines").glob("*.json"))


def report(gate, value, **extra):
    """A minimal report of ``gate``'s benchmark with its drift metric at ``value``."""
    return {"benchmark": gate.benchmark, "mode": "reduced", gate.metric: value, **extra}


def committed(gate):
    return json.loads(gate.baseline.read_text())


def drift_verdicts(gate, value):
    """Gate a copy of the committed baseline whose drift metric is ``value``."""
    base = committed(gate)
    return compare(gate, base, dict(base, **{gate.metric: value}))


def worse_bounds(gate):
    """The finite bounds of a row, each with the outward direction that fails."""
    lo, hi = gate.allowed(committed(gate)[gate.metric])
    return [(bound, step) for bound, step in ((lo, -math.inf), (hi, math.inf))
            if math.isfinite(bound)]


class TestManifest:
    def test_every_baseline_has_a_row_and_every_row_a_baseline(self):
        assert sorted(gate.baseline.name for gate in MANIFEST) == BASELINE_FILES

    @pytest.mark.parametrize("gate", MANIFEST, ids=lambda gate: gate.benchmark)
    def test_drift_just_past_the_bound_fails(self, gate):
        for bound, outward in worse_bounds(gate):
            failures, _ = drift_verdicts(gate, math.nextafter(bound, outward))
            assert any("drifted" in f for f in failures)

    @pytest.mark.parametrize("gate", MANIFEST, ids=lambda gate: gate.benchmark)
    def test_drift_exactly_at_the_bound_passes(self, gate):
        for bound, _ in worse_bounds(gate):
            assert drift_verdicts(gate, bound)[0] == []

    @pytest.mark.parametrize("gate", MANIFEST, ids=lambda gate: gate.benchmark)
    def test_large_moves_fail_only_in_a_worse_direction(self, gate):
        base = committed(gate)[gate.metric]
        move = 10 * (gate.max_abs if gate.max_rel is None else gate.max_rel * base)
        up_fails = bool(drift_verdicts(gate, base + move)[0])
        down_fails = bool(drift_verdicts(gate, base - move)[0])
        assert (up_fails, down_fails) == {
            "higher": (False, True),
            "lower": (True, False),
            "both": (True, True),
        }[gate.better]


class TestCompare:
    """The generic rules, shown on the decode-core speedup row."""

    def test_healthy_run_passes(self):
        assert compare(SIMCORE, report(SIMCORE, 4.0), report(SIMCORE, 3.9)) == ([], [])

    def test_injected_speedup_regression_fails(self):
        # >30% below the baseline: 4.0x -> 2.0x must trip the gate.
        failures, _ = compare(SIMCORE, report(SIMCORE, 4.0), report(SIMCORE, 2.0))
        assert any("drifted" in f for f in failures)

    def test_regression_at_exactly_the_floor_passes(self):
        assert compare(SIMCORE, report(SIMCORE, 4.0), report(SIMCORE, 2.8))[0] == []

    def test_mode_mismatch_fails(self):
        fresh = dict(report(SIMCORE, 4.0), mode="full")
        failures, _ = compare(SIMCORE, report(SIMCORE, 4.0), fresh)
        assert any("mode mismatch" in f for f in failures)

    def test_wallclock_growth_warns_but_does_not_fail(self):
        failures, warnings = compare(
            SIMCORE, report(SIMCORE, 4.0, t_fast_s=0.05), report(SIMCORE, 4.0, t_fast_s=0.5)
        )
        assert failures == []
        assert any("non-gating" in w for w in warnings)

    def test_missing_speedup_fails(self):
        fresh = report(SIMCORE, 4.0)
        del fresh["speedup"]
        failures, _ = compare(SIMCORE, report(SIMCORE, 4.0), fresh)
        assert any("speedup missing" in f for f in failures)


class TestCompareAgreement:
    """The estimator-agreement row gates the mean gap, lower is better."""

    def test_healthy_agreement_report_passes(self):
        assert compare(AGREEMENT, report(AGREEMENT, 0.07), report(AGREEMENT, 0.08)) == ([], [])

    def test_mean_gap_drift_beyond_slack_fails(self):
        failures, _ = compare(AGREEMENT, report(AGREEMENT, 0.07), report(AGREEMENT, 0.101))
        assert any("drifted" in f for f in failures)

    def test_missing_gap_keys_fail_instead_of_passing_vacuously(self):
        fresh = report(AGREEMENT, 0.07)
        del fresh["mean_gap"]
        failures, _ = compare(AGREEMENT, report(AGREEMENT, 0.07), fresh)
        assert any("mean_gap missing" in f for f in failures)

    def test_kind_mismatch_fails(self):
        # The benchmark name is the report's kind: a speedup report cannot be
        # judged against the agreement baseline.
        failures, _ = compare(AGREEMENT, report(AGREEMENT, 0.07), report(SIMCORE, 4.0))
        assert any("benchmark mismatch" in f for f in failures)

    def test_speedup_rules_not_applied_to_agreement_reports(self):
        # An agreement report has no speedup key; only its own row applies.
        base = committed(AGREEMENT)
        assert "speedup" not in base
        assert compare(AGREEMENT, base, base) == ([], [])


class TestCompareChaos:
    """The chaos row gates adaptive worst-window attainment in both directions."""

    def test_healthy_chaos_report_passes(self):
        assert compare(CHAOS, report(CHAOS, 0.3), report(CHAOS, 0.3)) == ([], [])

    def test_worst_window_drift_beyond_slack_fails(self):
        for moved in (0.36, 0.24):
            failures, _ = compare(CHAOS, report(CHAOS, 0.3), report(CHAOS, moved))
            assert any("drifted" in f for f in failures)

    def test_missing_keys_fail_instead_of_passing_vacuously(self):
        base = report(CHAOS, 0.3)
        assert compare(CHAOS, base, {"benchmark": CHAOS.benchmark, "mode": "reduced"})[0]
        assert compare(CHAOS, {"benchmark": CHAOS.benchmark, "mode": "reduced"}, base)[0]

    def test_mode_mismatch_fails(self):
        fresh = dict(report(CHAOS, 0.3), mode="full")
        failures, _ = compare(CHAOS, report(CHAOS, 0.3), fresh)
        assert any("mode mismatch" in f for f in failures)

    def test_kind_mismatch_fails(self):
        failures, _ = compare(CHAOS, report(CHAOS, 0.3), report(AGREEMENT, 0.3))
        assert any("benchmark mismatch" in f for f in failures)


class TestCompareReliability:
    """The reliability row gates retry-arm attainment in both directions."""

    def test_healthy_reliability_report_passes(self):
        assert compare(
            RELIABILITY, report(RELIABILITY, 0.84), report(RELIABILITY, 0.84)
        ) == ([], [])

    def test_attainment_drift_beyond_slack_fails(self):
        failures, _ = compare(RELIABILITY, report(RELIABILITY, 0.84), report(RELIABILITY, 0.90))
        assert any("drifted" in f for f in failures)

    def test_missing_keys_fail_instead_of_passing_vacuously(self):
        fresh = {"benchmark": RELIABILITY.benchmark, "mode": "reduced", "retry_attainment": None}
        assert compare(RELIABILITY, report(RELIABILITY, 0.84), fresh)[0]

    def test_wallclock_growth_warns_but_does_not_fail(self):
        failures, warnings = compare(
            RELIABILITY,
            report(RELIABILITY, 0.84, elapsed_s=8.0),
            report(RELIABILITY, 0.84, elapsed_s=40.0),
        )
        assert failures == []
        assert any("non-gating" in w for w in warnings)

    def test_mode_mismatch_fails(self):
        fresh = dict(report(RELIABILITY, 0.84), mode="full")
        failures, _ = compare(RELIABILITY, report(RELIABILITY, 0.84), fresh)
        assert any("mode mismatch" in f for f in failures)

    def test_kind_mismatch_fails(self):
        failures, _ = compare(RELIABILITY, report(RELIABILITY, 0.84), report(CHAOS, 0.84))
        assert any("benchmark mismatch" in f for f in failures)


class TestMain:
    """``main()`` gates every row against fresh reports in the working directory."""

    @pytest.fixture
    def fresh_dir(self, tmp_path, monkeypatch):
        """A working directory holding a copy of every committed baseline."""
        monkeypatch.chdir(tmp_path)
        for gate in MANIFEST:
            (tmp_path / gate.fresh).write_text(gate.baseline.read_text())
        return tmp_path

    @staticmethod
    def rewrite(directory, gate, **overrides):
        path = directory / gate.fresh
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **overrides)))

    def test_healthy_exit_zero(self, fresh_dir, capsys):
        assert check_regression.main() == 0
        out = capsys.readouterr().out
        assert out.count("OK:") == len(MANIFEST)
        assert "FAIL:" not in out and "WARN:" not in out

    def test_injected_regression_exit_nonzero(self, fresh_dir, capsys):
        self.rewrite(fresh_dir, SIMCORE, speedup=1.5)
        assert check_regression.main() == 1
        assert "FAIL: [bench_simulator_core]" in capsys.readouterr().out

    def test_missing_fresh_report_exit_nonzero(self, fresh_dir, capsys):
        (fresh_dir / CHAOS.fresh).unlink()
        assert check_regression.main() == 1
        assert "FAIL: [bench_chaos_recovery]" in capsys.readouterr().out

    def test_unparsable_fresh_report_exit_nonzero(self, fresh_dir):
        (fresh_dir / AGREEMENT.fresh).write_text("{not json")
        assert check_regression.main() == 1

    def test_advisory_blowup_warns_and_exits_zero(self, fresh_dir, capsys):
        megatrace = GATES["bench_megatrace"]
        self.rewrite(fresh_dir, megatrace, t_fast_s=10 * committed(megatrace)["t_fast_s"])
        assert check_regression.main() == 0
        assert "WARN: [bench_megatrace] t_fast_s grew" in capsys.readouterr().out

    def test_multiple_pairs_all_gated(self, fresh_dir, capsys):
        """Every row is gated: a regression in the last row fails the whole run."""
        self.rewrite(fresh_dir, MANIFEST[-1], **{MANIFEST[-1].metric: 0.0})
        assert check_regression.main() == 1
        out = capsys.readouterr().out
        assert out.count("OK:") == len(MANIFEST) - 1
        assert f"FAIL: [{MANIFEST[-1].benchmark}]" in out

    @pytest.mark.parametrize("name", BASELINE_FILES)
    def test_gates_against_the_committed_baseline(self, name):
        """Every committed baseline is a reduced-mode report that passes against itself."""
        (gate,) = [gate for gate in MANIFEST if gate.baseline.name == name]
        baseline = committed(gate)
        assert baseline["mode"] == "reduced"
        assert compare(gate, baseline, baseline) == ([], [])

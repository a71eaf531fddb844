"""The paper-claims registry: its EXPERIMENTS.md rendering, bar semantics and rows.

None of these tests runs an experiment: they check the registry against the
committed docs, the objective evaluator on hand-built results, and each row's
kwargs against its module's ``run()`` signature.
"""

import importlib
import inspect
import math
from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS
from repro.experiments.common import ExperimentResult
from repro.serving.slo_objectives import SLO_OPS, SLOObjective, evaluate_slo_objectives

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BY_MODULE = {claim.module: claim for claim in CLAIMS}


def _table_rows(text):
    """Cells of every row of the ``| claim |`` table, header and rule excluded."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| claim |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip()[1:-1].split("|")])
    return rows


def _verdicts(module, result):
    _snapshot, report = BY_MODULE[module].evaluate(result)
    return {o.objective.name: o.passed for o in report.outcomes}


def _result(rows=(), **extras):
    return ExperimentResult("hand-built", headers=[], rows=[list(r) for r in rows], extras=extras)


class TestExperimentsTable:
    def test_claim_paper_and_bar_columns_match_the_registry(self):
        committed = [(row[0], row[1], row[3]) for row in _table_rows(EXPERIMENTS.read_text())]
        assert committed == [(claim.title, claim.paper, claim.bar) for claim in CLAIMS]

    def test_exactly_the_wall_clock_metrics_are_marked(self):
        rows = _table_rows(EXPERIMENTS.read_text())
        marked = set()
        for claim, row in zip(CLAIMS, rows):
            for cell in row[2].split(", "):
                metric = cell.rsplit(" ", 1)[0]
                assert cell.endswith("†") == claim.is_wall_clock(metric), cell
                if cell.endswith("†"):
                    marked.add((claim.module, metric))
        assert marked == {
            ("fig10_convergence", "converge_s@16"),
            ("fig10_convergence", "converge_s@24"),
            ("fig10_convergence", "converge_s@32"),
            ("fig10_convergence", "max converge_s"),
            ("table4_overhead", "full.total_s"),
            ("table4_overhead", "lightweight.total_s"),
            ("table4_overhead", "full/lightweight"),
        }

    def test_status_line_counts_every_row(self):
        text = EXPERIMENTS.read_text()
        statuses = [row[4] for row in _table_rows(text)]
        passed = statuses.count("pass")
        assert f"**{passed} of the {len(CLAIMS)} claims pass; {len(CLAIMS) - passed} fail**" in text


class TestBarSemantics:
    def test_equal_infinite_deadlines_pass_a_ratio_bar(self):
        # Fig 7 coding: neither system reaches 90% attainment, and the bench's
        # historical verdict for inf <= 1.2 * inf is a pass.
        inf = math.inf
        verdicts = _verdicts("fig7_cloud_slo", _result(min_deadline_90={
            "coding@9": {"thunderserve": inf, "hexgen": inf},
            "conversation@6": {"thunderserve": 14.75, "hexgen": 11.0},
        }))
        assert verdicts == {
            "coding@9 ts/hexgen ≤ 1.2": True, "conversation@6 ts/hexgen ≤ 1.2": False,
        }

    def test_infinite_deadline_against_a_finite_one_fails(self):
        verdicts = _verdicts("fig7_cloud_slo", _result(min_deadline_90={
            "coding@9": {"thunderserve": math.inf, "hexgen": 30.0},
            "conversation@6": {"thunderserve": 11.0, "hexgen": math.inf},
        }))
        assert verdicts == {
            "coding@9 ts/hexgen ≤ 1.2": False, "conversation@6 ts/hexgen ≤ 1.2": True,
        }

    def test_nan_metric_fails(self):
        verdicts = _verdicts(
            "fig19_simulator_accuracy", _result(attainment_gap=math.nan, kv_latency_rel_error=0.1)
        )
        assert verdicts == {"attainment_gap < 0.35": False, "kv_latency_rel_error < 0.35": True}

    def test_missing_metric_fails(self):
        # Only the cloud row: the in-house metric never reaches the snapshot.
        cloud_only = _result([["cloud (32 GPUs)", 1.0, 4.0, 30.0, 30.0]])
        verdicts = _verdicts("fig13_bandwidth", cloud_only)
        assert verdicts == {
            "cloud max/min > 5": True, "in-house max/min ≥ 1": False, "in-house max/min ≤ 1": False,
        }

    @pytest.mark.parametrize("gain, passed", [(3.0, False), (math.nextafter(3.0, 4.0), True)])
    def test_strict_bar_fails_at_its_target(self, gain, passed):
        verdicts = _verdicts("fig2_batching", _result(prefill_gain=1.0, decode_gain=gain))
        assert verdicts["decode_gain > 3"] is passed

    def test_inclusive_bar_passes_at_its_target(self):
        report = evaluate_slo_objectives(
            {"gain@40Gbps": 1.0, "gain@5Gbps": 0.85, "gain lead 40-5Gbps": -0.1},
            BY_MODULE["table5_network_case"].objectives,
        )
        assert report.passed


class TestRegistryRows:
    def test_evaluator_ops_unchanged(self):
        assert SLO_OPS == (">=", "<=")

    def test_one_row_per_module(self):
        assert len(BY_MODULE) == len(CLAIMS)

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.module)
    def test_row_kwargs_bind_to_run(self, claim):
        module = importlib.import_module(f"repro.experiments.{claim.module}")
        inspect.signature(module.run).bind(**claim.kwargs)

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.module)
    def test_row_objectives_are_valid_and_uniquely_named(self, claim):
        objectives = [SLOObjective.from_dict(o) for o in claim.objectives]
        assert objectives
        assert len({o.name for o in objectives}) == len(objectives)

"""Experiment harness: one module per table / figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows are the same
rows/series the paper reports (SLO-attainment curves, throughput bars, deployment
breakdowns, ...).  :mod:`repro.experiments.claims` holds one row per paper claim:
the module, its kwargs, the snapshot metrics read from its result, the
objectives they must meet, and the paper's number.
``benchmarks/bench_paper_claims.py`` runs each row as one test, and
``tools/experiments_table.py`` renders the rows into ``EXPERIMENTS.md``.

Absolute numbers differ from the paper (our substrate is a simulator, not the
authors' Vast.ai testbed) — the quantities to compare are the *shapes*: which
system wins, by roughly what factor, and where behaviour crosses over.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]

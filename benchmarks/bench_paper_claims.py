"""Paper-claim bench: one test per row of the claims registry.

Each test runs one ``repro.experiments`` module once (``rounds=1``) with its
row's kwargs, prints the result and its snapshot, and fails naming every
objective the snapshot misses.  ``tools/experiments_table.py`` renders the
same rows into ``EXPERIMENTS.md``.
"""

import pytest

from repro.experiments.claims import CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.module)
def test_paper_claim(benchmark, claim):
    result = benchmark.pedantic(claim.run, rounds=1, iterations=1)
    snapshot, report = claim.evaluate(result)
    print(f"\n{result.to_table()}\n{claim.title}")
    for metric, value in snapshot.items():
        print(f"  {metric} = {value:.6g}")
    missed = [f"{o.objective.name} (read {o.value})" for o in report.outcomes if not o.passed]
    assert not missed, "; ".join(missed)

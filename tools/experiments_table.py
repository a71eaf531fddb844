#!/usr/bin/env python3
"""Regenerate the claims table and status line of ``EXPERIMENTS.md``.

Runs every row of :data:`repro.experiments.claims.CLAIMS` once and rewrites
the ``Status:`` line and the ``| claim |`` table in place: claim, paper and bar
columns from the registry, the reproduced column from the run's snapshot.  A
metric the registry declares wall-clock (:meth:`Claim.is_wall_clock`) is
marked :data:`WALL_CLOCK_MARK`: only marked cells may change between two runs.
Run from the repository root (~15 s on a 2-vCPU box):

    PYTHONPATH=src python tools/experiments_table.py
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.experiments.claims import CLAIMS

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
HEADER = "| claim | paper | reproduced | bar | status |\n|---|---|---|---|---|\n"
#: follows the value of every measured wall-clock metric
WALL_CLOCK_MARK = "†"


def main() -> None:
    """Run every claim and rewrite the table and status line."""
    rows, failed = [], []
    for claim in CLAIMS:
        snapshot, report = claim.evaluate(claim.run())
        reproduced = ", ".join(
            f"{metric} {value:.4g}" + (WALL_CLOCK_MARK if claim.is_wall_clock(metric) else "")
            for metric, value in snapshot.items()
        )
        status = "pass"
        if not report.passed:
            failed.append(claim.title.split(":")[0])
            missed = dict.fromkeys(o.objective.metric for o in report.outcomes if not o.passed)
            status = f"**fail** ({', '.join(missed)})"
        rows.append(f"| {claim.title} | {claim.paper} | {reproduced} | {claim.bar} | {status} |\n")
    verdict = f"{len(CLAIMS) - len(failed)} of the {len(CLAIMS)} claims pass; {len(failed)} fail"
    status_line = f"Status: **{verdict}**" + (f" ({', '.join(failed)})." if failed else ".")
    text = EXPERIMENTS.read_text(encoding="utf-8")
    text = re.sub(r"^Status: .*$", lambda _: status_line, text, count=1, flags=re.M)
    table = HEADER + "".join(rows)
    text = re.sub(r"^\| claim \|.*\n(?:\|.*\n)*", lambda _: table, text, count=1, flags=re.M)
    EXPERIMENTS.write_text(text, encoding="utf-8")
    print(status_line)


if __name__ == "__main__":
    main()

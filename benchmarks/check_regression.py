"""Bench regression gate: compare each fresh benchmark report with its committed baseline.

Each measured-contract benchmark asserts its own absolute properties (engine
agreement, full drain, deterministic replay, outcome conservation, ...), so a
broken contract fails that benchmark's own pytest run.  This gate does the one
job a benchmark cannot: compare its fresh report, read from the working
directory, with the committed ``baselines/<report stem>_reduced.json`` beside
this script.  Each ``MANIFEST`` row holds one drift rule and at most one
advisory wall-clock key.

The gate fails (exit 1) on a missing or unparsable report, a ``mode`` or
``benchmark`` name mismatch, a drift metric missing from either report, or a
metric past its bound in a worse direction (exactly at the bound passes).  An
advisory ``(key, factor)`` only prints ``WARN`` when the fresh value exceeds
``factor`` times the baseline's: absolute wall clock tracks runner hardware.

Usage, after the six benchmarks ran with ``REPRO_BENCH_REDUCED=1``::

    python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Gate:
    """One manifest row: a benchmark's fresh report and its drift rule."""

    benchmark: str
    fresh: str
    metric: str
    #: allowed drift: absolute, or as a share of the baseline value
    max_abs: Optional[float] = None
    max_rel: Optional[float] = None
    #: ``higher`` fails a drop, ``lower`` fails a rise, ``both`` fails either
    better: str = "higher"
    #: ``(wall-clock key, growth factor)`` that warns, never fails
    advisory: Optional[Tuple[str, float]] = None

    @property
    def baseline(self) -> Path:
        stem = Path(self.fresh).stem
        return Path(__file__).resolve().parent / "baselines" / f"{stem}_reduced.json"

    def allowed(self, base: float) -> Tuple[float, float]:
        """The closed interval a fresh value may land in."""
        if self.max_rel is not None:
            lo, hi = base * (1.0 - self.max_rel), base * (1.0 + self.max_rel)
        else:
            lo, hi = base - self.max_abs, base + self.max_abs
        if self.better == "higher":
            hi = math.inf
        elif self.better == "lower":
            lo = -math.inf
        return lo, hi


MANIFEST = (
    Gate("bench_simulator_core", "BENCH_simcore.json", "speedup",
         max_rel=0.30, better="higher", advisory=("t_fast_s", 2.0)),
    Gate("bench_prefill_core", "BENCH_prefill.json", "speedup",
         max_rel=0.30, better="higher", advisory=("t_fast_s", 2.0)),
    Gate("bench_estimator_saturation", "BENCH_estimator_saturation.json", "mean_gap",
         max_abs=0.03, better="lower"),
    Gate("bench_chaos_recovery", "BENCH_chaos_recovery.json", "adaptive_worst",
         max_abs=0.05, better="both"),
    Gate("bench_megatrace", "BENCH_megatrace.json", "requests_per_s",
         max_rel=0.60, better="higher", advisory=("t_fast_s", 2.0)),
    Gate("bench_request_reliability", "BENCH_request_reliability.json", "retry_attainment",
         max_abs=0.05, better="both", advisory=("elapsed_s", 2.0)),
)


def load_report(path: Path) -> Optional[Dict]:
    """Load a benchmark JSON report; ``None`` when missing or unparsable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def compare(gate: Gate, baseline: Dict, fresh: Dict) -> Tuple[List[str], List[str]]:
    """Return ``(failures, warnings)`` for a fresh report against its baseline."""
    for key, expected in (("mode", baseline.get("mode")), ("benchmark", gate.benchmark)):
        found = (baseline.get(key), fresh.get(key))
        if found != (expected, expected):
            return [
                f"{key} mismatch: expected {expected!r}, the baseline has "
                f"{found[0]!r} and the fresh report {found[1]!r}"
            ], []
    try:
        base, value = float(baseline[gate.metric]), float(fresh[gate.metric])
    except (KeyError, TypeError, ValueError):
        return [f"{gate.metric} missing from the baseline or the fresh report"], []

    failures, warnings = [], []
    lo, hi = gate.allowed(base)
    if not lo <= value <= hi:
        failures.append(
            f"{gate.metric} drifted from {base:g} to {value:g}, outside "
            f"[{lo:g}, {hi:g}]; if the change is intentional, regenerate the baseline"
        )
    if gate.advisory:
        key, factor = gate.advisory
        base_wall, wall = baseline.get(key) or 0, fresh.get(key) or 0
        if 0 < base_wall * factor < wall:
            warnings.append(
                f"{key} grew {wall / base_wall:.1f}x ({base_wall:g} -> {wall:g}); "
                "non-gating (runner noise)"
            )
    return failures, warnings


def check(gate: Gate) -> bool:
    """Gate one manifest row and print its verdict; ``True`` when it passes."""
    baseline, fresh = load_report(gate.baseline), load_report(Path(gate.fresh))
    if baseline is None or fresh is None:
        missing = gate.baseline if baseline is None else gate.fresh
        failures = [f"report {str(missing)!r} missing or unparsable; did the bench crash?"]
        warnings = []
    else:
        failures, warnings = compare(gate, baseline, fresh)
    for message in warnings:
        print(f"WARN: [{gate.benchmark}] {message}")
    for message in failures:
        print(f"FAIL: [{gate.benchmark}] {message}")
    if not failures:
        print(
            f"OK: [{gate.benchmark}] {gate.metric} {fresh[gate.metric]} vs baseline "
            f"{baseline[gate.metric]} (mode {fresh['mode']!r})"
        )
    return not failures


def main() -> int:
    """Gate every manifest row; 0 when all pass, 1 otherwise."""
    verdicts = [check(gate) for gate in MANIFEST]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.exit(main())

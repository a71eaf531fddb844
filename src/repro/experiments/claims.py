"""The claims registry: every paper claim this reproduction checks, in one table.

Each :class:`Claim` row names an experiment module and the kwargs it runs with,
an extractor that flattens its :class:`~repro.experiments.common.ExperimentResult`
into a ``{metric: float}`` snapshot, the objectives the snapshot must meet, and
the paper's number.  Objectives have the ``{"name", "metric", "op", "target"}``
shape of :mod:`repro.serving.slo_objectives` and are evaluated by its
:func:`~repro.serving.slo_objectives.evaluate_slo_objectives`, so a missing or
NaN metric fails.  A bar comparing two systems reads their ratio or difference,
so every target is a constant; snapshot metrics without a bar are recorded only.

``benchmarks/bench_paper_claims.py`` runs one test per row, and
``tools/experiments_table.py`` renders the rows into ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import fnmatch
import importlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.serving.slo_objectives import SLOReport, evaluate_slo_objectives

Snapshot = Dict[str, float]


def _bars(*texts: str) -> Tuple[Dict[str, object], ...]:
    """Objectives from their names, ``"<metric> <symbol> <target>"``.

    A strict ``>`` / ``<`` stores the adjacent float as the target, so the
    evaluator's ``>=`` / ``<=`` read exactly as the strict comparison.
    """
    objectives = []
    for text in texts:
        metric, symbol, bound = text.rsplit(" ", 2)
        op = {"≥": ">=", ">": ">=", "≤": "<=", "<": "<="}[symbol]
        target = float(bound)
        if symbol in "<>":
            target = math.nextafter(target, math.inf if op == ">=" else -math.inf)
        objectives.append({"name": text, "metric": metric, "op": op, "target": target})
    return tuple(objectives)


def _ratio(num: float, den: float) -> float:
    """``num / den``; equal values (both ``inf`` included) read 1, ``x / 0`` reads ``inf``."""
    if num == den:
        return 1.0
    return math.inf if den == 0 else num / den


def _min_step(values: Sequence[float]) -> float:
    """Smallest rise between consecutive values (``inf`` for fewer than two)."""
    return min((b - a for a, b in zip(values, values[1:])), default=math.inf)


def _series(result: ExperimentResult) -> Dict[Tuple[Any, ...], List[float]]:
    """The ``y`` values of rows ``(*key, x, y)`` per key, in ``(x, y)`` order."""
    points: Dict[Tuple[Any, ...], List[Tuple[Any, float]]] = {}
    for *key, x, y in result.rows:
        points.setdefault(tuple(key), []).append((x, y))
    return {key: [y for _, y in sorted(pts)] for key, pts in points.items()}


def _extras(*keys: str) -> Callable[[ExperimentResult], Snapshot]:
    return lambda result: {key: result.extras[key] for key in keys}


def _cells(rows: Mapping[str, Sequence[Any]], columns: Mapping[str, int]) -> Snapshot:
    """``"<row key>.<column>"`` for every keyed row and named column index."""
    return {f"{key}.{name}": row[i] for key, row in rows.items() for name, i in columns.items()}


def _fig1(result: ExperimentResult) -> Snapshot:
    snapshot = _cells({row[0]: row for row in result.rows}, {"prefill_price": 1, "decode_price": 2})
    snapshot["A40 cheapest prefill"] = float(result.extras["cheapest_prefill"] == "A40")
    snapshot["3090Ti cheapest decode"] = float(result.extras["cheapest_decode"] == "3090Ti")
    return snapshot


def _fig6(result: ExperimentResult) -> Snapshot:
    snapshot: Snapshot = {}
    for workload, by_size in result.extras["best_ratio"].items():
        for size, ratio in by_size.items():
            prefill, decode = map(int, ratio.split("/"))
            snapshot[f"{workload}@{size} prefill share"] = prefill / (prefill + decode)
    for size in (8, 12):
        coding, conversation = (
            snapshot[f"{workload}@{size} prefill share"] for workload in ("coding", "conversation")
        )
        snapshot[f"prefill share lead@{size}"] = coding - conversation
    return snapshot


def _deadlines(result: ExperimentResult) -> Snapshot:
    """Min 90%-attainment deadline per point and system, and ThunderServe's over the others'."""
    snapshot: Snapshot = {}
    for point, deadline in result.extras["min_deadline_90"].items():
        ts = next(system for system in deadline if system.startswith("thunderserve"))
        for system, value in deadline.items():
            snapshot[f"{point}.{system}"] = value
            if system != ts:
                snapshot[f"{point} ts/{system.split('(')[0]}"] = _ratio(deadline[ts], value)
    return snapshot


def _fig8(result: ExperimentResult) -> Snapshot:
    systems = {row[2] for row in result.rows}
    expected = {"thunderserve(cloud)", "distserve(in-house)", "vllm(in-house)"}
    return {**_deadlines(result), "all systems served": float(systems == expected)}


def _fig9(result: ExperimentResult) -> Snapshot:
    tput = {(workload, system): tokens for workload, system, tokens, *_ in result.rows}
    snapshot = {f"{workload}.{system}": tokens for (workload, system), tokens in tput.items()}
    for workload in ("coding", "conversation"):
        ts = tput[workload, "thunderserve"]
        snapshot[f"{workload} ts/hexgen"] = _ratio(ts, tput[workload, "hexgen"])
        for base in ("distserve", "vllm"):
            snapshot[f"{workload} {base}/ts"] = _ratio(tput[workload, base], ts)
    return snapshot


def _fig10(result: ExperimentResult) -> Snapshot:
    times = result.extras["convergence_time_s"]
    return {
        **{f"converge_s@{size}": t for size, t in times.items()},
        "max converge_s": max(times.values()),
        "min best-so-far step": min(_min_step(v) for v in _series(result).values()),
    }


def _sums(result: ExperimentResult, labels: Mapping[str, str]) -> Snapshot:
    """Attainment summed over SLO scales per ``"<workload>.<label>"`` series."""
    return {
        f"{workload}.{labels[series]}": sum(values)
        for (workload, series), values in _series(result).items()
        if series in labels
    }


def _fig11(result: ExperimentResult) -> Snapshot:
    snapshot = _sums(result, {
        "lightweight_rescheduling": "lightweight",
        "full_rescheduling": "full",
        "no_rescheduling": "none",
    })
    for workload in ("coding", "conversation"):
        light = snapshot[f"{workload}.lightweight"]
        snapshot[f"{workload} lightweight-none"] = light - snapshot[f"{workload}.none"]
        snapshot[f"{workload} lightweight/full"] = _ratio(light, snapshot[f"{workload}.full"])
    return snapshot


def _fig12(result: ExperimentResult) -> Snapshot:
    full, no_comp = "kv_comp+orchestration", "no_kv_comp+orchestration"
    labels = {full: "full", no_comp: "no_comp", "no_kv_comp+random_dispatch": "random"}
    snapshot = _sums(result, labels)
    for workload, kv in result.extras["kv_fraction"].items():
        sums = [snapshot[f"{workload}.{label}"] for label in ("full", "no_comp", "random")]
        snapshot[f"{workload} full-no_comp"] = sums[0] - sums[1]
        snapshot[f"{workload} no_comp-random"] = sums[1] - sums[2]
        snapshot[f"{workload} kv share cut"] = kv[no_comp] - kv[full]
    return snapshot


def _fig13(result: ExperimentResult) -> Snapshot:
    return {f"{row[0].split()[0]} max/min": row[4] for row in result.rows}


def _fig14(result: ExperimentResult) -> Snapshot:
    return {
        "min attainment step": min(_min_step(v) for v in _series(result).values()),
        "max attainment@5": max(att for *_, scale, att in result.rows if scale == 5.0),
    }


def _table1(result: ExperimentResult) -> Snapshot:
    snapshot = {"GPU rows": float(len(result.rows))}
    for gpu, column, unit in (("A40", 5, "TFLOPS/USD"), ("3090Ti", 6, "GBps/USD")):
        per_gpu = {row[0]: row[column] for row in result.rows}
        snapshot[f"{gpu} {unit}"] = per_gpu[gpu]
        snapshot[f"{gpu} tops {unit}"] = float(max(per_gpu, key=per_gpu.get) == gpu)
    return snapshot


def _table2(result: ExperimentResult) -> Snapshot:
    snapshot: Snapshot = {}
    worst: Snapshot = {}
    for model, bits, agreement, _drop, ppl, rouge1, *_ in result.rows:
        tag = f"{model.split()[0]} {bits}-bit"
        snapshot[f"{tag}.agreement"] = agreement
        snapshot[f"{tag}.ppl_ratio"] = ppl
        snapshot[f"{tag}.rouge1"] = rouge1
        for metric, value, pick in (
            ("min agreement", agreement, min),
            ("max agreement", agreement, max),
            (f"{bits}-bit min agreement", agreement, min),
            (f"{bits}-bit max abs(ppl-1)", abs(ppl - 1.0), max),
            (f"{bits}-bit min rouge1", rouge1, min),
        ):
            worst[metric] = pick(worst.get(metric, value), value)
    return {**snapshot, **worst}


def _table3(result: ExperimentResult) -> Snapshot:
    ratios = result.extras["ratios"]
    snapshot = {
        f"{workload}.{phase}": float(n)
        for workload, pair in ratios.items()
        for phase, n in zip(("prefill", "decode"), pair)
    }
    share = {workload: p / (p + d) for workload, (p, d) in ratios.items()}
    snapshot["prefill share lead"] = share["coding"] - share["conversation"]
    for phase in ("prefill", "decode"):
        types = result.extras[f"{phase}_gpu_types"]
        snapshot[f"A40 {phase} GPUs"] = float(sum(types[w].get("A40", 0) for w in ratios))
    snapshot["A40 prefill lead"] = snapshot["A40 prefill GPUs"] - snapshot["A40 decode GPUs"]
    return snapshot


def _table4(result: ExperimentResult) -> Snapshot:
    snapshot = _cells({row[0]: row for row in result.rows}, {"reload_s": 2, "total_s": 3})
    ratio = _ratio(snapshot["full.total_s"], snapshot["lightweight.total_s"])
    return {**snapshot, "full/lightweight": ratio}


def _table5(result: ExperimentResult) -> Snapshot:
    high = result.extras["gains"]["thunderserve (40 Gbps)"]
    low = result.extras["gains"]["thunderserve (5 Gbps)"]
    return {"gain@40Gbps": high, "gain@5Gbps": low, "gain lead 40-5Gbps": high - low}


def _table8(result: ExperimentResult) -> Snapshot:
    table = {row[1]: row for row in result.rows if row[0] == "table8"}
    fig18: Dict[int, Dict[str, float]] = {}
    for _part, bits, tokens, _prefill, kv_ms, *_ in (r for r in result.rows if r[0] == "fig18"):
        fig18.setdefault(tokens, {})[bits] = kv_ms
    return {
        **_cells(table, {"kv_ms": 4, "tokens/s": 7}),
        "kv_ms 4/16-bit": _ratio(table["4-bit"][4], table["16-bit"][4]),
        "tokens/s 4/16-bit": _ratio(table["4-bit"][7], table["16-bit"][7]),
        "fig18 min kv_ms step": min(
            _min_step([kv["4-bit"], kv["8-bit"], kv["16-bit"]]) for kv in fig18.values()
        ),
    }


@dataclass(frozen=True)
class Claim:
    """One paper claim: how to run it, what to read from it, and its bars."""

    #: the claim, as the ``EXPERIMENTS.md`` claim column shows it
    title: str
    #: the paper's number, as the paper column shows it
    paper: str
    #: experiment module under :mod:`repro.experiments`
    module: str
    #: kwargs the module's ``run()`` is called with
    kwargs: Mapping[str, Any]
    #: flattens the experiment result into a ``{metric: float}`` snapshot
    extract: Callable[[ExperimentResult], Snapshot]
    #: ``{"name", "metric", "op", "target"}`` objectives the snapshot must meet
    objectives: Tuple[Dict[str, object], ...]
    #: ``fnmatch`` patterns of the snapshot metrics that hold measured wall-clock
    #: time: they differ from run to run and machine to machine, so
    #: ``EXPERIMENTS.md`` marks their cells
    wall_clock: Tuple[str, ...] = ()

    @property
    def bar(self) -> str:
        """The bar column: every objective's name."""
        return "; ".join(str(o["name"]) for o in self.objectives)

    def is_wall_clock(self, metric: str) -> bool:
        """Whether a snapshot metric is measured wall-clock time."""
        return any(fnmatch.fnmatchcase(metric, pattern) for pattern in self.wall_clock)

    def run(self) -> ExperimentResult:
        """Run the experiment module once with the registry kwargs."""
        return importlib.import_module(f"repro.experiments.{self.module}").run(**self.kwargs)

    def evaluate(self, result: ExperimentResult) -> Tuple[Snapshot, SLOReport]:
        """Return the result's snapshot and its evaluation against the objectives."""
        snapshot = self.extract(result)
        return snapshot, evaluate_slo_objectives(snapshot, self.objectives, profile=self.module)


#: every paper claim, in ``EXPERIMENTS.md`` row order
CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "Fig 1: cheapest GPU per phase", "A40 for prefill, 3090Ti for decode",
        "fig1_phase_prices", {}, _fig1,
        _bars("A40 cheapest prefill ≥ 1", "3090Ti cheapest decode ≥ 1"),
    ),
    Claim(
        "Fig 2: batching helps decode, not prefill", "prefill plateaus, decode scales",
        "fig2_batching", {}, _extras("prefill_gain", "decode_gain"),
        _bars("prefill_gain < 1.5", "decode_gain > 3"),
    ),
    Claim(
        "Fig 6: best prefill:decode ratio follows the workload",
        "coding favours prefill-heavy, conversation decode-heavy",
        "fig6_ratio_throughput",
        {"cluster_sizes": (8, 12), "trace_duration": 12.0, "saturation_rate": 24.0},
        _fig6,
        _bars("prefill share lead@8 ≥ 0", "prefill share lead@12 ≥ 0"),
    ),
    Claim(
        "Fig 7: deadline for 90% E2E attainment vs HexGen (cloud)",
        "1.8x (coding) / 1.4x (conversation) lower",
        "fig7_cloud_slo",
        {"rates": {"coding": (9.0,), "conversation": (6.0,)}, "trace_duration": 20.0,
         "scheduler_steps": 10},
        _deadlines,
        _bars("coding@9 ts/hexgen ≤ 1.2", "conversation@6 ts/hexgen ≤ 1.2"),
    ),
    Claim(
        "Fig 8: same budget, cloud ThunderServe vs in-house 8xA100",
        "cloud ThunderServe needs lower deadlines",
        "fig8_budget_slo",
        {"rates": {"coding": (12.0,), "conversation": (9.0,)}, "trace_duration": 20.0,
         "scheduler_steps": 15},
        _fig8,
        _bars("conversation@9 ts/vllm ≤ 1.2", "all systems served ≥ 1"),
    ),
    Claim(
        "Fig 9: saturation token throughput vs HexGen and in-house DistServe / vLLM",
        "1.3x HexGen; ahead of in-house DistServe / vLLM",
        "fig9_throughput", {"trace_duration": 20.0, "scheduler_steps": 15}, _fig9,
        _bars("coding ts/hexgen ≥ 0.8", "conversation ts/hexgen ≥ 1"),
    ),
    Claim(
        "Fig 10: scheduler convergence time", "21 s / 36 s / 54 s at 16 / 24 / 32 GPUs",
        "fig10_convergence", {"num_steps": 12, "num_neighbors": 5}, _fig10,
        _bars("max converge_s < 300", "min best-so-far step ≥ -1e-9"),
        wall_clock=("converge_s@*", "max converge_s"),
    ),
    Claim(
        "Fig 11: rescheduling after losing 4 GPUs (attainment summed over SLO scales 3, 6, 12)",
        "lightweight ≈ full > none",
        "fig11_rescheduling",
        {"trace_duration": 15.0, "scheduler_steps": 8, "slo_scales": (3.0, 6.0, 12.0)},
        _fig11,
        _bars(
            "coding lightweight-none ≥ -0.2", "coding lightweight/full ≥ 0.5",
            "conversation lightweight-none ≥ -0.2", "conversation lightweight/full ≥ 0.5",
        ),
    ),
    Claim(
        "Fig 12: KV compression / orchestration ablation (same sums)",
        "~1.3x overhead without compression, worse with random dispatch",
        "fig12_ablation",
        {"trace_duration": 15.0, "scheduler_steps": 8, "slo_scales": (3.0, 6.0, 12.0)},
        _fig12,
        _bars(
            "coding full-no_comp ≥ -0.15", "coding no_comp-random ≥ -0.15",
            "coding kv share cut ≥ -1e-6", "conversation full-no_comp ≥ -0.15",
            "conversation no_comp-random ≥ -0.15", "conversation kv share cut ≥ -1e-6",
        ),
    ),
    Claim(
        "Fig 13: bandwidth heterogeneity", "cloud links vary widely, in-house uniform",
        "fig13_bandwidth", {}, _fig13,
        _bars("cloud max/min > 5", "in-house max/min ≥ 1", "in-house max/min ≤ 1"),
    ),
    Claim(
        "Fig 14: attainment by prefill:decode ratio",
        "coding best near 5/3, conversation near 3/5",
        "fig14_ratio_slo",
        {"ratios": ((5, 3), (4, 4), (3, 5)), "trace_duration": 12.0,
         "slo_scales": (1.0, 2.0, 3.0, 5.0)},
        _fig14,
        _bars("min attainment step ≥ -1e-9"),
    ),
    Claim(
        "Fig 19: estimator vs simulator accuracy", "simulator tracks real runs closely",
        "fig19_simulator_accuracy", {"trace_duration": 15.0, "scheduler_steps": 8},
        _extras("attainment_gap", "kv_latency_rel_error"),
        _bars("attainment_gap < 0.35", "kv_latency_rel_error < 0.35"),
    ),
    Claim(
        "Table 1: GPU specs and price", "A40 best TFLOPS/USD, 3090Ti best GB/s/USD",
        "table1_gpus", {}, _table1,
        _bars("GPU rows ≥ 5", "GPU rows ≤ 5", "A40 tops TFLOPS/USD ≥ 1",
              "3090Ti tops GBps/USD ≥ 1"),
    ),
    Claim(
        "Tables 2 / 6 / 7: 4-bit KV transport quality",
        "accuracy drop < 2%, PPL within 1%, ROUGE ~0.95",
        "table2_kv_quality", {"num_prompts": 6, "prompt_length": 48, "generate_tokens": 24},
        _table2,
        _bars(
            "min agreement ≥ 0", "max agreement ≤ 1",
            "8-bit min agreement > 0.95", "8-bit max abs(ppl-1) < 0.05",
            "4-bit min agreement > 0.75", "4-bit max abs(ppl-1) < 0.15", "4-bit min rouge1 > 0.5",
        ),
    ),
    Claim(
        "Table 3: deployment plans found", "coding more prefill, A40s lean prefill",
        "table3_deployment", {"scheduler_steps": 15}, _table3,
        _bars("prefill share lead ≥ 0", "A40 prefill lead ≥ 0"),
    ),
    Claim(
        "Table 4: rescheduling overhead", "full 157 s vs lightweight 13 s (~12x)",
        "table4_overhead", {"scheduler_steps": 12}, _table4,
        _bars("lightweight.reload_s ≥ 0", "lightweight.reload_s ≤ 0", "full/lightweight > 3"),
        wall_clock=("*.total_s", "full/lightweight"),
    ),
    Claim(
        "Table 5: phase splitting vs network bandwidth", "2.0x at 40 Gbps, 1.4x at 5 Gbps",
        "table5_network_case", {"trace_duration": 15.0, "scheduler_steps": 10}, _table5,
        _bars("gain@40Gbps ≥ 1", "gain@5Gbps ≥ 0.85", "gain lead 40-5Gbps ≥ -0.1"),
    ),
    Claim(
        "Table 8 / Fig 18: 4-bit vs 16-bit KV transport", "1.34x throughput",
        "table8_kv_bitwidth", {"trace_duration": 15.0, "scheduler_steps": 10}, _table8,
        _bars("kv_ms 4/16-bit ≤ 1", "tokens/s 4/16-bit ≥ 0.95", "fig18 min kv_ms step > 0"),
    ),
)

__all__ = ["Claim", "CLAIMS"]

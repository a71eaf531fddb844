"""One pass of a workload: deploy, serve, check, and keep what the metrics need.

A pass runs the ThunderServe path on the seed's inputs: ``deploy`` with the
fixed scheduler seed, then the main serving phase (one long ``run_stream``, or
the live loop for ``live-chaos``), then, in a full pass, the throughput ladder
and the fast-vs-reference spot check.  Every served result goes through the
correctness checks, and every phase's requests go into a ledger by outcome.

Wall times are taken from outside the program and corrected for the box's
speed at the time (:mod:`clock`).  A repeated main phase reports its fastest
repetition: the repetitions are bitwise identical, and a slowdown adds time,
it never removes it.  Deploys report their median (:attr:`Pass.schedule_s`).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.types import SLOType
from repro.serving.live import LiveServeReport, plan_signature
from repro.simulation.metrics import SimulationResult
from repro.workload.trace import RequestArrays

from clock import Clock, Timer
from workloads import (
    ATTAINMENT_GOAL,
    BACKLOG_RATIO,
    CHUNK_ROWS,
    LADDER_REQUESTS,
    LADDER_STEPS,
    SCHEDULER_SEED,
    SPOT_ROWS,
    Setup,
)

#: cap on main-phase repetitions, whatever the time budget
MAX_REPS = 5
#: outcomes that count as served; every other outcome is a failed request
SUCCEEDED = ("finished", "retried_then_finished")
#: per-request columns compared bitwise between two runs
COLUMNS = (
    "request_id", "arrival_time", "input_length", "output_length", "enqueue_time",
    "prefill_start", "first_token_time", "kv_transfer_done", "completion_time",
    "finished", "prefill_replica", "decode_replica", "outcome", "attempts",
)


@dataclass
class Check:
    """One correctness check and its verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Ledger:
    """Requests of one phase by outcome, plus how many met the E2E deadline."""

    outcomes: Counter = field(default_factory=Counter)
    slo_met: int = 0

    @property
    def attempted(self) -> int:
        """Requests the phase offered to the system."""
        return sum(self.outcomes.values())

    @property
    def succeeded(self) -> int:
        """Requests that finished, with or without a retry."""
        return sum(self.outcomes[name] for name in SUCCEEDED)

    def add(self, result: SimulationResult, slo, shed: int = 0) -> None:
        """Count ``result``'s requests; ``shed`` requests never reached it."""
        self.outcomes.update(result.outcome_counts())
        self.outcomes["shed"] += shed
        self.slo_met += round(result.slo_attainment(slo) * result.num_requests)


@dataclass
class Pass:
    """Everything one pass measured and checked."""

    setup: Setup
    seed: int
    clock: Clock = field(default_factory=Clock)
    plan_id: str = ""
    est_attainment: float = 0.0
    #: one timer per deploy repetition
    deploys: List[Timer] = field(default_factory=list)
    #: result the served-quality metrics come from
    served: Optional[SimulationResult] = None
    #: one timer per main-phase repetition
    reps: List[Timer] = field(default_factory=list)
    #: simulated requests and simulated seconds covered by the main phase
    main_requests: int = 0
    main_sim_s: float = 0.0
    live: Optional[LiveServeReport] = None
    storm_events: int = 0
    max_rate: float = 0.0
    ladder: List[Tuple[float, float, float, bool]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    ledgers: Dict[str, Ledger] = field(default_factory=dict)
    operations: int = 0
    #: the deployed system that served the main phase
    system: object = None

    # ------------------------------------------------------------ helpers
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check verdict."""
        self.checks.append(Check(name, bool(ok), detail))

    def ledger(self, phase: str) -> Ledger:
        """The request ledger of ``phase`` (created on first use)."""
        return self.ledgers.setdefault(phase, Ledger())

    def conserve(self, phase: str, result: SimulationResult) -> None:
        """Outcome conservation on one served result of ``phase``."""
        self.operations += 1
        try:
            result.assert_outcome_conservation(require_terminal=True)
        except SimulationError as exc:
            self.check(f"conservation[{phase}]", False, str(exc))

    @property
    def best_wall_s(self) -> float:
        """Corrected wall time of the fastest main-phase repetition."""
        return min(rep.corrected for rep in self.reps)

    @property
    def schedule_s(self) -> float:
        """Median corrected wall time of the warm deploys.

        The first deploy of a process also pays lazy imports and cold caches,
        which is set-up.  The median, not the minimum: a probe that misreads
        the box's speed over one short deploy scales it too far either way.
        """
        warm = self.deploys[1:] or self.deploys
        return statistics.median(d.corrected for d in warm)


def same_arrays(a: SimulationResult, b: SimulationResult) -> bool:
    """Bitwise equality of two results: makespan and every per-request column."""
    if a.makespan != b.makespan:
        return False
    if a.arrays is None or b.arrays is None:
        return metric_rows(a) == metric_rows(b)
    return all(np.array_equal(getattr(a.arrays, c), getattr(b.arrays, c)) for c in COLUMNS)


def metric_rows(result: SimulationResult) -> List[tuple]:
    """Per-request metric tuples, comparable across both result backings."""
    return [
        (
            m.request.request_id, m.request.arrival_time, m.enqueue_time, m.prefill_start,
            m.first_token_time, m.kv_transfer_done, m.completion_time, m.prefill_replica,
            m.decode_replica, m.finished, m.resolved_outcome().name, m.attempts,
        )
        for m in result.metrics
    ]


def live_signature(report: LiveServeReport) -> list:
    """Everything a live run reports, for bitwise comparison between runs."""
    return [
        report.to_dicts(),
        report.fault_log,
        [metric_rows(r) for r in report.results],
    ]


# ---------------------------------------------------------------- phases
def deploy(p: Pass, reps: int):
    """Deploy ``reps`` times on fresh systems; the first system serves."""
    systems, ids = [], []
    for _ in range(reps):
        system = p.setup.new_system()
        timer = Timer(p.clock)
        timer.start()
        plan = system.deploy(seed=SCHEDULER_SEED)
        timer.stop()
        p.deploys.append(timer)
        p.operations += 1
        systems.append(system)
        ids.append(plan_signature(plan))
    p.check("deploy is deterministic", len(set(ids)) == 1, ",".join(ids))
    system = systems[0]
    p.plan_id = ids[0]
    p.est_attainment = system.schedule_result.estimated_slo_attainment
    p.ledger("deploy")  # the scheduler prices requests analytically: none served
    return system


def _ticking(chunks, timer: Timer):
    """Pass chunks through, ticking the timer as the engine asks for each one."""
    for chunk in chunks:
        timer.tick()
        yield chunk


def _repeat(budget_s: float, once) -> list:
    """Call ``once``, and again while ``budget_s`` lasts (at most ``MAX_REPS`` calls)."""
    started = time.perf_counter()
    runs = [once()]
    while len(runs) < MAX_REPS and time.perf_counter() - started < budget_s:
        runs.append(once())
    return runs


def stream(p: Pass, system, budget_s: float) -> None:
    """The main phase of a stream workload: one long ``run_stream``, repeated."""
    w = p.setup.workload
    plan = system.require_plan()

    def once():
        chunks = p.setup.generator(p.seed).iter_chunks(w.num_requests, chunk_size=CHUNK_ROWS)
        sim = p.setup.simulator(system, plan)
        timer = Timer(p.clock)
        timer.start()
        result = sim.run_stream(_ticking(chunks, timer), label=w.name)
        timer.stop()
        p.reps.append(timer)
        p.conserve("main", result)
        return result

    first, *others = _repeat(budget_s, once)
    if others:
        p.check(
            "main repetitions are bitwise equal", all(same_arrays(first, r) for r in others)
        )
    p.ledger("main").add(first, system.slo)
    p.served = first
    p.main_requests = first.num_requests
    p.main_sim_s = first.makespan


def live(p: Pass, system, budget_s: float) -> None:
    """The main phase of ``live-chaos``: the live loop, repeated, then a replay.

    Each repetition serves the same windowed trace on a fresh system that
    adopts the deployed plan.  The served-quality metrics come from one
    continuous fault-free replay of the whole trace with ``ThunderServe.serve``:
    windowed attainment resets its queues at every window, so it is reported
    per layer only.
    """
    w = p.setup.workload
    plan = system.require_plan()
    trace = p.setup.generator(p.seed).generate_arrays(w.num_requests).to_trace(name=w.name)
    window = trace.window(0.0, w.live_horizon_s)

    def once():
        replica = p.setup.new_system()
        replica.adopt_plan(plan, reason="live-chaos")
        timer = Timer(p.clock)
        server = p.setup.live_server(replica, on_window=lambda _t: timer.tick())
        timer.start()
        report = server.run(window, label=w.name)
        timer.stop()
        p.reps.append(timer)
        p.storm_events = len(server.config.faults)
        for result in report.results:
            p.conserve("live", result)
        return report

    first, *others = _repeat(budget_s, once)
    if others:
        p.check(
            "live repetitions are bitwise equal",
            all(live_signature(first) == live_signature(r) for r in others),
        )
    ledger = p.ledger("live")
    for telemetry, result in zip(first.windows, first.results):
        ledger.add(result, system.slo, shed=telemetry.num_shed)
    p.live = first
    p.main_requests = ledger.attempted
    p.main_sim_s = w.live_horizon_s
    replay = system.serve(trace, label=f"{w.name}-replay")
    p.conserve("replay", replay)
    p.ledger("replay").add(replay, system.slo)
    p.served = replay


def ladder(p: Pass, system) -> None:
    """Highest ladder rate with >= 90% attainment and a bounded backlog.

    Every rung replays the same seeded draws time-scaled to its rate, so
    attainment falls with rate and the ladder is bisected.  When no rung
    passes the lowest rung is reported.
    """
    w = p.setup.workload
    plan = system.require_plan()
    ledger = p.ledger("ladder")

    def passes(k: int) -> bool:
        rate = w.rate * LADDER_STEPS[k]
        chunks = p.setup.generator(p.seed, rate=rate).iter_chunks(
            LADDER_REQUESTS, chunk_size=CHUNK_ROWS
        )
        result = p.setup.simulator(system, plan).run_stream(chunks, label=f"ladder@{rate:g}")
        p.conserve("ladder", result)
        ledger.add(result, system.slo)
        attainment = result.slo_attainment(system.slo)
        backlog = result.makespan / max(result.trace_duration, 1e-9)
        ok = attainment >= ATTAINMENT_GOAL and backlog <= BACKLOG_RATIO
        p.ladder.append((rate, attainment, backlog, ok))
        return ok

    lo, hi = -1, len(LADDER_STEPS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    p.max_rate = w.rate * LADDER_STEPS[max(lo, 0)]


def spot_check(p: Pass, system) -> None:
    """Replay a contiguous mid-stream window through both engines, bitwise."""
    w = p.setup.workload
    plan = system.require_plan()
    start = w.num_requests // 2
    blocks, seen = [], 0
    for chunk in p.setup.generator(p.seed).iter_chunks(w.num_requests, chunk_size=CHUNK_ROWS):
        lo, hi = max(0, start - seen), min(len(chunk), start + SPOT_ROWS - seen)
        if lo < hi:
            blocks.append(chunk.slice(lo, hi))
        seen += len(chunk)
        if seen >= start + SPOT_ROWS:
            break
    window = RequestArrays.concat(blocks).to_trace(name=f"{w.name}-spot")
    fast = p.setup.simulator(system, plan, engine="fast").run(window)
    reference = p.setup.simulator(system, plan, engine="reference").run(window)
    for result in (fast, reference):
        p.conserve("spot", result)
        p.ledger("spot").add(result, system.slo)
    p.check(
        f"fast == reference on rows [{start}, {start + SPOT_ROWS})",
        metric_rows(fast) == metric_rows(reference),
    )


def run_pass(setup: Setup, seed: int, budget_s: float, full: bool) -> Pass:
    """One pass of a workload; ``full`` adds repetitions, the ladder and the spot check."""
    p = Pass(setup=setup, seed=seed)
    w = setup.workload
    system = p.system = deploy(p, w.deploy_reps if full else 1)
    main = live if w.live_horizon_s > 0 else stream
    main(p, system, budget_s if full else 0.0)
    if full:
        if main is stream:
            spot_check(p, system)
        ladder(p, system)
    return p


# ---------------------------------------------------------------- metrics
def min_slo_scale(result: SimulationResult, reference) -> float:
    """Smallest SLO scale reaching the attainment goal, to 0.0025."""
    coarse = result.min_scale_for_attainment(ATTAINMENT_GOAL, reference)
    fine = [coarse - 0.25 + 0.0025 * i for i in range(1, 101)]
    return result.min_scale_for_attainment(ATTAINMENT_GOAL, reference, scales=fine)


def served_metrics(p: Pass) -> Dict[str, float]:
    """Simulated served-quality metrics of the pass (deterministic per seed)."""
    result = p.served
    system = p.system
    counts = result.outcome_counts()
    return {
        "slo_attainment": result.slo_attainment(system.slo),
        "ttft_p50_s": result.percentile(SLOType.TTFT, 50),
        "ttft_p99_s": result.percentile(SLOType.TTFT, 99),
        "tpot_p50_s": result.percentile(SLOType.TPOT, 50),
        "tpot_p99_s": result.percentile(SLOType.TPOT, 99),
        "min_slo_scale": min_slo_scale(result, system.reference),
        "succeeded_share": sum(counts[n] for n in SUCCEEDED) / result.num_requests,
    }


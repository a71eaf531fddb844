"""The benchmark's workloads: frozen inputs and the set-up every run starts from.

Every constant here is part of the benchmark's definition.  Changing one
changes what the benchmark measures, so it belongs in a benchmark change,
never in a change that claims a gain.

Rates are open-loop Poisson arrivals in *simulated* time.  Each served rate
is about 0.8 of the rate its deployed plan sustains without a growing backlog
(makespan ≈ trace span), measured on the plan that ``SCHEDULER_SEED`` yields:

* two-DC plan (provisioned for 1.0 req/s): backlog grows from ~1.15-1.175
  req/s, so ``prefill-stream`` and ``live-chaos`` serve 0.92 req/s;
* cloud plan (provisioned for 1.6 req/s): backlog grows from ~1.6-1.65
  req/s, so ``decode-stream-cloud`` serves 1.2 req/s (about 0.75: at 1.28
  req/s the hottest replica's TTFT p99 spread 0.26 over ten seeds).

The plan is provisioned above the served rate on purpose: the scheduler sizes
a plan to the rate it is given, so serving at the provisioning rate would put
the hottest replica near saturation rather than at rho ≈ 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro import (
    CODING_WORKLOAD,
    CONVERSATION_WORKLOAD,
    Cluster,
    ModelConfig,
    WorkloadSpec,
    get_model_config,
    make_cloud_cluster,
    make_two_datacenter_cluster,
)
from repro.costmodel.reference import a100_reference_latency
from repro.experiments.chaos_recovery import default_fault_storm
from repro.faults import FaultInjector
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.simulation.engine import ServingSimulator
from repro.workload.generator import PoissonArrivalGenerator

MODEL_NAME = "llama-30b"
#: Seed of the scheduler's tabu search, the same for every ``--seed``.  The
#: run seed drives the inputs (trace, fault storm); a seed-dependent search
#: would hand every seed a different plan, and on the cloud cluster five seeds
#: gave five plans whose TTFT p99 ranged 6-47 s at the same rate.
SCHEDULER_SEED = 0
#: Seed of the fault storm, the same for every ``--seed``: the storm is the
#: environment's failure history, the seed varies the traffic on top of it.
#: A storm drawn per seed moved ``live_s_per_sim_hour`` by 3.6-6.7 s over five
#: seeds (how often the A40 node is down decides how much is served at all);
#: under one storm five trace seeds stayed within 6.5-8.2 s.  25 is the storm
#: of ``repro.experiments.chaos_recovery``.
STORM_SEED = 25
#: E2E attainment goal of the throughput ladder and of ``min_slo_scale``
ATTAINMENT_GOAL = 0.9
#: rows per generated chunk; the generator's chunk-size invariance keeps the
#: trace identical for any value, and the speed probe runs between chunks
CHUNK_ROWS = 2048
#: contiguous mid-stream window replayed through both engines
SPOT_ROWS = 2000
#: requests per rung of the throughput ladder
LADDER_REQUESTS = 5000
#: ladder rungs as multiples of the served rate (2% apart)
LADDER_STEPS = tuple(round(0.6 + 0.02 * k, 2) for k in range(46))
#: a rung keeps its backlog bounded when makespan <= this x trace span
BACKLOG_RATIO = 1.01
#: live-loop window length (simulated seconds)
LIVE_WINDOW_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix the benchmark runs.

    ``plan_rate`` is what the scheduler provisions for; ``rate`` is the
    served arrival rate.  A full pass deploys ``deploy_reps`` times.
    ``live_horizon_s > 0`` makes the workload serve the first
    ``live_horizon_s`` simulated seconds of its trace through the live loop
    under the frozen fault storm.  Why each workload exists is written in
    ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    make_cluster: Callable[[], Cluster]
    spec: WorkloadSpec
    plan_rate: float
    rate: float
    slo_scale: float
    num_requests: int
    deploy_reps: int
    live_horizon_s: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="prefill-stream",
            make_cluster=lambda: make_two_datacenter_cluster(inter_dc_gbps=5.0),
            spec=CODING_WORKLOAD,
            plan_rate=1.0,
            rate=0.92,
            slo_scale=16.0,
            num_requests=100_000,
            deploy_reps=6,
        ),
        Workload(
            name="decode-stream-cloud",
            make_cluster=make_cloud_cluster,
            spec=CONVERSATION_WORKLOAD,
            plan_rate=1.6,
            rate=1.2,
            slo_scale=10.0,
            num_requests=70_000,
            deploy_reps=4,
        ),
        Workload(
            name="live-chaos",
            make_cluster=lambda: make_two_datacenter_cluster(inter_dc_gbps=5.0),
            spec=CODING_WORKLOAD,
            plan_rate=1.0,
            rate=0.92,
            slo_scale=16.0,
            num_requests=100_000,
            deploy_reps=6,
            live_horizon_s=3600.0,
        ),
    )
}


@dataclass
class Setup:
    """What a run builds before its first timed call."""

    workload: Workload
    cluster: Cluster
    model: ModelConfig

    def new_system(self) -> ThunderServe:
        """A fresh serving system for this workload (no plan installed)."""
        w = self.workload
        slo = a100_reference_latency(self.model, w.spec).slo_spec(w.slo_scale)
        return ThunderServe(self.cluster, self.model, w.spec, w.plan_rate, slo=slo)

    def generator(self, seed: int, rate: float | None = None) -> PoissonArrivalGenerator:
        """The seeded open-loop arrival generator (served rate unless ``rate``)."""
        w = self.workload
        return PoissonArrivalGenerator(
            spec=w.spec, request_rate=w.rate if rate is None else rate, seed=seed
        )

    def simulator(self, system: ThunderServe, plan, engine: str = "fast") -> ServingSimulator:
        """A simulator over ``plan`` configured like ``system``'s own."""
        config = replace(system.simulator_config, engine=engine)
        return ServingSimulator(self.cluster, plan, self.model, params=system.params, config=config)

    def live_server(self, system: ThunderServe, on_window=None) -> LiveServer:
        """The live loop over ``system`` under the frozen fault storm."""
        storm = FaultInjector(default_fault_storm(), seed=STORM_SEED).compile(
            self.workload.live_horizon_s, self.cluster
        )
        config = LiveServeConfig(window_s=LIVE_WINDOW_S, faults=storm)
        return LiveServer(system, config=config, on_window=on_window)


def setup(name: str) -> Setup:
    """Build the cluster and model of workload ``name``."""
    workload = WORKLOADS[name]
    return Setup(workload=workload, cluster=workload.make_cluster(), model=get_model_config(MODEL_NAME))

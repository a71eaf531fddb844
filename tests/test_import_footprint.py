"""The runtime's scipy footprint: its four entry points and nothing more.

The scheduler stays resident beside a live deployment, so every scipy module
it imports is memory and start-up time it keeps.  The runtime needs scipy for
three things: the HiGHS binding (``scipy.optimize._highspy._core``),
hierarchical clustering (``scipy.cluster.hierarchy`` with
``scipy.spatial.distance``) and the normal quantile function
(``scipy.special.ndtri``).  A fresh interpreter imports those four entry
points, notes every module loaded, then deploys, serves and runs the live loop;
any ``scipy.*`` module that appears after that point is a new dependency (the
estimator once pulled in all of ``scipy.stats`` for one ``norm.ppf``).  The
baseline is taken in the same interpreter, so the test holds for whatever a
given scipy version loads for its own entry points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys

import scipy.cluster.hierarchy
import scipy.optimize._highspy._core
import scipy.spatial.distance
import scipy.special

baseline = set(sys.modules)

from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD

rate = 2.0
system = ThunderServe(
    make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0),
    get_model_config("llama-7b"),
    CONVERSATION_WORKLOAD,
    rate,
    scheduler_config=SchedulerConfig(
        tabu=TabuSearchConfig(num_steps=4, num_neighbors=3, patience=4), seed=0
    ),
)
system.deploy(seed=0)
trace = generate_requests(CONVERSATION_WORKLOAD, rate, duration=20.0, seed=1)
served = system.serve(trace)
report = LiveServer(system, LiveServeConfig(window_s=10.0)).run(trace)
print(json.dumps({
    "finished": served.num_finished,
    "windows": len(report.results),
    "new_scipy": sorted(m for m in set(sys.modules) - baseline if m.split(".")[0] == "scipy"),
}))
"""


def test_runtime_loads_no_scipy_module_beyond_its_entry_points():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["finished"] > 0 and run["windows"] == 2
    assert run["new_scipy"] == []

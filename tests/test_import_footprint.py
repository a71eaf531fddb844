"""The runtime's scipy footprint: the HiGHS extension and nothing more.

The scheduler stays resident beside a live deployment, so every scipy module
it imports is memory and start-up time it keeps.  Importing scipy's packages
(``scipy.optimize``'s eager init, ``scipy.special``, ``scipy.cluster``) costs
about half a second and ~50 MB, so the runtime uses none of them: the normal
quantile function and average linkage are in-tree ports, and the HiGHS
binding is loaded straight from its extension file.  A fresh interpreter
imports numpy, notes every module loaded, then deploys, serves and runs the
live loop; the only ``scipy.*`` modules allowed to appear are the extension
(``scipy.optimize._highspy._core``) and the two submodules its init creates.
The test is unmarked, so CI's fast tier checks the loader against every scipy
version it resolves.

The extension is registered under its canonical name, so the load order
against a real ``import scipy.optimize`` must not matter: either way one
module object serves both, and ``linprog`` still solves.
"""

import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from repro.scheduling import orchestration

REPO_ROOT = Path(__file__).resolve().parent.parent

HIGHS = "scipy.optimize._highspy._core"
ALLOWED = {HIGHS, HIGHS + ".cb", HIGHS + ".simplex_constants"}

RUNTIME = """
import json, sys

import numpy

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

RUNTIME_THEN_LINPROG = """
import json, sys

import numpy as np

from repro.scheduling import orchestration

before = orchestration.solve_orchestration(np.array([[0.9, 0.2], [0.4, 0.8]]), [0.6, 0.6], [0.7, 0.7])
from scipy.optimize import linprog
import scipy.optimize._highspy._core as core

res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=[(0, None)] * 2, method="highs")
after = orchestration.solve_orchestration(np.array([[0.9, 0.2], [0.4, 0.8]]), [0.6, 0.6], [0.7, 0.7])
print(json.dumps({
    "same": core is orchestration._highs is sys.modules["scipy.optimize._highspy._core"],
    "status": int(res.status),
    "x": res.x.tolist(),
    "stable": before.z.tobytes() == after.z.tobytes(),
}))
"""

SCIPY_THEN_RUNTIME = """
import json, sys

import scipy.optimize

core = sys.modules["scipy.optimize._highspy._core"]
from repro.scheduling import orchestration

result = orchestration.solve_orchestration(__import__("numpy").array([[0.5, 0.9]]))
print(json.dumps({"same": orchestration._highs is core, "objective": result.objective}))
"""


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter on the source tree; its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runtime_loads_no_scipy_module_beyond_its_entry_points():
    """The HiGHS extension is the runtime's one entry point into scipy."""
    run = run_fresh(RUNTIME)
    assert run["finished"] > 0 and run["windows"] == 2
    assert HIGHS in run["new_scipy"]
    assert set(run["new_scipy"]) <= ALLOWED, run["new_scipy"]


def test_linprog_after_the_runtime_shares_its_extension():
    run = run_fresh(RUNTIME_THEN_LINPROG)
    assert run["same"] and run["stable"]
    assert run["status"] == 0 and run["x"] == [0.0, 1.0]


def test_runtime_after_scipy_optimize_reuses_its_extension():
    run = run_fresh(SCIPY_THEN_RUNTIME)
    assert run["same"]
    assert run["objective"] == 0.9


def test_missing_extension_file_names_its_path(monkeypatch):
    """One code path: no fallback import, an ``ImportError`` naming the file."""
    monkeypatch.delitem(sys.modules, HIGHS)
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: ".missing.so")
    with pytest.raises(ImportError, match=r"_highspy.*_core\.missing\.so") as raised:
        orchestration._load_highs()
    assert raised.value.path.endswith("_core.missing.so")
    assert HIGHS not in sys.modules

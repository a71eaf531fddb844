"""Discrete-event LLM serving simulator.

The simulator is the evaluation testbed of this reproduction: it replays a request
trace against a deployment plan, modelling request queueing, prefill execution,
KV-cache transfer over the cluster network, continuous-batching decode and (for
co-locating baselines) prefill/decode interference.  Per-request service times come
from the same roofline cost model the scheduler uses, but the simulator adds the
queueing and batching dynamics that the scheduler's analytic estimator
approximates — Figure 19 of the paper (and our ``fig19`` experiment) quantifies how
close the two are.

Two engines share one event-time semantics: the vectorized ``fast`` engine
(struct-of-arrays request lifecycle, coalesced epochs, streamed chunk input via
:meth:`~repro.simulation.engine.ServingSimulator.run_stream`) and the per-event
``reference`` oracle it must match bitwise — see ``docs/simulation.md`` for the
engine internals and the equivalence contract.
"""

from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricArrays, SimulationResult
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.colocated import ColocatedSimulator

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "MetricArrays",
    "SimulationResult",
    "ServingSimulator",
    "SimulatorConfig",
    "ColocatedSimulator",
]

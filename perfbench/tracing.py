"""Spans around the program's layer boundaries, recorded from outside ``src/``.

:class:`Tracer` wraps public functions where their callers look them up
(class attributes, or the module global a caller imported), records one span
per call -- name, start, end and the span that was open when it started -- and
puts every original back on exit.  Spans live in flat typed arrays, about 24
bytes each, so a run with a million cost-model calls stays small; they are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name); a name may cover several targets
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workload.generator", "PoissonArrivalGenerator.iter_chunks", "workload.gen"),
    ("repro.serving.system", "ThunderServe.deploy", "scheduling.deploy"),
    ("repro.serving.system", "ThunderServe.replan_capacity", "scheduling.replan"),
    ("repro.serving.system", "ThunderServe.reschedule_online", "scheduling.replan.lightweight"),
    ("repro.scheduling.tabu", "TabuSearch.run", "scheduling.tabu"),
    ("repro.scheduling.scheduler", "construct_neighbors", "scheduling.neighbors"),
    ("repro.scheduling.rescheduling", "construct_neighbors", "scheduling.neighbors"),
    ("repro.scheduling.lower_level", "LowerLevelSolver.evaluate_batch", "scheduling.lower_batch"),
    ("repro.scheduling.lower_level", "LowerLevelSolver.evaluate", "scheduling.lower_evaluate"),
    ("repro.scheduling.lower_level", "LowerLevelSolver.solve", "scheduling.lower_solve"),
    ("repro.scheduling.lower_level", "solve_orchestration", "scheduling.orchestration"),
    ("repro.scheduling.estimator", "SLOEstimator.__init__", "scheduling.estimator_build"),
    ("repro.scheduling.estimator", "SLOEstimator.attainment_matrix", "scheduling.attainment_matrix"),
    ("repro.hardware.network", "NetworkModel.mean_bandwidth_between", "hardware.bandwidth"),
    ("repro.hardware.network", "NetworkModel.min_bandwidth_within", "hardware.bandwidth"),
    ("repro.hardware.network", "NetworkModel.best_link_between", "hardware.bandwidth"),
    ("repro.costmodel.latency", "ReplicaCostModel.prefill_latency_grid", "costmodel.prefill_grid"),
    ("repro.costmodel.latency", "ReplicaCostModel.prefill_latency_array", "costmodel.prefill_array"),
    ("repro.costmodel.latency", "ReplicaCostModel.decode_step_grid", "costmodel.decode_grid"),
    ("repro.costmodel.latency", "ReplicaCostModel.decode_step_memo", "costmodel.decode_memo"),
    ("repro.costmodel.latency", "ReplicaCostModel.decode_step_latency", "costmodel.decode_scalar"),
    ("repro.simulation.engine", "ServingSimulator.__init__", "simulation.init"),
    ("repro.simulation.engine", "ServingSimulator.run", "simulation.run"),
    ("repro.simulation.engine", "ServingSimulator.run_stream", "simulation.run"),
    ("repro.serving.system", "ThunderServe.serve", "serving.serve"),
    ("repro.serving.live", "LiveServer.run", "serving.live"),
    ("repro.serving.live", "LiveServer.plan_health", "serving.plan_health"),
    ("repro.serving.live", "evaluate_slo_objectives", "serving.slo_eval"),
    ("repro.faults.injector", "FaultInjector.compile", "faults.compile"),
    ("repro.serving.live", "compile_fault_timeline", "faults.compile"),
)


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """Refine a span name from the call: shadow runs and replan modes."""
    if name == "simulation.run" and kwargs.get("label") == "shadow":
        return "simulation.shadow_run"
    if name == "scheduling.replan":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
        return f"scheduling.replan.{mode or 'lightweight'}"
    return name


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        #: rows the traced generators yielded, and requests the traced runs served
        self.generated_rows = 0
        self.simulated_requests = 0
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        refined = name in ("simulation.run", "scheduling.replan")
        counts_requests = name == "simulation.run"
        fixed = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = tracer._id(_span_name(name, args, kwargs)) if refined else fixed
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts_requests:
                tracer.simulated_requests += result.num_requests
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        tracer = self
        nid = self._id(name)

        def timed(inner):
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.generated_rows += len(item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, name in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrap = self._wrap_generator if name == "workload.gen" else self._wrap
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ export
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (``name`` indexes ``names``)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``: columns plus the name table)."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


class SpanTable:
    """Read-side view of a :class:`Tracer`: totals, counts and self times."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.duration = cols["end"] - cols["start"]

    def ids(self, *prefixes: str) -> np.ndarray:
        """Name ids whose span name starts with any of ``prefixes``."""
        return np.asarray(
            [i for i, n in enumerate(self.names) if n.startswith(prefixes)], dtype=np.int32
        )

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name starts with any of ``prefixes``."""
        return np.isin(self.name, self.ids(*prefixes))

    def count(self, *prefixes: str) -> int:
        """Number of spans under ``prefixes``."""
        return int(np.count_nonzero(self.mask(*prefixes)))

    def durations(self, *prefixes: str) -> np.ndarray:
        """Durations of the spans under ``prefixes``."""
        return self.duration[self.mask(*prefixes)]

    def topmost(self, *prefixes: str) -> np.ndarray:
        """Spans under ``prefixes`` with no ancestor under ``prefixes``.

        Their durations add up without counting nested calls twice.
        """
        member = self.mask(*prefixes)
        covered = np.zeros_like(member)
        parent = self.parent
        for i in np.flatnonzero(member).tolist():
            j = int(parent[i])
            while j >= 0 and not member[j]:
                j = int(parent[j])
            covered[i] = j >= 0
        return member & ~covered

    def time(self, *prefixes: str) -> float:
        """Busy time under ``prefixes``, nested calls counted once."""
        return float(self.duration[self.topmost(*prefixes)].sum())

    def within(self, ancestors: np.ndarray) -> np.ndarray:
        """Spans that have a span of the ``ancestors`` mask above them."""
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        inside = np.zeros_like(ancestors)
        while True:  # one more level of the span tree per pass
            deeper = has_parent & (ancestors[parent] | inside[parent])
            if np.array_equal(deeper, inside):
                return inside
            inside = deeper

    def self_time(self, spans: np.ndarray, children: Optional[np.ndarray] = None) -> float:
        """Duration of ``spans`` minus the time their ``children`` cover.

        ``children`` defaults to every direct child span.  Children must not
        overlap each other: pass a topmost mask.
        """
        if children is None:
            children = np.isin(self.parent, np.flatnonzero(spans))
        owner = np.full(len(self.parent), -1)
        parent = self.parent
        for i in np.flatnonzero(children).tolist():
            j = int(parent[i])
            while j >= 0 and not spans[j]:
                j = int(parent[j])
            owner[i] = j
        covered = self.duration[(owner >= 0) & children].sum()
        return float(self.duration[spans].sum() - covered)

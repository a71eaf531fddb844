"""Simulation results and metric aggregation.

The paper's evaluation reports two families of numbers:

* **SLO attainment** — the percentage of requests whose TTFT / TPOT / E2E latency
  stays under a deadline, swept over SLO scales (Figures 7, 8, 11, 12, 14);
* **throughput** — generated tokens (or requests) per second (Figures 6, 9,
  Tables 5 and 8).

:class:`SimulationResult` wraps the per-request metrics produced by a simulator
run and exposes those aggregates.  A result has one storage: a
:class:`MetricArrays` column block, one numpy column per metric field, and every
aggregate is computed vectorized over it.  The fast engine writes the columns
directly; the per-event engines (the reference oracle and the co-located
simulator) convert their :class:`~repro.core.types.RequestMetrics` records once
at the end of a run with :meth:`MetricArrays.from_metrics`.
:attr:`SimulationResult.metrics` is a lazy, read-only object view of the
columns, built only on first access — a million-request run aggregates without
ever building a million objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.types import (
    OUTCOME_NAMES,
    Request,
    RequestMetrics,
    RequestOutcome,
    SLOSpec,
    SLOType,
)
from repro.workload.trace import Spans, Trace, span_tags, tag_spans

#: replica-id column value of a request never routed to a replica
#: (``None`` in the object view)
_NO_REPLICA = -1

#: dtype of every :class:`MetricArrays` column: 64-bit ids and times, 32-bit
#: token lengths, and 16/8-bit integers for the small codes (serving-group
#: ids, attempt counts, outcomes), which keeps a long run's result small
COLUMN_DTYPES: Dict[str, type] = {
    "request_id": np.int64,
    "arrival_time": np.float64,
    "input_length": np.int32,
    "output_length": np.int32,
    "enqueue_time": np.float64,
    "prefill_start": np.float64,
    "first_token_time": np.float64,
    "kv_transfer_done": np.float64,
    "completion_time": np.float64,
    "finished": np.bool_,
    "prefill_replica": np.int16,
    "decode_replica": np.int16,
    "outcome": np.int8,
    "attempts": np.int16,
}

#: the request attributes among the :class:`MetricArrays` columns
_REQUEST_COLUMNS = ("request_id", "arrival_time", "input_length", "output_length")

#: the latency means of :meth:`SimulationResult.summary`
_SUMMARY_MEANS = (
    "mean_ttft",
    "mean_tpot",
    "mean_e2e",
    "mean_queue",
    "mean_prefill",
    "mean_kv_transfer",
    "mean_decode",
)


@dataclass
class MetricArrays:
    """Per-request metrics of one simulation run in struct-of-arrays form.

    One numpy column per :class:`~repro.core.types.RequestMetrics` field (plus
    the request attributes the aggregates need), ordered by request id, with
    the dtypes of :data:`COLUMN_DTYPES`.
    Derived latencies (TTFT / TPOT / E2E and the component breakdown) are
    computed vectorized with exactly the float64 operations of the scalar
    :class:`~repro.core.types.RequestMetrics` properties, so every aggregate
    equals its per-object computation bitwise.

    Parameters
    ----------
    request_id, arrival_time, input_length, output_length:
        The request columns (``int64`` / ``float64`` / ``int32`` / ``int32``).
    enqueue_time, prefill_start, first_token_time, kv_transfer_done, \
completion_time:
        Absolute event timestamps per request (``float64``; zero where the
        request never reached the stage).
    finished:
        Completion flags (``bool``).
    prefill_replica, decode_replica:
        Serving-group ids the request was routed to (``int16``; ``-1`` when
        it never was).
    outcome:
        Typed terminal disposition per request (``int8``,
        :class:`~repro.core.types.RequestOutcome` values).
    attempts:
        Number of fault dispositions per request (``int16``; zero when the
        run saw no faults).
    """

    request_id: np.ndarray
    arrival_time: np.ndarray
    input_length: np.ndarray
    output_length: np.ndarray
    enqueue_time: np.ndarray
    prefill_start: np.ndarray
    first_token_time: np.ndarray
    kv_transfer_done: np.ndarray
    completion_time: np.ndarray
    finished: np.ndarray
    prefill_replica: np.ndarray
    decode_replica: np.ndarray
    outcome: np.ndarray
    attempts: np.ndarray

    def __len__(self) -> int:
        return self.request_id.size

    @classmethod
    def from_metrics(cls, metrics: Sequence[RequestMetrics]) -> "MetricArrays":
        """Columns of a :class:`RequestMetrics` list, in list order."""

        def column(name: str, values: Iterable) -> np.ndarray:
            return np.array(list(values), dtype=COLUMN_DTYPES[name])

        def replica(rid: Optional[int]) -> int:
            return _NO_REPLICA if rid is None else rid

        return cls(
            request_id=column("request_id", (m.request.request_id for m in metrics)),
            arrival_time=column("arrival_time", (m.request.arrival_time for m in metrics)),
            input_length=column("input_length", (m.request.input_length for m in metrics)),
            output_length=column("output_length", (m.request.output_length for m in metrics)),
            enqueue_time=column("enqueue_time", (m.enqueue_time for m in metrics)),
            prefill_start=column("prefill_start", (m.prefill_start for m in metrics)),
            first_token_time=column("first_token_time", (m.first_token_time for m in metrics)),
            kv_transfer_done=column("kv_transfer_done", (m.kv_transfer_done for m in metrics)),
            completion_time=column("completion_time", (m.completion_time for m in metrics)),
            finished=column("finished", (m.finished for m in metrics)),
            prefill_replica=column(
                "prefill_replica", (replica(m.prefill_replica) for m in metrics)
            ),
            decode_replica=column("decode_replica", (replica(m.decode_replica) for m in metrics)),
            outcome=column("outcome", (int(m.outcome) for m in metrics)),
            attempts=column("attempts", (m.attempts for m in metrics)),
        )

    def outcome_counts(self) -> Dict[str, int]:
        """Request count per :class:`~repro.core.types.RequestOutcome` name."""
        counts = np.bincount(self.outcome, minlength=len(OUTCOME_NAMES))
        return {name: int(counts[i]) for i, name in enumerate(OUTCOME_NAMES)}

    # ------------------------------------------------------------------ derived
    def ttft(self) -> np.ndarray:
        """Time to first token per request (arrival → first token)."""
        return self.first_token_time - self.arrival_time

    def tpot(self) -> np.ndarray:
        """Time per output token per request (zero for single-token outputs)."""
        extra = self.output_length - 1
        out = np.zeros(len(self), dtype=np.float64)
        multi = extra > 0
        out[multi] = (self.completion_time[multi] - self.first_token_time[multi]) / extra[multi]
        return out

    def e2e_latency(self) -> np.ndarray:
        """End-to-end latency per request (arrival → last token)."""
        return self.completion_time - self.arrival_time

    def queue_time(self) -> np.ndarray:
        """Time each request queued before its prefill started."""
        return self.prefill_start - self.arrival_time

    def value_for(self, slo_type: SLOType) -> np.ndarray:
        """Latency column compared against an SLO of ``slo_type``."""
        if slo_type is SLOType.TTFT:
            return self.ttft()
        if slo_type is SLOType.TPOT:
            return self.tpot()
        return self.e2e_latency()

    def meets(self, slo: SLOSpec, slo_type: SLOType) -> np.ndarray:
        """Per-request flags: finished and within the ``slo_type`` deadline."""
        return self.finished & (self.value_for(slo_type) <= slo.deadline_for(slo_type))

    # ------------------------------------------------------------------ objects
    def synthesize_requests(self, tags: Sequence[str]) -> List[Request]:
        """Build the :class:`Request` behind each row from the request columns.

        ``tags`` holds each row's workload tag, in column order.
        """
        return [
            Request(
                request_id=rid,
                arrival_time=arrival,
                input_length=inp,
                output_length=out,
                workload=tag,
            )
            for rid, arrival, inp, out, tag in zip(
                self.request_id.tolist(),
                self.arrival_time.tolist(),
                self.input_length.tolist(),
                self.output_length.tolist(),
                tags,
            )
        ]

    def materialize(self, requests: Sequence[Request]) -> List[RequestMetrics]:
        """Build the equivalent :class:`RequestMetrics` list.

        ``requests`` holds the :class:`Request` behind each row, in column order.
        """

        def replicas(column: np.ndarray) -> List[Optional[int]]:
            return [None if rid == _NO_REPLICA else rid for rid in column.tolist()]

        return [
            RequestMetrics(
                request=request,
                enqueue_time=enq,
                prefill_start=pstart,
                first_token_time=first,
                kv_transfer_done=kvd,
                completion_time=comp,
                prefill_replica=prep,
                decode_replica=drep,
                finished=fin,
                outcome=RequestOutcome(out),
                attempts=att,
            )
            for request, enq, pstart, first, kvd, comp, prep, drep, fin, out, att in zip(
                requests,
                self.enqueue_time.tolist(),
                self.prefill_start.tolist(),
                self.first_token_time.tolist(),
                self.kv_transfer_done.tolist(),
                self.completion_time.tolist(),
                replicas(self.prefill_replica),
                replicas(self.decode_replica),
                self.finished.tolist(),
                self.outcome.tolist(),
                self.attempts.tolist(),
            )
        ]


def _arrival_span(arrival_time: np.ndarray) -> float:
    """Span between the earliest and latest arrival (zero below two requests)."""
    if arrival_time.size < 2:
        return 0.0
    return float(arrival_time.max() - arrival_time.min())


class SimulationResult:
    """Per-request metrics plus run-level aggregates of one simulation.

    Parameters
    ----------
    arrays:
        The run's metric columns — the result's only storage.
    makespan:
        Simulation time at which the last event was processed.
    trace_duration:
        Wall-clock duration of the simulated request trace (arrival span).
    label:
        Label of the system / plan that produced the run (for reporting).
    requests, workload_spans, row_order:
        Backing of the object view: the :class:`Request` behind each row (e.g.
        the original trace requests), or — when omitted — the workload spans
        and row order they are synthesized from (see
        :meth:`MetricArrays.synthesize_requests`).
    """

    def __init__(
        self,
        arrays: MetricArrays,
        makespan: float,
        trace_duration: float,
        label: str = "",
        requests: Optional[Sequence[Request]] = None,
        workload_spans: Optional[Spans] = None,
        row_order: Optional[np.ndarray] = None,
    ) -> None:
        #: per-request metric columns, ordered by request id
        self.arrays = arrays
        self._requests = requests
        self._workload_spans = workload_spans
        self._row_order = row_order
        self._metrics: Optional[List[RequestMetrics]] = None
        self.makespan = makespan
        self.trace_duration = trace_duration
        self.label = label

    @classmethod
    def dropped(cls, trace: Trace, makespan: float, label: str = "") -> "SimulationResult":
        """Result of requests that arrived while no servable capacity existed.

        Every request becomes an unfinished ``dropped_outage`` row (an SLO
        miss), in trace order, so the window reports attainment 0 without
        losing its requests from a merged result.  Built from the trace's
        columns and spans.
        """
        a = trace.arrays
        n = len(a)
        untouched = {
            f.name: np.zeros(n, dtype=COLUMN_DTYPES[f.name])
            for f in fields(MetricArrays)
            if f.name not in _REQUEST_COLUMNS
        }
        untouched["prefill_replica"][:] = _NO_REPLICA
        untouched["decode_replica"][:] = _NO_REPLICA
        untouched["outcome"][:] = RequestOutcome.DROPPED_OUTAGE
        arrays = MetricArrays(
            **{name: getattr(a, name).astype(COLUMN_DTYPES[name]) for name in _REQUEST_COLUMNS},
            **untouched,
        )
        return cls(
            arrays,
            makespan=makespan,
            trace_duration=_arrival_span(arrays.arrival_time),
            label=label,
            workload_spans=trace.spans,
        )

    def workload_tags(self) -> np.ndarray:
        """The workload tag behind each row, ordered by request id (an object array).

        Read from the workload spans, so no request object is built unless the
        result was given request objects.
        """
        if self._requests is not None:
            return np.array([r.workload for r in self._requests], dtype=object)
        rows = self._row_order if self._row_order is not None else np.arange(len(self.arrays))
        return span_tags(self._workload_spans or (), rows)

    @property
    def requests(self) -> Sequence[Request]:
        """The request behind each row, ordered by request id (built lazily)."""
        if self._requests is None:
            self._requests = self.arrays.synthesize_requests(self.workload_tags().tolist())
        return self._requests

    @property
    def metrics(self) -> List[RequestMetrics]:
        """Per-request metrics, ordered by request id (a lazy object view)."""
        if self._metrics is None:
            self._metrics = self.arrays.materialize(self.requests)
        return self._metrics

    def digest(self) -> str:
        """SHA-256 hex digest of the run's bits.

        Hashes the makespan's ``float64`` bytes, then each :class:`MetricArrays`
        column's name, dtype and bytes, in field order.  Two results are
        bitwise equal exactly when their digests agree; the label, the trace
        duration and the object view are not hashed.
        """
        sha = hashlib.sha256(np.float64(self.makespan).tobytes())
        for f in fields(MetricArrays):
            column = getattr(self.arrays, f.name)
            sha.update(f.name.encode())
            sha.update(column.dtype.str.encode())
            sha.update(column.tobytes())
        return sha.hexdigest()

    # ------------------------------------------------------------------ basics
    @property
    def num_requests(self) -> int:
        """Number of requests injected."""
        return len(self.arrays)

    @property
    def finished(self) -> List[RequestMetrics]:
        """Metrics of requests that completed."""
        return [m for m in self.metrics if m.finished]

    @property
    def num_finished(self) -> int:
        """Number of completed requests."""
        return int(np.count_nonzero(self.arrays.finished))

    @property
    def completion_rate(self) -> float:
        """Fraction of requests that completed within the simulation horizon."""
        if not self.num_requests:
            return 0.0
        return self.num_finished / self.num_requests

    # ------------------------------------------------------------------ outcomes
    def outcome_counts(self) -> Dict[str, int]:
        """Request count per :class:`~repro.core.types.RequestOutcome` name.

        The counts always sum to :attr:`num_requests`.
        """
        return self.arrays.outcome_counts()

    def assert_outcome_conservation(self, require_terminal: bool = False) -> Dict[str, int]:
        """Check that every arrival maps to exactly one coherent outcome.

        Raises :class:`~repro.core.exceptions.SimulationError` when the
        ``finished`` flags contradict the outcome taxonomy (a finished request
        must be ``finished`` / ``retried_then_finished`` and vice versa), when
        the outcome counts do not sum to the number of requests, or — with
        ``require_terminal`` — when any request is still ``pending`` (only
        legitimate on horizon-truncated runs).  Returns the outcome counts.
        """
        counts = self.outcome_counts()
        total = sum(counts.values())
        if total != self.num_requests:
            raise SimulationError(
                f"outcome counts sum to {total}, expected {self.num_requests}"
            )
        if require_terminal and counts["pending"]:
            raise SimulationError(
                f"{counts['pending']} requests left pending on a fully drained run"
            )
        a = self.arrays
        completed = (a.outcome == int(RequestOutcome.FINISHED)) | (
            a.outcome == int(RequestOutcome.RETRIED_THEN_FINISHED)
        )
        if bool(np.any(completed != a.finished)):
            raise SimulationError("per-request outcome and finished flags disagree")
        return counts

    # ------------------------------------------------------------------ latency
    def _finished_values(self, slo_type: SLOType) -> np.ndarray:
        """Latency column of ``slo_type`` over finished requests."""
        return self.arrays.value_for(slo_type)[self.arrays.finished]

    def mean(self, slo_type: SLOType) -> float:
        """Mean latency of the given type over finished requests."""
        values = self._finished_values(slo_type)
        if not values.size:
            return float("nan")
        return float(np.mean(values))

    def percentile(self, slo_type: SLOType, q: float) -> float:
        """Latency percentile (``q`` in [0, 100]) of the given type."""
        values = self._finished_values(slo_type)
        if not values.size:
            return float("nan")
        return float(np.percentile(values, q))

    def summary(self) -> Dict[str, float]:
        """Mean latency components over the finished requests of the run.

        Keys: ``num_finished`` and ``mean_{ttft,tpot,e2e,queue,prefill,
        kv_transfer,decode}`` (NaN when nothing finished).
        """
        a = self.arrays
        fin = a.finished
        count = int(np.count_nonzero(fin))
        if not count:
            return {"num_finished": 0.0, **dict.fromkeys(_SUMMARY_MEANS, float("nan"))}

        def mean(values: np.ndarray) -> float:
            return float(np.mean(values[fin]))

        return {
            "num_finished": float(count),
            "mean_ttft": mean(a.ttft()),
            "mean_tpot": mean(a.tpot()),
            "mean_e2e": mean(a.e2e_latency()),
            "mean_queue": mean(a.queue_time()),
            "mean_prefill": mean(a.first_token_time - a.prefill_start),
            "mean_kv_transfer": mean(np.maximum(0.0, a.kv_transfer_done - a.first_token_time)),
            "mean_decode": mean(np.maximum(0.0, a.completion_time - a.kv_transfer_done)),
        }

    # ------------------------------------------------------------------ SLO
    def slo_attainment(self, slo: SLOSpec, slo_type: SLOType = SLOType.E2E) -> float:
        """Fraction of *all* requests meeting the SLO (unfinished requests miss)."""
        n = len(self.arrays)
        if not n:
            return 0.0
        return int(np.count_nonzero(self.arrays.meets(slo, slo_type))) / n

    def attainment_curve(
        self,
        slo_scales: Iterable[float],
        reference,
        slo_type: SLOType = SLOType.E2E,
    ) -> List[float]:
        """SLO attainment swept over SLO scales (the Figure 7/8 curves).

        ``reference`` is a :class:`~repro.costmodel.reference.ReferenceLatency`
        providing ``slo_spec(scale)``.
        """
        return [self.slo_attainment(reference.slo_spec(s), slo_type) for s in slo_scales]

    def min_scale_for_attainment(
        self,
        target: float,
        reference,
        slo_type: SLOType = SLOType.E2E,
        scales: Optional[Sequence[float]] = None,
    ) -> float:
        """Smallest SLO scale achieving ``target`` attainment (the "latency deadline").

        The paper reports, for a target attainment goal such as 90 % or 99 %, the
        minimum latency deadline (SLO scale) that reaches it.  Returns ``inf`` when
        even the largest probed scale falls short.
        """
        probe = list(scales) if scales is not None else [x / 4 for x in range(1, 241)]
        for s in sorted(probe):
            if self.slo_attainment(reference.slo_spec(s), slo_type) >= target:
                return float(s)
        return float("inf")

    # ------------------------------------------------------------------ throughput
    @property
    def output_token_throughput(self) -> float:
        """Generated tokens per second over the run (the paper's token throughput)."""
        if self.makespan <= 0 or not self.num_finished:
            return 0.0
        tokens = int(self.arrays.output_length[self.arrays.finished].sum())
        return tokens / self.makespan

    @property
    def total_token_throughput(self) -> float:
        """Prompt + generated tokens per second over the run."""
        if self.makespan <= 0 or not self.num_finished:
            return 0.0
        fin = self.arrays.finished
        tokens = int(self.arrays.input_length[fin].sum() + self.arrays.output_length[fin].sum())
        return tokens / self.makespan

    @property
    def request_throughput(self) -> float:
        """Completed requests per second over the run."""
        if self.makespan <= 0:
            return 0.0
        return self.num_finished / self.makespan


def merge_results(
    results: Sequence[SimulationResult], label: str = "merged"
) -> SimulationResult:
    """Combine sequential window runs of one trace into a single result.

    The columns and workload tags are concatenated, then stable-sorted by
    request id.  Event times are absolute within a trace, so the merged
    makespan is the latest clock reached by any window and the merged trace
    duration spans the earliest to the latest arrival.  Used by the scenario
    sweep and the live loop to aggregate window-by-window serving.
    """
    if not results:
        return SimulationResult(MetricArrays.from_metrics([]), 0.0, 0.0, label=label)
    order = np.argsort(
        np.concatenate([r.arrays.request_id for r in results]), kind="stable"
    )
    arrays = MetricArrays(
        **{
            f.name: np.concatenate([getattr(r.arrays, f.name) for r in results])[order]
            for f in fields(MetricArrays)
        }
    )
    tags = np.concatenate([r.workload_tags() for r in results])[order]
    return SimulationResult(
        arrays,
        makespan=max(r.makespan for r in results),
        trace_duration=_arrival_span(arrays.arrival_time),
        label=label,
        workload_spans=tag_spans(tags),
    )


__all__ = [
    "COLUMN_DTYPES",
    "MetricArrays",
    "SimulationResult",
    "merge_results",
]

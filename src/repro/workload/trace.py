"""Request traces: ordered request collections plus their struct-of-arrays form.

Two representations of the same arrival-ordered request sequence live here:

* :class:`Trace` — a list of :class:`~repro.core.types.Request` objects.  This
  is the ergonomic form every experiment and test manipulates, and it stays the
  canonical input of :meth:`~repro.simulation.engine.ServingSimulator.run`.
* :class:`RequestArrays` — the same columns (ids, arrival times, prompt and
  response lengths) as contiguous numpy arrays.  This is the form the fast
  simulation engine consumes end-to-end: a million-request trace is ~32 MB of
  arrays instead of a few GB of Python objects, and the streaming generator
  (:meth:`~repro.workload.generator.PoissonArrivalGenerator.iter_chunks`)
  yields it chunk by chunk so full materialization is never required.

``Trace.arrays()`` and ``RequestArrays.to_trace()`` convert between the two;
the conversions are exact (ids, times and lengths round-trip bitwise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Sequence

import numpy as np

from repro.core.types import Request


@dataclass
class RequestArrays:
    """A block of requests in struct-of-arrays form, ordered by arrival time.

    The fast simulation engine's native request representation: one numpy
    column per request attribute instead of one Python object per request.
    Blocks are produced by :meth:`Trace.arrays` (whole-trace conversion) or by
    the streaming generator (fixed-size chunks), and can be concatenated,
    sliced and converted back to object form.

    Parameters
    ----------
    request_id:
        Unique integer ids, ``int64``.
    arrival_time:
        Absolute arrival times in seconds, ``float64``, non-negative and
        non-decreasing.
    input_length:
        Prompt lengths in tokens, ``int64``, all >= 1.
    output_length:
        Response lengths in tokens, ``int64``, all >= 1.
    workload:
        Workload tag shared by every request in the block (chunks produced by
        one generator are homogeneous; whole-trace conversions of a mixed
        trace use ``"mixed"``).
    """

    request_id: np.ndarray
    arrival_time: np.ndarray
    input_length: np.ndarray
    output_length: np.ndarray
    workload: str = "generic"

    def __post_init__(self) -> None:
        self.request_id = np.ascontiguousarray(self.request_id, dtype=np.int64)
        self.arrival_time = np.ascontiguousarray(self.arrival_time, dtype=np.float64)
        self.input_length = np.ascontiguousarray(self.input_length, dtype=np.int64)
        self.output_length = np.ascontiguousarray(self.output_length, dtype=np.int64)
        n = self.request_id.size
        for name in ("arrival_time", "input_length", "output_length"):
            column = getattr(self, name)
            if column.ndim != 1 or column.size != n:
                raise ValueError(f"{name} must be a 1-d array of length {n}")
        if self.request_id.ndim != 1:
            raise ValueError("request_id must be a 1-d array")
        if n:
            if int(self.input_length.min()) < 1 or int(self.output_length.min()) < 1:
                raise ValueError("input_length and output_length must be >= 1")
            if np.any(np.diff(self.arrival_time) < 0):
                raise ValueError("arrival_time must be non-decreasing")
            # Request's own check; the column is non-decreasing, so the first
            # arrival is the earliest.
            first = float(self.arrival_time[0])
            if first < 0:
                raise ValueError(f"arrival_time must be >= 0, got {first}")

    # ------------------------------------------------------------------ container
    def __len__(self) -> int:
        return self.request_id.size

    @property
    def num_requests(self) -> int:
        """Number of requests in the block."""
        return self.request_id.size

    @property
    def duration(self) -> float:
        """Span between the first and last arrival (seconds)."""
        if self.request_id.size < 2:
            return 0.0
        return float(self.arrival_time[-1] - self.arrival_time[0])

    @property
    def total_tokens(self) -> int:
        """Total tokens (prompt + generated) in the block."""
        return int(self.input_length.sum() + self.output_length.sum())

    def slice(self, start: int, stop: int) -> "RequestArrays":
        """Return rows ``[start, stop)`` as a new block (columns are copies)."""
        return RequestArrays(
            request_id=self.request_id[start:stop].copy(),
            arrival_time=self.arrival_time[start:stop].copy(),
            input_length=self.input_length[start:stop].copy(),
            output_length=self.output_length[start:stop].copy(),
            workload=self.workload,
        )

    # ------------------------------------------------------------------ conversion
    @classmethod
    def from_trace(cls, trace: "Trace") -> "RequestArrays":
        """Convert a :class:`Trace` to struct-of-arrays form (exact columns)."""
        requests = trace.requests
        n = len(requests)
        workloads = {r.workload for r in requests}
        return cls(
            request_id=np.fromiter((r.request_id for r in requests), np.int64, count=n),
            arrival_time=np.fromiter((r.arrival_time for r in requests), np.float64, count=n),
            input_length=np.fromiter((r.input_length for r in requests), np.int64, count=n),
            output_length=np.fromiter((r.output_length for r in requests), np.int64, count=n),
            workload=workloads.pop() if len(workloads) == 1 else "mixed",
        )

    def to_trace(self, name: str | None = None) -> "Trace":
        """Materialize the block as a :class:`Trace` of request objects."""
        ids = self.request_id.tolist()
        arrivals = self.arrival_time.tolist()
        inputs = self.input_length.tolist()
        outputs = self.output_length.tolist()
        requests = [
            Request(
                request_id=ids[i],
                arrival_time=arrivals[i],
                input_length=inputs[i],
                output_length=outputs[i],
                workload=self.workload,
            )
            for i in range(len(ids))
        ]
        return Trace(requests=requests, name=name if name is not None else self.workload)

    @staticmethod
    def concat(blocks: Sequence["RequestArrays"]) -> "RequestArrays":
        """Concatenate arrival-ordered blocks into one block.

        The blocks must be time-ordered end to end (each block's first arrival
        at or after the previous block's last), as produced by the streaming
        generator.  The result's workload tag is the shared tag when all
        blocks agree, else ``"mixed"``.
        """
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return RequestArrays(
                request_id=np.empty(0, dtype=np.int64),
                arrival_time=np.empty(0, dtype=np.float64),
                input_length=np.empty(0, dtype=np.int64),
                output_length=np.empty(0, dtype=np.int64),
            )
        workloads = {b.workload for b in blocks}
        return RequestArrays(
            request_id=np.concatenate([b.request_id for b in blocks]),
            arrival_time=np.concatenate([b.arrival_time for b in blocks]),
            input_length=np.concatenate([b.input_length for b in blocks]),
            output_length=np.concatenate([b.output_length for b in blocks]),
            workload=workloads.pop() if len(workloads) == 1 else "mixed",
        )


@dataclass
class Trace:
    """An arrival-ordered sequence of requests plus summary statistics."""

    requests: List[Request]
    name: str = "trace"

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda r: r.arrival_time)
        self._arrays: RequestArrays | None = None

    # ------------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx: int) -> Request:
        return self.requests[idx]

    @property
    def is_empty(self) -> bool:
        """Whether the trace contains no requests."""
        return not self.requests

    def arrays(self) -> RequestArrays:
        """Struct-of-arrays view of the trace (cached after the first call).

        The conversion is exact: ids, arrival times and lengths carry over
        bitwise.  The cache assumes the request list is not mutated after the
        first call — build a new :class:`Trace` instead of editing in place.
        """
        if self._arrays is None or len(self._arrays) != len(self.requests):
            self._arrays = RequestArrays.from_trace(self)
        return self._arrays

    # ------------------------------------------------------------------ statistics
    @property
    def duration(self) -> float:
        """Span between the first and last arrival (seconds)."""
        if len(self.requests) < 2:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time

    @property
    def request_rate(self) -> float:
        """Empirical mean arrival rate (requests per second)."""
        if len(self.requests) < 2 or self.duration == 0:
            return 0.0
        return (len(self.requests) - 1) / self.duration

    @property
    def mean_input_length(self) -> float:
        """Mean prompt length across the trace."""
        if not self.requests:
            return 0.0
        return float(np.mean([r.input_length for r in self.requests]))

    @property
    def mean_output_length(self) -> float:
        """Mean response length across the trace."""
        if not self.requests:
            return 0.0
        return float(np.mean([r.output_length for r in self.requests]))

    @property
    def median_input_length(self) -> float:
        """Median prompt length across the trace."""
        if not self.requests:
            return 0.0
        return float(np.median([r.input_length for r in self.requests]))

    @property
    def median_output_length(self) -> float:
        """Median response length across the trace."""
        if not self.requests:
            return 0.0
        return float(np.median([r.output_length for r in self.requests]))

    @property
    def total_input_tokens(self) -> int:
        """Total prompt tokens in the trace."""
        return int(sum(r.input_length for r in self.requests))

    @property
    def total_output_tokens(self) -> int:
        """Total generated tokens in the trace."""
        return int(sum(r.output_length for r in self.requests))

    @property
    def total_tokens(self) -> int:
        """Total tokens (prompt + generated) in the trace."""
        return self.total_input_tokens + self.total_output_tokens

    # ------------------------------------------------------------------ transforms
    def window(self, start: float, end: float) -> "Trace":
        """Return the sub-trace of requests arriving in ``[start, end)``."""
        if end < start:
            raise ValueError("end must be >= start")
        selected = [r for r in self.requests if start <= r.arrival_time < end]
        return Trace(requests=selected, name=f"{self.name}[{start:g},{end:g})")

    def head(self, n: int) -> "Trace":
        """Return the first ``n`` requests as a new trace."""
        return Trace(requests=list(self.requests[:n]), name=f"{self.name}-head{n}")

    def renumbered(self, first_id: int = 0) -> "Trace":
        """Return a copy with request ids renumbered consecutively from ``first_id``."""
        renumbered = [
            replace(r, request_id=first_id + i) for i, r in enumerate(self.requests)
        ]
        return Trace(requests=renumbered, name=self.name)

    def shifted(self, offset: float) -> "Trace":
        """Return a copy with every arrival time shifted by ``offset`` seconds."""
        shifted = [r.with_arrival(r.arrival_time + offset) for r in self.requests]
        return Trace(requests=shifted, name=self.name)


def merge_traces(traces: Sequence[Trace], name: str = "merged") -> Trace:
    """Interleave several traces by arrival time and renumber request ids.

    Used to model workload shifts: e.g. a coding trace for the first half of the
    horizon followed by a conversation trace for the second half.
    """
    requests: List[Request] = []
    for trace in traces:
        requests.extend(trace.requests)
    merged = Trace(requests=requests, name=name)
    return merged.renumbered()


__all__ = ["RequestArrays", "Trace", "merge_traces"]

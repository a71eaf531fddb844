"""Request traces: one struct-of-arrays representation of a request sequence.

A request sequence is stored one way, as columns:

* :class:`RequestArrays` — a block of arrival-ordered requests, one numpy
  column per attribute (ids, arrival times, prompt and response lengths).  A
  million-request block is ~32 MB of arrays instead of a few GB of Python
  objects, and the streaming generator
  (:meth:`~repro.workload.generator.PoissonArrivalGenerator.iter_chunks`)
  yields blocks chunk by chunk, so nothing needs the whole sequence at once.
* :class:`Trace` — one block plus its workload spans, ``(first_row, tag)``
  pairs that give the workload tag of each run of rows (the encoding the
  simulation engine and :class:`~repro.simulation.metrics.SimulationResult`
  use), and a name.  Windows, merges and the summary statistics all work on
  the columns.

:class:`~repro.core.types.Request` objects are built only when a caller
iterates or indexes a trace: :attr:`Trace.requests` is a read-only view built
from the columns on first access and cached.  The per-event engines and tests
use it; the serving path (the fast engine, ``ThunderServe.serve``, the live
loop, shadow replays and the workload profiler) reads the columns only.
``Trace(requests=[...])`` still takes request objects and stores their columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import Request

#: ``(first_row, tag)`` pairs: the workload tag of each run of rows
Spans = Tuple[Tuple[int, str], ...]


@dataclass
class RequestArrays:
    """A block of requests in struct-of-arrays form, ordered by arrival time.

    The native request representation: one numpy column per request
    attribute instead of one Python object per request.  Blocks come from
    the generator (whole traces or fixed-size chunks) and back every
    :class:`Trace`; they can be concatenated and sliced.  A trace shares its
    block's columns with its windows (a window is a view), so the columns are
    read-only by convention: build a new block instead of writing into one.

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
        one generator are homogeneous; a block of several workloads is tagged
        ``"mixed"``, and its :class:`Trace` keeps the tag of every row).
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

    @classmethod
    def _trusted(
        cls,
        request_id: np.ndarray,
        arrival_time: np.ndarray,
        input_length: np.ndarray,
        output_length: np.ndarray,
        workload: str,
    ) -> "RequestArrays":
        """Wrap columns already known valid (rows of a valid block, in order): no check, no copy."""
        block = cls.__new__(cls)
        block.request_id = request_id
        block.arrival_time = arrival_time
        block.input_length = input_length
        block.output_length = output_length
        block.workload = workload
        return block

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
    def to_trace(self, name: Optional[str] = None) -> "Trace":
        """Wrap the block as a :class:`Trace` (no copy; no request objects are built)."""
        spans: Spans = ((0, self.workload),) if len(self) else ()
        return Trace._of(self, spans, name if name is not None else self.workload)

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


# ---------------------------------------------------------------------- spans
def span_tags(spans: Spans, rows: np.ndarray) -> np.ndarray:
    """The workload tag of each of ``rows`` under ``spans`` (an object array).

    Rows before the first span (or any row, when ``spans`` is empty) are
    tagged ``"generic"``, as an untagged request is.
    """
    starts = np.fromiter((s for s, _ in spans), np.int64, count=len(spans))
    names = np.array(["generic"] + [t for _, t in spans], dtype=object)
    return names[np.searchsorted(starts, rows, side="right")]


def tag_spans(tags: np.ndarray) -> Spans:
    """The spans of a per-row tag sequence: one ``(first_row, tag)`` per run."""
    if not tags.size:
        return ()
    first = np.flatnonzero(tags[1:] != tags[:-1]) + 1
    return ((0, tags[0]),) + tuple(zip(first.tolist(), tags[first].tolist()))


def _block_tag(spans: Spans, default: str) -> str:
    """A block's shared tag: the one span's tag, ``"mixed"`` for several."""
    if not spans:
        return default
    return spans[0][1] if len(spans) == 1 else "mixed"


class Trace:
    """An arrival-ordered request sequence: a column block, its workload spans and a name.

    Parameters
    ----------
    requests:
        Request objects in any order.  They are stored as columns, sorted by
        arrival time (stable: equal arrivals keep their given order), with
        each request's workload tag kept in the spans.
    name:
        Display name of the trace.

    Attributes
    ----------
    arrays:
        The request columns (:class:`RequestArrays`), arrival-ordered.
    spans:
        ``(first_row, tag)`` pairs: the workload tag of each run of rows.
    name:
        Display name of the trace.
    """

    def __init__(self, requests: Iterable[Request] = (), name: str = "trace") -> None:
        ordered = sorted(requests, key=lambda r: r.arrival_time)
        n = len(ordered)
        spans = tag_spans(np.array([r.workload for r in ordered], dtype=object))
        arrays = RequestArrays(
            request_id=np.fromiter((r.request_id for r in ordered), np.int64, count=n),
            arrival_time=np.fromiter((r.arrival_time for r in ordered), np.float64, count=n),
            input_length=np.fromiter((r.input_length for r in ordered), np.int64, count=n),
            output_length=np.fromiter((r.output_length for r in ordered), np.int64, count=n),
            workload=_block_tag(spans, "generic"),
        )
        self._set(arrays, spans, name)

    def _set(self, arrays: RequestArrays, spans: Spans, name: str) -> None:
        self.arrays = arrays
        self.spans = spans
        self.name = name
        self._requests: Optional[Tuple[Request, ...]] = None

    @classmethod
    def _of(cls, arrays: RequestArrays, spans: Spans, name: str) -> "Trace":
        """A trace over an arrival-ordered block and its spans (no copy, no check)."""
        trace = cls.__new__(cls)
        trace._set(arrays, spans, name)
        return trace

    @classmethod
    def concat(cls, blocks: Iterable[RequestArrays], name: Optional[str] = None) -> "Trace":
        """Concatenate time-ordered blocks into one trace; each block's rows keep its tag."""
        blocks = [b for b in blocks if len(b)]
        spans, row = [], 0
        for block in blocks:
            if not spans or spans[-1][1] != block.workload:
                spans.append((row, block.workload))
            row += len(block)
        arrays = RequestArrays.concat(blocks)
        return cls._of(arrays, tuple(spans), arrays.workload if name is None else name)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, num_requests={len(self)}, spans={len(self.spans)})"

    # ------------------------------------------------------------------ container
    def __len__(self) -> int:
        return self.arrays.request_id.size

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx):
        return self.requests[idx]

    @property
    def is_empty(self) -> bool:
        """Whether the trace contains no requests."""
        return not len(self)

    @property
    def requests(self) -> Tuple[Request, ...]:
        """The request objects, in arrival order (a read-only view, built on first access)."""
        if self._requests is None:
            a = self.arrays
            self._requests = tuple(
                Request(
                    request_id=rid,
                    arrival_time=arrival,
                    input_length=inp,
                    output_length=out,
                    workload=tag,
                )
                for rid, arrival, inp, out, tag in zip(
                    a.request_id.tolist(),
                    a.arrival_time.tolist(),
                    a.input_length.tolist(),
                    a.output_length.tolist(),
                    self.workload_tags().tolist(),
                )
            )
        return self._requests

    def workload_tags(self) -> np.ndarray:
        """The workload tag of every row (an object array)."""
        return span_tags(self.spans, np.arange(len(self)))

    # ------------------------------------------------------------------ statistics
    @property
    def duration(self) -> float:
        """Span between the first and last arrival (seconds)."""
        return self.arrays.duration

    @property
    def request_rate(self) -> float:
        """Empirical mean arrival rate (requests per second)."""
        if len(self) < 2 or self.duration == 0:
            return 0.0
        return (len(self) - 1) / self.duration

    @property
    def mean_input_length(self) -> float:
        """Mean prompt length across the trace."""
        return float(np.mean(self.arrays.input_length)) if len(self) else 0.0

    @property
    def mean_output_length(self) -> float:
        """Mean response length across the trace."""
        return float(np.mean(self.arrays.output_length)) if len(self) else 0.0

    @property
    def median_input_length(self) -> float:
        """Median prompt length across the trace."""
        return float(np.median(self.arrays.input_length)) if len(self) else 0.0

    @property
    def median_output_length(self) -> float:
        """Median response length across the trace."""
        return float(np.median(self.arrays.output_length)) if len(self) else 0.0

    @property
    def total_input_tokens(self) -> int:
        """Total prompt tokens in the trace."""
        return int(self.arrays.input_length.sum())

    @property
    def total_output_tokens(self) -> int:
        """Total generated tokens in the trace."""
        return int(self.arrays.output_length.sum())

    @property
    def total_tokens(self) -> int:
        """Total tokens (prompt + generated) in the trace."""
        return self.total_input_tokens + self.total_output_tokens

    # ------------------------------------------------------------------ transforms
    def window(self, start: float, end: float) -> "Trace":
        """Return the sub-trace of requests arriving in ``[start, end)`` (a view, tags kept)."""
        if end < start:
            raise ValueError("end must be >= start")
        a = self.arrays
        lo, hi = np.searchsorted(a.arrival_time, (start, end), side="left").tolist()
        if len(self.spans) > 1:
            spans = tag_spans(span_tags(self.spans, np.arange(lo, hi)))
        else:
            spans = self.spans if hi > lo else ()
        rows = slice(lo, hi)
        block = RequestArrays._trusted(
            a.request_id[rows],
            a.arrival_time[rows],
            a.input_length[rows],
            a.output_length[rows],
            _block_tag(spans, a.workload),
        )
        return Trace._of(block, spans, f"{self.name}[{start:g},{end:g})")


def merge_traces(traces: Sequence[Trace], name: str = "merged") -> Trace:
    """Interleave several traces by arrival time and renumber request ids.

    Used to model workload shifts: e.g. a coding trace for the first half of the
    horizon followed by a conversation trace for the second half.  Equal
    arrivals keep the order of ``traces``, and every row keeps its tag.
    """
    blocks = [t.arrays for t in traces]
    if not blocks:
        return Trace(name=name)
    arrival = np.concatenate([b.arrival_time for b in blocks])
    order = np.argsort(arrival, kind="stable")
    tags = np.concatenate([t.workload_tags() for t in traces])[order]
    spans = tag_spans(tags)
    block = RequestArrays._trusted(
        np.arange(order.size, dtype=np.int64),
        arrival[order],
        np.concatenate([b.input_length for b in blocks])[order],
        np.concatenate([b.output_length for b in blocks])[order],
        _block_tag(spans, "generic"),
    )
    return Trace._of(block, spans, name)


__all__ = ["RequestArrays", "Spans", "Trace", "merge_traces", "span_tags", "tag_spans"]

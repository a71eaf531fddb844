"""Online workload profiler and shift detection.

The ThunderServe runtime continuously monitors the incoming request stream
(average prompt length, average response length and arrival rate) and notifies the
scheduler when the observed workload drifts far enough from the one the current
deployment plan was optimised for.  That notification triggers the *lightweight
rescheduling* of §3.4 (re-designate phases + re-orchestrate, nothing else).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional, Tuple, Union

from repro.core.types import Request
from repro.workload.spec import WorkloadSpec, WorkloadStats
from repro.workload.trace import Trace


@dataclass(frozen=True)
class WorkloadShift:
    """A detected workload shift.

    Attributes
    ----------
    previous:
        The reference statistics the current plan was built for.
    current:
        The newly observed statistics.
    input_ratio / output_ratio / rate_ratio:
        Ratios of current to previous means; values far from 1 indicate drift.
    """

    previous: WorkloadStats
    current: WorkloadStats
    input_ratio: float
    output_ratio: float
    rate_ratio: float

    def describe(self) -> str:
        """Human-readable shift summary."""
        return (
            f"workload shift: input x{self.input_ratio:.2f}, "
            f"output x{self.output_ratio:.2f}, rate x{self.rate_ratio:.2f}"
        )


class WorkloadProfiler:
    """Sliding-window estimator of workload statistics with shift detection.

    Parameters
    ----------
    window_size:
        Number of most recent requests used to compute the running statistics.
    shift_threshold:
        Relative change in mean prompt length, mean response length or request
        rate that counts as a workload shift (e.g. ``0.5`` = 50 %).
    min_requests:
        Minimum number of observed requests before shifts are reported (avoids
        spurious triggers on a cold window).
    """

    def __init__(
        self,
        window_size: int = 256,
        shift_threshold: float = 0.5,
        min_requests: int = 32,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if shift_threshold <= 0:
            raise ValueError("shift_threshold must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        self.window_size = window_size
        self.shift_threshold = shift_threshold
        self.min_requests = min_requests
        #: ``(arrival_time, input_length, output_length)`` of the most recent
        #: requests, oldest first
        self._window: Deque[Tuple[float, int, int]] = deque(maxlen=window_size)
        self._reference: Optional[WorkloadStats] = None

    # ------------------------------------------------------------------ recording
    def observe(self, request: Request) -> None:
        """Record one arriving request."""
        self._window.append((request.arrival_time, request.input_length, request.output_length))

    def observe_many(self, requests: Union[Trace, Iterable[Request]]) -> None:
        """Record a batch of arriving requests, in arrival order.

        A :class:`~repro.workload.trace.Trace` is read from its columns, and
        only its last ``window_size`` rows (the ones the window keeps).
        """
        if not isinstance(requests, Trace):
            for request in requests:
                self.observe(request)
            return
        a = requests.arrays
        keep = slice(max(0, len(a) - self.window_size), None)
        self._window.extend(
            zip(
                a.arrival_time[keep].tolist(),
                a.input_length[keep].tolist(),
                a.output_length[keep].tolist(),
            )
        )

    # ------------------------------------------------------------------ statistics
    def current_stats(self) -> WorkloadStats:
        """Statistics over the current window (zeros when the window is empty)."""
        if not self._window:
            return WorkloadStats(0.0, 0.0, 0.0, 0)
        arrivals, inputs, outputs = zip(*self._window)
        span = max(arrivals) - min(arrivals)
        rate = (len(self._window) - 1) / span if span > 0 and len(self._window) > 1 else 0.0
        return WorkloadStats(
            mean_input_length=float(sum(inputs)) / len(inputs),
            mean_output_length=float(sum(outputs)) / len(outputs),
            request_rate=rate,
            num_requests=len(self._window),
        )

    def set_reference(self, stats: Optional[WorkloadStats] = None) -> WorkloadStats:
        """Pin the reference statistics the current deployment plan was built for.

        With no argument, the current window statistics become the reference
        (typical right after a (re)scheduling event).
        """
        self._reference = stats or self.current_stats()
        return self._reference

    def set_reference_from_spec(self, spec: WorkloadSpec, request_rate: float) -> WorkloadStats:
        """Pin the reference from a workload spec and planned request rate."""
        stats = WorkloadStats(
            mean_input_length=spec.mean_input_length,
            mean_output_length=spec.mean_output_length,
            request_rate=request_rate,
            num_requests=0,
        )
        self._reference = stats
        return stats

    @property
    def reference(self) -> Optional[WorkloadStats]:
        """The pinned reference statistics, if any."""
        return self._reference

    # ------------------------------------------------------------------ detection
    def detect_shift(self) -> Optional[WorkloadShift]:
        """Return a :class:`WorkloadShift` if the observed workload drifted, else ``None``."""
        if self._reference is None or len(self._window) < self.min_requests:
            return None
        current = self.current_stats()
        prev = self._reference

        def ratio(cur: float, ref: float) -> float:
            if ref <= 0:
                return 1.0 if cur <= 0 else float("inf")
            return cur / ref

        input_ratio = ratio(current.mean_input_length, prev.mean_input_length)
        output_ratio = ratio(current.mean_output_length, prev.mean_output_length)
        rate_ratio = ratio(current.request_rate, prev.request_rate) if prev.request_rate > 0 else 1.0

        def shifted(r: float) -> bool:
            return r > 1 + self.shift_threshold or r < 1 / (1 + self.shift_threshold)

        if shifted(input_ratio) or shifted(output_ratio) or shifted(rate_ratio):
            return WorkloadShift(
                previous=prev,
                current=current,
                input_ratio=input_ratio,
                output_ratio=output_ratio,
                rate_ratio=rate_ratio,
            )
        return None

    def reset(self) -> None:
        """Clear the window (the reference is kept)."""
        self._window.clear()


__all__ = ["WorkloadProfiler", "WorkloadShift"]

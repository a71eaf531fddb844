"""Request trace generation with Poisson arrivals, eager or streamed.

Following the paper (§5.1), request arrivals follow a Poisson process determined
by the average request rate, with inter-arrival times drawn from an exponential
distribution; prompt and response lengths are drawn from the workload spec.

Two generation paths share one :class:`PoissonArrivalGenerator`:

* :meth:`~PoissonArrivalGenerator.generate` — the legacy eager path, producing
  a whole :class:`~repro.workload.trace.Trace`.  Its RNG stream
  (interleaved gaps → inputs → outputs on a single generator) is frozen: every
  seed-pinned trace in the test suite and the committed benchmark baselines
  depend on it byte for byte.
* :meth:`~PoissonArrivalGenerator.iter_chunks` /
  :meth:`~PoissonArrivalGenerator.generate_arrays` — the streaming path,
  yielding fixed-size :class:`~repro.workload.trace.RequestArrays` chunks in
  bounded memory.  Arrivals, prompt lengths and response lengths each draw
  from their own child stream (spawned deterministically from the generator's
  seed), so the realization is **independent of the chunk size**: any chunking
  concatenates to exactly the bytes of the eager-arrays path.

:class:`DiurnalTimeWarp` turns the homogeneous arrival process into a
nonhomogeneous (diurnal) one by inverse-transforming cumulative intensity —
a deterministic, elementwise (hence chunk-stable) time mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.core.rng import RNGLike, ensure_rng
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import RequestArrays, Trace

#: default number of requests per streamed chunk (~2 MB of request columns)
DEFAULT_CHUNK_SIZE = 65_536


@dataclass
class DiurnalTimeWarp:
    """Monotone time warp imposing a sinusoidal (diurnal) arrival intensity.

    The Poisson generator produces a *homogeneous* process at the mean request
    rate; warping its cumulative arrival times through the inverse cumulative
    relative intensity ``M(s) = integral of (1 + amplitude * sin(2*pi*s/period
    + phase))`` yields a nonhomogeneous process whose instantaneous rate swings
    between ``rate * (1 - amplitude)`` and ``rate * (1 + amplitude)`` — the
    standard inversion construction for nonhomogeneous Poisson processes.

    The inverse is evaluated by linear interpolation on a precomputed grid,
    which is deterministic and elementwise, so warped chunked generation stays
    bitwise-identical to warped eager generation.

    Parameters
    ----------
    horizon:
        Largest homogeneous-time value the warp must cover (for a trace of
        ``n`` requests at rate ``r``, about ``n / r`` plus slack).
    period:
        Length of one intensity cycle in seconds (default: 24 h).
    amplitude:
        Relative swing of the intensity, in ``[0, 1)``.
    phase:
        Phase offset of the sinusoid in radians.
    grid_points_per_period:
        Resolution of the inversion grid.
    """

    horizon: float
    period: float = 86_400.0
    amplitude: float = 0.5
    phase: float = 0.0
    grid_points_per_period: int = 4096

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.grid_points_per_period < 8:
            raise ValueError("grid_points_per_period must be >= 8")
        # M(s) is increasing with slope >= 1 - amplitude, so the preimage of
        # [0, horizon] is contained in [0, horizon / (1 - amplitude)]; one
        # extra period of slack keeps the top grid cell interior.
        s_max = self.horizon / (1.0 - self.amplitude) + self.period
        points = int(math.ceil(s_max / self.period * self.grid_points_per_period)) + 1
        self._s_grid = np.linspace(0.0, s_max, points)
        omega = 2.0 * math.pi / self.period
        scale = self.amplitude / omega
        self._m_grid = self._s_grid + scale * (
            math.cos(self.phase) - np.cos(omega * self._s_grid + self.phase)
        )

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """Map homogeneous cumulative times to diurnal wall-clock times."""
        t = np.asarray(times, dtype=np.float64)
        if t.size and float(t.max()) > float(self._m_grid[-1]):
            raise ValueError(
                f"time {float(t.max()):.1f} exceeds the warp horizon "
                f"{float(self._m_grid[-1]):.1f}; build the warp with a larger horizon"
            )
        return np.interp(t, self._m_grid, self._s_grid)


@dataclass
class PoissonArrivalGenerator:
    """Generates request traces with exponential inter-arrival times.

    Parameters
    ----------
    spec:
        Workload shape (length distributions).
    request_rate:
        Mean arrival rate in requests per second.
    seed:
        Seed or generator controlling both arrivals and lengths.
    """

    spec: WorkloadSpec
    request_rate: float
    seed: RNGLike = None

    def __post_init__(self) -> None:
        if self.request_rate <= 0:
            raise ValueError(f"request_rate must be positive, got {self.request_rate}")
        self._rng = ensure_rng(self.seed)
        self._stream_seeds: Optional[list] = None

    # ------------------------------------------------------------------ eager
    def generate(
        self,
        duration: Optional[float] = None,
        num_requests: Optional[int] = None,
        start_time: float = 0.0,
        first_request_id: int = 0,
    ) -> Trace:
        """Generate a trace covering ``duration`` seconds or ``num_requests`` requests.

        Exactly one of ``duration`` / ``num_requests`` must be provided.  This
        legacy path draws gaps, prompt lengths and response lengths from one
        interleaved RNG stream; its realizations are frozen (seed-pinned tests
        and committed baselines depend on them).  New large-scale consumers
        should prefer :meth:`iter_chunks` / :meth:`generate_arrays`.
        """
        if (duration is None) == (num_requests is None):
            raise ValueError("provide exactly one of duration or num_requests")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        if num_requests is not None and num_requests < 0:
            raise ValueError("num_requests must be >= 0")

        if num_requests is None:
            # Over-sample arrivals then truncate to the duration window.
            expected = max(1, int(self.request_rate * duration * 1.5) + 10)
            gaps = self._rng.exponential(1.0 / self.request_rate, size=expected)
            arrivals = start_time + np.cumsum(gaps)
            arrivals = arrivals[arrivals < start_time + duration]
            n = len(arrivals)
        else:
            n = num_requests
            gaps = self._rng.exponential(1.0 / self.request_rate, size=n)
            arrivals = start_time + np.cumsum(gaps)

        inputs = self.spec.sample_input_lengths(n, self._rng)
        outputs = self.spec.sample_output_lengths(n, self._rng)
        return RequestArrays(
            request_id=np.arange(first_request_id, first_request_id + n, dtype=np.int64),
            arrival_time=arrivals,
            input_length=inputs,
            output_length=outputs,
            workload=self.spec.name,
        ).to_trace()

    # ------------------------------------------------------------------ streaming
    def _stream_rngs(self) -> List[np.random.Generator]:
        """Fresh generators for the three per-component streams.

        The three child seed sequences (arrival gaps, prompt lengths, response
        lengths) are spawned once from the generator's own seed sequence —
        without consuming the legacy stream, so :meth:`generate` realizations
        are unaffected — and cached, so every call restarts the exact same
        three streams.  Separate component streams are what makes chunked
        generation independent of the chunk size.
        """
        if self._stream_seeds is None:
            seed_seq = getattr(self._rng.bit_generator, "seed_seq", None)
            if seed_seq is None:  # pragma: no cover - all numpy bit generators have one
                raise TypeError(
                    "streaming generation requires a bit generator with a seed sequence"
                )
            self._stream_seeds = list(seed_seq.spawn(3))
        return [np.random.default_rng(ss) for ss in self._stream_seeds]

    def iter_chunks(
        self,
        num_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start_time: float = 0.0,
        first_request_id: int = 0,
        time_warp=None,
    ) -> Iterator[RequestArrays]:
        """Stream ``num_requests`` requests as fixed-size struct-of-arrays chunks.

        Memory use is bounded by ``chunk_size`` regardless of ``num_requests``,
        and the realization is **chunk-size invariant**: concatenating the
        chunks reproduces :meth:`generate_arrays` bitwise for any chunk size
        (each component draws from its own RNG stream, and the arrival cumsum
        carries the running sum across chunk boundaries exactly).

        Parameters
        ----------
        num_requests:
            Total number of requests to produce.
        chunk_size:
            Maximum rows per yielded :class:`RequestArrays` block.
        start_time:
            Arrival time offset of the first gap.
        first_request_id:
            Id of the first request; ids increase consecutively.
        time_warp:
            Optional monotone elementwise mapping (e.g. :class:`DiurnalTimeWarp`)
            applied to the homogeneous cumulative arrival times.
        """
        if num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        arr_rng, in_rng, out_rng = self._stream_rngs()
        scale = 1.0 / self.request_rate
        produced = 0
        carry = float(start_time)
        buffer = np.empty(chunk_size + 1, dtype=np.float64)
        while produced < num_requests:
            c = min(chunk_size, num_requests - produced)
            gaps = arr_rng.exponential(scale, size=c)
            # Sequential accumulation continued across chunks: seeding the
            # cumsum with the carried last arrival reproduces one whole-trace
            # cumsum bitwise (left-to-right float64 adds in both cases).
            buffer[0] = carry
            buffer[1 : c + 1] = gaps
            homogeneous = np.cumsum(buffer[: c + 1])[1:]
            carry = float(homogeneous[-1])
            arrivals = homogeneous if time_warp is None else time_warp(homogeneous)
            inputs = self.spec.sample_input_lengths(c, in_rng)
            outputs = self.spec.sample_output_lengths(c, out_rng)
            ids = np.arange(
                first_request_id + produced,
                first_request_id + produced + c,
                dtype=np.int64,
            )
            produced += c
            yield RequestArrays(
                request_id=ids,
                arrival_time=arrivals,
                input_length=inputs,
                output_length=outputs,
                workload=self.spec.name,
            )

    def generate_arrays(
        self,
        num_requests: int,
        start_time: float = 0.0,
        first_request_id: int = 0,
        time_warp=None,
    ) -> RequestArrays:
        """Generate ``num_requests`` requests eagerly in struct-of-arrays form.

        Equivalent to concatenating :meth:`iter_chunks` — bitwise, for any
        chunk size.  Prefer :meth:`iter_chunks` when the trace is too large to
        hold at once.
        """
        chunks = list(
            self.iter_chunks(
                num_requests,
                chunk_size=max(1, num_requests),
                start_time=start_time,
                first_request_id=first_request_id,
                time_warp=time_warp,
            )
        )
        return RequestArrays.concat(chunks)


def generate_requests(
    spec: WorkloadSpec,
    request_rate: float,
    duration: Optional[float] = None,
    num_requests: Optional[int] = None,
    seed: RNGLike = None,
) -> Trace:
    """Convenience wrapper around :class:`PoissonArrivalGenerator`."""
    gen = PoissonArrivalGenerator(spec=spec, request_rate=request_rate, seed=seed)
    return gen.generate(duration=duration, num_requests=num_requests)


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DiurnalTimeWarp",
    "PoissonArrivalGenerator",
    "generate_requests",
]

"""Retry policy governing in-engine request dispositions after a fault.

When a capacity-loss fault kills a replica mid-run, every in-flight request on
it gets a *typed disposition* (see ``docs/simulation.md``): it is either
re-dispatched to a surviving replica after an exponential backoff delay, or
cancelled with a recorded cause (:class:`~repro.core.types.RequestOutcome`).
:class:`RetryPolicy` holds the knobs of that decision — bounded attempts,
exponential backoff with deterministic seeded jitter, and an optional
per-request deadline after which a retry is pointless (``timed_out``).

Determinism contract: all randomness is **hash-based**, not drawn from the
simulator RNG stream.  :func:`fault_uniform` maps ``(salt, seed, request id,
attempt)`` to a uniform in ``[0, 1)`` via CRC-32, so the jitter of a given
retry and the surviving replica it is routed to are pure functions of the
request identity — identical in the fast and reference engines regardless of
the order dispositions are processed in, and stable under replay with the
same seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

#: Factor by which each further retry attempt multiplies the backoff delay.
BACKOFF_MULTIPLIER = 2.0


def fault_uniform(salt: str, seed: int, request_id: int, attempt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` keyed by request identity.

    CRC-32 of ``"{salt}:{seed}:{request_id}:{attempt}"`` scaled to ``[0, 1)``.
    Order-independent by construction: the value does not depend on how many
    other requests were disposed before this one, which is what keeps the two
    engines bitwise-identical under fault timelines.
    """
    key = f"{salt}:{seed}:{request_id}:{attempt}".encode()
    return (zlib.crc32(key) & 0xFFFFFFFF) / 4294967296.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with deterministic exponential backoff.

    Parameters
    ----------
    max_retries:
        Maximum number of fault dispositions a request may survive; the
        ``max_retries + 1``-th disposition drops it as ``dropped_outage``.
        ``0`` is the drop-only policy: any fault touching a request kills it.
    backoff_base_s:
        Backoff delay of the first retry (seconds, before jitter); each further
        attempt multiplies it by :data:`BACKOFF_MULTIPLIER`
        (``delay = base * BACKOFF_MULTIPLIER ** (attempt - 1)``).
    jitter:
        Relative jitter amplitude: the delay is scaled by ``1 + jitter * u``
        with ``u`` a deterministic per-(request, attempt) uniform from
        :func:`fault_uniform`.  ``0`` disables jitter.
    deadline_s:
        Optional per-request deadline (seconds after arrival).  A disposition
        whose retry would land past the deadline cancels the request as
        ``timed_out`` instead.  Enforced at disposition instants only — a
        request that is already running is never killed by its deadline.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    jitter: float = 0.1
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be positive, got {self.backoff_base_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    @classmethod
    def drop_only(cls, deadline_s: Optional[float] = None) -> "RetryPolicy":
        """Policy that never retries: any fault disposition drops the request."""
        return cls(max_retries=0, deadline_s=deadline_s)

    def backoff_delay(self, seed: int, request_id: int, attempt: int) -> float:
        """Backoff delay (seconds) of retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        u = fault_uniform("retry-jitter", seed, request_id, attempt)
        base = self.backoff_base_s * BACKOFF_MULTIPLIER ** (attempt - 1)
        return base * (1.0 + self.jitter * u)


__all__ = ["RetryPolicy", "fault_uniform"]

"""Alpha-beta (Hockney) communication model.

Equation 1 of the paper models the KV-cache transfer time between a prefill and a
decode replica as ``T = alpha + 2*b*s*h*N_bytes / beta`` where ``alpha`` is the link
latency, ``beta`` the link bandwidth, ``b`` the batch size, ``s`` the sequence
length, ``h`` the hidden size and ``N_bytes`` the per-element byte size.  The same
two-parameter model is used for activation transfers between pipeline stages and
for tensor-parallel collectives.
"""

from __future__ import annotations

from dataclasses import dataclass


def transfer_seconds(alpha_s: float, beta_bytes_per_s: float, num_bytes: float) -> float:
    """Time to move ``num_bytes`` over a link with latency ``alpha`` and bandwidth ``beta``."""
    if alpha_s < 0:
        raise ValueError("alpha must be >= 0")
    if beta_bytes_per_s <= 0:
        raise ValueError("beta must be positive")
    if num_bytes < 0:
        raise ValueError("num_bytes must be >= 0")
    if num_bytes == 0:
        return 0.0
    return alpha_s + num_bytes / beta_bytes_per_s


@dataclass(frozen=True)
class AlphaBetaModel:
    """A single point-to-point link characterised by latency and bandwidth."""

    alpha_s: float
    beta_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.alpha_s < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta_bytes_per_s <= 0:
            raise ValueError("beta must be positive")

    def transfer_seconds(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` over this link."""
        return transfer_seconds(self.alpha_s, self.beta_bytes_per_s, num_bytes)

    def allreduce_seconds(self, num_bytes: float, world_size: int) -> float:
        """Ring all-reduce time for ``num_bytes`` per rank over ``world_size`` ranks.

        Uses the standard ``2*(p-1)/p`` volume factor of ring all-reduce; degenerate
        world sizes (0 or 1 ranks) cost nothing.
        """
        if world_size < 0:
            raise ValueError("world_size must be >= 0")
        if world_size <= 1 or num_bytes == 0:
            return 0.0
        volume = 2.0 * (world_size - 1) / world_size * num_bytes
        # A ring all-reduce performs 2*(p-1) latency-bound steps.
        return 2.0 * (world_size - 1) * self.alpha_s + volume / self.beta_bytes_per_s


__all__ = ["AlphaBetaModel", "transfer_seconds"]

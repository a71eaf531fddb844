"""Alpha-beta (Hockney) communication model.

Equation 1 of the paper models the KV-cache transfer time between a prefill and a
decode replica as ``T = alpha + 2*b*s*h*N_bytes / beta`` where ``alpha`` is the link
latency, ``beta`` the link bandwidth, ``b`` the batch size, ``s`` the sequence
length, ``h`` the hidden size and ``N_bytes`` the per-element byte size.  The
roofline in :mod:`repro.costmodel.latency` prices pipeline activation transfers
and tensor-parallel all-reduces with the same two parameters.
"""

from __future__ import annotations


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


__all__ = ["transfer_seconds"]

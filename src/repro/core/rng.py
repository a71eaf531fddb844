"""Deterministic random-number helpers.

Every stochastic component in the package (workload generators, tabu search,
clustering jitter, failure injection) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises those
three cases so that experiments can be made exactly reproducible by threading a
single seed through the top-level entry points.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RNGLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int or numpy Generator, got {type(seed)!r}")


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Child generators are seeded from the parent so that the derivation is itself
    deterministic; this lets parallel sub-components (e.g. per-replica arrival
    streams) be reproducible without sharing a single generator object.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


__all__ = ["RNGLike", "ensure_rng", "spawn_rng"]

"""Orchestration of prefill and decode replicas (the two-stage transportation problem).

Section 3.3 turns the routing problem into a two-stage transportation problem
(TSTP): choose the fraction ``X_i`` of incoming requests handled by each prefill
replica and the fraction ``Y_ij`` of replica *i*'s requests forwarded to decode
replica *j*, maximising the routed SLO attainment ``sum_ij X_i Y_ij D_ij``.

We solve the equivalent linear program over the joint fractions ``Z_ij = X_i Y_ij``
with HiGHS, called through :func:`scipy.optimize.milp` with no integer variables.
HiGHS gets the same model ``linprog(method="highs")`` would build (the same
constraint matrix, row bounds and variable bounds), without the per-call option
validation that dominates ``linprog``'s cost on an LP this small.  ``linprog``
is kept only as the test oracle: a property test asserts that both return
bitwise-equal routings.  The paper's formulation as written admits the degenerate
optimum of routing everything through the single best pair, so — consistent with
how a transportation problem is normally posed — we add the natural capacity
constraints (a prefill replica cannot absorb more requests than its service rate
allows; a decode replica cannot generate more tokens than its bandwidth allows).
The resulting routing both maximises attainment and respects replica capacities.
If the cluster lacks capacity for the offered load, ``sum_ij Z_ij < 1`` and the
unserved fraction counts as missed SLOs, which is exactly the penalty the tabu
search should see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from repro.core.exceptions import SchedulingError


@dataclass
class OrchestrationResult:
    """Solution of the orchestration LP.

    Attributes
    ----------
    x:
        Prefill routing weights ``X_i`` (normalised to sum to 1 over the served
        fraction).
    y:
        Dispatch matrix ``Y_ij`` (rows of active prefill replicas sum to 1).
    z:
        Raw joint fractions ``Z_ij`` (may sum to less than 1 when capacity is
        insufficient).
    objective:
        Estimated system attainment ``sum_ij Z_ij D_ij`` (unserved mass scores 0).
    served_fraction:
        ``sum_ij Z_ij``.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective: float
    served_fraction: float


def solve_orchestration(
    attainment: np.ndarray,
    prefill_capacity: Optional[Sequence[float]] = None,
    decode_capacity: Optional[Sequence[float]] = None,
) -> OrchestrationResult:
    """Solve the TSTP for an attainment matrix and per-replica capacity fractions.

    Parameters
    ----------
    attainment:
        ``(m, n)`` matrix ``D_ij`` of estimated per-pair SLO attainment.
    prefill_capacity:
        Per-prefill-replica capacity expressed as a fraction of the total request
        rate (``None`` = uncapacitated).
    decode_capacity:
        Per-decode-replica capacity expressed as a fraction of the total request
        rate (``None`` = uncapacitated).
    """
    d = np.asarray(attainment, dtype=float)
    if d.ndim != 2 or d.size == 0:
        raise SchedulingError("attainment matrix must be a non-empty 2-D array")
    m, n = d.shape
    num_vars = m * n

    # Objective: maximise sum Z_ij D_ij  <=>  minimise -D . Z
    c = -d.reshape(-1)

    # Constraint rows: total routed mass <= 1, then sum_j Z_ij <= cap_i per
    # prefill replica, then sum_i Z_ij <= cap_j per decode replica.  With Z
    # flattened row-major, column i * n + j of A holds a 1 in the mass row, in
    # prefill row i and in decode row j, so A is built column-wise (CSC, the
    # layout HiGHS takes) from those row indices.
    rows = [np.zeros(num_vars, dtype=np.int32)]
    b_ub = [np.ones(1)]
    num_rows = 1
    if prefill_capacity is not None:
        caps = np.asarray(list(prefill_capacity), dtype=float)
        if caps.shape != (m,):
            raise SchedulingError("prefill_capacity must have one entry per prefill replica")
        rows.append(num_rows + np.repeat(np.arange(m, dtype=np.int32), n))
        b_ub.append(np.maximum(caps, 0.0))
        num_rows += m
    if decode_capacity is not None:
        caps = np.asarray(list(decode_capacity), dtype=float)
        if caps.shape != (n,):
            raise SchedulingError("decode_capacity must have one entry per decode replica")
        rows.append(num_rows + np.tile(np.arange(n, dtype=np.int32), m))
        b_ub.append(np.maximum(caps, 0.0))
        num_rows += n
    per_col = len(rows)
    a_ub = csc_array(
        (
            np.ones(per_col * num_vars),
            np.stack(rows, axis=1).ravel(),
            np.arange(0, per_col * num_vars + 1, per_col, dtype=np.int32),
        ),
        shape=(num_rows, num_vars),
    )

    result = milp(
        c,
        constraints=LinearConstraint(a_ub, -np.inf, np.concatenate(b_ub)),
        bounds=Bounds(0.0, np.inf),
    )
    if not result.success:  # pragma: no cover - highs is robust for this LP class
        raise SchedulingError(f"orchestration LP failed: {result.message}")

    z = np.clip(result.x.reshape(m, n), 0.0, None)
    served = float(z.sum())
    objective = float((z * d).sum())

    # Recover X (normalised) and Y (row-normalised) for the routing policy.
    if served > 1e-12:
        x = z.sum(axis=1) / served
    else:
        x = np.full(m, 1.0 / m)
    y = np.zeros_like(z)
    for i in range(m):
        row_sum = z[i].sum()
        if row_sum > 1e-12:
            y[i] = z[i] / row_sum
        else:
            # Inactive prefill replica: give it a sane fallback dispatch row.
            best_j = int(np.argmax(d[i]))
            y[i, best_j] = 1.0
    return OrchestrationResult(x=x, y=y, z=z, objective=objective, served_fraction=served)


def random_orchestration(
    num_prefill: int, num_decode: int, rng: np.random.Generator
) -> OrchestrationResult:
    """Baseline used by the Figure 12 ablation: random dispatch, no optimisation."""
    if num_prefill < 1 or num_decode < 1:
        raise SchedulingError("random orchestration needs at least one replica per phase")
    x = rng.dirichlet(np.ones(num_prefill))
    y = rng.dirichlet(np.ones(num_decode), size=num_prefill)
    z = x[:, None] * y
    return OrchestrationResult(x=x, y=y, z=z, objective=float("nan"), served_fraction=1.0)


__all__ = ["OrchestrationResult", "solve_orchestration", "random_orchestration"]

"""Orchestration of prefill and decode replicas (the two-stage transportation problem).

Section 3.3 turns the routing problem into a two-stage transportation problem
(TSTP): choose the fraction ``X_i`` of incoming requests handled by each prefill
replica and the fraction ``Y_ij`` of replica *i*'s requests forwarded to decode
replica *j*, maximising the routed SLO attainment ``sum_ij X_i Y_ij D_ij``.

We solve the equivalent linear program over the joint fractions ``Z_ij = X_i Y_ij``
with HiGHS, called directly through scipy's binding
(``scipy.optimize._highspy._core``, the one :func:`scipy.optimize.milp` and
``linprog(method="highs")`` call themselves) on one reused solver handle.  The
binding is loaded straight from its extension file by :func:`_load_highs`,
without running ``scipy/__init__`` or the eager ``scipy.optimize`` package
init, which would cost the process ~0.45 s and ~50 MB at start-up for modules
it never uses.  It is the same binary either way, so the LP bits are the same.
On an LP this small (at most a few dozen variables) HiGHS's own solve is a
fraction of a millisecond, while ``milp``'s input checks and its wrapper's fresh solver,
option managers and dual read-back cost several times that.  HiGHS receives the
model ``linprog`` would build (the same CSC constraint matrix, row bounds and
variable bounds, and ``log_to_console=False`` as its only option), so it picks
the same optimum among ties.  The parts of that model fixed by the LP's shape
(the constraint matrix, variable bounds and row lower bounds) are built once
per shape and reused; a solve sets only its costs and row upper bounds.
``linprog`` is kept only as the test oracle: a
property test in ``tests/test_lower_level_oracle.py`` asserts that both return
bitwise-equal routings, also when several LPs run back to back on the handle.

The paper's formulation as written admits the degenerate optimum of routing
everything through the single best pair, so — consistent with how a
transportation problem is normally posed — we add the natural capacity
constraints (a prefill replica cannot absorb more requests than its service rate
allows; a decode replica cannot generate more tokens than its bandwidth allows).
The resulting routing both maximises attainment and respects replica capacities.
If the cluster lacks capacity for the offered load, ``sum_ij Z_ij < 1`` and the
unserved fraction counts as missed SLOs, which is exactly the penalty the tabu
search should see.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import sysconfig
from dataclasses import dataclass
from types import ModuleType
from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import SchedulingError

#: Canonical name of scipy's HiGHS binding, the one ``scipy.optimize`` imports.
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs() -> ModuleType:
    """scipy's HiGHS extension module, loaded from its file without scipy's packages.

    The module is registered in ``sys.modules`` under its canonical name, and
    an already registered one is reused: a later ``import scipy.optimize``
    (``linprog``, the test oracle) then binds this same module object, and the
    extension's init never runs twice in one process.  ``find_spec("scipy")``
    only locates the package directory; it does not execute ``scipy/__init__``.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"{_HIGHS_MODULE} needs scipy, which is not installed")
    path = os.path.join(
        spec.submodule_search_locations[0],
        "optimize",
        "_highspy",
        "_core" + sysconfig.get_config_var("EXT_SUFFIX"),
    )
    if not os.path.isfile(path):
        raise ImportError(f"scipy's HiGHS extension is missing: {path}", path=path)
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader)
    )
    sys.modules[_HIGHS_MODULE] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_highs = _load_highs()


@functools.cache
def _highs_solver() -> _highs._Highs:
    """The module's HiGHS handle, created on first use with its one option set.

    Every solve starts with ``clearModel()``, which drops the previous model,
    basis and solution, so no search state carries from one LP to the next and
    nothing is warm across deploys.  The handle is not thread-safe: LPs must be
    solved one at a time in a process.
    """
    options = _highs.HighsOptions()
    options.log_to_console = False
    solver = _highs._Highs()
    solver.passOptions(options)
    return solver


@functools.cache
def _lp_of_shape(m: int, n: int, prefill_capped: bool, decode_capped: bool) -> _highs.HighsLp:
    """The orchestration LP of one shape, without its costs and row upper bounds.

    Constraint rows: total routed mass, then one row per prefill replica
    (``sum_j Z_ij``) when prefill caps are given, then one per decode replica
    (``sum_i Z_ij``) when decode caps are given.  With Z flattened row-major,
    column ``i * n + j`` of A holds a 1 in the mass row, in prefill row i and
    in decode row j, so A is built column-wise (CSC, the layout HiGHS takes)
    from those row indices.  Every part here depends on the shape alone; a
    solve sets ``col_cost_`` and ``row_upper_`` and passes the model, which
    HiGHS copies, so one model per shape is reused across solves (one solve
    at a time, like the handle).  Shapes are bounded by a cluster's replica
    counts, so the cache stays small.
    """
    num_vars = m * n
    rows = [np.zeros(num_vars, dtype=np.int32)]
    num_rows = 1
    for capped, size, index in (
        (prefill_capped, m, np.repeat(np.arange(m, dtype=np.int32), n)),
        (decode_capped, n, np.tile(np.arange(n, dtype=np.int32), m)),
    ):
        if capped:
            rows.append(num_rows + index)
            num_rows += size
    per_col = len(rows)
    lp = _highs.HighsLp()
    lp.num_col_ = num_vars
    lp.num_row_ = num_rows
    lp.col_lower_ = np.zeros(num_vars)
    lp.col_upper_ = np.full(num_vars, np.inf)
    lp.row_lower_ = np.full(num_rows, -np.inf)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = num_vars
    lp.a_matrix_.num_row_ = num_rows
    lp.a_matrix_.start_ = np.arange(0, per_col * num_vars + 1, per_col, dtype=np.int32)
    lp.a_matrix_.index_ = np.stack(rows, axis=1).ravel()
    lp.a_matrix_.value_ = np.ones(per_col * num_vars)
    return lp


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
    if not np.isfinite(d).all():
        raise SchedulingError("attainment matrix must hold finite values")
    m, n = d.shape

    # Upper bounds of the constraint rows: total routed mass <= 1, then the
    # per-replica caps of each phase that has them (an infinite cap leaves its
    # row unbounded).  The checks come first, so a rejected input never
    # reaches the cached model.
    b_ub = [np.ones(1)]
    for caps, size, phase in ((prefill_capacity, m, "prefill"), (decode_capacity, n, "decode")):
        if caps is None:
            continue
        caps = np.asarray(list(caps), dtype=float)
        if caps.shape != (size,):
            raise SchedulingError(f"{phase}_capacity must have one entry per {phase} replica")
        if np.isnan(caps).any():
            raise SchedulingError(f"{phase}_capacity must not hold NaN")
        b_ub.append(np.maximum(caps, 0.0))

    # Objective: maximise sum Z_ij D_ij  <=>  minimise -D . Z, over Z >= 0.
    lp = _lp_of_shape(m, n, prefill_capacity is not None, decode_capacity is not None)
    lp.col_cost_ = -d.reshape(-1)
    lp.row_upper_ = np.concatenate(b_ub)

    solver = _highs_solver()
    solver.clearModel()
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise SchedulingError(f"orchestration LP failed: {solver.modelStatusToString(status)}")

    z = np.clip(np.array(solver.getSolution().col_value).reshape(m, n), 0.0, None)
    served = float(z.sum())
    objective = float((z * d).sum())

    # Recover X (normalised) and Y (row-normalised) for the routing policy.
    row_sums = z.sum(axis=1)
    if served > 1e-12:
        x = row_sums / served
    else:
        x = np.full(m, 1.0 / m)
    active = row_sums > 1e-12
    y = np.divide(z, row_sums[:, None], out=np.zeros_like(z), where=active[:, None])
    if not active.all():
        # Inactive prefill replicas get a sane fallback dispatch row.
        inactive = np.flatnonzero(~active)
        y[inactive, np.argmax(d[inactive], axis=1)] = 1.0
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

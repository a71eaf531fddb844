"""The lower-level solve against its scalar and ``linprog`` references, bitwise.

The scheduler's lower level prices every tabu neighbour through three fast
paths: the orchestration LP handed straight to HiGHS on one reused solver
handle, estimator grids
priced by the cost model's array methods, and operating batches searched over
a memoized latency column.  Each must return exactly the floats of the
straightforward implementation it replaced, which lives here as the oracle:

* ``reference_orchestration`` poses the same LP row by row and solves it with
  ``linprog(method="highs")``;
* ``ReferenceHelpers`` price the estimator grids with one scalar cost-model
  call per distinct length, rebuild every KV vector from the network, and run
  the operating-batch binary search on scalar ``decode_step_latency`` calls.

If the orchestration property ever fails, the LP goes back to ``linprog``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.core.exceptions import SchedulingError
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import make_cloud_cluster
from repro.model.architecture import get_model_config
from repro.scheduling import lower_level
from repro.scheduling.estimator import ReplicaPerformance, SLOEstimator
from repro.scheduling.lower_level import OBJECTIVE_CEILING, SERVED_FRACTION_BONUS, LowerLevelSolver
from repro.scheduling.orchestration import OrchestrationResult, solve_orchestration
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.workload.spec import CONVERSATION_WORKLOAD


# --------------------------------------------------------------------------- oracles
def reference_orchestration(
    attainment: np.ndarray,
    prefill_capacity: Optional[Sequence[float]] = None,
    decode_capacity: Optional[Sequence[float]] = None,
) -> OrchestrationResult:
    """The orchestration LP posed one dense row at a time and solved by ``linprog``."""
    d = np.asarray(attainment, dtype=float)
    m, n = d.shape
    num_vars = m * n
    a_ub = [np.ones(num_vars)]
    b_ub = [1.0]
    if prefill_capacity is not None:
        for i in range(m):
            row = np.zeros(num_vars)
            row[i * n : (i + 1) * n] = 1.0
            a_ub.append(row)
            b_ub.append(max(0.0, float(prefill_capacity[i])))
    if decode_capacity is not None:
        for j in range(n):
            row = np.zeros(num_vars)
            row[j::n] = 1.0
            a_ub.append(row)
            b_ub.append(max(0.0, float(decode_capacity[j])))
    result = linprog(
        -d.reshape(-1),
        A_ub=np.vstack(a_ub),
        b_ub=np.asarray(b_ub),
        bounds=[(0.0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        raise SchedulingError(f"orchestration LP failed: {result.message}")
    z = np.clip(result.x.reshape(m, n), 0.0, None)
    served = float(z.sum())
    objective = float((z * d).sum())
    x = z.sum(axis=1) / served if served > 1e-12 else np.full(m, 1.0 / m)
    y = np.zeros_like(z)
    for i in range(m):
        row_sum = z[i].sum()
        if row_sum > 1e-12:
            y[i] = z[i] / row_sum
        else:
            y[i, int(np.argmax(d[i]))] = 1.0
    return OrchestrationResult(x=x, y=y, z=z, objective=objective, served_fraction=served)


class ReferenceHelpers:
    """Scalar stand-ins for the estimator's grid and operating-batch fast paths."""

    @staticmethod
    def prefill_grid(estimator: SLOEstimator, perf: ReplicaPerformance) -> np.ndarray:
        per_distinct = np.array(
            [perf.cost.prefill_latency(s, batch_size=1) for s in estimator._distinct_inputs]
        )
        return per_distinct[estimator._input_idx]

    @staticmethod
    def decode_grid(estimator: SLOEstimator, perf: ReplicaPerformance, batch: int) -> np.ndarray:
        per_distinct = np.array(
            [perf.cost.decode_step_latency(batch, c) for c in estimator._distinct_ctxs]
        )
        return per_distinct[estimator._ctx_idx]

    @staticmethod
    def kv_grid(
        estimator: SLOEstimator, prefill: ReplicaPerformance, decode: ReplicaPerformance
    ) -> np.ndarray:
        src, dst = prefill.group.gpu_ids, decode.group.gpu_ids
        if set(src) & set(dst):
            return np.zeros(len(estimator._grid))
        network = estimator.cluster.network
        i, j, _bw = network.best_link_between(list(src), list(dst))
        alpha, beta = network.latency_s(i, j), network.bandwidth_bytes(i, j)
        return (alpha + estimator._kv_volume / beta)[estimator._input_idx]

    @staticmethod
    def operating_batch(perf: ReplicaPerformance, token_rate: float, context_length: int) -> int:
        if perf.decode_max_batch < 1:
            return 0
        if token_rate <= 0:
            return 1
        lo, hi = 1, max(1, perf.decode_max_batch)
        best = hi
        while lo <= hi:
            mid = (lo + hi) // 2
            if mid / perf.cost.decode_step_latency(mid, context_length) >= token_rate:
                best = mid
                hi = mid - 1
            else:
                lo = mid + 1
        return best

    @classmethod
    def install(cls, monkeypatch) -> None:
        monkeypatch.setattr(SLOEstimator, "_prefill_grid", cls.prefill_grid)
        monkeypatch.setattr(SLOEstimator, "_decode_grid", cls.decode_grid)
        monkeypatch.setattr(SLOEstimator, "_kv_grid", cls.kv_grid)
        monkeypatch.setattr(ReplicaPerformance, "decode_operating_batch", cls.operating_batch)
        monkeypatch.setattr(lower_level, "solve_orchestration", reference_orchestration)


# --------------------------------------------------------------------------- LP property
def _bits(value: float) -> str:
    return float(value).hex()


def assert_same_orchestration(got: OrchestrationResult, want: OrchestrationResult) -> None:
    for name in ("x", "y", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"{name}: {a} != {b}"
    assert _bits(got.objective) == _bits(want.objective)
    assert _bits(got.served_fraction) == _bits(want.served_fraction)


#: attainment values with exact ties and near-ties at 1 - 10^-k
ENTRY_TIES = np.array([0.0, 0.25, 0.5, 1.0] + [1.0 - 10.0 ** -k for k in range(1, 16)])
#: capacity values with zero caps and exact ties
CAP_TIES = np.array([0.0, 0.125, 0.25, 0.5, 1.0])


def _values(integer, size: int, ties: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws: code 0 is a continuous value in [0, 1), code k is ``ties[k - 1]``."""
    codes = np.array([integer(0, len(ties)) for _ in range(size)])
    return np.where(codes == 0, rng.random(size), ties[np.maximum(codes - 1, 0)])


def _instance(integer, rng: np.random.Generator):
    """One orchestration LP, its integers from ``integer(lo, hi)`` (both ends included).

    Integer codes plus a seeded ``rng`` for the continuous values keep
    generation cheap enough for thousands of LPs.  Hypothesis draws the
    codes of the small property, so shrinking still works on the tie
    structure; the large one draws them from ``rng`` too.
    """
    m = integer(1, 7)
    n = integer(1, 7)
    d = _values(integer, m * n, ENTRY_TIES, rng).reshape(m, n)
    if integer(0, 1):
        d = d + SERVED_FRACTION_BONUS  # the shift LowerLevelSolver applies
    prefill = _values(integer, m, CAP_TIES, rng).tolist() if integer(0, 1) else None
    decode = _values(integer, n, CAP_TIES, rng).tolist() if integer(0, 1) else None
    return d, prefill, decode


@st.composite
def orchestration_instances(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return _instance(lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)), rng)


def _check_against_linprog(*instances) -> None:
    """Solve ``instances`` back to back on the shared handle; each must match ``linprog``."""
    for d, prefill, decode in instances:
        assert_same_orchestration(
            solve_orchestration(d, prefill, decode), reference_orchestration(d, prefill, decode)
        )


@settings(max_examples=100, deadline=None)
@given(instances=st.lists(orchestration_instances(), min_size=1, max_size=4))
def test_orchestration_equals_linprog_bitwise(instances):
    _check_against_linprog(*instances)


#: LPs per example of the large property: 200 examples check 4,000 LPs, more
#: than the ~3,900 that 2,000 examples of 1-4 Hypothesis-drawn LPs gave
LPS_PER_EXAMPLE = 20


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_orchestration_equals_linprog_bitwise_many(seed):
    """The small property's LPs in bulk, every integer drawn from one seeded numpy stream.

    Shapes, codes and switches are uniform over the same ranges as the small
    property's; Hypothesis only picks the seed, so a failure reports the seed
    that reproduces its batch.
    """
    rng = np.random.default_rng(seed)

    def integer(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    _check_against_linprog(*(_instance(integer, rng) for _ in range(LPS_PER_EXAMPLE)))


@pytest.mark.parametrize(
    "d, prefill, decode",
    [
        (np.full((3, 3), 0.5), [0.4, 0.4, 0.4], [0.4, 0.4, 0.4]),
        (np.ones((2, 4)) - 1e-15, [0.0, 1.0], None),
        (np.eye(4), None, [0.0, 0.0, 0.0, 0.0]),
        (np.array([[0.7]]), None, None),
    ],
)
def test_orchestration_equals_linprog_on_degenerate_lps(d, prefill, decode):
    _check_against_linprog((d, prefill, decode))


def test_orchestration_reuses_the_model_of_one_shape():
    """One 3x2 shape solved with new costs and caps each time, uncapped in between.

    The model of a shape is built once, and each solve sets only its costs and
    row upper bounds, so nothing of an earlier solve may leak into a later one.
    """
    _check_against_linprog(
        (np.array([[0.9, 0.2], [0.4, 0.8], [0.6, 0.6]]), [0.5, 0.25, 0.5], [0.4, 0.7]),
        (np.array([[0.1, 0.3], [0.5, 0.2], [0.9, 0.0]]), None, None),
        (np.array([[0.3, 0.7], [1.0, 0.1], [0.2, 0.5]]), [0.125, 0.0, 1.0], [1.0, 0.25]),
    )


# --------------------------------------------------------------------------- whole lower level
CLUSTER = make_cloud_cluster(seed=0)
MODEL = get_model_config("llama-30b")
SEARCH = SchedulerConfig(tabu=TabuSearchConfig(num_steps=6, num_neighbors=5, patience=6), seed=0)


def _search(monkeypatch, slo_scale: float):
    """One small tabu search; every solve it makes, in order, and the result."""
    solves = []
    original = LowerLevelSolver.solve

    def recorded(self, solution):
        result = original(self, solution)
        routing = () if result.plan is None else (
            result.plan.routing.x.tobytes(),
            result.plan.routing.y.tobytes(),
            _bits(result.estimated_attainment),
        )
        solves.append((solution.key(), _bits(result.objective), routing))
        return result

    monkeypatch.setattr(LowerLevelSolver, "solve", recorded)
    slo = a100_reference_latency(MODEL, CONVERSATION_WORKLOAD).slo_spec(slo_scale)
    result = Scheduler(SEARCH).schedule(CLUSTER, MODEL, CONVERSATION_WORKLOAD, 1.6, slo)
    return solves, result


def _fast_and_reference(monkeypatch, slo_scale: float):
    with monkeypatch.context() as plain:
        fast_solves, fast = _search(plain, slo_scale)
    with monkeypatch.context() as patched:
        ReferenceHelpers.install(patched)
        reference_solves, reference = _search(patched, slo_scale)
    assert fast_solves == reference_solves
    assert fast.plan == reference.plan
    assert _bits(fast.objective) == _bits(reference.objective)
    assert fast.lower_result.attainment_matrix.tobytes() == (
        reference.lower_result.attainment_matrix.tobytes()
    )
    return fast_solves, fast


def test_fast_lower_level_equals_reference_bitwise(monkeypatch):
    """Every visited solution scores and routes the same on the scalar references.

    At SLO scale 5 the search never reaches the objective's ceiling, so it
    spends its whole budget and the comparison covers many solves.
    """
    solves, fast = _fast_and_reference(monkeypatch, slo_scale=5.0)
    assert len(solves) > 20
    assert fast.objective < OBJECTIVE_CEILING


def test_fast_lower_level_equals_reference_bitwise_at_the_ceiling(monkeypatch):
    """The same on a search that reaches the ceiling (SLO scale 10) and stops there."""
    _, fast = _fast_and_reference(monkeypatch, slo_scale=10.0)
    assert fast.objective >= OBJECTIVE_CEILING

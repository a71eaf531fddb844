"""Deployment plans: serving groups, phase designation, parallel plans and routing.

A *deployment plan* is the full output of the scheduling algorithm (§3.1):

1. the group construction — which GPUs form each model-serving group,
2. the phase designation — whether each group serves prefill or decode,
3. the parallel configuration of each group (a :class:`~repro.parallelism.config.ReplicaPlan`),
4. the orchestration — how requests are routed among prefill and decode replicas
   (:class:`RoutingPolicy`, the ``X`` / ``Y`` of §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import InvalidPlanError
from repro.core.types import Phase
from repro.parallelism.config import ReplicaPlan


@dataclass(frozen=True)
class ServingGroup:
    """One model-serving group: a GPU set, its phase and its parallel plan."""

    group_id: int
    gpu_ids: Tuple[int, ...]
    phase: Phase
    plan: Optional[ReplicaPlan] = None

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise InvalidPlanError("a serving group must contain at least one GPU")
        if len(set(self.gpu_ids)) != len(self.gpu_ids):
            raise InvalidPlanError("a serving group must not repeat GPUs")
        if self.plan is not None:
            if set(self.plan.gpu_ids) != set(self.gpu_ids):
                raise InvalidPlanError(
                    f"group {self.group_id}: parallel plan uses GPUs {sorted(self.plan.gpu_ids)} "
                    f"but the group owns {sorted(self.gpu_ids)}"
                )

    @property
    def num_gpus(self) -> int:
        """Number of GPUs in the group."""
        return len(self.gpu_ids)

    def with_phase(self, phase: Phase) -> "ServingGroup":
        """Return a copy of this group with a different phase designation."""
        return replace(self, phase=phase)

    def describe(self, gpu_names: Optional[Dict[int, str]] = None) -> str:
        """Human-readable description, optionally naming the GPU types."""
        if gpu_names:
            counts: Dict[str, int] = {}
            for g in self.gpu_ids:
                counts[gpu_names[g]] = counts.get(gpu_names[g], 0) + 1
            hw = "+".join(f"{n}x{t}" for t, n in sorted(counts.items()))
        else:
            hw = f"{self.num_gpus} GPUs"
        plan_desc = self.plan.parallel_config if self.plan else "unplanned"
        return f"group {self.group_id}: {hw}, {plan_desc}, {self.phase.value}"


@dataclass(frozen=True)
class RoutingPolicy:
    """Request routing among prefill and decode replicas (the orchestration).

    ``prefill_weights[i]`` (``X_i`` in the paper) is the portion of incoming
    requests sent to the i-th prefill replica; ``dispatch[i, j]`` (``Y_ij``) is the
    portion of that replica's requests forwarded to the j-th decode replica.
    Indices follow ``prefill_group_ids`` / ``decode_group_ids``.
    """

    prefill_group_ids: Tuple[int, ...]
    decode_group_ids: Tuple[int, ...]
    prefill_weights: Tuple[float, ...]
    dispatch: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        m, n = len(self.prefill_group_ids), len(self.decode_group_ids)
        if len(self.prefill_weights) != m:
            raise InvalidPlanError("prefill_weights length must match prefill_group_ids")
        if len(self.dispatch) != m or any(len(row) != n for row in self.dispatch):
            raise InvalidPlanError("dispatch must be an m x n matrix")
        x = np.asarray(self.prefill_weights, dtype=float)
        y = np.asarray(self.dispatch, dtype=float)
        if np.any(x < -1e-9) or np.any(y < -1e-9):
            raise InvalidPlanError("routing weights must be non-negative")
        if abs(x.sum() - 1.0) > 1e-6:
            raise InvalidPlanError(f"prefill weights must sum to 1, got {x.sum():.6f}")
        active = x > 1e-12
        row_sums = y.sum(axis=1)
        if np.any(np.abs(row_sums[active] - 1.0) > 1e-6):
            raise InvalidPlanError("each active prefill replica's dispatch row must sum to 1")

    @classmethod
    def from_matrices(
        cls,
        prefill_group_ids: Sequence[int],
        decode_group_ids: Sequence[int],
        x: np.ndarray,
        y: np.ndarray,
    ) -> "RoutingPolicy":
        """Build a policy from NumPy arrays."""
        return cls(
            prefill_group_ids=tuple(prefill_group_ids),
            decode_group_ids=tuple(decode_group_ids),
            prefill_weights=tuple(float(v) for v in x),
            dispatch=tuple(tuple(float(v) for v in row) for row in y),
        )

    @classmethod
    def uniform(
        cls, prefill_group_ids: Sequence[int], decode_group_ids: Sequence[int]
    ) -> "RoutingPolicy":
        """Uniform routing: every prefill replica gets an equal share and dispatches evenly."""
        m, n = len(prefill_group_ids), len(decode_group_ids)
        if m == 0 or n == 0:
            raise InvalidPlanError("uniform routing requires at least one replica of each phase")
        x = np.full(m, 1.0 / m)
        y = np.full((m, n), 1.0 / n)
        return cls.from_matrices(prefill_group_ids, decode_group_ids, x, y)

    @property
    def x(self) -> np.ndarray:
        """Prefill weights as an array."""
        return np.asarray(self.prefill_weights, dtype=float)

    @property
    def y(self) -> np.ndarray:
        """Dispatch matrix as an array."""
        return np.asarray(self.dispatch, dtype=float)

    @property
    def joint(self) -> np.ndarray:
        """Joint routing fractions ``Z_ij = X_i * Y_ij`` (sums to 1)."""
        return self.x[:, None] * self.y


@dataclass(frozen=True)
class DeploymentPlan:
    """The complete output of the scheduler."""

    groups: Tuple[ServingGroup, ...]
    routing: Optional[RoutingPolicy] = None
    model_name: str = ""
    kv_transport_bits: int = 4

    def __post_init__(self) -> None:
        if not self.groups:
            raise InvalidPlanError("a deployment plan must contain at least one group")
        seen: set[int] = set()
        for group in self.groups:
            overlap = seen & set(group.gpu_ids)
            if overlap:
                raise InvalidPlanError(f"GPUs {sorted(overlap)} are assigned to multiple groups")
            seen.update(group.gpu_ids)
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise InvalidPlanError("group ids must be unique")
        if self.kv_transport_bits not in (4, 8, 16):
            raise InvalidPlanError("kv_transport_bits must be 4, 8 or 16")
        if self.routing is not None:
            expected_prefill = tuple(g.group_id for g in self.groups if g.phase is Phase.PREFILL)
            expected_decode = tuple(g.group_id for g in self.groups if g.phase is Phase.DECODE)
            if set(self.routing.prefill_group_ids) != set(expected_prefill):
                raise InvalidPlanError("routing prefill groups do not match the plan's prefill groups")
            if set(self.routing.decode_group_ids) != set(expected_decode):
                raise InvalidPlanError("routing decode groups do not match the plan's decode groups")

    # ------------------------------------------------------------------ accessors
    @property
    def prefill_groups(self) -> List[ServingGroup]:
        """Groups designated as prefill replicas."""
        return [g for g in self.groups if g.phase is Phase.PREFILL]

    @property
    def decode_groups(self) -> List[ServingGroup]:
        """Groups designated as decode replicas."""
        return [g for g in self.groups if g.phase is Phase.DECODE]

    @property
    def num_replicas(self) -> int:
        """Total number of model replicas."""
        return len(self.groups)

    @property
    def prefill_decode_ratio(self) -> Tuple[int, int]:
        """(number of prefill replicas, number of decode replicas)."""
        return len(self.prefill_groups), len(self.decode_groups)

    def group(self, group_id: int) -> ServingGroup:
        """Look up a group by id."""
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise KeyError(f"no group with id {group_id}")

    def describe(self, gpu_names: Optional[Dict[int, str]] = None) -> str:
        """Multi-line human-readable description (the Table 3 style breakdown)."""
        lines = [f"DeploymentPlan(model={self.model_name or 'unspecified'}, "
                 f"{len(self.prefill_groups)} prefill / {len(self.decode_groups)} decode replicas, "
                 f"kv_bits={self.kv_transport_bits})"]
        for g in self.groups:
            lines.append("  " + g.describe(gpu_names))
        return "\n".join(lines)


__all__ = ["ServingGroup", "RoutingPolicy", "DeploymentPlan"]

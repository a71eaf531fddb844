"""Upper-level solution representation: group construction + phase designation.

The upper-level problem of §3.2 searches over *how GPUs are partitioned into
groups* and *which phase each group serves*.  A solution is a partition of the
cluster's GPU ids into non-empty groups, each tagged with a phase.  The parallel
configuration and the orchestration are *not* part of the upper-level solution —
they are derived by the lower-level solver when the solution is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.exceptions import InvalidPlanError
from repro.core.types import Phase


@dataclass(frozen=True)
class GroupAssignment:
    """One group of the upper-level solution: a GPU set and its designated phase."""

    gpu_ids: FrozenSet[int]
    phase: Phase

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise InvalidPlanError("a group assignment must contain at least one GPU")

    @property
    def num_gpus(self) -> int:
        """Number of GPUs in the group."""
        return len(self.gpu_ids)

    def with_phase(self, phase: Phase) -> "GroupAssignment":
        """Copy with a different phase."""
        return GroupAssignment(gpu_ids=self.gpu_ids, phase=phase)


@dataclass(frozen=True)
class UpperLevelSolution:
    """A complete candidate solution to the upper-level problem.

    The solution is canonicalised (groups sorted by their smallest GPU id) so that
    structurally identical solutions hash equally — the tabu list stores hashed
    solutions to avoid revisiting them.
    """

    groups: Tuple[GroupAssignment, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise InvalidPlanError("a solution must contain at least one group")
        seen: set[int] = set()
        for group in self.groups:
            overlap = seen & group.gpu_ids
            if overlap:
                raise InvalidPlanError(f"GPUs {sorted(overlap)} appear in multiple groups")
            seen.update(group.gpu_ids)

    # ------------------------------------------------------------------ factory
    @classmethod
    def from_lists(
        cls, groups: Sequence[Tuple[Iterable[int], Phase]]
    ) -> "UpperLevelSolution":
        """Build a solution from ``[(gpu_ids, phase), ...]`` pairs (canonical order)."""
        assignments = [
            GroupAssignment(gpu_ids=frozenset(gpus), phase=phase) for gpus, phase in groups
        ]
        assignments.sort(key=lambda a: (min(a.gpu_ids), a.phase.value))
        return cls(groups=tuple(assignments))

    def canonical(self) -> "UpperLevelSolution":
        """Return the canonically-ordered equivalent of this solution."""
        return UpperLevelSolution.from_lists([(g.gpu_ids, g.phase) for g in self.groups])

    # ------------------------------------------------------------------ accessors
    @property
    def num_groups(self) -> int:
        """Number of serving groups."""
        return len(self.groups)

    @property
    def all_gpu_ids(self) -> FrozenSet[int]:
        """All GPUs used by the solution."""
        return frozenset(g for group in self.groups for g in group.gpu_ids)

    @property
    def num_prefill(self) -> int:
        """Number of prefill groups."""
        return sum(1 for g in self.groups if g.phase is Phase.PREFILL)

    @property
    def num_decode(self) -> int:
        """Number of decode groups."""
        return sum(1 for g in self.groups if g.phase is Phase.DECODE)

    def key(self) -> Tuple:
        """Hashable canonical key used by the tabu list.

        Cached on first use: the key is consulted by neighbourhood dedup, the
        tabu list and the lower-level objective memo, so one search asks for
        it several times per candidate.  The ``(sorted ids, phase)``
        pairs are ordered by ``(min id, phase)`` directly — the order
        :meth:`canonical` would give — without building the canonical copy.
        """
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = tuple(
                sorted(
                    ((tuple(sorted(g.gpu_ids)), g.phase.value) for g in self.groups),
                    key=lambda pair: (pair[0][0], pair[1]),
                )
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def describe(self) -> str:
        """One-line summary like ``[4 gpus->prefill | 4 gpus->decode | ...]``."""
        parts = [f"{g.num_gpus}->{g.phase.value}" for g in self.groups]
        return "[" + " | ".join(parts) + "]"

    def replace_group(self, index: int, *replacements: GroupAssignment) -> "UpperLevelSolution":
        """Return a new solution with ``groups[index]`` replaced by ``replacements``.

        Passing zero replacements removes the group (used by the merge move, which
        removes one group and replaces another with the union).
        """
        if not 0 <= index < len(self.groups):
            raise IndexError(f"group index {index} out of range")
        new_groups: List[GroupAssignment] = list(self.groups[:index])
        new_groups.extend(replacements)
        new_groups.extend(self.groups[index + 1:])
        return UpperLevelSolution.from_lists([(g.gpu_ids, g.phase) for g in new_groups])


__all__ = ["GroupAssignment", "UpperLevelSolution"]

"""Neighbourhood moves of the tabu search (§3.2, Figure 4).

Four moves generate neighbours of an upper-level solution:

* **flip** — flip the phase designation of one group;
* **split** — split one group into two by a random ratio (phases re-randomised);
* **merge** — merge two groups into one (phase re-randomised);
* **move** — move some GPUs of one type from one group to another.

Every generated neighbour passes the early feasibility check of the paper: a group
whose total memory cannot hold one copy of the model parameters is discarded
before the (comparatively expensive) lower-level evaluation.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import Phase
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.parallelism.partition import group_can_hold_model
from repro.scheduling.solution import GroupAssignment, UpperLevelSolution


def _feasible(
    cluster: Cluster,
    model: ModelConfig,
    solution: UpperLevelSolution,
    kv_reserve_fraction: float,
    can_hold: Optional[Callable[[FrozenSet[int]], bool]] = None,
) -> bool:
    """Early feasibility check: every group can hold the model, both phases exist.

    ``can_hold`` optionally replaces the raw memory check with a memoised one —
    candidates of one neighbourhood share most of their groups with the base
    solution, so a per-batch memo turns the per-candidate cost into a lookup.
    """
    if solution.num_groups >= 2 and (solution.num_prefill == 0 or solution.num_decode == 0):
        return False
    if can_hold is None:
        return all(
            group_can_hold_model(cluster, g.gpu_ids, model, kv_reserve_fraction)
            for g in solution.groups
        )
    return all(can_hold(g.gpu_ids) for g in solution.groups)


# ------------------------------------------------------------------- appliers
# Deterministic move semantics: :class:`_MovePlan` pre-draws every move's
# parameters, and these functions build the candidate a drawn move names.


def _apply_flip(solution: UpperLevelSolution, idx: int) -> UpperLevelSolution:
    group = solution.groups[idx]
    return solution.replace_group(idx, group.with_phase(group.phase.other()))


def _split_cut(num_gpus: int, ratio: float) -> int:
    """GPUs kept in the first half when splitting ``num_gpus`` at ``ratio``."""
    return min(max(int(num_gpus * ratio), 1), num_gpus - 1)


def _apply_split(
    solution: UpperLevelSolution, idx: int, cut: int, phase_a: Phase, phase_b: Phase
) -> UpperLevelSolution:
    gpus = sorted(solution.groups[idx].gpu_ids)
    first = GroupAssignment(gpu_ids=frozenset(gpus[:cut]), phase=phase_a)
    second = GroupAssignment(gpu_ids=frozenset(gpus[cut:]), phase=phase_b)
    return solution.replace_group(idx, first, second)


def _apply_merge(solution: UpperLevelSolution, a: int, b: int, phase: Phase) -> UpperLevelSolution:
    i, j = int(min(a, b)), int(max(a, b))
    merged = GroupAssignment(
        gpu_ids=solution.groups[i].gpu_ids | solution.groups[j].gpu_ids,
        phase=phase,
    )
    without_j = solution.replace_group(j)
    # Group i keeps its index after removing j (j > i).
    return without_j.replace_group(i, merged)


def _apply_move(
    solution: UpperLevelSolution, src_idx: int, dst_idx: int, moved: frozenset
) -> UpperLevelSolution:
    src = solution.groups[src_idx]
    dst = solution.groups[dst_idx]
    new_src = GroupAssignment(gpu_ids=src.gpu_ids - moved, phase=src.phase)
    new_dst = GroupAssignment(gpu_ids=dst.gpu_ids | moved, phase=dst.phase)
    groups = list(solution.groups)
    groups[src_idx] = new_src
    groups[dst_idx] = new_dst
    return UpperLevelSolution.from_lists([(g.gpu_ids, g.phase) for g in groups])


_APPLIERS = {"flip": _apply_flip, "split": _apply_split, "merge": _apply_merge, "move": _apply_move}


# --------------------------------------------------------------------------- batch
_KNOWN_MOVES = ("flip", "split", "merge", "move")


class _MovePlan:
    """All randomness for a batch of neighbourhood moves, drawn up front.

    Every candidate in a neighbourhood is derived from the *same* base solution,
    so the random parameters of each move depend only on solution-static facts
    (which groups are splittable, which can donate GPUs, the per-group hardware
    mix).  That lets the whole attempt sequence be sampled with one vectorized
    RNG draw per parameter kind instead of a cascade of tiny per-candidate
    draws — the remaining Python overhead in large-cluster tabu searches.
    """

    def __init__(
        self,
        gen: np.random.Generator,
        allowed: List[str],
        attempts: int,
        solution: UpperLevelSolution,
        cluster: Cluster,
    ) -> None:
        self.solution = solution
        self.kinds: List[str] = [str(k) for k in gen.choice(allowed, size=attempts)]
        counts = {kind: self.kinds.count(kind) for kind in allowed}
        num_groups = solution.num_groups
        self._cursor = {kind: 0 for kind in allowed}

        self.flip_idx = (
            gen.integers(0, num_groups, size=counts["flip"]).tolist()
            if counts.get("flip")
            else []
        )

        # Solution-static facts are only gathered for kinds actually drawn: the
        # flip-only rescheduling path must not pay for donor/split breakdowns.
        n_split = counts.get("split", 0)
        self.splittable = (
            [i for i, g in enumerate(solution.groups) if g.num_gpus >= 2] if n_split else []
        )
        if n_split and self.splittable:
            self.split_idx = gen.integers(0, len(self.splittable), size=n_split).tolist()
            self.split_ratio = gen.uniform(0.25, 0.75, size=n_split).tolist()
            self.split_phases = (gen.random(size=(n_split, 2)) < 0.5).tolist()
        else:
            self.split_idx = []

        n_merge = counts.get("merge", 0)
        if n_merge and num_groups >= 2:
            first = gen.integers(0, num_groups, size=n_merge)
            second = gen.integers(0, num_groups - 1, size=n_merge)
            second = second + (second >= first)
            self.merge_pairs = np.stack([first, second], axis=1).tolist()
            self.merge_phase = (gen.random(size=n_merge) < 0.5).tolist()
        else:
            self.merge_pairs = []

        n_move = counts.get("move", 0)
        self.donors = (
            [i for i, g in enumerate(solution.groups) if g.num_gpus >= 2] if n_move else []
        )
        #: per-donor {type_name: sorted gpu ids} breakdown (solution-static)
        self.donor_types: List[dict[str, List[int]]] = []
        for i in self.donors:
            by_type: dict[str, List[int]] = {}
            for g in solution.groups[i].gpu_ids:
                by_type.setdefault(cluster.gpu(g).type_name, []).append(g)
            self.donor_types.append({t: sorted(ids) for t, ids in sorted(by_type.items())})
        if n_move and self.donors and num_groups >= 2:
            self.move_src = gen.integers(0, len(self.donors), size=n_move).tolist()
            self.move_dst = gen.integers(0, num_groups - 1, size=n_move).tolist()
            self.move_type_u = gen.random(size=n_move).tolist()
            self.move_count_u = gen.random(size=n_move).tolist()
            max_gpus = max(solution.groups[i].num_gpus for i in self.donors)
            self.move_subset_u = gen.random(size=(n_move, max_gpus))
        else:
            self.move_src = []

    def _next(self, kind: str) -> int:
        slot = self._cursor[kind]
        self._cursor[kind] = slot + 1
        return slot

    # ------------------------------------------------------------------ resolve
    def resolve(self, kind: str) -> Optional[Tuple]:
        """Parameters of the next pre-drawn move of ``kind`` (None when impossible).

        Always advances the cursor of ``kind``.  The returned tuple fully
        determines the candidate :meth:`build` makes from it, so two equal
        tuples in one batch name the same candidate.
        """
        solution = self.solution
        slot = self._next(kind)
        if kind == "flip":
            return ("flip", self.flip_idx[slot])
        if kind == "split":
            if not self.split_idx:
                return None
            idx = self.splittable[self.split_idx[slot]]
            cut = _split_cut(solution.groups[idx].num_gpus, self.split_ratio[slot])
            phase_a, phase_b = (
                Phase.PREFILL if flag else Phase.DECODE for flag in self.split_phases[slot]
            )
            return ("split", idx, cut, phase_a, phase_b)
        if kind == "merge":
            if not self.merge_pairs:
                return None
            a, b = self.merge_pairs[slot]
            phase = Phase.PREFILL if self.merge_phase[slot] else Phase.DECODE
            return ("merge", min(a, b), max(a, b), phase)
        # kind == "move"
        if not self.move_src:
            return None
        donor_slot = self.move_src[slot]
        src_idx = self.donors[donor_slot]
        dst_idx = self.move_dst[slot]
        dst_idx = dst_idx + (dst_idx >= src_idx)
        by_type = self.donor_types[donor_slot]
        type_names = list(by_type)
        type_name = type_names[min(int(self.move_type_u[slot] * len(type_names)), len(type_names) - 1)]
        candidates = by_type[type_name]
        max_move = min(len(candidates), solution.groups[src_idx].num_gpus - 1)
        if max_move < 1:
            return None
        count = 1 + min(int(self.move_count_u[slot] * max_move), max_move - 1)
        # Random subset of the movable GPUs via pre-drawn uniform keys.
        keys = self.move_subset_u[slot, : len(candidates)]
        chosen = np.argsort(keys, kind="stable")[:count]
        return ("move", src_idx, dst_idx, frozenset(candidates[c] for c in chosen))

    def build(self, move: Tuple) -> UpperLevelSolution:
        """Materialise a move resolved by :meth:`resolve` with its ``_apply_*`` function."""
        kind, *params = move
        return _APPLIERS[kind](self.solution, *params)


def construct_neighbors(
    solution: UpperLevelSolution,
    cluster: Cluster,
    model: ModelConfig,
    num_neighbors: int,
    rng: RNGLike = None,
    kv_reserve_fraction: float = 0.3,
    moves: Optional[List[str]] = None,
    max_attempts_factor: int = 8,
    exclude_keys: Optional[Iterable[Hashable]] = None,
) -> List[UpperLevelSolution]:
    """Generate up to ``num_neighbors`` feasible, distinct neighbours of a solution.

    The whole neighbourhood comes from one vectorized move plan: the attempt
    sequence and every move parameter (indices, ratios, phases, moved subsets)
    are sampled up front with a single RNG draw per kind (:class:`_MovePlan`),
    then materialised until enough feasible, distinct candidates are found.
    A move whose resolved parameters repeat an earlier attempt of the batch is
    skipped without being built.

    ``moves`` restricts the allowed move set; the lightweight rescheduler passes
    ``["flip"]`` so that only phase designations change (§3.4).  ``exclude_keys``
    (typically the tabu list) rejects candidates during generation, so the batch
    handed to the evaluator contains only solutions the search can actually move
    to instead of wasting attempts — and evaluations — on tabu revisits.
    """
    gen = ensure_rng(rng)
    allowed = list(moves) if moves else list(_KNOWN_MOVES)
    unknown = set(allowed) - set(_KNOWN_MOVES)
    if unknown:
        raise ValueError(f"unknown neighbourhood moves: {sorted(unknown)}")

    max_attempts = max_attempts_factor * num_neighbors
    plan = _MovePlan(gen, allowed, max_attempts, solution, cluster)
    neighbors: List[UpperLevelSolution] = []
    seen = {solution.key()}
    if exclude_keys is not None:
        seen.update(exclude_keys)

    # Memoise the per-group memory check for the duration of this batch: the
    # candidates share most groups with the base solution (and each other), so
    # each distinct GPU set is checked once per neighbourhood, not per candidate.
    hold_memo: dict[FrozenSet[int], bool] = {}

    def can_hold(gpu_ids: FrozenSet[int]) -> bool:
        ok = hold_memo.get(gpu_ids)
        if ok is None:
            ok = group_can_hold_model(cluster, gpu_ids, model, kv_reserve_fraction)
            hold_memo[gpu_ids] = ok
        return ok

    # A move resolved earlier in the batch names a candidate that was already
    # accepted or rejected: ``seen`` only grows and feasibility is
    # deterministic, so a repeat would be rejected again — skip it unbuilt.
    tried: set[Tuple] = set()
    for kind in plan.kinds:
        if len(neighbors) >= num_neighbors:
            break
        move = plan.resolve(kind)
        if move is None or move in tried:
            continue
        tried.add(move)
        candidate = plan.build(move)
        key = candidate.key()
        if key in seen:
            continue
        if not _feasible(cluster, model, candidate, kv_reserve_fraction, can_hold=can_hold):
            continue
        seen.add(key)
        neighbors.append(candidate)
    return neighbors


__all__ = ["construct_neighbors"]

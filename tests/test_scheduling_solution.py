"""Unit tests for upper-level solutions, clustering init and neighbourhood moves."""

import pytest

from repro.core.exceptions import InvalidPlanError
from repro.core.types import Phase
from repro.scheduling.clustering import initial_groups_by_clustering, minimum_group_size
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.solution import GroupAssignment, UpperLevelSolution


@pytest.fixture()
def simple_solution(cloud_cluster):
    ids = cloud_cluster.gpu_ids
    return UpperLevelSolution.from_lists(
        [
            (ids[0:4], Phase.PREFILL),
            (ids[4:8], Phase.DECODE),
            (ids[8:16], Phase.PREFILL),
        ]
    )



def _canonical(solution):
    """The canonically ordered equivalent of ``solution``."""
    return UpperLevelSolution.from_lists([(g.gpu_ids, g.phase) for g in solution.groups])


def _gpu_ids(solution):
    """Every GPU the solution uses."""
    return frozenset(g for group in solution.groups for g in group.gpu_ids)

class TestSolution:
    def test_counts(self, simple_solution):
        assert simple_solution.num_groups == 3
        assert simple_solution.num_prefill == 2
        assert simple_solution.num_decode == 1

    def test_overlapping_groups_rejected(self):
        with pytest.raises(InvalidPlanError):
            UpperLevelSolution.from_lists([([0, 1], Phase.PREFILL), ([1, 2], Phase.DECODE)])

    def test_key_is_order_invariant(self):
        a = UpperLevelSolution.from_lists([([0, 1], Phase.PREFILL), ([2, 3], Phase.DECODE)])
        b = UpperLevelSolution.from_lists([([2, 3], Phase.DECODE), ([0, 1], Phase.PREFILL)])
        assert a.key() == b.key()

    def test_key_sensitive_to_phase(self):
        a = UpperLevelSolution.from_lists([([0, 1], Phase.PREFILL), ([2, 3], Phase.DECODE)])
        b = UpperLevelSolution.from_lists([([0, 1], Phase.DECODE), ([2, 3], Phase.DECODE)])
        assert a.key() != b.key()

    def test_key_matches_canonical_order_for_unsorted_groups(self):
        # Built directly, so the groups keep their non-canonical order.
        solution = UpperLevelSolution(
            groups=(
                GroupAssignment(gpu_ids=frozenset({9, 4, 7}), phase=Phase.DECODE),
                GroupAssignment(gpu_ids=frozenset({5, 0}), phase=Phase.PREFILL),
                GroupAssignment(gpu_ids=frozenset({3, 8}), phase=Phase.PREFILL),
                GroupAssignment(gpu_ids=frozenset({1}), phase=Phase.DECODE),
            )
        )
        canonical_key = tuple(
            (tuple(sorted(g.gpu_ids)), g.phase.value) for g in _canonical(solution).groups
        )
        assert solution.key() == canonical_key
        assert solution.key() == _canonical(solution).key()
        assert [ids[0] for ids, _ in solution.key()] == [0, 1, 3, 4]

    def test_replace_group_removal(self, simple_solution):
        smaller = simple_solution.replace_group(0)
        assert smaller.num_groups == 2

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidPlanError):
            GroupAssignment(gpu_ids=frozenset(), phase=Phase.PREFILL)


class TestClusteringInit:
    def test_initial_solution_partitions_cluster(self, cloud_cluster, model_30b):
        solution = initial_groups_by_clustering(cloud_cluster, model_30b, seed=0)
        assert _gpu_ids(solution) == frozenset(cloud_cluster.gpu_ids)

    def test_every_group_can_hold_model(self, cloud_cluster, model_30b):
        from repro.parallelism.partition import group_can_hold_model

        solution = initial_groups_by_clustering(cloud_cluster, model_30b, seed=0)
        for group in solution.groups:
            assert group_can_hold_model(cloud_cluster, group.gpu_ids, model_30b)

    def test_both_phases_present(self, cloud_cluster, model_30b):
        solution = initial_groups_by_clustering(cloud_cluster, model_30b, seed=1)
        assert solution.num_prefill >= 1
        assert solution.num_decode >= 1

    def test_groups_avoid_cross_datacenter_links(self, model_30b):
        from repro.hardware.cluster import make_two_datacenter_cluster

        cluster = make_two_datacenter_cluster(inter_dc_gbps=0.625, seed=0)
        solution = initial_groups_by_clustering(cluster, model_30b, seed=0, target_num_groups=2)
        for group in solution.groups:
            datacenters = {cluster.gpu(g).datacenter for g in group.gpu_ids}
            assert len(datacenters) == 1

    def test_minimum_group_size_reasonable(self, cloud_cluster, model_30b, tiny_model):
        assert minimum_group_size(cloud_cluster, model_30b) >= 3
        assert minimum_group_size(cloud_cluster, tiny_model) == 1

    def test_deterministic_for_seed(self, cloud_cluster, model_30b):
        a = initial_groups_by_clustering(cloud_cluster, model_30b, seed=3)
        b = initial_groups_by_clustering(cloud_cluster, model_30b, seed=3)
        assert a.key() == b.key()


def _neighbors(solution, cluster, model, kind, rng=0, count=4):
    """Neighbours built by one kind of move, through the scheduler's sampler."""
    return construct_neighbors(solution, cluster, model, count, rng=rng, moves=[kind])


class TestNeighborMoves:
    def test_flip_changes_exactly_one_phase(self, simple_solution, cloud_cluster, tiny_model):
        flipped = _neighbors(simple_solution, cloud_cluster, tiny_model, "flip")
        assert flipped
        for neighbor in flipped:
            differences = 0
            for a, b in zip(_canonical(simple_solution).groups, _canonical(neighbor).groups):
                assert a.gpu_ids == b.gpu_ids
                if a.phase is not b.phase:
                    differences += 1
            assert differences == 1

    def test_split_increases_group_count(self, simple_solution, cloud_cluster, tiny_model):
        split = _neighbors(simple_solution, cloud_cluster, tiny_model, "split")
        assert split
        for neighbor in split:
            assert neighbor.num_groups == simple_solution.num_groups + 1
            assert _gpu_ids(neighbor) == _gpu_ids(simple_solution)

    def test_merge_decreases_group_count(self, simple_solution, cloud_cluster, tiny_model):
        merged = _neighbors(simple_solution, cloud_cluster, tiny_model, "merge")
        assert merged
        for neighbor in merged:
            assert neighbor.num_groups == simple_solution.num_groups - 1
            assert _gpu_ids(neighbor) == _gpu_ids(simple_solution)

    def test_move_preserves_gpu_set(self, simple_solution, cloud_cluster, tiny_model):
        moved = _neighbors(simple_solution, cloud_cluster, tiny_model, "move")
        assert moved
        for neighbor in moved:
            assert _gpu_ids(neighbor) == _gpu_ids(simple_solution)
            assert neighbor.num_groups == simple_solution.num_groups

    def test_move_samples_the_moved_subset(self, cloud_cluster, tiny_model):
        """The moved GPU set varies across seeds for a fixed move shape.

        With one donor group of a single GPU type and a one-GPU destination, the
        only degrees of freedom are the move count and *which* GPUs move; a
        sorted-prefix implementation pins the subset per count, so every count
        drawn more than once must show at least two distinct subsets across
        seeds.
        """
        type_name = cloud_cluster.gpus[0].type_name
        donor = [g.gpu_id for g in cloud_cluster.gpus_of_type(type_name)][:8]
        other = [g for g in cloud_cluster.gpu_ids if g not in donor][:1]
        solution = UpperLevelSolution.from_lists(
            [(donor, Phase.DECODE), (other, Phase.PREFILL)]
        )
        subsets_by_count: dict = {}
        draws_by_count: dict = {}
        for seed in range(60):
            for moved in _neighbors(solution, cloud_cluster, tiny_model, "move", rng=seed, count=1):
                dst = next(g for g in moved.groups if set(other) <= set(g.gpu_ids))
                subset = frozenset(dst.gpu_ids) - frozenset(other)
                subsets_by_count.setdefault(len(subset), set()).add(subset)
                draws_by_count[len(subset)] = draws_by_count.get(len(subset), 0) + 1
        assert subsets_by_count, "no move was ever drawn"
        for count, subsets in subsets_by_count.items():
            if draws_by_count[count] > 1:
                assert len(subsets) > 1, (
                    f"moving {count} GPUs always picked the same subset: "
                    "the moved set is not being sampled"
                )

    def test_split_none_for_singleton_groups(self, cloud_cluster, tiny_model):
        solution = UpperLevelSolution.from_lists([([0], Phase.PREFILL), ([1], Phase.DECODE)])
        assert _neighbors(solution, cloud_cluster, tiny_model, "split") == []

    def test_merge_none_for_single_group(self, cloud_cluster, tiny_model):
        solution = UpperLevelSolution.from_lists([([0, 1], Phase.PREFILL)])
        assert _neighbors(solution, cloud_cluster, tiny_model, "merge") == []


class TestConstructNeighbors:
    def test_neighbors_are_feasible_and_distinct(self, cloud_cluster, model_30b, simple_solution):
        from repro.parallelism.partition import group_can_hold_model

        neighbors = construct_neighbors(simple_solution, cloud_cluster, model_30b, num_neighbors=8, rng=0)
        assert 1 <= len(neighbors) <= 8
        keys = {n.key() for n in neighbors}
        assert len(keys) == len(neighbors)
        assert simple_solution.key() not in keys
        for neighbor in neighbors:
            for group in neighbor.groups:
                assert group_can_hold_model(cloud_cluster, group.gpu_ids, model_30b)

    def test_flip_only_mode_keeps_group_structure(self, cloud_cluster, model_30b, simple_solution):
        neighbors = construct_neighbors(
            simple_solution, cloud_cluster, model_30b, num_neighbors=5, rng=0, moves=["flip"]
        )
        original_groups = {g.gpu_ids for g in simple_solution.groups}
        for neighbor in neighbors:
            assert {g.gpu_ids for g in neighbor.groups} == original_groups

    def test_unknown_move_rejected(self, cloud_cluster, model_30b, simple_solution):
        with pytest.raises(ValueError):
            construct_neighbors(simple_solution, cloud_cluster, model_30b, 3, moves=["teleport"])

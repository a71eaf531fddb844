"""Parallel configuration types.

A *parallel configuration* is the pair (TP, PP) of tensor- and pipeline-parallel
degrees (the notation the paper uses in Table 3, e.g. ``TP=2, PP=2``).  A concrete
deployment additionally needs to know which GPUs form each pipeline stage and how
many transformer layers each stage hosts; that is a :class:`ReplicaPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.exceptions import ConfigurationError, InvalidPlanError


@dataclass(frozen=True)
class ParallelConfig:
    """Tensor-parallel × pipeline-parallel degrees for one model replica."""

    tp: int
    pp: int

    def __post_init__(self) -> None:
        if self.tp < 1:
            raise ConfigurationError(f"tp must be >= 1, got {self.tp}")
        if self.pp < 1:
            raise ConfigurationError(f"pp must be >= 1, got {self.pp}")

    @property
    def num_gpus(self) -> int:
        """Total GPUs used by the replica (``tp * pp``)."""
        return self.tp * self.pp

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(TP={self.tp}, PP={self.pp})"


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a tensor-parallel group of GPUs hosting some layers.

    Attributes
    ----------
    gpu_ids:
        Global ids of the GPUs forming the stage's tensor-parallel group.
    num_layers:
        Number of transformer layers assigned to the stage (non-uniform
        partitioning assigns more layers to more capable stages).
    """

    gpu_ids: tuple[int, ...]
    num_layers: int

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise InvalidPlanError("a pipeline stage must contain at least one GPU")
        if len(set(self.gpu_ids)) != len(self.gpu_ids):
            raise InvalidPlanError("a pipeline stage must not repeat GPUs")
        if self.num_layers < 1:
            raise InvalidPlanError(f"a pipeline stage must host >= 1 layer, got {self.num_layers}")

    @property
    def tp(self) -> int:
        """Tensor-parallel degree of the stage."""
        return len(self.gpu_ids)


@dataclass(frozen=True)
class ReplicaPlan:
    """Concrete parallel execution plan of one model replica.

    Stages are listed in pipeline order; every stage uses the same tensor-parallel
    degree (as produced by Algorithm 2), although the class itself only requires a
    consistent total layer count.
    """

    stages: tuple[PipelineStage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise InvalidPlanError("a replica plan must contain at least one stage")
        all_gpus = [g for stage in self.stages for g in stage.gpu_ids]
        if len(set(all_gpus)) != len(all_gpus):
            raise InvalidPlanError("a GPU appears in more than one pipeline stage")

    @classmethod
    def from_stage_lists(
        cls, stage_gpu_ids: Sequence[Sequence[int]], layer_split: Sequence[int]
    ) -> "ReplicaPlan":
        """Build a plan from parallel lists of stage GPU ids and layer counts."""
        if len(stage_gpu_ids) != len(layer_split):
            raise InvalidPlanError("stage_gpu_ids and layer_split must have equal length")
        stages = tuple(
            PipelineStage(gpu_ids=tuple(gpus), num_layers=int(layers))
            for gpus, layers in zip(stage_gpu_ids, layer_split)
        )
        return cls(stages=stages)

    # ------------------------------------------------------------------ accessors
    @property
    def pp(self) -> int:
        """Pipeline-parallel degree (number of stages)."""
        return len(self.stages)

    @property
    def tp(self) -> int:
        """Tensor-parallel degree (of the first stage; uniform in generated plans)."""
        return self.stages[0].tp

    @property
    def parallel_config(self) -> ParallelConfig:
        """The (TP, PP) summary of this plan."""
        return ParallelConfig(tp=self.tp, pp=self.pp)

    @property
    def gpu_ids(self) -> List[int]:
        """All GPU ids used by the replica, in stage order."""
        return [g for stage in self.stages for g in stage.gpu_ids]

    @property
    def num_gpus(self) -> int:
        """Total number of GPUs used by the replica."""
        return len(self.gpu_ids)

    @property
    def total_layers(self) -> int:
        """Total number of transformer layers across stages."""
        return sum(stage.num_layers for stage in self.stages)

    @property
    def layer_split(self) -> List[int]:
        """Per-stage layer counts."""
        return [stage.num_layers for stage in self.stages]

    def describe(self) -> str:
        """Short human-readable description, e.g. ``TP=2, PP=2, layers=[30, 30]``."""
        return f"TP={self.tp}, PP={self.pp}, layers={self.layer_split}"


__all__ = ["ParallelConfig", "PipelineStage", "ReplicaPlan"]

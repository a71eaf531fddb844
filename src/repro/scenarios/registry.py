"""Scenario registry: look up, list and instantiate scenarios by name."""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.scenarios.base import Scenario
from repro.scenarios.library import (
    AgenticCodingMixScenario,
    BurstySpikesScenario,
    DiurnalTrafficScenario,
    LongContextRAGScenario,
    LongPromptRAGScenario,
    MultiTenantSLOTiersScenario,
    SpotPreemptionScenario,
)


_REGISTRY: Dict[str, Type[Scenario]] = {}


def register_scenario(cls: Type[Scenario]) -> Type[Scenario]:
    """Register a scenario class under its ``name`` (also usable as a decorator).

    Names are stored case-folded so lookups through :func:`get_scenario` (which
    normalises its argument the same way) always find registered scenarios.
    """
    name = cls.name.strip().lower()
    if not name or name == Scenario.name:
        raise ValueError(f"{cls.__name__} must define a distinct `name` class attribute")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"scenario name {name!r} already registered by {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


for _cls in (
    DiurnalTrafficScenario,
    BurstySpikesScenario,
    LongContextRAGScenario,
    LongPromptRAGScenario,
    AgenticCodingMixScenario,
    MultiTenantSLOTiersScenario,
    SpotPreemptionScenario,
):
    register_scenario(_cls)


def list_scenarios() -> List[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str, **params) -> Scenario:
    """Instantiate a registered scenario by name, overriding fields via ``params``."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; known: {list_scenarios()}")
    return _REGISTRY[key](**params)


def default_scenarios(duration: float = 120.0) -> Tuple[Scenario, ...]:
    """One instance of every registered scenario at its default parameterization.

    ``duration`` overrides every scenario's trace length — the sweeps use it
    to dial the whole library at once (short smoke runs vs. long soak runs).
    """
    return tuple(_REGISTRY[name](duration=duration) for name in list_scenarios())


__all__ = ["register_scenario", "list_scenarios", "get_scenario", "default_scenarios"]

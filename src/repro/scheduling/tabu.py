"""Generic tabu search (Algorithm 1 of the paper).

The search starts from an initial solution, repeatedly constructs a set of
neighbours, evaluates them with the (expensive) objective ``f`` — one call per
neighbourhood batch — moves to the best non-tabu neighbour and remembers
recently visited solutions in a bounded tabu list.  It returns the best
solution seen and a trace of (wall-clock time, best objective) pairs, which
regenerates the convergence curves of Figure 10.

The best solution is replaced only on a strict improvement, so the search
stops as soon as nothing it could still score can change the result: when
the best objective reaches a known ``ceiling`` of the objective, and when the
neighbour function returns an empty neighbourhood (the flip-only rescheduler
does so once it has scored every designation).  Both stops return the
solution the full budget would have returned, as long as the ceiling truly
bounds the objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

S = TypeVar("S")


@dataclass(frozen=True)
class TabuSearchConfig:
    """Hyper-parameters of Algorithm 1.

    ``num_steps`` is :math:`N_{step}`, ``num_neighbors`` is :math:`N_{nghb}` and
    ``memory_size`` is :math:`N_{mem}` in the paper's notation.  ``patience``
    optionally stops the search early after that many consecutive steps without
    improvement (0 disables early stopping).
    """

    num_steps: int = 100
    num_neighbors: int = 10
    memory_size: int = 5
    patience: int = 0

    def __post_init__(self) -> None:
        if self.num_steps < 1 or self.num_neighbors < 1 or self.memory_size < 1:
            raise ValueError("num_steps, num_neighbors and memory_size must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass
class SearchTrace:
    """Trace of a tabu-search run (used for the Figure 10 convergence curves)."""

    #: (elapsed seconds, best objective so far) recorded after every step
    history: List[Tuple[float, float]] = field(default_factory=list)
    #: number of candidate evaluations performed
    num_evaluations: int = 0
    #: total wall-clock time of the search in seconds
    elapsed_s: float = 0.0

    def best_curve(self) -> List[Tuple[float, float]]:
        """The monotone best-objective-vs-time curve."""
        return list(self.history)


@dataclass
class TabuSearchResult(Generic[S]):
    """Best solution found plus its objective and the search trace."""

    best_solution: S
    best_objective: float
    trace: SearchTrace


class TabuSearch(Generic[S]):
    """Tabu search over an arbitrary solution type.

    Parameters
    ----------
    objective:
        Callable scoring a whole batch of candidates at once, returning the
        objective to *maximise* for each one, in order.  Each search step
        scores its neighbourhood with a single call — evaluators with shared
        caches (e.g. the lower-level solver) can then deduplicate work across
        the batch — and the initial solution is scored as a batch of one.
    neighbor_fn:
        Callable producing a list of candidate neighbours for a solution.  With
        ``pass_tabu_keys=True`` it must accept a third argument — the current
        tabu keys — so that generation can skip tabu candidates instead of
        wasting attempts on them.
    key_fn:
        Callable mapping a solution to a hashable key (used by the tabu list).
        Defaults to the identity, which requires hashable solutions.
    config:
        Search hyper-parameters.
    pass_tabu_keys:
        Explicit opt-in: pass the current tabu keys as a third positional
        argument to ``neighbor_fn`` so candidates can be filtered during
        generation.
    ceiling:
        Optional upper bound of ``objective``: the search stops once its best
        objective is ``>= ceiling``, since no later candidate can then
        strictly improve on it.  ``None`` spends the whole budget.
    """

    def __init__(
        self,
        objective: Callable[[Sequence[S]], Sequence[float]],
        neighbor_fn: Callable[[S, int], Sequence[S]],
        key_fn: Optional[Callable[[S], Hashable]] = None,
        config: TabuSearchConfig = TabuSearchConfig(),
        pass_tabu_keys: bool = False,
        ceiling: Optional[float] = None,
    ) -> None:
        self.objective = objective
        self.neighbor_fn = neighbor_fn
        self.key_fn = key_fn or (lambda s: s)  # type: ignore[assignment]
        self.config = config
        self.pass_tabu_keys = pass_tabu_keys
        self.ceiling = ceiling

    def _score(self, candidates: Sequence[S]) -> List[float]:
        """Score a batch of candidates with one objective call."""
        scores = list(self.objective(candidates))
        if len(scores) != len(candidates):
            raise ValueError(
                f"objective returned {len(scores)} scores for {len(candidates)} candidates"
            )
        return [float(s) for s in scores]

    def run(self, initial_solution: S) -> TabuSearchResult[S]:
        """Execute Algorithm 1 starting from ``initial_solution``."""
        cfg = self.config
        start = time.perf_counter()
        trace = SearchTrace()

        current = initial_solution
        current_obj = self._score([current])[0]
        trace.num_evaluations += 1
        best, best_obj = current, current_obj
        # The ordered list is the bounded memory; the set gives O(1) membership
        # checks when filtering whole neighbourhood batches.
        tabu: List[Hashable] = [self.key_fn(current)]
        tabu_set = set(tabu)
        trace.history.append((time.perf_counter() - start, best_obj))

        stale_steps = 0
        for _ in range(cfg.num_steps):
            if self.ceiling is not None and best_obj >= self.ceiling:
                break
            if self.pass_tabu_keys:
                neighbors = list(self.neighbor_fn(current, cfg.num_neighbors, tuple(tabu)))
                if not neighbors:
                    # Everything reachable is tabu: regenerate without the
                    # exclusions so the search can still move through a tabu
                    # solution (the classic aspiration-by-default fallback)
                    # rather than terminating on small search spaces.
                    neighbors = list(self.neighbor_fn(current, cfg.num_neighbors, ()))
            else:
                neighbors = list(self.neighbor_fn(current, cfg.num_neighbors))
            # Exclude tabu solutions from navigation.
            candidates = [n for n in neighbors if self.key_fn(n) not in tabu_set]
            if not candidates:
                candidates = neighbors
            if not candidates:
                break
            scored = list(zip(self._score(candidates), candidates))
            trace.num_evaluations += len(scored)
            step_obj, step_best = max(scored, key=lambda t: t[0])

            if step_obj > best_obj:
                best, best_obj = step_best, step_obj
                stale_steps = 0
            else:
                stale_steps += 1

            tabu.append(self.key_fn(step_best))
            if len(tabu) > cfg.memory_size:
                tabu = tabu[-cfg.memory_size:]
            tabu_set = set(tabu)
            current, current_obj = step_best, step_obj
            trace.history.append((time.perf_counter() - start, best_obj))

            if cfg.patience and stale_steps >= cfg.patience:
                break

        trace.elapsed_s = time.perf_counter() - start
        return TabuSearchResult(best_solution=best, best_objective=best_obj, trace=trace)


__all__ = ["TabuSearch", "TabuSearchConfig", "TabuSearchResult", "SearchTrace"]

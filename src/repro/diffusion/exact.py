"""Exact expected-benefit computation by world enumeration.

For graphs with a handful of edges the expected benefit can be computed
exactly by enumerating all ``2^|E|`` live-edge worlds and weighting each by
its probability.  This estimator backs the unit tests that pin the paper's
worked examples (Fig. 1, Example 1) to their exact numbers, validates the
Monte-Carlo estimator, and feeds the optimality study of Fig. 10 where the
exhaustive OPT solver needs noise-free evaluations.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from repro.diffusion.live_edge import LiveEdgeWorld, cascade_in_world
from repro.diffusion.monte_carlo import BenefitEstimator
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph

NodeId = Hashable


class ExactEstimator(BenefitEstimator):
    """Exact expected benefit by enumerating every live-edge world.

    Parameters
    ----------
    graph:
        The social graph.  The number of edges must not exceed
        ``max_edges`` (default 20, i.e. about a million worlds) — beyond that
        the enumeration is intractable and the caller should switch to
        :class:`~repro.diffusion.monte_carlo.MonteCarloEstimator`.
    """

    def __init__(self, graph: SocialGraph, *, max_edges: int = 20) -> None:
        super().__init__(graph)
        self.max_edges = int(max_edges)
        self._edges: List[Tuple[NodeId, NodeId, float]] = list(graph.edges())
        if len(self._edges) > self.max_edges:
            raise EstimationError(
                f"graph has {len(self._edges)} edges; exact enumeration is capped "
                f"at {self.max_edges}"
            )
        self._worlds = self._enumerate_worlds()
        self._benefit_cache: Dict[Tuple, float] = {}

    def _enumerate_worlds(self) -> List[Tuple[LiveEdgeWorld, float]]:
        worlds: List[Tuple[LiveEdgeWorld, float]] = []
        for outcome in product((False, True), repeat=len(self._edges)):
            weight = 1.0
            live = []
            for (source, target, probability), is_live in zip(self._edges, outcome):
                if is_live:
                    weight *= probability
                    live.append((source, target))
                else:
                    weight *= 1.0 - probability
                if weight == 0.0:
                    break
            if weight > 0.0:
                worlds.append((LiveEdgeWorld(frozenset(live)), weight))
        return worlds

    # ------------------------------------------------------------------

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        # The cascade is seed-order dependent and the memo is keyed by the
        # seed set, so cascade in the compiled engine's canonical order.
        seeds = sorted(seeds, key=str)
        key = self._key(seeds, allocation)
        cached = self._benefit_cache.get(key)
        if cached is not None:
            return cached
        total = 0.0
        for world, weight in self._worlds:
            activated = cascade_in_world(self.graph, world, seeds, allocation)
            total += weight * sum(self.graph.benefit(node) for node in activated)
        self._benefit_cache[key] = total
        return total

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        seeds = sorted(seeds, key=str)
        probabilities: Dict[NodeId, float] = {}
        for world, weight in self._worlds:
            for node in cascade_in_world(self.graph, world, seeds, allocation):
                probabilities[node] = probabilities.get(node, 0.0) + weight
        return probabilities

"""The dict-adjacency Monte-Carlo oracle the compiled estimator is checked against.

:class:`DictOracle` draws its worlds once with
:func:`~repro.diffusion.live_edge.sample_worlds` and answers every query with
one :func:`~repro.diffusion.live_edge.cascade_in_world` pass over them, on
seeds sorted by ``str`` (the estimator's canonical order) and with no memo.
For the same graph, world count and seed it is the reference semantics of
:class:`~repro.diffusion.monte_carlo.MonteCarloEstimator`: identical
activation probabilities, and expected benefits equal up to floating-point
summation order (the oracle sums each world's benefits in set order).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Set

from repro.diffusion.live_edge import cascade_in_world, sample_worlds
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike

NodeId = Hashable


class DictOracle:
    """Monte-Carlo estimates over dict-adjacency live-edge worlds."""

    def __init__(self, graph: SocialGraph, num_samples: int, seed: SeedLike) -> None:
        self.graph = graph
        self.num_samples = num_samples
        self.worlds = tuple(sample_worlds(graph, num_samples, seed))

    def _cascades(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Iterator[Set[NodeId]]:
        seeds = sorted(seeds, key=str)
        for world in self.worlds:
            yield cascade_in_world(self.graph, world, seeds, allocation)

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        counts: Dict[NodeId, int] = {}
        for activated in self._cascades(seeds, allocation):
            for node in activated:
                counts[node] = counts.get(node, 0) + 1
        return {node: count / self.num_samples for node, count in counts.items()}

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        total = 0.0
        for activated in self._cascades(seeds, allocation):
            total += sum(self.graph.benefit(node) for node in activated)
        return total / self.num_samples

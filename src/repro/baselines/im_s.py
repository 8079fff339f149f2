"""IM-S: the paper's two-stage shortest-path heuristic (Sec. VI-A).

Stage one runs the existing IM algorithm to pick seeds.  Stage two connects
every two consecutive seeds with the shortest path in the graph where each
edge ``e(i, j)`` is weighted ``1 − P(e(i, j))`` — i.e. high-influence edges
are short — and distributes social coupons uniformly to the users on those
paths until the total of seed cost and SC cost meets the investment budget.
The paper uses IM-S to show that naively gluing SC allocation onto IM wastes
budget on the connecting paths and misses benefits outside them.

All of IM-S's benefit evaluations happen inside stage one, which runs through
the shared :class:`~repro.baselines.influence_max.GreedyInfluenceMaximization`
selector — whose singleton-spread pass goes through the estimator's batched
evaluation scheduler (``expected_spreads``), pipelined on a parallel backend.
Stage two is pure graph/cost work and submits no evaluations at all; the
final deployment is priced once by the shared :meth:`run`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.baselines.base import BaselineAlgorithm
from repro.baselines.influence_max import GreedyInfluenceMaximization
from repro.core.deployment import Deployment
from repro.diffusion.monte_carlo import BenefitEstimator
from repro.economics.scenario import Scenario
from repro.utils.rng import SeedLike

NodeId = Hashable


class IMShortestPath(BaselineAlgorithm):
    """Two-stage IM + shortest-path coupon distribution."""

    name = "IM-S"

    def __init__(
        self,
        scenario: Scenario,
        *,
        estimator: Optional[BenefitEstimator] = None,
        num_samples: int = 200,
        seed: SeedLike = None,
        max_seeds: Optional[int] = None,
    ) -> None:
        super().__init__(scenario, estimator=estimator, num_samples=num_samples, seed=seed)
        self.max_seeds = max_seeds
        self.selector = GreedyInfluenceMaximization(scenario, estimator=self.estimator)

    # ------------------------------------------------------------------

    def select(self) -> Deployment:
        budget = self.scenario.budget_limit
        # Stage 1 ranking: the selector batches its singleton-spread pass
        # through the estimator's scheduler; sharing `self.estimator` means
        # IM-S and a sibling IM baseline also share every memoised result.
        ranking = self.selector.ranked_seeds(self.max_seeds)

        # Stage 1: admit seeds in greedy order while their cost fits half the
        # budget, reserving the other half for the connecting coupons (the
        # paper does not specify the split; half-and-half keeps both stages
        # non-degenerate and the total within budget).
        deployment = Deployment(self.graph)
        seed_budget = budget / 2.0
        for node in ranking:
            candidate = deployment.with_seed(node)
            if candidate.seed_cost() > seed_budget:
                break
            deployment = candidate
        if not deployment.seeds and ranking:
            cheapest = min(ranking, key=self.graph.seed_cost)
            if self.graph.seed_cost(cheapest) <= budget:
                deployment = Deployment(self.graph, seeds=[cheapest])

        # Stage 2: connect consecutive seeds with shortest paths and give one
        # coupon per path edge, uniformly, while the budget allows.
        seeds = sorted(deployment.seeds, key=str)
        path_nodes: List[NodeId] = []
        for first, second in zip(seeds, seeds[1:]):
            path = self._shortest_path(first, second)
            if path:
                path_nodes.extend(path)
        # Always let the seeds themselves hand out at least one coupon.
        path_nodes.extend(seeds)

        for node in path_nodes:
            degree = self.graph.out_degree(node)
            if degree <= 0:
                continue
            current = deployment.allocation.get(node)
            if current >= degree:
                continue
            candidate = deployment.copy()
            candidate.allocation.set(node, current + 1)
            if candidate.total_cost() <= budget:
                deployment.allocation.set(node, current + 1)
        return deployment

    # ------------------------------------------------------------------

    def _shortest_path(self, source: NodeId, target: NodeId) -> List[NodeId]:
        """Dijkstra shortest path with edge weight ``1 - P(e)``.

        Returns the node sequence from ``source`` to ``target`` (both
        included) or an empty list when ``target`` is unreachable.
        """
        distances: Dict[NodeId, float] = {source: 0.0}
        previous: Dict[NodeId, NodeId] = {}
        heap: List[Tuple[float, str, NodeId]] = [(0.0, str(source), source)]
        visited = set()
        while heap:
            distance, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == target:
                break
            for neighbor, probability in self.graph.out_neighbors(node).items():
                weight = 1.0 - probability
                new_distance = distance + weight
                if new_distance < distances.get(neighbor, float("inf")):
                    distances[neighbor] = new_distance
                    previous[neighbor] = node
                    heapq.heappush(heap, (new_distance, str(neighbor), neighbor))
        if target not in visited:
            return []
        path = [target]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path

"""Random seed/coupon policy.

Not part of the paper's baseline set, but a useful sanity floor for tests and
ablations: it spends the budget on uniformly random seeds and coupons, so any
algorithm worth its salt should beat it comfortably.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.baselines.base import BaselineAlgorithm
from repro.core.deployment import Deployment
from repro.diffusion.monte_carlo import BenefitEstimator
from repro.economics.scenario import Scenario
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable

#: Coupon draws before the policy stops looking for one that fits.
_MAX_ATTEMPTS = 10_000


class RandomPolicy(BaselineAlgorithm):
    """Uniformly random seeds and coupons under the budget."""

    name = "Random"

    def __init__(
        self,
        scenario: Scenario,
        *,
        estimator: Optional[BenefitEstimator] = None,
        num_samples: int = 200,
        seed: SeedLike = None,
        seed_budget_fraction: float = 0.5,
    ) -> None:
        super().__init__(scenario, estimator=estimator, num_samples=num_samples, seed=seed)
        if not 0.0 <= seed_budget_fraction <= 1.0:
            raise ValueError("seed_budget_fraction must lie in [0, 1]")
        self.seed_budget_fraction = seed_budget_fraction
        self._rng = spawn_rng(seed)

    def select(self) -> Deployment:
        budget = self.scenario.budget_limit
        seed_budget = budget * self.seed_budget_fraction
        nodes = sorted(self.graph.nodes(), key=str)
        deployment = Deployment(self.graph)

        # Random seeds until the seed sub-budget is full.
        order = list(self._rng.permutation(len(nodes)))
        for index in order:
            node = nodes[index]
            candidate = deployment.with_seed(node)
            if candidate.seed_cost() > seed_budget:
                continue
            deployment = candidate
            if deployment.seed_cost() >= seed_budget * 0.9:
                break

        # Random coupons until nothing more fits (bounded attempts).
        attempts = 0
        while attempts < _MAX_ATTEMPTS:
            attempts += 1
            node = nodes[int(self._rng.integers(0, len(nodes)))]
            if self.graph.out_degree(node) <= deployment.allocation.get(node):
                continue
            candidate = deployment.with_extra_coupon(node)
            if candidate.total_cost() > budget:
                break
            deployment = candidate
        return deployment

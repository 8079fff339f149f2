"""Shared interface for every algorithm compared in the experiments.

Both S3CA (wrapped by the experiment runner) and the baselines return an
:class:`AlgorithmResult` so the metrics layer can treat them uniformly: it only
needs the final deployment and, for the running-time figures, how long the
algorithm took.

Baselines price candidate deployments through the estimator's batched
evaluation scheduler (:meth:`BaselineAlgorithm.batch_benefits` /
:meth:`~repro.diffusion.estimator.BenefitEstimator.expected_spreads`) rather
than one :meth:`expected_benefit` call at a time, so on a parallel estimator
their greedy rounds pipeline through the shared shard pool exactly like
S3CA's phases — with bit-identical selections either way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.deployment import Deployment
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import DEFAULT_ESTIMATOR_METHOD, make_estimator
from repro.economics.scenario import Scenario
from repro.utils.rng import SeedLike

NodeId = Hashable


@dataclass
class AlgorithmResult:
    """Uniform result record produced by every algorithm."""

    name: str
    deployment: Deployment
    expected_benefit: float
    total_cost: float
    redemption_rate: float
    seed_cost: float
    sc_cost: float
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def seeds(self) -> Set[NodeId]:
        """Selected seed set."""
        return set(self.deployment.seeds)

    @property
    def allocation(self) -> Dict[NodeId, int]:
        """Final coupon allocation."""
        return self.deployment.allocation.as_dict()

    @property
    def seed_sc_rate(self) -> float:
        """Seed spending divided by SC spending (Fig. 7 metric)."""
        if self.sc_cost > 0:
            return self.seed_cost / self.sc_cost
        return float("inf") if self.seed_cost > 0 else 0.0

    @classmethod
    def from_deployment(
        cls,
        name: str,
        deployment: Deployment,
        estimator: BenefitEstimator,
        **extras: float,
    ) -> "AlgorithmResult":
        """Price a deployment and wrap it."""
        benefit = deployment.expected_benefit(estimator)
        seed_cost = deployment.seed_cost()
        sc_cost = deployment.sc_cost()
        total = seed_cost + sc_cost
        return cls(
            name=name,
            deployment=deployment,
            expected_benefit=benefit,
            total_cost=total,
            redemption_rate=benefit / total if total > 0 else 0.0,
            seed_cost=seed_cost,
            sc_cost=sc_cost,
            extras=dict(extras),
        )


class BaselineAlgorithm(ABC):
    """Base class for the baselines.

    Subclasses implement :meth:`select` which returns a
    :class:`~repro.core.deployment.Deployment`; the shared :meth:`run` wraps it
    into an :class:`AlgorithmResult` using a common estimator so every
    algorithm is judged by exactly the same Monte-Carlo worlds.
    """

    name: str = "baseline"

    def __init__(
        self,
        scenario: Scenario,
        *,
        estimator: Optional[BenefitEstimator] = None,
        estimator_method: str = DEFAULT_ESTIMATOR_METHOD,
        num_samples: int = 200,
        seed: SeedLike = None,
    ) -> None:
        self.scenario = scenario
        self.graph = scenario.graph
        self.estimator = estimator or make_estimator(
            scenario, estimator_method, num_samples=num_samples, seed=seed
        )

    @abstractmethod
    def select(self) -> Deployment:
        """Choose the seed set and coupon allocation."""

    def batch_benefits(
        self,
        deployments: Sequence[Tuple[Iterable[NodeId], Mapping[NodeId, int]]],
    ) -> List[float]:
        """Expected benefits of a batch of ``(seeds, allocation)`` pairs.

        One batch through the estimator's scheduler: pipelined on a parallel
        backend, a plain loop otherwise — the values are exactly what
        per-pair ``expected_benefit`` calls would return, so greedy
        comparisons built on them are bit-identical.
        """
        return self.estimator.submit_many(deployments)

    def run(self) -> AlgorithmResult:
        """Run the baseline and price its deployment."""
        deployment = self.select()
        return AlgorithmResult.from_deployment(self.name, deployment, self.estimator)

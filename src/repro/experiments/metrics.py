"""Evaluation metrics of Section VI.

The paper reports four quantities per algorithm: the redemption rate, the
total benefit, the seed-SC rate (ratio of seed spending to SC spending,
Fig. 7) and the average farthest hop from the seeds (Table III); the
scalability study additionally reports the explored ratio (Fig. 9).  The
redemption rate and total benefit come straight from the algorithm results;
this module implements the remaining, structural ones.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional

from repro.core.deployment import Deployment
from repro.diffusion.monte_carlo import BenefitEstimator
from repro.diffusion.sc_cascade import simulate_sc_cascade
from repro.graph.metrics import farthest_hop_from
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable


def seed_sc_rate(deployment: Deployment) -> float:
    """Ratio of total seed cost to total (expected) SC cost.

    ``inf`` when the deployment spends nothing on coupons but something on
    seeds, ``0`` when it spends nothing at all.
    """
    seed_cost = deployment.seed_cost()
    sc_cost = deployment.sc_cost()
    if sc_cost > 0:
        return seed_cost / sc_cost
    return float("inf") if seed_cost > 0 else 0.0


def average_farthest_hop(
    graph: SocialGraph,
    deployment: Deployment,
    *,
    samples: int = 50,
    rng: SeedLike = None,
) -> float:
    """Average (over cascade realisations) of the farthest hop reached.

    For each simulated cascade the metric is the largest BFS distance from the
    seed set to any activated user; seeds alone give 0, activating only direct
    friends gives 1, and so on — matching Table III's "average farthest hops
    from seeds".  Deployments with no seeds return 0.
    """
    if not deployment.seeds:
        return 0.0
    generator = spawn_rng(rng)
    allocation = deployment.allocation.as_dict()
    total = 0.0
    for _ in range(samples):
        result = simulate_sc_cascade(
            graph, deployment.seeds, allocation, generator, validate=False
        )
        total += farthest_hop_from(
            graph, deployment.seeds, restrict_to=result.activated
        )
    return total / samples


def explored_ratio(explored_nodes: int, graph: SocialGraph) -> float:
    """Fraction of the network S3CA explored (Fig. 9's metric)."""
    if graph.num_nodes == 0:
        return 0.0
    return explored_nodes / graph.num_nodes


def redemption_rate(deployment: Deployment, estimator: BenefitEstimator) -> float:
    """The S3CRM objective for a deployment."""
    return deployment.redemption_rate(estimator)


def summarize_deployment(
    graph: SocialGraph,
    deployment: Deployment,
    estimator: BenefitEstimator,
    *,
    hop_samples: int = 50,
    rng: SeedLike = None,
) -> Dict[str, float]:
    """All per-deployment metrics in one dictionary (used by the runner)."""
    benefit = deployment.expected_benefit(estimator)
    total_cost = deployment.total_cost()
    return {
        "expected_benefit": benefit,
        "total_cost": total_cost,
        "redemption_rate": benefit / total_cost if total_cost > 0 else 0.0,
        "seed_cost": deployment.seed_cost(),
        "sc_cost": deployment.sc_cost(),
        "seed_sc_rate": seed_sc_rate(deployment),
        "num_seeds": float(deployment.num_seeds),
        "total_coupons": float(deployment.total_coupons),
        "farthest_hop": average_farthest_hop(
            graph, deployment, samples=hop_samples, rng=rng
        ),
    }

"""Scalability study of Fig. 9: running time and explored ratio.

Fig. 9 measures S3CA alone on PPGG-generated synthetic networks, sweeping
(a)–(b) the network size under a fixed budget and (c)–(d) the budget under a
fixed size, and reports the wall-clock running time and the *explored ratio* —
the fraction of nodes whose marginal redemption S3CA ever evaluated.  The
expectation (confirmed by the paper) is that the running time tracks the
budget far more than the raw network size, because S3CA stops exploring once
the budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.s3ca import S3CA
from repro.diffusion.factory import make_estimator
from repro.economics.scenario import Scenario, ScenarioBuilder
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import explored_ratio
from repro.graph.generators import ppgg_like_graph
from repro.utils.timer import Timer


@dataclass
class ScalabilityPoint:
    """One measurement of the scalability sweep."""

    num_nodes: int
    num_edges: int
    budget: float
    seconds: float
    explored_ratio: float
    redemption_rate: float


def synthetic_scenario(
    num_nodes: int,
    *,
    budget: float,
    avg_out_degree: float = 6.0,
    power_law_exponent: float = 1.7,
    clustering: float = 0.3,
    benefit_mean: float = 10.0,
    benefit_std: float = 2.0,
    lam: float = 1.0,
    kappa: float = 10.0,
    seed: int = 2019,
) -> Scenario:
    """A Facebook-like synthetic scenario of the given size (PPGG stand-in)."""
    graph = ppgg_like_graph(
        num_nodes=num_nodes,
        avg_out_degree=avg_out_degree,
        power_law_exponent=power_law_exponent,
        clustering=clustering,
        seed=seed,
    )
    return (
        ScenarioBuilder(graph, name=f"ppgg-{num_nodes}")
        .with_normal_benefits(benefit_mean, benefit_std, seed=seed)
        .with_uniform_sc_costs(benefit_mean)
        .with_degree_proportional_seed_costs()
        .with_lambda(lam)
        .with_kappa(kappa)
        .with_budget(budget)
        .build()
    )


def measure_s3ca(
    scenario: Scenario,
    config: Optional[ExperimentConfig] = None,
    *,
    pool=None,
) -> ScalabilityPoint:
    """Run S3CA once on ``scenario`` and record the Fig. 9 metrics.

    ``pool`` optionally injects a shared
    :class:`~repro.diffusion.parallel.SharedShardPool`: the sweep drivers
    below create one pool for the whole sweep, so every measured point reuses
    the same worker processes instead of paying a pool start-up each.  The
    estimator is released after the measurement either way; an injected pool
    is never closed here.
    """
    config = config or ExperimentConfig()
    estimator = make_estimator(
        scenario,
        config.estimator_method,
        num_samples=config.num_samples,
        seed=config.seed,
        spec=config.estimator,
        pool=pool,
    )
    try:
        algorithm = S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=config.candidate_limit,
            max_pivot_candidates=config.max_pivot_candidates,
            incremental=config.estimator.incremental,
        )
        with Timer() as timer:
            result = algorithm.solve()
    finally:
        close = getattr(estimator, "close", None)
        if close is not None:
            close()
    return ScalabilityPoint(
        num_nodes=scenario.num_nodes,
        num_edges=scenario.num_edges,
        budget=scenario.budget_limit,
        seconds=timer.elapsed,
        explored_ratio=explored_ratio(result.explored_nodes, scenario.graph),
        redemption_rate=result.redemption_rate,
    )


def _sweep_pool(config: ExperimentConfig):
    """One shared worker pool for a whole sweep (None when it cannot help)."""
    from repro.experiments.runner import shared_pool_for

    return shared_pool_for(config)


def sweep_network_size(
    sizes: Sequence[int],
    budget: float,
    config: Optional[ExperimentConfig] = None,
    **scenario_kwargs,
) -> List[ScalabilityPoint]:
    """Fig. 9(a)-(b): fixed budget, growing network."""
    config = config or ExperimentConfig()
    points = []
    pool = _sweep_pool(config)
    try:
        for size in sizes:
            scenario = synthetic_scenario(
                size, budget=budget, seed=config.seed, **scenario_kwargs
            )
            points.append(measure_s3ca(scenario, config, pool=pool))
    finally:
        if pool is not None:
            pool.close()
    return points


def sweep_scalability_budget(
    budgets: Sequence[float],
    num_nodes: int,
    config: Optional[ExperimentConfig] = None,
    **scenario_kwargs,
) -> List[ScalabilityPoint]:
    """Fig. 9(c)-(d): fixed network, growing budget."""
    config = config or ExperimentConfig()
    points = []
    pool = _sweep_pool(config)
    try:
        for budget in budgets:
            scenario = synthetic_scenario(
                num_nodes, budget=budget, seed=config.seed, **scenario_kwargs
            )
            points.append(measure_s3ca(scenario, config, pool=pool))
    finally:
        if pool is not None:
            pool.close()
    return points


def points_to_rows(points: Sequence[ScalabilityPoint]) -> List[Dict[str, float]]:
    """Convert measurements into report rows."""
    return [
        {
            "nodes": point.num_nodes,
            "edges": point.num_edges,
            "budget": point.budget,
            "seconds": point.seconds,
            "explored_ratio": point.explored_ratio,
            "redemption_rate": point.redemption_rate,
        }
        for point in points
    ]

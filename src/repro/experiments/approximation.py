"""Optimality study of Fig. 10: S3CA vs the exhaustive optimum and the bound.

The paper validates Theorem 2 empirically: on small PPGG-generated networks it
compares S3CA (and the baselines) with the optimal redemption rate found by
exhaustive search and with the *worst-case bound* — the optimum multiplied by
the approximation ratio ``1 − e^{−1/(b0·c0)}``, where ``b0`` and ``c0`` are
the benefit and cost spread ratios of the instance.  Every S3CA solution
should sit above that bound.

The paper uses 150-node networks; an unrestricted exhaustive search at that
size is infeasible (in the paper it was "computation-intensive"), so the
default study here uses smaller instances and a bounded coupon enumeration —
the comparison is exact for the search space it covers and the qualitative
conclusion (S3CA ≥ worst-case bound, close to OPT) is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.exhaustive import ExhaustiveSearch
from repro.core.s3ca import S3CA
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import make_estimator
from repro.economics.scenario import Scenario, ScenarioBuilder
from repro.exceptions import EstimationError
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import ppgg_like_graph


@dataclass
class OptimalityPoint:
    """One instance's S3CA value, optimal value and worst-case bound."""

    gross_margin: float
    s3ca_rate: float
    optimal_rate: float
    worst_case_bound: float
    approximation_ratio: float

    @property
    def above_bound(self) -> bool:
        """Whether S3CA respects the theoretical guarantee on this instance."""
        return self.s3ca_rate >= self.worst_case_bound - 1e-9


def benefit_spread_ratio(scenario: Scenario) -> float:
    """``b0``: maximum over minimum positive benefit across users."""
    benefits = [
        scenario.graph.benefit(node)
        for node in scenario.graph.nodes()
        if scenario.graph.benefit(node) > 0
    ]
    if not benefits:
        return 1.0
    return max(benefits) / min(benefits)


def cost_spread_ratio(scenario: Scenario) -> float:
    """``c0``: maximum over minimum positive cost (seed or SC) across users."""
    costs = []
    for node in scenario.graph.nodes():
        for value in (scenario.graph.seed_cost(node), scenario.graph.sc_cost(node)):
            if value > 0:
                costs.append(value)
    if not costs:
        return 1.0
    return max(costs) / min(costs)


def approximation_ratio(scenario: Scenario) -> float:
    """Theorem 2's ratio ``1 − e^{−1/(b0·c0)}`` for an instance."""
    b0 = benefit_spread_ratio(scenario)
    c0 = cost_spread_ratio(scenario)
    return 1.0 - math.exp(-1.0 / (b0 * c0))


def small_instance(
    gross_margin: float,
    *,
    num_nodes: int = 12,
    avg_out_degree: float = 2.0,
    power_law_exponent: float = 1.7,
    sc_cost: float = 1.0,
    budget: float = 8.0,
    seed: int = 2019,
) -> Scenario:
    """A small PPGG-like instance with gross-margin benefits (Fig. 10 setting)."""
    graph = ppgg_like_graph(
        num_nodes=num_nodes,
        avg_out_degree=avg_out_degree,
        power_law_exponent=power_law_exponent,
        clustering=0.2,
        seed=seed,
    )
    return (
        ScenarioBuilder(graph, name=f"small-gm{gross_margin:g}")
        .with_uniform_sc_costs(sc_cost)
        .with_gross_margin_benefits(gross_margin)
        .with_uniform_seed_costs(2.0)
        .with_budget(budget)
        .build()
    )


def compare_with_optimal(
    scenario: Scenario,
    *,
    config: Optional[ExperimentConfig] = None,
    estimator: Optional[BenefitEstimator] = None,
    max_seeds: int = 2,
    max_coupons_per_node: int = 2,
    max_total_coupons: int = 5,
    gross_margin: float = 0.0,
    max_exact_edges: int = 14,
) -> OptimalityPoint:
    """Run S3CA and the exhaustive oracle on one instance.

    The exact world-enumeration estimator is used when the instance has at
    most ``max_exact_edges`` edges (its cost is ``2^|E|`` per evaluation and
    the exhaustive oracle performs many evaluations); larger instances fall
    back to the Monte-Carlo estimator, built from ``config.estimator``.  An
    estimator built here is closed here; a caller's ``estimator`` is not.
    """
    config = config or ExperimentConfig()
    built = estimator is None
    if built:
        try:
            estimator = make_estimator(
                scenario, "exact", max_exact_edges=max_exact_edges
            )
        except EstimationError:
            estimator = make_estimator(
                scenario,
                config.estimator_method,
                num_samples=config.num_samples,
                seed=config.seed,
                spec=config.estimator,
            )
    try:
        s3ca_result = S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=config.candidate_limit,
            max_pivot_candidates=config.max_pivot_candidates,
        ).solve()

        optimal = ExhaustiveSearch(
            scenario,
            estimator=estimator,
            max_seeds=max_seeds,
            max_coupons_per_node=max_coupons_per_node,
            max_total_coupons=max_total_coupons,
        ).run()
    finally:
        close = getattr(estimator, "close", None) if built else None
        if close is not None:
            close()

    ratio = approximation_ratio(scenario)
    return OptimalityPoint(
        gross_margin=gross_margin,
        s3ca_rate=s3ca_result.redemption_rate,
        optimal_rate=optimal.redemption_rate,
        worst_case_bound=optimal.redemption_rate * ratio,
        approximation_ratio=ratio,
    )


def sweep_gross_margin(
    gross_margins: Sequence[float],
    *,
    config: Optional[ExperimentConfig] = None,
    instance_kwargs: Optional[Dict] = None,
    compare_kwargs: Optional[Dict] = None,
) -> List[OptimalityPoint]:
    """Fig. 10: one optimality comparison per gross margin.

    ``instance_kwargs`` parameterise :func:`small_instance` and
    ``compare_kwargs`` are forwarded to :func:`compare_with_optimal`
    (e.g. ``max_seeds`` / ``max_total_coupons`` to bound the oracle).
    """
    config = config or ExperimentConfig()
    instance_kwargs = dict(instance_kwargs or {})
    compare_kwargs = dict(compare_kwargs or {})
    points = []
    for gross_margin in gross_margins:
        scenario = small_instance(
            gross_margin, seed=config.seed, **instance_kwargs
        )
        points.append(
            compare_with_optimal(
                scenario, config=config, gross_margin=gross_margin, **compare_kwargs
            )
        )
    return points


def points_to_rows(points: Sequence[OptimalityPoint]) -> List[Dict[str, float]]:
    """Convert optimality points into report rows."""
    return [
        {
            "gross_margin": point.gross_margin,
            "S3CA": point.s3ca_rate,
            "OPT": point.optimal_rate,
            "worst_case": point.worst_case_bound,
            "ratio": point.approximation_ratio,
            "above_bound": point.above_bound,
        }
        for point in points
    ]

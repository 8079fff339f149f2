"""Case study of Sec. VI-C (Fig. 8): Airbnb and Booking/Hotels.com SC policies.

The case study replaces the synthetic economics of the main experiments with
parameters lifted from the real programs:

* SC costs of 50 (Airbnb) and 100 (Booking, using Hotels.com's figure because
  Booking does not publish one),
* SC allocations of 100 coupons per user (Airbnb) and 10 (Booking),
* benefits derived from the SC cost through a gross margin ``gm`` via
  ``b = c_sc / (1 - gm)``, swept over a range of margins, and
* the 85/10/5 adoption model damping every edge probability by the target
  user's coupon-adoption probability.

For each gross margin the harness compares S3CA against the PM-U/PM-L/IM-U/
IM-L baselines (the ones Fig. 8 plots), reporting the redemption rate and the
seed-SC spending split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.economics.adoption import AdoptionModel
from repro.economics.scenario import Scenario, ScenarioBuilder
from repro.experiments.config import AlgorithmSpec, ExperimentConfig
from repro.experiments.datasets import dataset_graph
from repro.experiments.runner import ExperimentRunner, RunRecord, shared_pool_for


@dataclass(frozen=True)
class CouponPolicy:
    """A real-world referral program's published parameters."""

    name: str
    sc_cost: float
    coupons_per_user: int


AIRBNB = CouponPolicy(name="airbnb", sc_cost=50.0, coupons_per_user=100)
BOOKING = CouponPolicy(name="booking", sc_cost=100.0, coupons_per_user=10)


def case_study_scenario(
    policy: CouponPolicy,
    gross_margin: float,
    *,
    dataset: str = "facebook",
    scale: float = 1.0,
    budget: Optional[float] = None,
    kappa: float = 10.0,
    seed: int = 2019,
) -> Scenario:
    """Build the case-study scenario for one policy and gross margin."""
    graph = dataset_graph(dataset, scale=scale, seed=seed)
    adoption = AdoptionModel(seed=seed)

    builder = ScenarioBuilder(graph, name=f"{policy.name}-gm{gross_margin:g}")
    builder.with_uniform_sc_costs(policy.sc_cost)
    builder.with_gross_margin_benefits(gross_margin)
    builder.with_degree_proportional_seed_costs()
    builder.with_kappa(kappa)
    if budget is None:
        # Budget proportional to the coupon price so each policy can afford a
        # comparable number of referrals.
        budget = policy.sc_cost * graph.num_nodes * 0.25
    builder.with_budget(budget)
    builder.with_metadata(
        policy=policy.name,
        gross_margin=gross_margin,
        coupons_per_user=policy.coupons_per_user,
    )
    scenario = builder.build()

    # The adoption model damps influence probabilities; rebuild the scenario
    # around the damped graph while keeping the economics attached above.
    damped = adoption.apply(scenario.graph)
    return Scenario(
        graph=damped,
        budget_limit=scenario.budget_limit,
        name=scenario.name,
        metadata=scenario.metadata,
    )


def run_case_study(
    policy: CouponPolicy,
    gross_margins: Sequence[float],
    config: Optional[ExperimentConfig] = None,
    *,
    algorithms: Optional[List[AlgorithmSpec]] = None,
    include_im_s: bool = False,
) -> Dict[float, List[RunRecord]]:
    """Run the comparison for every gross margin of one policy (Fig. 8).

    With ``config.estimator.workers > 1`` all margins share one worker pool,
    created here for the duration of the study.
    """
    config = config or ExperimentConfig()
    results: Dict[float, List[RunRecord]] = {}
    pool = shared_pool_for(config)
    try:
        for gross_margin in gross_margins:
            scenario = case_study_scenario(
                policy,
                gross_margin,
                dataset=config.dataset,
                scale=config.scale,
                budget=config.budget,
                kappa=config.kappa,
                seed=config.seed,
            )
            swept = config.replace(limited_coupons=policy.coupons_per_user)
            with ExperimentRunner(scenario, swept, pool=pool) as runner:
                specs = (
                    algorithms
                    if algorithms is not None
                    else runner.default_algorithms(include_im_s)
                )
                results[float(gross_margin)] = runner.run_all(specs)
    finally:
        if pool is not None:
            pool.close()
    return results


def case_study_series(
    results: Dict[float, List[RunRecord]], metric: str
) -> Dict[str, Dict[float, float]]:
    """Re-shape case-study results into ``{algorithm: {gross margin: value}}``."""
    series: Dict[str, Dict[float, float]] = {}
    for gross_margin, records in results.items():
        for record in records:
            series.setdefault(record.algorithm, {})[gross_margin] = record.get(metric)
    return series

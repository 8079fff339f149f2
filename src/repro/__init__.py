"""Reproduction of *Seed Selection and Social Coupon Allocation for Redemption
Maximization in Online Social Networks* (Chang, Shi, Yang, Chen — ICDE 2019).

The library implements the S3CRM optimisation problem, the S3CA approximation
algorithm (Investment Deployment, Guaranteed Path Identification and the SC
Maneuver phases), the SC-constrained independent cascade it is defined over,
the IM/PM/IM-S baselines of the paper's evaluation and a benchmark harness
that regenerates every table and figure of Section VI on synthetic stand-ins
for the original datasets.

Quickstart
----------
>>> from repro import S3CA, toy_scenario
>>> result = S3CA(toy_scenario(), num_samples=100, seed=7).solve()
>>> result.redemption_rate > 0
True
"""

from repro.core.allocation import SCAllocation, expected_sc_cost
from repro.core.deployment import Deployment
from repro.core.guaranteed_paths import GuaranteedPath, identify_guaranteed_paths
from repro.core.investment import InvestmentDeployment, InvestmentResult
from repro.core.maneuver import SCManeuver
from repro.core.s3ca import S3CA, S3CAResult
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.exact import ExactEstimator
from repro.diffusion.factory import ESTIMATOR_METHODS, EstimatorSpec, make_estimator
from repro.diffusion.monte_carlo import BenefitEstimator, MonteCarloEstimator
from repro.diffusion.sc_cascade import CascadeResult, simulate_sc_cascade
from repro.economics.budget import Budget
from repro.economics.coupons import LimitedCouponStrategy, UnlimitedCouponStrategy
from repro.economics.scenario import Scenario, ScenarioBuilder
from repro.exceptions import ReproError
from repro.experiments.datasets import named_dataset, toy_scenario
from repro.graph.attributes import NodeAttributes
from repro.graph.csr import CompiledGraph
from repro.graph.social_graph import SocialGraph

__version__ = "1.0.0"

__all__ = [
    "SCAllocation",
    "expected_sc_cost",
    "Deployment",
    "GuaranteedPath",
    "identify_guaranteed_paths",
    "InvestmentDeployment",
    "InvestmentResult",
    "SCManeuver",
    "S3CA",
    "S3CAResult",
    "ESTIMATOR_METHODS",
    "EstimatorSpec",
    "make_estimator",
    "CompiledCascadeEngine",
    "CompiledGraph",
    "ExactEstimator",
    "BenefitEstimator",
    "MonteCarloEstimator",
    "CascadeResult",
    "simulate_sc_cascade",
    "Budget",
    "LimitedCouponStrategy",
    "UnlimitedCouponStrategy",
    "Scenario",
    "ScenarioBuilder",
    "ReproError",
    "named_dataset",
    "toy_scenario",
    "NodeAttributes",
    "SocialGraph",
    "__version__",
]

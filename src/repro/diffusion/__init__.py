"""Influence-propagation substrate.

The diffusion subpackage implements the SC-constrained independent cascade of
Sec. III (``sc_cascade``), the plain independent cascade it reduces to under
the unlimited coupon strategy (``independent_cascade``), live-edge world
realisations shared across estimator calls (``live_edge``), the Monte-Carlo
expected-benefit estimator used by every algorithm (``monte_carlo``) with its
two cascade backends — the dict-adjacency reference path and the compiled
CSR + vectorized engine (``engine``) — an exact world-enumeration estimator
for tiny graphs (``exact``) and reverse-reachable-set estimation for the
plain-IC regime (``rr_sets``).

Construct estimators through :func:`make_estimator` (``factory``) rather than
instantiating classes directly; the factory is the single switch point for
the ``mc-compiled`` / ``mc`` / ``exact`` / ``rr`` / ``tiered`` methods, and
its :class:`EstimatorSpec` the one place their execution knobs are declared.  The
``tiered`` method wraps the compiled Monte-Carlo tier in a vectorized
RR-sketch screening pass (``tiered``): every ``submit_many`` batch is scored
with the sketch bound and only the frontier is MC-confirmed.

Batch evaluations — any set of candidate deployments compared against each
other — through :class:`EvaluationPlan` / ``submit_many`` (``estimator``): the
estimator schedules the batch (serial loop, or pipelined ``engine.submit``
over the shard pool in ``parallel``) with bit-identical results either way.
"""

from repro.diffusion.independent_cascade import simulate_independent_cascade
from repro.diffusion.live_edge import LiveEdgeWorld, sample_worlds
from repro.diffusion.estimator import BenefitEstimator, EvaluationPlan
from repro.diffusion.delta import DeltaCascadeEngine, DeltaOutcome
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.exact import ExactEstimator
from repro.diffusion.factory import (
    DEFAULT_ESTIMATOR_METHOD,
    ESTIMATOR_METHODS,
    EstimatorSpec,
    make_estimator,
)
from repro.diffusion.rr_sets import RRBenefitEstimator, RRSetSampler, estimate_spread_rr
from repro.diffusion.sc_cascade import CascadeResult, simulate_sc_cascade
from repro.diffusion.tiered import TieredEstimator

__all__ = [
    "TieredEstimator",
    "DEFAULT_ESTIMATOR_METHOD",
    "ESTIMATOR_METHODS",
    "EstimatorSpec",
    "RRBenefitEstimator",
    "RRSetSampler",
    "estimate_spread_rr",
    "make_estimator",
    "simulate_independent_cascade",
    "LiveEdgeWorld",
    "sample_worlds",
    "BenefitEstimator",
    "EvaluationPlan",
    "CompiledCascadeEngine",
    "DeltaCascadeEngine",
    "DeltaOutcome",
    "MonteCarloEstimator",
    "ExactEstimator",
    "CascadeResult",
    "simulate_sc_cascade",
]

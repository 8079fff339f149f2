"""The two-tier estimator, locked down end to end.

The contract of :class:`~repro.diffusion.tiered.TieredEstimator`: screening
batches with the RR-sketch bound and MC-confirming only the frontier changes
*nothing* about what S3CA selects — the final deployments are bit-identical
to untiered runs, serial and on the worker pool alike — while the counters
prove real work was skipped (``confirmed < screened`` on batches larger than
the top-k).  Accepted values always come from the Monte-Carlo tier; the
sketch only orders and prunes.
"""

import pytest

from repro.core.s3ca import S3CA
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import make_estimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.diffusion.tiered import TieredEstimator
from repro.exceptions import EstimationError
from repro.experiments.scalability import synthetic_scenario

NUM_SAMPLES = 25
SEED = 2019


@pytest.fixture(scope="module")
def scenario():
    """Fig. 9-style PPGG instance large enough that screening engages."""
    return synthetic_scenario(80, budget=160.0, seed=SEED)


@pytest.fixture(scope="module")
def untiered(scenario):
    """Reference solve on the plain compiled Monte-Carlo estimator."""
    result = S3CA(
        scenario, estimator_method="mc-compiled", num_samples=NUM_SAMPLES, seed=SEED
    ).solve()
    return (
        result.seeds,
        result.allocation,
        result.expected_benefit,
        result.num_maneuvers,
        result,
    )


def _solve_tiered(scenario, **spec_fields):
    estimator = make_estimator(
        scenario, "tiered", num_samples=NUM_SAMPLES, seed=SEED, **spec_fields
    )
    assert isinstance(estimator, TieredEstimator)
    try:
        return S3CA(scenario, estimator=estimator).solve()
    finally:
        estimator.close()


def _assert_identical(reference, result):
    seeds, allocation, benefit, maneuvers, _ = reference
    assert result.seeds == seeds
    assert result.allocation == allocation
    assert result.expected_benefit == benefit
    assert result.num_maneuvers == maneuvers


def test_tiered_matches_untiered_serial(scenario, untiered):
    result = _solve_tiered(scenario)
    _assert_identical(untiered, result)
    # The parity is not vacuous: the sketch really screened candidates out.
    assert result.tier_stats["screening_batches"] >= 1
    assert result.tier_stats["screened_out_candidates"] > 0


def test_tiered_matches_untiered_on_worker_pool(scenario, untiered):
    result = _solve_tiered(scenario, workers=2)
    _assert_identical(untiered, result)


def test_screening_counters_pinned(scenario, untiered):
    """Aggressive-but-safe knobs: heavy pruning, still the same deployment."""
    result = _solve_tiered(scenario, tier_top_k=16, tier_epsilon=0.5)
    _assert_identical(untiered, result)
    stats = result.tier_stats
    assert stats["screening_batches"] >= 1
    assert stats["confirmed_candidates"] < stats["screened_candidates"]
    assert stats["screened_out_candidates"] > 0
    assert (
        stats["confirmed_candidates"] + stats["screened_out_candidates"]
        == stats["screened_candidates"]
    )


# ----------------------------------------------------------------------
# the wrapper itself
# ----------------------------------------------------------------------


def test_factory_builds_tiered_wrapper(scenario):
    estimator = make_estimator(
        scenario, "tiered", num_samples=NUM_SAMPLES, seed=SEED
    )
    try:
        assert isinstance(estimator, TieredEstimator)
        assert isinstance(estimator.sketch, RRBenefitEstimator)
        # The incremental/delta surface is the MC tier's, via delegation.
        assert estimator.supports_incremental
        assert estimator.kernel_backend == estimator.mc.kernel_backend
        seeds = sorted(scenario.graph.nodes(), key=str)[:2]
        assert estimator.expected_benefit(seeds, {}) == (
            estimator.mc.expected_benefit(seeds, {})
        )
        assert estimator.activation_probabilities(seeds, {}) == (
            estimator.mc.activation_probabilities(seeds, {})
        )
    finally:
        estimator.close()


def test_batches_no_larger_than_top_k_pass_through(scenario):
    estimator = make_estimator(
        scenario, "tiered", num_samples=NUM_SAMPLES, seed=SEED, tier_top_k=8
    )
    try:
        nodes = sorted(scenario.graph.nodes(), key=str)
        small = [([node], {}) for node in nodes[:8]]
        direct = estimator.mc.submit_many(small)
        assert estimator.submit_many(small) == direct
        assert estimator.tier_stats["screening_batches"] == 0
    finally:
        estimator.close()


def test_screened_out_slots_never_outrank_the_frontier(scenario):
    """The calibrated sketch values sit at or below every confirmed value
    they could tie with in a caller-side argmax: the winner is MC-confirmed."""
    estimator = make_estimator(
        scenario, "tiered", num_samples=NUM_SAMPLES, seed=SEED,
        tier_top_k=8, tier_epsilon=0.0,
    )
    try:
        nodes = sorted(scenario.graph.nodes(), key=str)
        batch = [([node], {}) for node in nodes[:40]]
        values = estimator.submit_many(batch)
        stats = estimator.tier_stats
        assert stats["screened_out_candidates"] > 0
        mc_values = estimator.mc.submit_many(batch)
        best = max(range(len(batch)), key=values.__getitem__)
        # The argmax slot carries its true MC value.
        assert values[best] == mc_values[best]
    finally:
        estimator.close()


def test_knob_validation():
    scenario = synthetic_scenario(20, budget=20.0, seed=SEED)
    with pytest.raises(EstimationError):
        make_estimator(scenario, "tiered", num_samples=10, seed=1, tier_epsilon=1.5)
    with pytest.raises(EstimationError):
        make_estimator(scenario, "tiered", num_samples=10, seed=1, tier_top_k=0)


# ----------------------------------------------------------------------
# the EvaluationPlan want_probabilities extension this PR rides on
# ----------------------------------------------------------------------


def test_plan_want_probabilities(scenario):
    estimator = make_estimator(scenario, num_samples=20, seed=SEED)
    try:
        nodes = sorted(scenario.graph.nodes(), key=str)[:3]
        plan = estimator.plan()
        flagged = plan.add([nodes[0]], {}, want_probabilities=True)
        plain = plan.add([nodes[1]], {})
        with pytest.raises(RuntimeError):
            plan.probabilities(flagged)
        plan.execute()
        assert plan.probabilities(flagged) == (
            estimator.activation_probabilities([nodes[0]], {})
        )
        with pytest.raises(KeyError):
            plan.probabilities(plain)
        assert plan.benefit(plain) == estimator.expected_benefit([nodes[1]], {})
    finally:
        estimator.close()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the screen ranks raw sketch scores while every caller ranks by "
    "rate, so a cheap best-rate pivot can be screened out",
)
@pytest.mark.parametrize(
    "exponent, graph_seed, budget",
    [(2.5, 7, 100.0), (1.7, 3, 400.0)],
    ids=["exp2.5-seed7-B100", "exp1.7-seed3-B400"],
)
def test_tiered_screen_keeps_the_untiered_deployment(exponent, graph_seed, budget):
    """Known divergence, pinned: these 400-node instances pick worse
    deployments under the tiered screen (redemption rate 1.112 → 0.645 and
    2.108 → 0.771).  The instance list is fixed; the screen fix turns this
    into an XPASS and removes the marker."""
    scenario = synthetic_scenario(
        400, budget=budget, power_law_exponent=exponent, seed=graph_seed
    )

    def solve(method):
        estimator = make_estimator(scenario, method, num_samples=100, seed=graph_seed)
        try:
            result = S3CA(
                scenario, estimator=estimator, candidate_limit=25,
                max_pivot_candidates=None,
            ).solve()
        finally:
            estimator.close()
        return result.seeds, result.allocation, result.redemption_rate

    assert solve("tiered") == solve("mc-compiled")

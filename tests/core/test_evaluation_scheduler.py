"""The unified batched evaluation scheduler, locked down layer by layer.

Every benefit evaluation in the library flows through the
:class:`~repro.diffusion.estimator.EvaluationPlan` / ``submit_many`` batch
API.  These tests pin the refactor's two contracts:

* **batched == serial**: for every converted call site — the SCM donor
  ranking, the eager coupon-candidate pass, the pivot queue, the IM/PM
  baselines — running on an estimator whose ``submit_many`` is forced to the
  serial base-class loop produces bit-identical decisions to the pipelined
  batch path, for any pipeline depth and worker count;
* **one instrumented pass**: a full ``S3CA`` run advances the delta snapshot
  exclusively by splicing (coupon accepts via ``splice_base``, pivot accepts
  via the seed-accept splice), so ``snapshot_passes == 1`` end to end.
"""

import pytest

from repro.core.guaranteed_paths import identify_guaranteed_paths
from repro.core.investment import InvestmentDeployment
from repro.core.maneuver import SCManeuver
from repro.core.s3ca import S3CA
from repro.baselines.influence_max import GreedyInfluenceMaximization
from repro.baselines.profit_max import GreedyProfitMaximization
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import make_estimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.experiments.config import ExperimentConfig
from repro.experiments.scalability import synthetic_scenario

NUM_SAMPLES = 30
SEED = 2019


class SerialFallbackEstimator(MonteCarloEstimator):
    """A compiled estimator whose scheduler is forced to the serial loop.

    ``submit_many`` / ``expected_spreads`` fall back to the base-class
    one-at-a-time implementations, so comparing against a regular
    (pipelining) estimator built from the same seed isolates the batch
    machinery: any divergence is the scheduler's fault.
    """

    def submit_many(self, deployments):
        return BenefitEstimator.submit_many(self, deployments)

    def expected_spreads(self, deployments):
        return BenefitEstimator.expected_spreads(self, deployments)


@pytest.fixture(scope="module")
def scenario():
    return synthetic_scenario(80, budget=60.0, seed=SEED)


def _deployment_key(deployment):
    return (
        tuple(sorted(deployment.seeds, key=str)),
        tuple(sorted(deployment.allocation.as_dict().items(), key=str)),
    )


# ----------------------------------------------------------------------
# EvaluationPlan semantics
# ----------------------------------------------------------------------


def test_evaluation_plan_slots_and_idempotence(toy):
    estimator = make_estimator(toy, num_samples=20, seed=1)
    nodes = sorted(toy.graph.nodes(), key=str)[:3]
    plan = estimator.plan()
    slots = [plan.add([node], {}) for node in nodes]
    assert slots == [0, 1, 2]
    assert len(plan) == 3 and not plan.executed

    benefits = plan.execute()
    assert plan.executed
    assert benefits == [estimator.expected_benefit([node], {}) for node in nodes]
    assert [plan.benefit(slot) for slot in slots] == benefits
    # idempotent: a second execute returns the same list, runs nothing new
    evaluations = estimator.evaluations
    assert plan.execute() is benefits
    assert estimator.evaluations == evaluations
    with pytest.raises(RuntimeError):
        plan.add([nodes[0]], {})


def test_unexecuted_plan_refuses_benefit_reads(toy):
    plan = make_estimator(toy, num_samples=10, seed=1).plan()
    plan.add(["u1"], {})
    with pytest.raises(RuntimeError):
        plan.benefit(0)


def test_submit_many_matches_single_calls_with_duplicates(toy):
    estimator = make_estimator(toy, num_samples=25, seed=3)
    reference = make_estimator(toy, num_samples=25, seed=3)
    nodes = sorted(toy.graph.nodes(), key=str)
    batch = [([node], {node: 1}) for node in nodes]
    batch += batch[:2]  # duplicates collapse onto one in-flight evaluation
    assert estimator.submit_many(batch) == [
        reference.expected_benefit(seeds, alloc) for seeds, alloc in batch
    ]


def test_expected_spreads_match_single_calls(toy):
    estimator = make_estimator(toy, num_samples=25, seed=3)
    reference = make_estimator(toy, num_samples=25, seed=3)
    nodes = sorted(toy.graph.nodes(), key=str)
    batch = [([node], {node: 2}) for node in nodes]
    assert estimator.expected_spreads(batch) == [
        reference.expected_spread(seeds, alloc) for seeds, alloc in batch
    ]


def test_pipeline_depth_knob_validation(toy):
    """The in-flight bound is derived from the worker count; no layer takes
    it as a knob any more."""
    default = make_estimator(toy, num_samples=10, seed=1)
    assert default.pipeline_depth == max(2, 2 * default.workers)
    with pytest.raises(TypeError):
        make_estimator(toy, num_samples=10, seed=1, pipeline_depth=7)
    with pytest.raises(TypeError):
        MonteCarloEstimator(toy.graph, num_samples=10, seed=1, pipeline_depth=0)
    with pytest.raises(TypeError):
        ExperimentConfig(pipeline_depth=4)
    with pytest.raises(TypeError):
        S3CA(toy, num_samples=10, seed=1, pipeline_depth=4)


# ----------------------------------------------------------------------
# batched == serial, phase by phase
# ----------------------------------------------------------------------


def test_eager_coupon_candidate_pass_batched_matches_serial(scenario):
    """The ID phase's eager candidate pass: one plan vs one call per node."""
    def run(estimator_class):
        estimator = estimator_class(
            scenario.graph, num_samples=NUM_SAMPLES, seed=SEED, incremental=False
        )
        result = InvestmentDeployment(
            scenario, estimator,
            candidate_limit=8, max_pivot_candidates=15, incremental=False,
        ).run()
        return result

    batched = run(MonteCarloEstimator)
    serial = run(SerialFallbackEstimator)
    assert _deployment_key(batched.deployment) == _deployment_key(serial.deployment)
    assert [_deployment_key(s) for s in batched.snapshots] == [
        _deployment_key(s) for s in serial.snapshots
    ]
    assert batched.iterations == serial.iterations
    assert batched.explored_nodes == serial.explored_nodes


def test_scm_phase_batched_matches_serial(scm_scenario):
    """The SCM donor ranking: one plan per round vs one call per donor."""
    # Estimator seed 5 makes this instance actually execute maneuvers, so
    # the parity check covers accepted transfers, not only rejections.
    scm_seed = 5
    setup = make_estimator(
        scm_scenario, num_samples=NUM_SAMPLES, seed=scm_seed,
    )
    id_result = InvestmentDeployment(
        scm_scenario, setup, candidate_limit=8, max_pivot_candidates=15
    ).run()
    deployment = id_result.snapshots[-1]  # spend-full-budget regime
    paths = identify_guaranteed_paths(
        scm_scenario.graph, deployment, scm_scenario.budget_limit,
        max_paths_per_seed=200,
    )
    assert len(paths) > 0

    def run(estimator_class):
        estimator = estimator_class(
            scm_scenario.graph, num_samples=NUM_SAMPLES, seed=scm_seed
        )
        return SCManeuver(estimator, scm_scenario.budget_limit).run(
            deployment, paths
        )

    batched = run(MonteCarloEstimator)
    serial = run(SerialFallbackEstimator)
    # The whole phase must agree: examined paths, executed operations (donor,
    # amount, DI, routing — bit for bit) and the final deployment.
    assert batched.paths_examined == serial.paths_examined
    assert batched.operations == serial.operations
    assert batched.paths_created == serial.paths_created
    assert _deployment_key(batched.deployment) == _deployment_key(serial.deployment)
    # and the instance genuinely exercises the maneuver machinery
    assert batched.improved


def test_pivot_queue_batched_matches_serial(scenario):
    def build(estimator_class):
        estimator = estimator_class(
            scenario.graph, num_samples=NUM_SAMPLES, seed=SEED
        )
        phase = InvestmentDeployment(
            scenario, estimator, candidate_limit=8, max_pivot_candidates=15
        )
        queue = phase.build_pivot_queue()
        return {
            node: (config.coupons, config.redemption_rate, config.total_cost)
            for node, config in phase._pivot_configs.items()
        }, [queue.pop() for _ in range(len(queue))]

    assert build(MonteCarloEstimator) == build(SerialFallbackEstimator)


def test_im_pm_baselines_batched_match_serial(scenario):
    for selector_class in (GreedyInfluenceMaximization, GreedyProfitMaximization):
        def ranking(estimator_class):
            estimator = estimator_class(
                scenario.graph, num_samples=NUM_SAMPLES, seed=SEED
            )
            return selector_class(
                scenario, estimator=estimator, max_seeds=5
            ).ranked_seeds()

        assert ranking(MonteCarloEstimator) == ranking(SerialFallbackEstimator), (
            selector_class.__name__
        )


def test_full_s3ca_identical_for_any_pipeline_depth(scenario):
    def solve(depth):
        estimator = make_estimator(scenario, num_samples=NUM_SAMPLES, seed=SEED)
        if depth is not None:
            estimator.pipeline_depth = depth
        return S3CA(
            scenario, estimator=estimator,
            candidate_limit=8, max_pivot_candidates=15,
        ).solve()

    reference = solve(None)
    for depth in (1, 3, 64):
        result = solve(depth)
        assert _deployment_key(result.deployment) == (
            _deployment_key(reference.deployment)
        )
        assert result.expected_benefit == reference.expected_benefit
        assert result.redemption_rate == reference.redemption_rate
        assert result.explored_nodes == reference.explored_nodes


def test_full_s3ca_workers_and_pipeline_depth_match_serial(scenario):
    """The batched scheduler on a live 2-worker pool == the serial path."""
    serial = S3CA(
        scenario, num_samples=NUM_SAMPLES, seed=SEED,
        candidate_limit=8, max_pivot_candidates=15,
    ).solve()
    estimator = make_estimator(
        scenario, num_samples=NUM_SAMPLES, seed=SEED, workers=2, shard_size=16,
    )
    estimator.pipeline_depth = 1
    try:
        parallel = S3CA(
            scenario, estimator=estimator,
            candidate_limit=8, max_pivot_candidates=15,
        ).solve()
    finally:
        estimator.close()
    assert parallel.seeds == serial.seeds
    assert parallel.allocation == serial.allocation
    assert parallel.expected_benefit == serial.expected_benefit
    assert parallel.num_maneuvers == serial.num_maneuvers


# ----------------------------------------------------------------------
# one instrumented snapshot pass end to end
# ----------------------------------------------------------------------


def test_full_s3ca_run_pays_exactly_one_snapshot_pass(scenario):
    estimator = make_estimator(scenario, num_samples=NUM_SAMPLES, seed=SEED)
    result = S3CA(
        scenario, estimator=estimator, candidate_limit=8, max_pivot_candidates=15
    ).solve()
    assert result.total_cost > 0  # the run genuinely invested
    # Every accepted investment after the initial snapshot was spliced:
    assert estimator.delta_snapshot_passes == 1
    assert (
        estimator.delta_spliced_advances + estimator.delta_spliced_seed_advances
        > 0
    )


def test_id_phase_splices_every_accept(scm_scenario):
    estimator = make_estimator(scm_scenario, num_samples=NUM_SAMPLES, seed=SEED)
    result = InvestmentDeployment(
        scm_scenario, estimator, candidate_limit=8, max_pivot_candidates=15
    ).run()
    seed_accepts = sum(
        1
        for before, after in zip(result.snapshots, result.snapshots[1:])
        if len(after.seeds) > len(before.seeds)
    )
    coupon_accepts = result.iterations - seed_accepts
    assert estimator.delta_snapshot_passes == 1
    assert estimator.delta_spliced_advances == coupon_accepts
    assert estimator.delta_spliced_seed_advances == seed_accepts

"""End-to-end determinism regression: parallel sharded S3CA == serial S3CA.

PR 2 locked the incremental ID phase to the eager reference path bit for bit;
this locks the sharded multiprocess estimator to the PR 2 serial path the same
way.  On a Fig. 9-style synthetic scenario, ``S3CA`` running with
``workers=2, shard_size=16`` must produce the same deployment, the same
benefit trace (every intermediate ID-phase snapshot) and the same reported
metrics as the serial resident-worlds run.
"""

import pytest

from repro.core.investment import InvestmentDeployment
from repro.core.s3ca import S3CA
from repro.diffusion.factory import make_estimator
from repro.experiments.scalability import synthetic_scenario

NUM_SAMPLES = 30
SEED = 2019


@pytest.fixture(scope="module")
def scenario():
    return synthetic_scenario(80, budget=60.0, seed=SEED)


def _solve(scenario, **estimator_knobs):
    estimator = make_estimator(
        scenario, num_samples=NUM_SAMPLES, seed=SEED, **estimator_knobs
    )
    try:
        return S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=8,
            max_pivot_candidates=15,
        ).solve()
    finally:
        estimator.close()


def test_parallel_sharded_s3ca_matches_serial(scenario):
    serial = _solve(scenario)
    parallel = _solve(scenario, workers=2, shard_size=16)
    assert parallel.seeds == serial.seeds
    assert parallel.allocation == serial.allocation
    assert parallel.expected_benefit == serial.expected_benefit
    assert parallel.redemption_rate == serial.redemption_rate
    assert parallel.total_cost == serial.total_cost
    assert parallel.explored_nodes == serial.explored_nodes
    assert parallel.num_paths == serial.num_paths
    assert parallel.num_maneuvers == serial.num_maneuvers


def test_parallel_sharded_id_phase_benefit_trace_matches_serial(scenario):
    """Every intermediate greedy snapshot — the benefit trace — is identical."""
    def run(**knobs):
        estimator = make_estimator(
            scenario, num_samples=NUM_SAMPLES, seed=SEED, **knobs
        )
        try:
            result = InvestmentDeployment(
                scenario, estimator, candidate_limit=8, max_pivot_candidates=15
            ).run()
            trace = [
                (
                    tuple(sorted(snapshot.seeds, key=str)),
                    tuple(sorted(snapshot.allocation.as_dict().items(), key=str)),
                    snapshot.expected_benefit(estimator),
                )
                for snapshot in result.snapshots
            ]
            return result, trace
        finally:
            estimator.close()

    serial_result, serial_trace = run()
    parallel_result, parallel_trace = run(workers=2, shard_size=16)
    assert parallel_trace == serial_trace
    assert parallel_result.iterations == serial_result.iterations
    assert parallel_result.explored_nodes == serial_result.explored_nodes

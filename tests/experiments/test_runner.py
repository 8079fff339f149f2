"""Tests for the experiment runner (uses tiny configurations throughout)."""

import pytest

from repro.baselines.coupon_wrappers import make_im_u
from repro.core.s3ca import S3CA
from repro.diffusion.factory import EstimatorSpec
from repro.experiments.config import AlgorithmSpec, ExperimentConfig
from repro.experiments.datasets import toy_scenario
from repro.experiments.runner import ExperimentRunner, RunRecord


@pytest.fixture
def tiny_config():
    return ExperimentConfig(num_samples=40, repetitions=1, seed=5, candidate_limit=5)


@pytest.fixture
def runner(tiny_config):
    return ExperimentRunner(toy_scenario(), tiny_config)


def test_default_algorithms_cover_paper_set(runner):
    names = [spec.name for spec in runner.default_algorithms()]
    assert names == ["IM-U", "IM-L", "PM-U", "PM-L", "IM-S", "S3CA"]
    without_im_s = [spec.name for spec in runner.default_algorithms(include_im_s=False)]
    assert "IM-S" not in without_im_s


def test_run_spec_s3ca(runner):
    spec = AlgorithmSpec(
        "S3CA",
        lambda scenario, estimator, seed: S3CA(
            scenario, estimator=estimator, candidate_limit=5
        ),
    )
    record = runner.run_spec(spec)
    assert isinstance(record, RunRecord)
    assert record.algorithm == "S3CA"
    assert record.get("redemption_rate") > 0
    assert record.get("explored_ratio") > 0
    assert record.seconds >= 0
    assert record.deployment is not None


def test_run_spec_baseline(runner):
    spec = AlgorithmSpec(
        "IM-U", lambda scenario, estimator, seed: make_im_u(scenario, estimator=estimator)
    )
    record = runner.run_spec(spec)
    assert record.algorithm == "IM-U"
    assert record.get("total_cost") <= runner.scenario.budget_limit + 1e-9
    assert "farthest_hop" in record.metrics


def test_run_all_returns_one_record_per_spec(runner):
    specs = runner.default_algorithms(include_im_s=False)[:2]
    records = runner.run_all(specs)
    assert [record.algorithm for record in records] == [spec.name for spec in specs]


def test_shared_estimator_across_algorithms(runner):
    # All algorithms run by one runner share the same estimator instance, so
    # repeated runs of the same spec give identical metrics.
    spec = AlgorithmSpec(
        "IM-U", lambda scenario, estimator, seed: make_im_u(scenario, estimator=estimator)
    )
    first = runner.run_spec(spec)
    second = runner.run_spec(spec)
    assert first.get("expected_benefit") == pytest.approx(
        second.get("expected_benefit")
    )


def test_runner_owns_its_pool_and_closes_it(tiny_config):
    """workers>1 with no injected pool: the runner creates, shares, closes."""
    import multiprocessing

    baseline = len(multiprocessing.active_children())
    parallel = tiny_config.replace(estimator=EstimatorSpec(workers=2, shard_size=10))
    with ExperimentRunner(toy_scenario(), parallel) as runner:
        assert runner.pool is not None and not runner.pool.closed
        spec = AlgorithmSpec(
            "IM-U",
            lambda scenario, estimator, seed: make_im_u(
                scenario, estimator=estimator
            ),
        )
        parallel_record = runner.run_spec(spec)
    assert runner.pool.closed
    assert len(multiprocessing.active_children()) == baseline

    with ExperimentRunner(toy_scenario(), tiny_config) as serial_runner:
        assert serial_runner.pool is None
        serial_record = serial_runner.run_spec(spec)
    assert parallel_record.get("expected_benefit") == (
        serial_record.get("expected_benefit")
    )


def test_runner_never_closes_an_injected_pool(tiny_config):
    from repro.diffusion.parallel import SharedShardPool

    with SharedShardPool(2) as pool:
        with ExperimentRunner(
            toy_scenario(),
            tiny_config.replace(estimator=EstimatorSpec(workers=2, shard_size=10)),
            pool=pool,
        ) as runner:
            assert runner.pool is pool
            runner.estimator.expected_benefit(["v1"], {})
        assert not pool.closed  # runner released only its estimator
    assert pool.closed


def test_record_get_default():
    record = RunRecord(algorithm="x", scenario="y", metrics={"a": 1.0})
    assert record.get("a") == 1.0
    assert record.get("missing") == 0.0
    assert record.get("missing", -1.0) == -1.0

"""One :class:`EstimatorSpec`, validated once and honoured on every path.

A non-default spec must reach the estimator each entry point builds — the
experiment runner, the Fig. 9 ``measure_s3ca``, the Fig. 10 optimality
comparison's Monte-Carlo fallback, the ``solve`` and ``events`` commands,
and the campaign server's resident estimator and tiered solves —
and every knob range check lives in the spec alone.
"""

import json
from dataclasses import replace

import pytest

import repro.cli as cli_module
import repro.experiments.approximation as approximation_module
import repro.experiments.scalability as scalability_module
from repro.cli import main
from repro.diffusion.factory import EstimatorSpec, make_estimator
from repro.diffusion.tiered import TieredEstimator
from repro.exceptions import EstimationError
from repro.experiments.approximation import compare_with_optimal
from repro.experiments.config import ExperimentConfig, ServerConfig
from repro.experiments.datasets import toy_scenario
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scalability import measure_s3ca, synthetic_scenario

#: Shard size below every world count used here (the engine caps it there).
SPEC = EstimatorSpec(shard_size=8, use_kernel=False, tier_epsilon=0.25, tier_top_k=7)
SPEC_FLAGS = [
    "--shard-size", "8", "--no-kernel", "--tier-epsilon", "0.25", "--tier-topk", "7",
]
TINY_CLI = ["--scale", "0.08", "--samples", "15", "--candidate-limit", "3",
            "--pivot-limit", "6"]


def _assert_carries(estimator, spec=SPEC, *, tiered=True):
    """The built estimator runs exactly as ``spec`` says."""
    assert isinstance(estimator, TieredEstimator) is tiered
    mc = estimator.mc if tiered else estimator
    assert mc.shard_size == spec.shard_size
    assert mc.kernel_active is False
    assert mc.supports_incremental is spec.incremental
    if tiered:
        assert estimator.tier_epsilon == spec.tier_epsilon
        assert estimator.tier_top_k == spec.tier_top_k


@pytest.fixture
def built(monkeypatch):
    """Every estimator the CLI and ``measure_s3ca`` build, in build order."""
    estimators = []

    def recording(*args, **kwargs):
        estimator = make_estimator(*args, **kwargs)
        estimators.append(estimator)
        return estimator

    for module in (cli_module, scalability_module):
        monkeypatch.setattr(module, "make_estimator", recording)
    return estimators


# ----------------------------------------------------------------------
# validated once
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields",
    [
        {"shard_size": 0},
        {"workers": 0},
        {"workers": -2},
        {"tier_epsilon": 1.5},
        {"tier_epsilon": -0.1},
        {"tier_top_k": 0},
    ],
)
def test_spec_rejects_out_of_range_knobs(fields):
    with pytest.raises(EstimationError):
        EstimatorSpec(**fields)
    # make_estimator's keyword fields go through the same check.
    with pytest.raises(EstimationError):
        make_estimator(toy_scenario(), num_samples=5, seed=1, **fields)


def test_make_estimator_fields_replace_single_spec_fields():
    estimator = make_estimator(
        toy_scenario(), "tiered", num_samples=10, seed=1, spec=SPEC, tier_top_k=9
    )
    _assert_carries(estimator, EstimatorSpec(
        shard_size=8, use_kernel=False, tier_epsilon=0.25, tier_top_k=9,
    ))
    with pytest.raises(TypeError):
        make_estimator(toy_scenario(), num_samples=10, seed=1, tiering=False)


def test_cli_rejects_out_of_range_tier_epsilon(capsys):
    assert main(["solve", "--tier-epsilon", "1.5"]) == 2
    assert "tier_epsilon must be in [0, 1]" in capsys.readouterr().err


# ----------------------------------------------------------------------
# honoured on every path
# ----------------------------------------------------------------------


def test_experiment_runner_builds_from_the_spec():
    config = ExperimentConfig(
        num_samples=10, seed=1, estimator_method="tiered", estimator=SPEC
    )
    with ExperimentRunner(toy_scenario(), config) as runner:
        _assert_carries(runner.estimator)


def test_measure_s3ca_builds_from_the_spec(built):
    config = ExperimentConfig(
        num_samples=10, seed=1, candidate_limit=3, max_pivot_candidates=6,
        estimator_method="tiered", estimator=SPEC,
    )
    measure_s3ca(synthetic_scenario(30, budget=40.0, seed=1), config)
    (estimator,) = built
    _assert_carries(estimator)


def test_compare_with_optimal_fallback_builds_from_the_spec(monkeypatch):
    spec = replace(SPEC, incremental=False)
    built, closed = [], []

    def recording(*args, **kwargs):
        estimator = make_estimator(*args, **kwargs)
        built.append(estimator)
        monkeypatch.setattr(estimator, "close", lambda: closed.append(estimator))
        return estimator

    monkeypatch.setattr(approximation_module, "make_estimator", recording)
    # 35 edges: past the exact estimator's cap, so the Monte-Carlo fallback.
    scenario = synthetic_scenario(12, budget=8.0, seed=3)
    assert scenario.num_edges == 35
    config = ExperimentConfig(
        num_samples=10, seed=1, candidate_limit=3, max_pivot_candidates=6,
        estimator=spec,
    )
    options = {"max_seeds": 1, "max_total_coupons": 2}
    compare_with_optimal(scenario, config=config, **options)
    (estimator,) = built
    _assert_carries(estimator, spec, tiered=False)
    assert closed == [estimator]
    # A caller's estimator is left open.
    compare_with_optimal(scenario, config=config, estimator=estimator, **options)
    assert closed == [estimator]


def test_solve_command_builds_from_the_spec(built, capsys):
    assert main(["solve", *TINY_CLI, "--estimator", "tiered", *SPEC_FLAGS]) == 0
    (estimator,) = built
    _assert_carries(estimator)
    assert "screened" in capsys.readouterr().out


def test_events_command_builds_from_the_spec(built, tmp_path, capsys):
    events = tmp_path / "events.json"
    events.write_text(json.dumps({"events": [{"type": "node_add", "node": "x"}]}))
    assert main([
        "events", *TINY_CLI, *SPEC_FLAGS, "--no-incremental",
        "--events-file", str(events),
    ]) == 0
    (estimator,) = built
    # The reconcile needs the delta engine whatever --no-incremental says;
    # every other knob comes from the spec.
    _assert_carries(estimator, tiered=False)
    assert "dirty_worlds" in capsys.readouterr().out


def test_server_builds_from_the_spec(monkeypatch):
    pytest.importorskip("pydantic", reason="server tests need the 'server' extra")
    import repro.server.service as service_module
    from repro.server.schemas import RegisterScenarioRequest, SolveRequest
    from repro.server.service import CampaignService

    wrappers = []

    class RecordingTiered(TieredEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            wrappers.append(self)

    monkeypatch.setattr(service_module, "TieredEstimator", RecordingTiered)
    config = ServerConfig(num_samples=10, seed=1, job_workers=1, estimator=SPEC)
    with CampaignService(config) as service:
        info, _ = service.register_scenario(
            RegisterScenarioRequest(dataset="facebook", scale=0.08)
        )
        entry = service.registry.get(info["scenario_id"])
        for request in (
            SolveRequest(candidate_limit=3, pivot_limit=6, tiered=True),
            SolveRequest(candidate_limit=3, pivot_limit=6, tiered=True, tier_topk=9),
        ):
            job = service.enqueue_solve(entry.scenario_id, request)
            assert service.jobs.wait(job.job_id, timeout=120).status == "done"
        estimator, built = entry.ensure_estimator(config)
        assert not built
        _assert_carries(estimator, tiered=False)
        # Tier knobs come from the request, falling back to the config's.
        _assert_carries(wrappers[0])
        assert (wrappers[1].tier_epsilon, wrappers[1].tier_top_k) == (0.25, 9)


def test_server_config_from_env_routes_estimator_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_SERVER_SHARD_SIZE", "16")
    monkeypatch.setenv("REPRO_SERVER_NO_KERNEL", "1")
    monkeypatch.setenv("REPRO_SERVER_WORKERS", "4")
    config = ServerConfig.from_env(workers=2, job_workers=3)
    assert config.estimator == EstimatorSpec(
        workers=2, shard_size=16, use_kernel=False
    )
    assert config.job_workers == 3
    monkeypatch.setenv("REPRO_SERVER_WORKERS", "0")
    with pytest.raises(EstimationError):
        ServerConfig.from_env()

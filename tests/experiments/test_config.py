"""Tests for the experiment configuration dataclasses."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import AlgorithmSpec, ExperimentConfig


def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.dataset == "facebook"
    assert config.num_samples > 0
    assert config.lam == 1.0
    assert config.kappa == 10.0


def test_replace_returns_modified_copy():
    config = ExperimentConfig()
    modified = config.replace(lam=2.0, dataset="douban")
    assert modified.lam == 2.0
    assert modified.dataset == "douban"
    assert config.lam == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale": 0},
        {"num_samples": 0},
        {"lam": 0},
        {"kappa": -1},
        {"candidate_limit": 0},
        {"max_pivot_candidates": -1},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ExperimentError):
        ExperimentConfig(**kwargs)


def test_algorithm_spec_holds_factory():
    spec = AlgorithmSpec("demo", lambda scenario, estimator, seed: None, {"x": 1})
    assert spec.name == "demo"
    assert spec.options == {"x": 1}
    assert callable(spec.factory)

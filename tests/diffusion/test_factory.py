"""Tests for the unified estimator factory and the estimator backends."""

import pytest

from repro.diffusion.exact import ExactEstimator
from repro.diffusion.factory import (
    DEFAULT_ESTIMATOR_METHOD,
    ESTIMATOR_METHODS,
    make_estimator,
)
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.exceptions import EstimationError
from repro.experiments.datasets import toy_scenario
from repro.graph.generators import path_graph, star_graph
from tests.oracles import DictOracle


def unit_benefit(graph):
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    return graph


def test_default_method_is_compiled_monte_carlo():
    assert DEFAULT_ESTIMATOR_METHOD == "mc-compiled"
    estimator = make_estimator(toy_scenario(), num_samples=20, seed=1)
    assert isinstance(estimator, MonteCarloEstimator)


def test_method_dispatch():
    scenario = toy_scenario()
    with pytest.raises(EstimationError):
        make_estimator(scenario, "mc", num_samples=5)
    assert isinstance(make_estimator(scenario, "exact"), ExactEstimator)
    assert isinstance(
        make_estimator(scenario, "rr", num_rr_sets=50, seed=1), RRBenefitEstimator
    )


def test_accepts_bare_graph():
    graph = unit_benefit(star_graph(4))
    estimator = make_estimator(graph, "mc-compiled", num_samples=5, seed=0)
    assert estimator.graph is graph


def test_unknown_method_and_bad_input_rejected():
    with pytest.raises(EstimationError):
        make_estimator(toy_scenario(), "quantum")
    with pytest.raises(EstimationError):
        make_estimator(42)


def test_every_advertised_method_constructs():
    scenario = toy_scenario()
    for method in ESTIMATOR_METHODS:
        estimator = make_estimator(
            scenario, method, num_samples=10, seed=3, num_rr_sets=40
        )
        assert estimator.expected_benefit(
            [next(iter(scenario.graph.nodes()))], {}
        ) >= 0.0


def test_compiled_and_dict_methods_agree_bit_for_bit():
    scenario = toy_scenario()
    compiled = make_estimator(scenario, "mc-compiled", num_samples=40, seed=11)
    reference = DictOracle(scenario.graph, num_samples=40, seed=11)
    nodes = list(scenario.graph.nodes())
    seeds = nodes[:2]
    allocation = {
        node: min(scenario.graph.out_degree(node), 2) for node in nodes[:4]
    }
    assert compiled.activation_probabilities(
        seeds, allocation
    ) == reference.activation_probabilities(seeds, allocation)
    assert compiled.expected_benefit(seeds, allocation) == pytest.approx(
        reference.expected_benefit(seeds, allocation), rel=1e-12
    )


def test_compiled_backend_warms_both_caches_in_one_pass():
    scenario = toy_scenario()
    estimator = make_estimator(scenario, "mc-compiled", num_samples=20, seed=5)
    nodes = list(scenario.graph.nodes())
    estimator.expected_benefit(nodes[:1], {})
    evaluations = estimator.evaluations
    estimator.activation_probabilities(nodes[:1], {})  # cache hit, no new pass
    assert estimator.evaluations == evaluations


def test_rr_estimator_is_sane_on_a_deterministic_path():
    graph = unit_benefit(path_graph(3, probability=1.0))
    estimator = RRBenefitEstimator(graph, num_sets=300, seed=2)
    probabilities = estimator.activation_probabilities([0], {})
    # With every edge certain, the whole path is reached from the seed in the
    # plain-IC regime the RR argument models (allocations are ignored).
    assert probabilities[0] == 1.0
    assert probabilities[1] == 1.0
    assert probabilities[2] == 1.0
    assert estimator.expected_benefit([0], {}) == pytest.approx(3.0)
    assert estimator.activation_probabilities([], {}) == {}

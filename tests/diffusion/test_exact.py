"""Tests for the exact world-enumeration estimator."""

import pytest

from repro.diffusion.exact import ExactEstimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.exceptions import EstimationError
from repro.graph.generators import erdos_renyi_graph, path_graph, star_graph
from repro.graph.social_graph import SocialGraph


def unit(graph):
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    return graph


def test_single_edge_expected_benefit():
    graph = unit(path_graph(2, probability=0.3))
    estimator = ExactEstimator(graph)
    # Seed 0 is always active; node 1 activates with probability 0.3.
    assert estimator.expected_benefit([0], {0: 1}) == pytest.approx(1.3)


def test_two_hop_chain():
    graph = unit(path_graph(3, probability=0.5))
    estimator = ExactEstimator(graph)
    # 1 + 0.5 + 0.25
    assert estimator.expected_benefit([0], {0: 1, 1: 1}) == pytest.approx(1.75)


def test_coupon_constraint_with_ranked_neighbors():
    """The Example-1 structure: one coupon over two neighbours (0.6, 0.4)."""
    graph = SocialGraph()
    graph.add_edge("v1", "v2", 0.6)
    graph.add_edge("v1", "v3", 0.4)
    unit(graph)
    estimator = ExactEstimator(graph)
    # One coupon: v2 with 0.6, else v3 with 0.4 -> 1 + 0.6 + 0.4*0.4 = 1.76
    assert estimator.expected_benefit(["v1"], {"v1": 1}) == pytest.approx(1.76)
    # Two coupons: 1 + 0.6 + 0.4 = 2.0
    assert estimator.expected_benefit(["v1"], {"v1": 2}) == pytest.approx(2.0)


def test_activation_probabilities_match_hand_calculation():
    graph = unit(star_graph(2, probability=0.5))
    estimator = ExactEstimator(graph)
    probabilities = estimator.activation_probabilities([0], {0: 1})
    assert probabilities[0] == pytest.approx(1.0)
    # Leaf 1 (ranked first by id) activates with 0.5; leaf 2 only if leaf 1's
    # edge is dead: 0.5 * 0.5.
    assert probabilities[1] == pytest.approx(0.5)
    assert probabilities[2] == pytest.approx(0.25)


def test_benefit_weighted_by_node_benefit():
    graph = path_graph(2, probability=0.5)
    graph.add_node(0, benefit=2.0, sc_cost=1.0)
    graph.add_node(1, benefit=10.0, sc_cost=1.0)
    estimator = ExactEstimator(graph)
    assert estimator.expected_benefit([0], {0: 1}) == pytest.approx(7.0)


def test_too_many_edges_rejected():
    graph = unit(erdos_renyi_graph(15, 0.4, seed=1))
    assert graph.num_edges > 20
    with pytest.raises(EstimationError):
        ExactEstimator(graph, max_edges=20)


def test_caching_gives_identical_values():
    graph = unit(star_graph(3, probability=0.5))
    estimator = ExactEstimator(graph)
    first = estimator.expected_benefit([0], {0: 2})
    second = estimator.expected_benefit([0], {0: 2})
    assert first == second


def test_seed_order_does_not_change_the_benefit():
    """Seeds cascade in the compiled engine's canonical order, whatever the caller's.

    Seeds 0 and 1 hold one coupon each and share the sure neighbour 3; the
    seed dequeued second skips 3, so only seed 1 dequeued after seed 0 can
    pass its coupon on to node 2, the one node with a benefit.
    """
    graph = SocialGraph()
    graph.add_edge(0, 3, 1.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(1, 2, 0.5)
    for node in range(4):
        graph.add_node(node, benefit=float(node == 2), sc_cost=1.0, seed_cost=1.0)
    allocation = {0: 1, 1: 1}
    for seeds in ([0, 1], [1, 0]):
        estimator = ExactEstimator(graph)
        assert estimator.expected_benefit(seeds, allocation) == pytest.approx(0.5)
        assert estimator.activation_probabilities(seeds, allocation)[2] == (
            pytest.approx(0.5)
        )
    monte_carlo = MonteCarloEstimator(graph, num_samples=2000, seed=1)
    assert monte_carlo.expected_benefit([1, 0], allocation) == pytest.approx(
        0.5, abs=0.05
    )


def test_no_seeds_no_benefit():
    graph = unit(path_graph(3, probability=0.5))
    estimator = ExactEstimator(graph)
    assert estimator.expected_benefit([], {}) == 0.0

"""Shared fixtures for the test suite.

The fixtures centre on small, hand-analysable graphs:

* ``example1_graph`` reproduces the instance of the paper's Example 1 (Fig. 3):
  a cheap seed ``v1`` with two ranked friends, each with two friends of their
  own, unit benefits and SC costs.  Its marginal-redemption numbers are worked
  out in the paper, so tests can pin our implementation to them exactly.
* ``two_hop_path`` / ``small_star`` are minimal topologies for cascade and
  cost-model unit tests.
* ``toy`` is the packaged 8-node quickstart scenario.
* ``scm_scenario`` is a small, coupon-heavy synthetic instance on which the
  SC-maneuver phase really moves coupons (with estimator seed 5).
"""

from __future__ import annotations

import pytest

from repro.economics.scenario import Scenario
from repro.experiments.datasets import toy_scenario
from repro.experiments.scalability import synthetic_scenario
from repro.graph.social_graph import SocialGraph


@pytest.fixture
def example1_graph() -> SocialGraph:
    """The Example 1 instance (Fig. 3 of the paper).

    ``v1`` is the only affordable seed (seed cost ~0); every user has benefit
    and SC cost 1.  ``v1``'s friends are ``v2`` (probability 0.6) and ``v3``
    (0.4); ``v2``'s friends are ``v4`` (0.5) and ``v5`` (0.4); ``v3``'s are
    ``v6`` (0.8) and ``v7`` (0.7).
    """
    graph = SocialGraph()
    edges = [
        ("v1", "v2", 0.6),
        ("v1", "v3", 0.4),
        ("v2", "v4", 0.5),
        ("v2", "v5", 0.4),
        ("v3", "v6", 0.8),
        ("v3", "v7", 0.7),
    ]
    for source, target, probability in edges:
        graph.add_edge(source, target, probability)
    for node in graph.nodes():
        graph.add_node(
            node,
            benefit=1.0,
            sc_cost=1.0,
            seed_cost=0.01 if node == "v1" else 1000.0,
        )
    return graph


@pytest.fixture
def example1_scenario(example1_graph) -> Scenario:
    """Example 1 wrapped in a scenario with a budget that fits a few coupons."""
    return Scenario(graph=example1_graph, budget_limit=3.0, name="example1")


@pytest.fixture
def two_hop_path() -> SocialGraph:
    """``a -> b -> c`` with probabilities 0.5 and 0.8, unit economics."""
    graph = SocialGraph()
    graph.add_edge("a", "b", 0.5)
    graph.add_edge("b", "c", 0.8)
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    return graph


@pytest.fixture
def small_star() -> SocialGraph:
    """A centre with three leaves at probabilities 0.9 / 0.5 / 0.1."""
    graph = SocialGraph()
    graph.add_edge("hub", "x", 0.9)
    graph.add_edge("hub", "y", 0.5)
    graph.add_edge("hub", "z", 0.1)
    for node in graph.nodes():
        graph.add_node(node, benefit=2.0, seed_cost=3.0, sc_cost=1.0)
    return graph


@pytest.fixture
def toy() -> Scenario:
    """The packaged quickstart scenario."""
    return toy_scenario()


@pytest.fixture(scope="module")
def scm_scenario() -> Scenario:
    """Small, coupon-heavy instance in which SCM really moves coupons."""
    return synthetic_scenario(50, budget=200.0, seed=5)

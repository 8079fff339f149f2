"""Property-based tests for SCAllocation and Deployment invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.allocation import SCAllocation
from repro.core.deployment import Deployment
from repro.graph.generators import star_graph


allocation_entries = st.dictionaries(
    keys=st.text(alphabet="abcdef", min_size=1, max_size=2),
    values=st.integers(min_value=0, max_value=10),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(allocation_entries)
def test_total_coupons_matches_sum_of_positive_entries(entries):
    allocation = SCAllocation(entries)
    assert allocation.total_coupons == sum(v for v in entries.values() if v > 0)
    assert all(count > 0 for _, count in allocation.items())


@settings(max_examples=60, deadline=None)
@given(allocation_entries, st.text(alphabet="abcdef", min_size=1, max_size=2))
def test_increment_then_decrement_is_identity(entries, node):
    allocation = SCAllocation(entries)
    before = allocation.as_dict()
    allocation.increment(node, 2)
    allocation.decrement(node, 2)
    assert allocation.as_dict() == before


@settings(max_examples=60, deadline=None)
@given(allocation_entries, allocation_entries)
def test_merged_with_is_pointwise_maximum(first, second):
    merged = SCAllocation(first).merged_with(SCAllocation(second).as_dict())
    keys = set(first) | set(second)
    for key in keys:
        expected = max(first.get(key, 0), second.get(key, 0))
        assert merged.get(key) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
def test_deployment_costs_are_non_negative_and_additive(leaves, coupons):
    graph = star_graph(leaves, probability=0.5)
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, seed_cost=2.0, sc_cost=1.0)
    coupons = min(coupons, leaves)
    deployment = Deployment(graph, seeds=[0], allocation={0: coupons} if coupons else {})
    assert deployment.seed_cost() == 2.0
    assert deployment.sc_cost() >= 0.0
    assert deployment.total_cost() == deployment.seed_cost() + deployment.sc_cost()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_deployment_variants_do_not_mutate_base(leaves):
    graph = star_graph(leaves, probability=0.5)
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, seed_cost=2.0, sc_cost=1.0)
    base = Deployment(graph, seeds=[0])
    seeds, allocation = set(base.seeds), base.allocation.as_dict()
    base.with_extra_coupon(0)
    base.with_seed(1)
    assert base.seeds == seeds
    assert base.allocation.as_dict() == allocation

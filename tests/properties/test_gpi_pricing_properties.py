"""Property: GPI priced from the solve's SC-cost table ≡ GPI priced from scratch.

:func:`~repro.core.guaranteed_paths.identify_guaranteed_paths` prices every
visit through :meth:`Deployment.sc_cost_of`, the ``(node, k)`` table the ID
phase filled, and sums each path's benefit from a list of the visited users'
benefits.  The reference in :mod:`tests.oracles` re-runs the uncached
SC-cost recurrence for every holder at every visit and re-sums the visited
users' benefits.  Both must return the same paths in the same order, every
float equal by ``.hex()``, on PPGG-like graphs with hubs, budgets from tight
up to two per node, and with or without the traversal caps.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.guaranteed_paths import identify_guaranteed_paths
from repro.core.investment import InvestmentDeployment
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.experiments.scalability import synthetic_scenario

from tests.oracles import reference_guaranteed_paths

ID_WORLDS = 8


def path_fields(path):
    """Every field of a path, floats as hex and the allocation in order."""
    return (
        path.seed,
        path.terminal,
        path.nodes,
        tuple(path.allocation.items()),
        path.guaranteed_cost.hex(),
        float(path.expected_benefit).hex(),
        path.parent,
        path.depth,
    )


@st.composite
def gpi_instance(draw):
    """A PPGG-like scenario and a deployment from a short ID run on it."""
    num_nodes = draw(st.integers(min_value=30, max_value=150))
    exponent = draw(st.floats(min_value=1.7, max_value=3.0))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    # Tight (a quarter per node, the benchmark's regime) up to two per node.
    budget_per_node = draw(st.floats(min_value=0.25, max_value=2.0))
    scenario = synthetic_scenario(
        num_nodes,
        budget=budget_per_node * num_nodes,
        power_law_exponent=exponent,
        seed=graph_seed,
    )
    estimator = MonteCarloEstimator(
        scenario.graph, num_samples=ID_WORLDS, seed=graph_seed
    )
    id_result = InvestmentDeployment(
        scenario, estimator, candidate_limit=4, max_pivot_candidates=12
    ).run()
    deployment = draw(st.sampled_from(id_result.snapshots))
    if draw(st.booleans()):
        # Seed the largest hub too, so GPI prices its O(degree²) recurrence.
        graph = scenario.graph
        hub = max(graph.nodes(), key=lambda node: (graph.out_degree(node), str(node)))
        deployment = deployment.with_seed(hub)
    return scenario, deployment


@settings(max_examples=30, deadline=None)
@given(
    gpi_instance(),
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_table_priced_gpi_matches_reference(instance, max_paths, max_depth):
    scenario, deployment = instance
    kwargs = dict(max_paths_per_seed=max_paths, max_depth=max_depth)
    expected = reference_guaranteed_paths(
        scenario.graph, deployment, scenario.budget_limit, **kwargs
    )
    actual = identify_guaranteed_paths(
        scenario.graph, deployment, scenario.budget_limit, **kwargs
    )
    assert [path_fields(path) for path in actual] == [
        path_fields(path) for path in expected
    ]
    assert list(actual.paths_by_terminal) == list(expected.paths_by_terminal)

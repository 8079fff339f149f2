"""Parity suite: zero-copy shared-memory transport vs private copies.

The shared-memory store only changes *where bytes live* — the compiled
graph's CSR arrays move into one mapped segment, world blocks are published
once machine-wide — so every estimate must be bit-identical to the private
copy path for any graph, deployment, shard size, worker count and kernel
setting.  Hypothesis drives random instances through the engine across
{shared on, off} × {kernel on, off} × shard sizes; the pool and full-S3CA
legs pin the multiprocess and end-to-end deployments.
"""

import gc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.s3ca import S3CA
from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.factory import make_estimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.experiments.scalability import synthetic_scenario
from repro.graph.social_graph import SocialGraph
from repro.utils import shm

NUM_SAMPLES = 20

KERNEL_SETTINGS = (
    (False, True) if kernels.load_kernel() is not None else (False,)
)

requires_shm = pytest.mark.skipif(
    not shm.shared_memory_available(),
    reason="POSIX shared memory is unavailable on this platform",
)


@st.composite
def instance(draw):
    """Random attributed graph plus a random deployment."""
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    nodes = list(range(num_nodes))
    graph = SocialGraph()
    for node in nodes:
        graph.add_node(
            node,
            benefit=draw(st.floats(min_value=0.0, max_value=5.0)),
            sc_cost=1.0,
            seed_cost=1.0,
        )
    possible = [(u, v) for u in nodes for v in nodes if u != v]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), max_size=min(24, len(possible)), unique=True
        )
    )
    for source, target in chosen:
        graph.add_edge(source, target, draw(st.floats(min_value=0.0, max_value=1.0)))
    seeds = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    allocation = {}
    for node in nodes:
        degree = graph.out_degree(node)
        if degree:
            allocation[node] = draw(st.integers(min_value=0, max_value=degree))
    return graph, seeds, allocation


@requires_shm
@settings(max_examples=8, deadline=None)
@given(instance(), st.integers(min_value=0, max_value=2**31 - 1))
@pytest.mark.parametrize("shard_size", [1, 7, NUM_SAMPLES])
def test_shared_memory_engine_matches_private_copies(shard_size, data, seed):
    graph, seeds, allocation = data
    compiled = graph.compiled()
    reference = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size,
        shared_memory=False, use_kernel=False,
    )
    counts_ref, benefit_ref = reference.run(seeds, allocation)
    for use_kernel in KERNEL_SETTINGS:
        engine = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size,
            shared_memory=True, use_kernel=use_kernel,
        )
        assert engine.shared_memory
        counts, benefit = engine.run(seeds, allocation)
        assert np.array_equal(counts, counts_ref)
        assert benefit == benefit_ref
        engine.close()
        del engine
    gc.collect()


@requires_shm
@pytest.mark.parametrize("use_kernel", KERNEL_SETTINGS)
def test_pool_parity_shared_vs_private_transport(two_hop_path, use_kernel):
    """workers=2 × {shm on, off} × kernel setting == the serial reference."""
    graph = two_hop_path
    deployments = [
        (["a"], {"a": 1}),
        (["a"], {"a": 1, "b": 1}),
        (["a", "b"], {"a": 1}),
    ]
    serial = MonteCarloEstimator(graph, num_samples=40, seed=9, shared_memory=False)
    with MonteCarloEstimator(
        graph, num_samples=40, seed=9, shard_size=8, workers=2,
        shared_memory=True, use_kernel=use_kernel,
    ) as shared_pool, MonteCarloEstimator(
        graph, num_samples=40, seed=9, shard_size=8, workers=2,
        shared_memory=False, use_kernel=use_kernel,
    ) as private_pool:
        assert shared_pool.shared_memory_active
        assert not private_pool.shared_memory_active
        for seeds, allocation in deployments:
            expected = serial.expected_benefit(seeds, allocation)
            assert shared_pool.expected_benefit(seeds, allocation) == expected
            assert private_pool.expected_benefit(seeds, allocation) == expected
            assert shared_pool.activation_probabilities(seeds, allocation) == (
                serial.activation_probabilities(seeds, allocation)
            )
    gc.collect()


@requires_shm
def test_full_s3ca_deployment_identical_with_and_without_shared_memory():
    scenario = synthetic_scenario(50, budget=45.0, seed=2019)
    solved = {}
    for shared_memory in (True, False):
        algorithm = S3CA(
            scenario,
            estimator=make_estimator(
                scenario, num_samples=NUM_SAMPLES, seed=2019,
                shared_memory=shared_memory,
            ),
            candidate_limit=8, max_pivot_candidates=12,
        )
        assert algorithm.estimator.shared_memory_active is shared_memory
        result = algorithm.solve()
        algorithm.estimator.close()
        solved[shared_memory] = (
            result.seeds,
            result.allocation,
            result.expected_benefit,
            result.redemption_rate,
            result.num_maneuvers,
        )
        del algorithm
    gc.collect()
    assert solved[True] == solved[False]


@requires_shm
def test_delta_splice_paths_identical_on_shared_transport():
    """Snapshot/splice advances read shared blocks bit-identically."""
    scenario = synthetic_scenario(30, budget=60.0, seed=5)
    graph = scenario.graph
    nodes = sorted(graph.nodes(), key=str)
    seeds = nodes[:2]
    base_allocation = {node: 1 for node in nodes[:6] if graph.out_degree(node)}
    candidates = [node for node in nodes if graph.out_degree(node)][:4]
    traces = {}
    for shared_memory in (True, False):
        estimator = MonteCarloEstimator(
            graph, num_samples=NUM_SAMPLES, seed=11,
            shard_size=7, shared_memory=shared_memory,
        )
        trace = [estimator.snapshot_base(seeds, base_allocation)]
        allocation = dict(base_allocation)
        for node in candidates:
            new_allocation = dict(allocation)
            new_allocation[node] = new_allocation.get(node, 0) + 1
            outcome = estimator.delta_extra_coupon(
                seeds, allocation, node, seeds, new_allocation
            )
            trace.append(outcome.benefit)
            trace.append(estimator.advance_base(outcome, node, seeds, new_allocation))
            allocation = new_allocation
        traces[shared_memory] = (trace, estimator.delta_snapshot_passes)
        estimator.close()
        del estimator
    gc.collect()
    assert traces[True] == traces[False]

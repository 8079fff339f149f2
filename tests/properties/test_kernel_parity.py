"""Parity suite: the native cascade kernel vs the interpreted oracle.

The native kernel (:mod:`repro.diffusion.kernels`) promises *bit-identity*
with the interpreted cascade loops in :mod:`repro.diffusion.engine` — same
activation queues, same counts, same coupon-limited flags, same benefits —
for any graph, deployment, shard size and worker count.  These tests pin
that contract at every level the kernel dispatches through:

* the engine's ``run`` and batched instrumented cascades (hypothesis,
  across shard sizes, drawn world-index lists and outgrown output buffers);
* the multiprocess shard executor (kernel-tagged worker tasks);
* the delta engine's snapshot/splice paths, including a full ``S3CA.run()``
  deployment-identity check with ``snapshot_passes == 1`` still holding;
* graceful degradation: with the native kernel monkeypatched away the
  engine warns (when the kernel was requested explicitly), falls back to
  the interpreted loop, and still produces identical results.
"""

import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.s3ca import S3CA
from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.factory import make_estimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.experiments.scalability import synthetic_scenario
from repro.graph.social_graph import SocialGraph

NUM_SAMPLES = 25

requires_native = pytest.mark.skipif(
    kernels.load_kernel() is None,
    reason="no native kernel backend resolves in this environment",
)


@st.composite
def instance(draw):
    """Random attributed graph plus a random deployment."""
    num_nodes = draw(st.integers(min_value=2, max_value=12))
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
            st.sampled_from(possible), max_size=min(30, len(possible)), unique=True
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


def _engine_pair(graph, seed, shard_size):
    compiled = graph.compiled()
    kernel_engine = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size, use_kernel=True
    )
    oracle_engine = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size, use_kernel=False
    )
    assert not oracle_engine.kernel_active
    return kernel_engine, oracle_engine


@requires_native
@settings(max_examples=10, deadline=None)
@given(
    instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.integers(min_value=0, max_value=NUM_SAMPLES - 1),
        max_size=3 * NUM_SAMPLES,
    ),
)
@pytest.mark.parametrize("shard_size", [1, 7, NUM_SAMPLES])
def test_kernel_run_and_instrumented_match_oracle(shard_size, data, seed, worlds):
    graph, seeds, allocation = data
    kernel_engine, oracle_engine = _engine_pair(graph, seed, shard_size)
    assert kernel_engine.kernel_active

    counts_k, benefit_k = kernel_engine.run(seeds, allocation)
    counts_o, benefit_o = oracle_engine.run(seeds, allocation)
    assert (counts_k == counts_o).all()
    assert benefit_k == benefit_o

    compiled = kernel_engine.compiled
    seed_indices = compiled.indices_of(sorted(seeds, key=str))
    dense = [0] * compiled.num_nodes
    for node, count in allocation.items():
        dense[compiled.index[node]] = count

    def oracle(world_indices):
        return [
            next(oracle_engine.cascade_worlds_instrumented(
                (world_index,), seed_indices, dense
            ))
            for world_index in world_indices
        ]

    # A fresh engine's output buffers hold num_nodes entries, one world's
    # worth.  Every world of a run writes at least its seeds, so the first
    # pass below outgrows them whenever a run spans more than num_nodes
    # worlds: its kernel call stops early, the engine grows the buffers and
    # a second call resumes the run.
    capacity = kernel_engine._scratch.queue.shape[0]
    assert capacity == compiled.num_nodes
    # Every world in order, then a drawn index list (any order, repeats,
    # across shards) and no world at all.
    for world_indices in (range(NUM_SAMPLES), worlds, []):
        batched = kernel_engine.cascade_worlds_instrumented(
            world_indices, seed_indices, dense
        )
        assert list(batched) == oracle(world_indices)
        if shard_size > compiled.num_nodes:
            assert kernel_engine._scratch.queue.shape[0] > capacity


@requires_native
def test_kernel_parity_on_worker_pool(two_hop_path):
    """Kernel-tagged worker tasks == interpreted workers == serial oracle."""
    graph = two_hop_path
    deployments = [
        (["a"], {"a": 1}),
        (["a"], {"a": 1, "b": 1}),
        (["a", "b"], {"a": 1}),
    ]
    serial = MonteCarloEstimator(
        graph, num_samples=50, seed=9, use_kernel=False
    )
    with MonteCarloEstimator(
        graph, num_samples=50, seed=9, shard_size=10, workers=2, use_kernel=True
    ) as kernel_pool, MonteCarloEstimator(
        graph, num_samples=50, seed=9, shard_size=10, workers=2, use_kernel=False
    ) as oracle_pool:
        for seeds, allocation in deployments:
            expected = serial.expected_benefit(seeds, allocation)
            assert kernel_pool.expected_benefit(seeds, allocation) == expected
            assert oracle_pool.expected_benefit(seeds, allocation) == expected
            assert kernel_pool.activation_probabilities(seeds, allocation) == (
                serial.activation_probabilities(seeds, allocation)
            )


@requires_native
@pytest.mark.parametrize("shard_size", [7, None])
def test_delta_snapshot_and_splice_paths_match_oracle(shard_size):
    """The delta engine's snapshot, eval and splice advance on the kernel
    produce exactly the interpreted engine's benefits and memoised bases."""
    scenario = synthetic_scenario(40, budget=80.0, seed=5)
    graph = scenario.graph
    nodes = sorted(graph.nodes(), key=str)
    seeds = nodes[:2]
    base_allocation = {
        node: 1 for node in nodes[:8] if graph.out_degree(node)
    }
    candidates = [node for node in nodes if graph.out_degree(node)][:6]

    results = {}
    for use_kernel in (True, False):
        estimator = MonteCarloEstimator(
            graph, num_samples=NUM_SAMPLES, seed=11,
            shard_size=shard_size, use_kernel=use_kernel,
        )
        assert estimator.kernel_active is use_kernel
        trace = [estimator.snapshot_base(seeds, base_allocation)]
        allocation = dict(base_allocation)
        for node in candidates:
            new_allocation = dict(allocation)
            new_allocation[node] = new_allocation.get(node, 0) + 1
            outcome = estimator.delta_extra_coupon(
                seeds, allocation, node, seeds, new_allocation
            )
            trace.append(outcome.benefit)
            # Splice-advance onto the evaluated deployment, as the greedy
            # accept path does.
            trace.append(
                estimator.advance_base(outcome, node, seeds, new_allocation)
            )
            allocation = new_allocation
        # One pivot add through the seed-accept splice path.
        pivot = next(node for node in nodes if node not in seeds)
        trace.append(
            estimator.advance_base_new_seed(
                pivot, seeds + [pivot], allocation
            )
        )
        results[use_kernel] = (
            trace, estimator.delta_snapshot_passes, estimator.delta_spliced_advances
        )
    assert results[True] == results[False]
    assert results[True][1] == 1  # advances spliced, never re-snapshotted


@requires_native
def test_full_s3ca_deployment_identical_with_and_without_kernel():
    scenario = synthetic_scenario(60, budget=50.0, seed=2019)
    solved = {}
    for use_kernel in (True, False):
        algorithm = S3CA(
            scenario,
            estimator=make_estimator(
                scenario, num_samples=NUM_SAMPLES, seed=2019, use_kernel=use_kernel
            ),
            candidate_limit=8, max_pivot_candidates=15,
        )
        assert algorithm.estimator.kernel_active is use_kernel
        result = algorithm.solve()
        assert algorithm.estimator.delta_snapshot_passes == 1
        solved[use_kernel] = (
            result.seeds,
            result.allocation,
            result.expected_benefit,
            result.redemption_rate,
            result.num_maneuvers,
        )
    assert solved[True] == solved[False]


# ----------------------------------------------------------------------
# graceful degradation with no native backend
# ----------------------------------------------------------------------


@pytest.fixture
def no_native_backend(monkeypatch):
    """Make the native kernel unresolvable, as if no C compiler existed;
    restores the real resolution afterwards."""
    monkeypatch.setattr(kernels, "_build_cc_library", lambda: (None, 0.0))
    kernels.reset_kernel_cache()
    yield
    kernels.reset_kernel_cache()


def test_engine_falls_back_with_warning_when_no_backend(no_native_backend, two_hop_path):
    compiled = two_hop_path.compiled()
    with pytest.warns(UserWarning, match="falling back to the interpreted"):
        engine = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=3, use_kernel=True
        )
    assert not engine.kernel_active
    assert engine.kernel_backend is None
    oracle = CompiledCascadeEngine(compiled, NUM_SAMPLES, seed=3, use_kernel=False)
    counts_f, benefit_f = engine.run(["a"], {"a": 1, "b": 1})
    counts_o, benefit_o = oracle.run(["a"], {"a": 1, "b": 1})
    assert (counts_f == counts_o).all()
    assert benefit_f == benefit_o


def test_auto_mode_falls_back_silently_when_no_backend(no_native_backend, two_hop_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = CompiledCascadeEngine(
            two_hop_path.compiled(), NUM_SAMPLES, seed=3
        )
    assert not engine.kernel_active
    assert engine.kernel_compile_seconds == 0.0


def test_disable_env_forces_interpreted_path(monkeypatch, two_hop_path):
    monkeypatch.setenv(kernels.DISABLE_ENV, "1")
    kernels.reset_kernel_cache()
    try:
        assert kernels.native_disabled()
        assert kernels.load_kernel() is None
        engine = CompiledCascadeEngine(two_hop_path.compiled(), NUM_SAMPLES, seed=3)
        assert not engine.kernel_active
    finally:
        monkeypatch.delenv(kernels.DISABLE_ENV)
        kernels.reset_kernel_cache()

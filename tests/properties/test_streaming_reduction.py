"""Property tests: the streaming reduction never depends on completion order.

The :class:`~repro.diffusion.parallel.ShardExecutor` folds per-block
activation counts in block order, buffering blocks that complete early.  To
exercise *arbitrary* completion orders deterministically — a real pool mostly
completes nearly in order — these tests inject an in-process fake pool
that evaluates every task through the exact same
:func:`~repro.diffusion.parallel.evaluate_block_in_state` routine the real
workers run, then yields the results in a seeded random order.  Whatever the
shuffle, the shard size or the pipelining pattern, every estimate must equal
the serial engine's bit for bit.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

import numpy as np

from repro.diffusion import parallel
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.parallel import ShardExecutor
from repro.graph.social_graph import SocialGraph

NUM_WORLDS = 24


class ShufflingFakePool:
    """Duck-typed SharedShardPool executing in-process, results shuffled.

    Implements the exact surface :class:`ShardExecutor` needs —
    ``workers`` / ``closed`` / ``register`` / ``release`` /
    ``imap_unordered`` / ``close`` — so it can be injected anywhere a real
    pool can.
    """

    def __init__(self, order_seed: int, workers: int = 2) -> None:
        self.workers = workers
        self.closed = False
        self._states = {}
        self._next_token = 0
        self._rng = random.Random(order_seed)

    def register(self, sampler) -> int:
        token = self._next_token
        self._next_token += 1
        self._states[token] = parallel._WorkerState(sampler)
        return token

    def release(self, token) -> None:
        self._states.pop(token, None)

    def imap_unordered(self, tasks):
        results = [
            parallel.evaluate_block_in_state(self._states[task[0]], task)
            for task in tasks
        ]
        self._rng.shuffle(results)
        return iter(results)

    def close(self) -> None:
        self.closed = True


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
            st.sampled_from(possible), max_size=min(20, len(possible)), unique=True
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


@settings(max_examples=12, deadline=None)
@given(
    instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=NUM_WORLDS + 3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_streaming_reduction_matches_serial_for_any_completion_order(
    data, seed, shard_size, order_seed
):
    graph, seeds, allocation = data
    serial = MonteCarloEstimator(graph, num_samples=NUM_WORLDS, seed=seed)
    fake = ShufflingFakePool(order_seed)
    streaming = MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=seed,
        shard_size=shard_size, pool=fake,
    )
    assert streaming.workers == fake.workers  # pool width wins
    assert streaming.expected_benefit(seeds, allocation) == (
        serial.expected_benefit(seeds, allocation)
    )
    assert streaming.activation_probabilities(seeds, allocation) == (
        serial.activation_probabilities(seeds, allocation)
    )


@settings(max_examples=8, deadline=None)
@given(
    instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pipelined_batch_matches_sequential_estimates(data, seed, order_seed):
    """submit_many (several pending evaluations) == one-by-one calls."""
    graph, seeds, allocation = data
    nodes = list(graph.nodes())
    deployments = [(seeds, allocation)]
    for node in nodes[:4]:
        extra = dict(allocation)
        extra[node] = extra.get(node, 0) + 1
        deployments.append((seeds, extra))
    deployments.append((seeds, allocation))  # duplicate inside the batch

    serial = MonteCarloEstimator(graph, num_samples=NUM_WORLDS, seed=seed)
    expected = [
        serial.expected_benefit(seeds_, alloc_) for seeds_, alloc_ in deployments
    ]

    fake = ShufflingFakePool(order_seed)
    streaming = MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=seed, shard_size=7, pool=fake,
    )
    assert streaming.submit_many(deployments) == expected
    # and the memo now serves the same numbers one by one
    assert [
        streaming.expected_benefit(seeds_, alloc_)
        for seeds_, alloc_ in deployments
    ] == expected


def test_out_of_order_blocks_fold_in_block_order(two_hop_path):
    """Directly exercise the executor: reversed completion, correct fold."""
    engine = CompiledCascadeEngine(two_hop_path.compiled(), 12, seed=3, shard_size=3)
    serial_counts, _ = engine.run(["a"], {"a": 1, "b": 1})

    class ReversingPool(ShufflingFakePool):
        def imap_unordered(self, tasks):
            results = [
                parallel.evaluate_block_in_state(self._states[task[0]], task)
                for task in tasks
            ]
            return iter(list(reversed(results)))

    pool = ReversingPool(order_seed=0)
    executor = ShardExecutor(engine.sampler, bounds=engine.bounds, pool=pool)
    seed_indices = engine.compiled.indices_of(["a"])
    coupon_items = [
        (engine.compiled.index["a"], 1), (engine.compiled.index["b"], 1)
    ]
    pending = executor.submit(seed_indices, coupon_items)
    np.testing.assert_array_equal(pending.result(), serial_counts)
    assert pending.done
    assert executor.completed == 1

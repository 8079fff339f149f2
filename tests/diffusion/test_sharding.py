"""Parity suite: sharded world sampling vs the monolithic resident path.

The sharding layer's whole contract is *bit-identity*: for any ``shard_size``
the engine must produce exactly the worlds — and therefore exactly the
activation counts and expected benefits — of the monolithic path, because
every shard block is regenerated from the same frozen RNG state at the same
stream offset.  These tests pin that contract at every level: the sampler,
the engine's world accessor and ``run``, the estimator (benefit and
probability caches), and the delta-evaluation snapshot path.
"""

import numpy as np
import pytest

from repro.diffusion.engine import (
    _ADVANCE_SKIPS_DRAWS,
    CompiledCascadeEngine,
    WorldSampler,
    _skipper,
)
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.exceptions import EstimationError
from repro.graph.generators import ppgg_like_graph

NUM_SAMPLES = 40
SHARD_SIZES = [1, 7, NUM_SAMPLES, NUM_SAMPLES + 13]
SEEDS = [11, 2019]
#: Caller-owned generators the sampler must skip through exactly: PCG64
#: skips with advance(), MT19937 has no advance(), and Philox's advance()
#: steps a counter of four outputs, not one double.
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


@pytest.fixture(scope="module")
def graph():
    graph = ppgg_like_graph(
        num_nodes=70, avg_out_degree=5.0, power_law_exponent=1.7,
        clustering=0.3, seed=3,
    )
    for position, node in enumerate(graph.nodes()):
        graph.add_node(
            node, benefit=1.0 + (position % 5), seed_cost=1.0, sc_cost=1.0
        )
    return graph


@pytest.fixture(scope="module")
def deployment(graph):
    nodes = list(graph.nodes())
    seeds = nodes[:3]
    allocation = {
        node: min(graph.out_degree(node), 2) for node in nodes[:15]
        if graph.out_degree(node)
    }
    return seeds, allocation


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_run_bit_identical_across_shard_sizes(graph, deployment, shard_size, seed):
    seeds, allocation = deployment
    # The int seed, then a fresh caller-owned generator per engine.
    for make_seed in [lambda: seed] + [
        lambda kind=kind: np.random.Generator(kind(seed)) for kind in BIT_GENERATORS
    ]:
        monolithic = CompiledCascadeEngine(
            graph.compiled(), NUM_SAMPLES, seed=make_seed()
        )
        sharded = CompiledCascadeEngine(
            graph.compiled(), NUM_SAMPLES, seed=make_seed(), shard_size=shard_size
        )
        counts_mono, benefit_mono = monolithic.run(seeds, allocation)
        counts_shard, benefit_shard = sharded.run(seeds, allocation)
        assert (counts_mono == counts_shard).all()
        assert benefit_mono == benefit_shard  # same ints, same expression: exact


@pytest.mark.parametrize("shard_size", [1, 7])
def test_world_accessor_matches_resident_worlds(graph, shard_size):
    monolithic = CompiledCascadeEngine(graph.compiled(), NUM_SAMPLES, seed=11)
    sharded = CompiledCascadeEngine(
        graph.compiled(), NUM_SAMPLES, seed=11, shard_size=shard_size
    )
    assert sharded.is_sharded and not monolithic.is_sharded
    # Access out of order on purpose: blocks must regenerate correctly after
    # eviction from the bounded cache.
    for world_index in list(range(NUM_SAMPLES)) + [0, NUM_SAMPLES - 1, 3]:
        assert sharded.world(world_index) == monolithic.world(world_index)


def test_sampler_blocks_agree_with_sequential_draw(graph):
    compiled = graph.compiled()
    sampler = WorldSampler(compiled, seed=7)
    full = sampler.draw_block(0, NUM_SAMPLES)
    for start, count in [(0, 5), (3, 9), (17, 23), (NUM_SAMPLES - 1, 1)]:
        block = sampler.draw_block(start, count)
        assert block.count == count
        for slot in range(count):
            # world_local rebases offsets per world, so views from blocks with
            # different layouts are directly comparable.
            assert block.world_local(slot) == full.world_local(start + slot)


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_estimator_bit_identical_across_shard_sizes(graph, deployment, shard_size):
    seeds, allocation = deployment
    monolithic = MonteCarloEstimator(graph, num_samples=NUM_SAMPLES, seed=11)
    sharded = MonteCarloEstimator(
        graph, num_samples=NUM_SAMPLES, seed=11, shard_size=shard_size
    )
    assert sharded.expected_benefit(seeds, allocation) == (
        monolithic.expected_benefit(seeds, allocation)
    )
    assert sharded.activation_probabilities(seeds, allocation) == (
        monolithic.activation_probabilities(seeds, allocation)
    )


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_delta_snapshot_path_bit_identical_under_sharding(
    graph, deployment, shard_size
):
    """snapshot_base + delta queries match the monolithic delta engine exactly."""
    seeds, allocation = deployment
    nodes = list(graph.nodes())
    monolithic = MonteCarloEstimator(graph, num_samples=NUM_SAMPLES, seed=11)
    sharded = MonteCarloEstimator(
        graph, num_samples=NUM_SAMPLES, seed=11, shard_size=shard_size
    )
    assert sharded.snapshot_base(seeds, allocation) == (
        monolithic.snapshot_base(seeds, allocation)
    )

    # +1 coupon on an allocated node.
    holder = next(iter(allocation))
    raised = dict(allocation)
    raised[holder] += 1
    out_mono = monolithic.delta_extra_coupon(seeds, allocation, holder, seeds, raised)
    out_shard = sharded.delta_extra_coupon(seeds, allocation, holder, seeds, raised)
    assert out_shard.exact and out_mono.exact
    assert out_shard.benefit == out_mono.benefit
    assert out_shard.dirty_worlds == out_mono.dirty_worlds
    assert out_shard.touched == out_mono.touched

    # New seed with a first coupon (exercises the live-out-edge world scan).
    newcomer = next(n for n in nodes[20:] if n not in seeds)
    new_seeds = seeds + [newcomer]
    new_allocation = dict(allocation)
    new_allocation[newcomer] = 1
    out_mono = monolithic.delta_new_seed(
        seeds, allocation, newcomer, new_seeds, new_allocation
    )
    out_shard = sharded.delta_new_seed(
        seeds, allocation, newcomer, new_seeds, new_allocation
    )
    assert out_shard.exact and out_mono.exact
    assert out_shard.benefit == out_mono.benefit
    assert out_shard.dirty_worlds == out_mono.dirty_worlds

    # And both match a from-scratch full pass on the new deployment.
    reference = MonteCarloEstimator(
        graph, num_samples=NUM_SAMPLES, seed=11, incremental=False
    )
    assert out_shard.benefit == reference.expected_benefit(new_seeds, new_allocation)


def test_shard_size_larger_than_worlds_is_monolithic(graph):
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_SAMPLES, seed=11, shard_size=NUM_SAMPLES + 13
    )
    assert not engine.is_sharded
    assert engine.shard_size == NUM_SAMPLES


def test_rejects_bad_shard_size_and_workers(graph):
    with pytest.raises(EstimationError):
        CompiledCascadeEngine(graph.compiled(), 10, seed=1, shard_size=0)
    with pytest.raises(EstimationError):
        CompiledCascadeEngine(graph.compiled(), 10, seed=1, workers=0)


def test_generator_seed_preserves_stream_consumption(graph):
    """A caller-owned generator is advanced exactly as the old path drew it."""
    compiled = graph.compiled()
    for kind in BIT_GENERATORS:
        shared = np.random.Generator(kind(3))
        engine = CompiledCascadeEngine(compiled, 10, seed=shared, shard_size=4)
        reference = np.random.Generator(kind(3))
        for _ in range(10):
            reference.random(compiled.num_edges)
        assert shared.random() == reference.random()
        # And the sharded worlds match the resident worlds of the same stream.
        resident = CompiledCascadeEngine(
            compiled, 10, seed=np.random.Generator(kind(3))
        )
        for world_index in range(10):
            assert engine.world(world_index) == resident.world(world_index)
    # default_rng(3) is Generator(PCG64(3)): an int seed gives the same worlds.
    pcg64 = CompiledCascadeEngine(
        compiled, 10, seed=np.random.Generator(np.random.PCG64(3))
    )
    int_seeded = CompiledCascadeEngine(compiled, 10, seed=3, shard_size=4)
    for world_index in range(10):
        assert int_seeded.world(world_index) == pcg64.world(world_index)


@pytest.mark.parametrize(
    "kind",
    [*BIT_GENERATORS, np.random.PCG64DXSM, np.random.SFC64],
    ids=lambda kind: kind.__name__,
)
def test_skip_draws_equals_drawing(kind):
    """The sampler's skip-ahead moves any stream exactly as random(k) would."""
    skipped = np.random.Generator(kind(5))
    drawn = np.random.Generator(kind(5))
    for generator in (skipped, drawn):
        # A buffered 32-bit half, which advance() would drop.
        generator.integers(0, 2**32, dtype=np.uint32)
    skip = _skipper(skipped)
    for count in (0, 1, 7, 1000):
        skip(count)
        drawn.random(count)
        assert skipped.random() == drawn.random()
    assert skipped.integers(0, 2**32, dtype=np.uint32) == (
        drawn.integers(0, 2**32, dtype=np.uint32)
    )
    # advance(k) is k doubles exactly for the generators the skip uses it on.
    advanced = np.random.Generator(kind(5))
    reference = np.random.Generator(kind(5))
    if kind in _ADVANCE_SKIPS_DRAWS:
        advanced.bit_generator.advance(1000)
        reference.random(1000)
        assert advanced.random() == reference.random()
    elif kind is np.random.Philox:
        advanced.bit_generator.advance(1000)
        reference.random(1000)
        assert advanced.random() != reference.random()

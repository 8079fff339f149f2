"""Parity suite: a resident engine's evolved block vs the fresh draw it replaces.

An event batch on a one-block grid of PCG64 worlds does not draw the block
afresh.  :meth:`~repro.diffusion.engine.WorldSampler.draw_block_private`,
given the pre-batch block, keeps each world's live targets of the rows the
batch copied and scans only the rebuilt rows, and reads the changed edges'
positions, by PCG64 jump-ahead in the kernel's one world draw
(:meth:`~repro.diffusion.kernels.CascadeKernel.draw_worlds`).  The result
must be exactly the fresh draw's: the block of
:meth:`~repro.diffusion.engine.WorldSampler._draw_block_numpy` on the evolved
sampler, and the dirty mask of the rule applied to the draws of
:func:`tests.oracles.stream_draws`.  These tests pin that:

* hypothesis over evolving graphs, on engines seeded with an int and with a
  caller-owned ``Generator(PCG64)`` holding a buffered 32-bit half: after
  each batch, block and mask are the oracles', and the one draw carried the
  old block;
* fixed batches: a hub retire (many rebuilt rows, remapped targets), an
  attribute-only batch (no rebuilt row, mask all false, block unchanged) and
  a drop-then-re-add of one edge in one batch;
* the engines that draw each block afresh: MT19937 streams and sharded
  grids;
* the draw entry's jump-ahead against the stream oracle on three layers
  from a world above 0, with a buffered 32-bit half;
* the draw entry's refusals: of bad layers, windows and probes, and of a
  bad old block, source or remap.
"""

import contextlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine, WorldSampler
from repro.graph.attributes import NodeAttributes
from repro.graph.events import EdgeAdd, EdgeDrop, GraphEventBatch, NodeAdd, NodeRetire
from repro.graph.social_graph import SocialGraph
from tests.oracles import stream_draws
from tests.properties.test_draw_parity import (
    NUM_WORLDS,
    _assert_grid_is_numpy_loops,
    _assert_mask_is_stream_rule,
    _fixed_graph,
    _tie_batch,
    evolving_graph,
)

_KERNEL = kernels.load_kernel()

requires_jump_ahead = pytest.mark.skipif(
    _KERNEL is None or not _KERNEL.pcg64_jump_ahead,
    reason="no native kernel with the PCG64 jump-ahead draw resolves here",
)


@contextlib.contextmanager
def _counting_draws():
    """Record ``(start, count, carried)`` per block drawn while open.

    ``carried`` says whether the draw was given the pre-batch block.
    """
    calls = []
    draw = WorldSampler.draw_block_private

    def counted(self, *args, **kwargs):
        calls.append((*args[:2], kwargs.get("old") is not None))
        return draw(self, *args, **kwargs)

    with mock.patch.object(WorldSampler, "draw_block_private", counted):
        yield calls


def _buffered_generator(seed):
    """A caller-owned PCG64 generator with a buffered 32-bit half."""
    generator = np.random.Generator(np.random.PCG64(seed))
    generator.integers(0, 2**32, dtype=np.uint32)
    assert generator.bit_generator.state["has_uint32"]
    return generator


def _evolve(engine, graph, batch):
    """Apply ``batch``; assert the fresh draw's block and mask; the application."""
    application = graph.apply_events(batch)
    with _counting_draws() as calls:
        mask = engine.apply_events(application)
    assert calls == [(0, NUM_WORLDS, True)]
    _assert_mask_is_stream_rule(mask, engine, application)
    _assert_grid_is_numpy_loops(engine)
    return application, mask


@requires_jump_ahead
@settings(max_examples=40, deadline=None)
@given(
    evolving_graph(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=NUM_WORLDS - 1),
    ),
)
def test_resident_pcg64_engine_evolves_its_block(data, seed, caller_owned, tie):
    graph, batches = data
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS,
        seed=_buffered_generator(seed) if caller_owned else seed,
    )
    assert not engine.is_sharded
    for batch in batches:
        _evolve(engine, graph, batch)
    # A reweight to exactly one world's draw, so a ``<=`` for ``<`` shows.
    tie_batch = _tie_batch(engine.sampler, *tie)
    if tie_batch is not None:
        _evolve(engine, graph, tie_batch)


def _hub_graph():
    """Node 0 is a hub: an edge to and from each of nodes 1..12."""
    graph = SocialGraph()
    for node in range(13):
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    for node in range(1, 13):
        graph.add_edge(0, node, 0.05 * node)
        graph.add_edge(node, 0, 0.6 - 0.04 * node)
        graph.add_edge(node, node % 12 + 1, 0.3)
    return graph


@requires_jump_ahead
def test_hub_retire_rebuilds_many_rows():
    graph = _hub_graph()
    engine = CompiledCascadeEngine(graph.compiled(), NUM_WORLDS, seed=5)
    application, mask = _evolve(
        engine, graph, GraphEventBatch([NodeRetire(0), EdgeAdd(3, 9, 0.5)])
    )
    assert application.retired
    assert len(application.rebuilt) == 12
    assert mask.any()


@requires_jump_ahead
def test_attribute_only_batch_keeps_the_block():
    graph = _fixed_graph()
    engine = CompiledCascadeEngine(graph.compiled(), NUM_WORLDS, seed=5)
    [(_, _, before)] = engine.world_blocks()
    application, mask = _evolve(
        engine, graph, GraphEventBatch([NodeAdd(4, NodeAttributes(benefit=9.0))])
    )
    assert application.rebuilt == ()
    assert not mask.any()
    [(_, _, after)] = engine.world_blocks()
    np.testing.assert_array_equal(after.targets, before.targets)
    np.testing.assert_array_equal(after.offsets, before.offsets)


@requires_jump_ahead
def test_drop_then_readd_draws_a_fresh_coin():
    graph = _fixed_graph()
    source, target, probability = next(iter(graph.edges()))
    engine = CompiledCascadeEngine(graph.compiled(), NUM_WORLDS, seed=5)
    application, _ = _evolve(
        engine, graph,
        GraphEventBatch([EdgeDrop(source, target), EdgeAdd(source, target, probability)]),
    )
    # The edge left its old position and took a fresh one in a new layer.
    assert len(application.dropped) == len(application.added) == 1
    assert application.num_new_draws == 1
    assert len(engine.sampler.layers) == 2


@pytest.mark.parametrize(
    "kind, shard_size", [(np.random.MT19937, None), (np.random.PCG64, 5)]
)
def test_other_engines_redraw_every_block(kind, shard_size):
    """Each block of the grid is drawn afresh, once, without the old block."""
    graph = _fixed_graph()
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS, seed=np.random.Generator(kind(3)),
        shard_size=shard_size,
    )
    application = graph.apply_events(GraphEventBatch([EdgeAdd(0, "x", 0.4)]))
    with _counting_draws() as calls:
        mask = engine.apply_events(application)
    assert sorted(calls) == sorted((*bounds, False) for bounds in engine.bounds)
    _assert_mask_is_stream_rule(mask, engine, application)
    _assert_grid_is_numpy_loops(engine)


def _three_layer_sampler():
    graph = _fixed_graph()
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS, seed=_buffered_generator(11)
    )
    for batch in (
        GraphEventBatch([EdgeAdd(0, "x", 0.1), EdgeAdd("x", 2, 0.3)]),
        GraphEventBatch([EdgeAdd("x", 3, 0.2), EdgeAdd(4, "x", 0.05)]),
    ):
        engine.apply_events(graph.apply_events(batch))
    assert len(engine.sampler.layers) == 3
    assert engine.sampler.state["has_uint32"]
    return engine.sampler


@requires_jump_ahead
def test_jump_ahead_reader_reads_the_stream_oracle():
    """The draw entry reads each layer's first and last double from world 3 on."""
    sampler = _three_layer_sampler()
    compiled = sampler.compiled
    first = 3
    probe = []
    low = 0
    for _, width in sampler.layers:
        probe += [low, low + width - 1]
        low += width
    probe = np.array(probe, dtype=np.int64)
    targets, offsets, probed = _KERNEL.draw_worlds(
        compiled.indptr, compiled.indices, compiled.edge_pos, compiled.probs,
        sampler.layers, first, NUM_WORLDS - first, probe,
    )
    np.testing.assert_array_equal(
        probed, stream_draws(sampler, probe, NUM_WORLDS)[first:]
    )
    oracle, _ = sampler._draw_block_numpy(first, NUM_WORLDS - first, probe)
    np.testing.assert_array_equal(targets, oracle.targets)
    np.testing.assert_array_equal(offsets, oracle.offsets)


def _draw_entry(engine, **fixed):
    """Call the draw entry on ``engine``'s graph and layers: all its worlds,
    both ends of the draws probed, ``fixed`` and then the call's keyword
    arguments overriding."""
    compiled = engine.sampler.compiled

    def call(**overrides):
        arguments = dict(
            indptr=compiled.indptr,
            indices=compiled.indices,
            edge_pos=compiled.edge_pos,
            probs=compiled.probs,
            layers=engine.sampler.layers,
            first=0,
            count=NUM_WORLDS,
            probe=np.array([0, compiled.num_draws - 1], dtype=np.int64),
        )
        arguments.update(fixed)
        arguments.update(overrides)
        return _KERNEL.draw_worlds(**arguments)

    return call


@requires_jump_ahead
def test_jump_ahead_reader_rejects_bad_arguments():
    """A window of worlds reads the stream; a non-PCG64 layer, layers that
    miss the draws, a probe outside them and a negative window are refused."""
    engine = CompiledCascadeEngine(_fixed_graph().compiled(), NUM_WORLDS, seed=3)
    sampler = engine.sampler
    width = sampler.compiled.num_draws
    state = sampler.state
    ends = np.array([0, width - 1], dtype=np.int64)
    call = _draw_entry(engine)

    _, _, probed = call(first=2, count=3)
    assert probed.shape == (3, 2)
    np.testing.assert_array_equal(probed, stream_draws(sampler, ends, 5)[2:])
    with pytest.raises(ValueError, match="PCG64"):
        call(layers=((np.random.MT19937(3).state, width),))
    with pytest.raises(ValueError, match="do not cover"):
        call(layers=((state, width - 1),))
    with pytest.raises(ValueError, match="do not cover"):
        call(layers=((state, width + 1), (state, -1)))
    with pytest.raises(ValueError, match="probe"):
        call(probe=np.array([width], dtype=np.int64))
    with pytest.raises(ValueError, match="probe"):
        call(probe=np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError, match="worlds"):
        call(first=-1)
    with pytest.raises(ValueError, match="worlds"):
        call(count=-1)
    with pytest.raises(TypeError, match="int64"):
        call(probe=ends.astype(np.int32))


@requires_jump_ahead
def test_evolve_entry_rejects_bad_arguments():
    """The draw entry given an old block: every row copied, or every row
    scanned, is the old block; a malformed or partial old block, source or
    remap is refused."""
    engine = CompiledCascadeEngine(_fixed_graph().compiled(), NUM_WORLDS, seed=3)
    [(_, _, block)] = engine.world_blocks()
    num_nodes = engine.sampler.compiled.num_nodes
    rows = np.arange(num_nodes, dtype=np.int64)
    carry = _draw_entry(
        engine, source=rows, remap=rows, old_targets=block.targets,
        old_offsets=block.offsets,
    )

    for source in (rows, np.full(num_nodes, -1, dtype=np.int64)):
        targets, offsets, _ = carry(source=source)
        np.testing.assert_array_equal(targets, block.targets)
        np.testing.assert_array_equal(offsets, block.offsets)
    with pytest.raises(ValueError, match="needs"):
        carry(remap=None, old_targets=None, old_offsets=None)
    with pytest.raises(ValueError, match="old offsets"):
        carry(old_offsets=block.offsets[0].copy())
    with pytest.raises(ValueError, match="old offsets"):
        carry(old_offsets=block.offsets[:-1].copy())
    with pytest.raises(ValueError, match="old offsets"):
        carry(old_offsets=block.offsets[:, ::-1].copy())
    with pytest.raises(ValueError, match="old offsets"):
        carry(old_targets=block.targets[:-1].copy())
    with pytest.raises(ValueError, match="old targets"):
        carry(old_targets=np.full_like(block.targets, num_nodes))
    with pytest.raises(ValueError, match="source"):
        carry(source=rows[:-1].copy())
    with pytest.raises(ValueError, match="source"):
        carry(source=rows + 1)
    with pytest.raises(ValueError, match="source"):
        carry(source=np.full(num_nodes, -2, dtype=np.int64))
    with pytest.raises(ValueError, match="source"):
        carry(source=np.zeros(num_nodes, dtype=np.int64))
    with pytest.raises(ValueError, match="remap"):
        carry(remap=np.arange(num_nodes + 1, dtype=np.int64))
    with pytest.raises(ValueError, match="remap"):
        carry(remap=rows + 1)
    with pytest.raises(ValueError, match="retires"):
        carry(remap=np.full(num_nodes, -1, dtype=np.int64))
    with pytest.raises(TypeError, match="int32"):
        carry(old_targets=block.targets.astype(np.int64))

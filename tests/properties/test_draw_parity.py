"""Parity suite: the native world draw vs the numpy loop it replaces.

:meth:`~repro.diffusion.kernels.CascadeKernel.draw_worlds` draws a block of
live-edge worlds from a sampler's layered streams in one native call.  It
must give exactly the block of
:meth:`~repro.diffusion.engine.WorldSampler._draw_block_numpy` — the same
int32 targets, the same absolute int64 offsets — and the same draws at probed
positions as :func:`tests.oracles.stream_draws`, which reads each layer's
stream in order with no skip-ahead, for any layering, any block bounds and
any bit generator.  These tests pin that:

* hypothesis over graphs evolved by up to three event batches (so blocks
  are drawn from several stream layers), four bit generators, any shard
  size, blocks of any start and length, and probes anywhere in the stream;
  a final batch reweights one edge to exactly one world's draw at it, so a
  ``<=`` for the kernel's ``<`` shows;
* the event path of every engine, resident or sharded: the dirty mask it
  reads off its block redraw (or, resident on PCG64 with the native
  kernel, its evolve) is the dirty-world rule applied to the stream
  oracle's draws, and the blocks it holds equal the numpy loop's;
* the same mask and probe draws for each bit generator on a fixed graph,
  on whichever draw the environment has (native or numpy);
* resumption: with a target buffer of one world's bound (``indptr[-1]``
  entries) the entry stops before every world that might not fit, and the
  resumed calls still produce the numpy loop's block;
* the entry's argument checks.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine, WorldSampler
from repro.diffusion.reconcile import dirty_probe, dirty_rows
from repro.graph.attributes import NodeAttributes
from repro.graph.events import (
    EdgeAdd,
    EdgeDrop,
    EdgeReweight,
    GraphEventBatch,
    NodeAdd,
    NodeRetire,
)
from repro.graph.social_graph import SocialGraph
from tests.oracles import stream_draws

NUM_WORLDS = 12
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]

requires_native = pytest.mark.skipif(
    kernels.load_kernel() is None,
    reason="no native kernel backend resolves in this environment",
)


@st.composite
def evolving_graph(draw):
    """A random attributed graph and up to three event batches against it."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    nodes = list(range(num_nodes))
    graph = SocialGraph()
    for node in nodes:
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    probability = st.floats(min_value=0.0, max_value=1.0)
    possible = [(u, v) for u in nodes for v in nodes if u != v]
    for source, target in draw(
        st.lists(st.sampled_from(possible), max_size=16, unique=True)
    ):
        graph.add_edge(source, target, draw(probability))

    candidates = nodes + ["x0", "x1"]
    endpoint = st.sampled_from(candidates)
    batches = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        events = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            kind = draw(st.sampled_from(("add", "drop", "reweight", "node", "retire")))
            if kind == "add":
                source, target = draw(endpoint), draw(endpoint)
                if source != target:
                    events.append(EdgeAdd(source, target, draw(probability)))
            elif kind == "drop":
                events.append(EdgeDrop(draw(endpoint), draw(endpoint)))
            elif kind == "reweight":
                events.append(
                    EdgeReweight(draw(endpoint), draw(endpoint), draw(probability))
                )
            elif kind == "node":
                events.append(NodeAdd(draw(endpoint), NodeAttributes(benefit=2.0)))
            else:
                events.append(NodeRetire(draw(endpoint)))
        if events:
            batches.append(GraphEventBatch(events))
    return graph, batches


def _assert_blocks_equal(block, reference):
    assert block.targets.dtype == reference.targets.dtype == np.int32
    assert block.offsets.dtype == reference.offsets.dtype == np.int64
    assert block.count == reference.count
    np.testing.assert_array_equal(block.targets, reference.targets)
    np.testing.assert_array_equal(block.offsets, reference.offsets)


def _assert_grid_is_numpy_loops(engine):
    no_probe = np.empty(0, dtype=np.int64)
    for start, count, block in engine.world_blocks():
        oracle, _ = engine.sampler._draw_block_numpy(start, count, no_probe)
        _assert_blocks_equal(block, oracle)


def _assert_mask_is_stream_rule(mask, engine, application):
    positions, thresholds = dirty_probe(application)
    np.testing.assert_array_equal(
        mask,
        dirty_rows(stream_draws(engine.sampler, positions, NUM_WORLDS), thresholds),
    )


def _tie_batch(sampler, edge_choice, world):
    """Reweight one edge to exactly ``world``'s draw at it, or ``None``."""
    compiled = sampler.compiled
    if not compiled.num_edges:
        return None
    slot = edge_choice % compiled.num_edges
    source = int(np.searchsorted(compiled.indptr, slot, side="right")) - 1
    position = np.array([compiled.edge_pos[slot]], dtype=np.int64)
    tie = float(stream_draws(sampler, position, world + 1)[world, 0])
    return GraphEventBatch(
        [
            EdgeReweight(
                compiled.node_ids[source],
                compiled.node_ids[compiled.indices[slot]],
                tie,
            )
        ]
    )


def _draw_with_tight_buffer(kernel, sampler, start, count, probe):
    """The draw entry resumed on a buffer of one world's bound at a time."""
    compiled = sampler.compiled
    generators = [
        sampler._layer_generator(state, width, start) for state, width in sampler.layers
    ]
    widths = [width for _, width in sampler.layers]
    num_slots = int(compiled.indptr[-1])
    targets = np.empty(num_slots, dtype=np.int32)
    offsets = np.empty((count, compiled.num_nodes + 1), dtype=np.int64)
    probed = np.empty((count, probe.shape[0]), dtype=np.float64)
    done = 0
    while done < count:
        finished = kernel.draw_worlds(
            compiled.indptr, compiled.indices, compiled.edge_pos, compiled.probs,
            compiled.num_draws, generators, widths, done, targets, offsets,
            probe, probed,
        )
        # A world that had room was drawn; none was drawn without room.
        assert finished >= 1
        done += finished
        used = int(offsets[done - 1, -1])
        assert used <= targets.shape[0]
        grown = np.empty(used + num_slots, dtype=np.int32)
        grown[:used] = targets[:used]
        targets = grown
    return targets[: int(offsets[-1, -1])], offsets, probed


@requires_native
@settings(max_examples=40, deadline=None)
@given(
    evolving_graph(),
    st.sampled_from(BIT_GENERATORS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=NUM_WORLDS),
    st.integers(min_value=0, max_value=NUM_WORLDS - 1),
    st.integers(min_value=1, max_value=NUM_WORLDS),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=6),
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=NUM_WORLDS - 1),
    ),
)
def test_native_draw_matches_numpy_loop(
    data, kind, seed, shard_size, start, count, probe_choices, tie
):
    graph, batches = data
    kernel = kernels.load_kernel()
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS, seed=np.random.Generator(kind(seed)),
        shard_size=shard_size, use_kernel=False,
    )
    _assert_grid_is_numpy_loops(engine)

    def evolve(batch):
        application = graph.apply_events(batch)
        # The mask read off the redraw is the rule on the stream's draws...
        _assert_mask_is_stream_rule(
            engine.apply_events(application), engine, application
        )
        # ...and the redrawn blocks are the numpy loop's.
        _assert_grid_is_numpy_loops(engine)

    for batch in batches:
        evolve(batch)
    tie_batch = _tie_batch(engine.sampler, *tie)
    if tie_batch is not None:
        evolve(tie_batch)

    sampler = engine.sampler
    count = min(count, NUM_WORLDS - start)
    num_draws = sampler.compiled.num_draws
    probe = np.array(
        [choice % num_draws for choice in probe_choices] if num_draws else [],
        dtype=np.int64,
    )
    native, native_draws = sampler.draw_block_private(start, count, probe=probe)
    oracle, oracle_draws = sampler._draw_block_numpy(start, count, probe)
    _assert_blocks_equal(native, oracle)
    np.testing.assert_array_equal(native_draws, oracle_draws)
    np.testing.assert_array_equal(
        native_draws, stream_draws(sampler, probe, start + count)[start:]
    )

    targets, offsets, probed = _draw_with_tight_buffer(
        kernel, sampler, start, count, probe
    )
    np.testing.assert_array_equal(targets, oracle.targets)
    np.testing.assert_array_equal(offsets, oracle.offsets)
    np.testing.assert_array_equal(probed, oracle_draws)


@requires_native
def test_draw_entry_rejects_bad_arguments(two_hop_path):
    kernel = kernels.load_kernel()
    compiled = two_hop_path.compiled()
    sampler = WorldSampler(compiled, seed=3)
    width = compiled.num_draws
    count = 4

    def call(**overrides):
        arguments = dict(
            indptr=compiled.indptr,
            indices=compiled.indices,
            edge_pos=compiled.edge_pos,
            probs=compiled.probs,
            num_draws=width,
            generators=[sampler._layer_generator(sampler.state, width, 0)],
            widths=[width],
            first=0,
            targets=np.empty(count * compiled.num_edges, dtype=np.int32),
            offsets=np.empty((count, compiled.num_nodes + 1), dtype=np.int64),
            probe=np.zeros(1, dtype=np.int64),
            probed=np.empty((count, 1), dtype=np.float64),
        )
        arguments.update(overrides)
        return kernel.draw_worlds(**arguments)

    assert call() == count
    # One generator feeding two layers takes its (non-reentrant) lock once.
    shared = sampler._layer_generator(sampler.state, width, 0)
    assert call(generators=[shared, shared], widths=[width, 0]) == count
    with pytest.raises(ValueError, match="disagree"):
        call(indptr=compiled.indptr[::-1].copy())
    with pytest.raises(ValueError, match="disagree"):
        call(probs=compiled.probs[:-1].copy())
    with pytest.raises(ValueError, match="generators"):
        call(widths=[width, 0])
    with pytest.raises(ValueError, match="do not sum"):
        call(widths=[width - 1])
    with pytest.raises(ValueError, match="do not sum"):
        call(num_draws=width + 1)
    with pytest.raises(ValueError, match="do not sum"):
        call(
            generators=[sampler._layer_generator(sampler.state, width, 0)] * 2,
            widths=[width, 1],
        )
    with pytest.raises(ValueError, match="offsets"):
        call(offsets=np.empty((count, compiled.num_nodes), dtype=np.int64))
    with pytest.raises(ValueError, match="offsets"):
        call(first=count + 1)
    with pytest.raises(ValueError, match="resuming"):
        offsets = np.full((count, compiled.num_nodes + 1), -1, dtype=np.int64)
        call(first=1, offsets=offsets)
    with pytest.raises(ValueError, match="probe"):
        call(probe=np.array([width], dtype=np.int64))
    with pytest.raises(ValueError, match="probe"):
        call(probed=np.empty((count, 2), dtype=np.float64))
    with pytest.raises(TypeError, match="int32"):
        call(targets=np.empty(count * compiled.num_edges, dtype=np.int64))
    with pytest.raises(TypeError, match="float64"):
        call(probs=compiled.probs.astype(np.float32))


def _fixed_graph():
    rng = np.random.default_rng(3)
    graph = SocialGraph()
    for node in range(10):
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    while graph.num_edges < 30:
        source, target = (int(v) for v in rng.integers(0, 10, size=2))
        if source != target and not graph.has_edge(source, target):
            graph.add_edge(source, target, float(rng.uniform(0.1, 0.6)))
    return graph


@pytest.mark.parametrize("shard_size", [None, 5])
@pytest.mark.parametrize("kind", BIT_GENERATORS)
def test_event_redraw_reads_the_stream_oracle(kind, shard_size):
    """Each batch's mask and probe draws are the stream oracle's, per generator.

    Two batches, so the second reads a three-layer stream: the edges added
    by each batch live in that batch's own layer.
    """
    graph = _fixed_graph()
    (drop_u, drop_v, _), (weight_u, weight_v, _) = sorted(
        graph.edges(), key=lambda e: (e[2], str(e[0]), str(e[1]))
    )[:2]
    batches = [
        GraphEventBatch(
            [
                EdgeDrop(drop_u, drop_v),
                EdgeAdd(0, "x", 0.1),
                EdgeReweight(weight_u, weight_v, 0.15),
            ]
        ),
        GraphEventBatch([EdgeAdd("x", 3, 0.2), EdgeAdd(4, "x", 0.05)]),
    ]
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS, seed=np.random.Generator(kind(11)),
        shard_size=shard_size,
    )
    assert engine.is_sharded is (shard_size is not None)
    for batch in batches:
        application = graph.apply_events(batch)
        mask = engine.apply_events(application)
        _assert_mask_is_stream_rule(mask, engine, application)
        assert 0 < mask.sum() < NUM_WORLDS
        positions, _ = dirty_probe(application)
        expected = stream_draws(engine.sampler, positions, NUM_WORLDS)
        for start, count in engine.bounds:
            _, draws = engine.sampler.draw_block(start, count, probe=positions)
            np.testing.assert_array_equal(draws, expected[start : start + count])
    assert len(engine.sampler.layers) == 3

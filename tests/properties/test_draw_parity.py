"""Parity suite: the native world draw vs the numpy loop it replaces.

:meth:`~repro.diffusion.kernels.CascadeKernel.draw_worlds` draws a block of
live-edge worlds of a PCG64 sampler in one native call, reading the layered
streams by jump-ahead.  It must give exactly the block of
:meth:`~repro.diffusion.engine.WorldSampler._draw_block_numpy` — the same
int32 targets, the same absolute int64 offsets — and the same draws at probed
positions as :func:`tests.oracles.stream_draws`, which reads each layer's
stream in order with no skip-ahead, for any layering and any block bounds.
Other bit generators draw with the numpy loop.  These tests pin that:

* hypothesis over graphs evolved by up to three event batches (so blocks
  are drawn from several stream layers), four bit generators, any shard
  size, blocks of any start and length, and probes anywhere in the stream;
  a final batch reweights one edge to exactly one world's draw at it, so a
  ``<=`` for the kernel's ``<`` shows;
* the event path of every engine, resident or sharded: the dirty mask it
  reads off its block draw (or, resident on PCG64 with the native kernel,
  its evolve) is the dirty-world rule applied to the stream oracle's draws,
  and the blocks it holds equal the numpy loop's;
* the same mask and probe draws for each bit generator on a fixed graph,
  on whichever draw the environment has (native or numpy);
* the dispatch: with the kernel loaded, a PCG64 sampler never runs the
  numpy loop and MT19937 and Philox samplers never call the native entry;
* resumption: sized for one world, the entry stops before every world that
  might not fit, and the resumed calls still produce the numpy loop's
  block, fresh and from an old block;
* the entry's argument checks.
"""

from unittest import mock

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

_KERNEL = kernels.load_kernel()

requires_native = pytest.mark.skipif(
    _KERNEL is None or not _KERNEL.pcg64_jump_ahead,
    reason="no native kernel with the PCG64 jump-ahead draw resolves here",
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


class _Understated(np.ndarray):
    """Probabilities (or old offsets) whose sum reads 0.

    The draw sizes its buffer as the expected live targets plus one world's
    slack; with these it holds one world, so every later world that has
    live targets before it makes the entry stop, grow and resume.
    """

    def sum(self, *args, **kwargs):
        return 0.0


def _draw_resumed(sampler, start, count, probe, **old):
    """The draw entry sized for one world; its output and each call's worlds."""
    compiled = sampler.compiled
    calls = []
    raw = _KERNEL._draw_raw

    def counted(*args):
        calls.append(raw(*args))
        return calls[-1]

    if old:
        old["old_offsets"] = old["old_offsets"].view(_Understated)
    with mock.patch.object(_KERNEL, "_draw_raw", counted):
        drawn = _KERNEL.draw_worlds(
            compiled.indptr, compiled.indices, compiled.edge_pos,
            compiled.probs.view(_Understated), sampler.layers, start, count,
            probe, **old,
        )
    # A call with room for a world drew it; the calls add up to the block.
    assert min(calls) >= 1
    assert sum(calls) == count
    return drawn, calls


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
    engine = CompiledCascadeEngine(
        graph.compiled(), NUM_WORLDS, seed=np.random.Generator(kind(seed)),
        shard_size=shard_size, use_kernel=False,
    )
    _assert_grid_is_numpy_loops(engine)

    def evolve(batch):
        application = graph.apply_events(batch)
        # The mask read off the block draw is the rule on the stream's draws...
        _assert_mask_is_stream_rule(
            engine.apply_events(application), engine, application
        )
        # ...and the drawn blocks are the numpy loop's.
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

    if sampler.jump_ahead_kernel() is None:
        return
    (targets, offsets, probed), calls = _draw_resumed(sampler, start, count, probe)
    np.testing.assert_array_equal(targets, oracle.targets)
    np.testing.assert_array_equal(offsets, oracle.offsets)
    np.testing.assert_array_equal(probed, oracle_draws)
    if count > 1 and oracle.offsets[-2, -1] > 0:
        assert len(calls) > 1


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


@requires_native
def test_draw_entry_rejects_bad_arguments():
    """A fresh draw and a carried one read the numpy loop; a graph whose CSR
    arrays disagree is refused.  The old-block and the layer, window and
    probe checks are in :mod:`tests.properties.test_evolve_parity`."""
    graph = _fixed_graph()
    old = CompiledCascadeEngine(graph.compiled(), NUM_WORLDS, seed=3)
    [(_, _, block)] = old.world_blocks()
    compiled = graph.compiled()
    width = compiled.num_draws
    num_nodes = compiled.num_nodes
    rows = np.arange(num_nodes, dtype=np.int64)
    ends = np.array([0, width - 1], dtype=np.int64)

    def call(**overrides):
        arguments = dict(
            indptr=compiled.indptr,
            indices=compiled.indices,
            edge_pos=compiled.edge_pos,
            probs=compiled.probs,
            layers=old.sampler.layers,
            first=0,
            count=NUM_WORLDS,
            probe=ends,
        )
        arguments.update(overrides)
        return _KERNEL.draw_worlds(**arguments)

    def carry(**overrides):
        old_block = dict(
            source=rows, remap=rows, old_targets=block.targets,
            old_offsets=block.offsets,
        )
        old_block.update(overrides)
        return call(**old_block)

    # A fresh draw, every row copied and every row scanned: the same block,
    # whatever the probe reads.
    for targets, offsets, probed in (
        call(), carry(), carry(source=np.full(num_nodes, -1, dtype=np.int64))
    ):
        np.testing.assert_array_equal(targets, block.targets)
        np.testing.assert_array_equal(offsets, block.offsets)
        np.testing.assert_array_equal(
            probed, stream_draws(old.sampler, ends, NUM_WORLDS)
        )
    targets, offsets, _ = call(first=5, count=4)
    oracle, _ = old.sampler._draw_block_numpy(5, 4, ends)
    np.testing.assert_array_equal(targets, oracle.targets)
    np.testing.assert_array_equal(offsets, oracle.offsets)
    assert call(count=0)[1].shape == (0, num_nodes + 1)

    with pytest.raises(ValueError, match="disagree"):
        call(indptr=compiled.indptr[::-1].copy())
    with pytest.raises(ValueError, match="disagree"):
        call(probs=compiled.probs[:-1].copy())
    with pytest.raises(TypeError, match="float64"):
        call(probs=compiled.probs.astype(np.float32))


@requires_native
def test_draw_entry_grows_and_resumes():
    """Sized for one world, fresh and from an old block: the numpy loop's block."""
    graph = _fixed_graph()
    engine = CompiledCascadeEngine(graph.compiled(), NUM_WORLDS, seed=5)
    [(_, _, old_block)] = engine.world_blocks()
    application = graph.apply_events(
        GraphEventBatch([NodeRetire(2), EdgeAdd(0, "x", 0.7), EdgeAdd("x", 4, 0.9)])
    )
    evolved = engine.sampler.rekey(application.compiled, application.num_new_draws)
    probe, _ = dirty_probe(application)
    oracle, oracle_draws = evolved._draw_block_numpy(0, NUM_WORLDS, probe)
    # The old-block arguments the sampler passes for this batch.
    old = {}
    draw = _KERNEL.draw_worlds

    def capture(*args, **kwargs):
        old.update(kwargs)
        return draw(*args, **kwargs)

    with mock.patch.object(_KERNEL, "draw_worlds", capture):
        evolved.draw_block_private(
            0, NUM_WORLDS, probe=probe, old=(old_block, application)
        )
    assert (old["source"] >= 0).any() and (old["source"] < 0).any()
    for drawn, calls in (
        _draw_resumed(evolved, 0, NUM_WORLDS, probe),
        _draw_resumed(evolved, 0, NUM_WORLDS, probe, **old),
    ):
        targets, offsets, probed = drawn
        np.testing.assert_array_equal(targets, oracle.targets)
        np.testing.assert_array_equal(offsets, oracle.offsets)
        np.testing.assert_array_equal(probed, oracle_draws)
        assert len(calls) > 1


@requires_native
@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_draws_follow_the_bit_generator(kind):
    """With the kernel loaded, PCG64 blocks are native and others numpy."""
    numpy_calls, native_calls = [], []
    numpy_draw = WorldSampler._draw_block_numpy
    native_draw = _KERNEL.draw_worlds

    def numpy_counted(self, *args):
        numpy_calls.append(args[:2])
        return numpy_draw(self, *args)

    def native_counted(*args, **kwargs):
        native_calls.append(args[5:7])
        return native_draw(*args, **kwargs)

    with mock.patch.object(
        WorldSampler, "_draw_block_numpy", numpy_counted
    ), mock.patch.object(_KERNEL, "draw_worlds", native_counted):
        for shard_size in (None, 5):
            graph = _fixed_graph()
            engine = CompiledCascadeEngine(
                graph.compiled(), NUM_WORLDS, seed=np.random.Generator(kind(3)),
                shard_size=shard_size,
            )
            engine.run([0], {0: 2})
            engine.apply_events(
                graph.apply_events(GraphEventBatch([EdgeAdd(0, "x", 0.4)]))
            )
            engine.run([0], {0: 2})
    if kind is np.random.PCG64:
        assert numpy_calls == [] and native_calls
    else:
        assert native_calls == [] and numpy_calls


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

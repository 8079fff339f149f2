"""Property tests: the delta CSR recompile is *identical* to a full rebuild.

:meth:`SocialGraph.apply_events` replays a batch once through the graph's
own mutators and evolves the cached :class:`~repro.graph.csr.CompiledGraph`
from what the replay recorded (:func:`repro.graph.events.apply_batch`):
changed rows are rebuilt, unchanged rows are copied as bulk runs, survivors
keep their node indices (prefix order) and surviving edges keep their
persistent draw positions.  The contract is not "equivalent" but
**identical**: the evolved snapshot's adjacency and attribute arrays must
equal, element for element, a from-scratch compile of a copy that
:func:`tests.oracles.replay_events` mutated the same way — across duplicate
adds, self-loop skips, drops of absent edges, reweights, node churn, and
retire-then-re-add of the same identifier.

Only ``edge_pos`` legitimately differs from a cold compile (positions are
persistent across versions, a cold compile numbers them 0..E-1); the tests pin
its invariants instead: uniqueness, bounds, stability for surviving edges.
The application's records (added, dropped, reweighted, retired, rebuilt) are
read back off the old and new snapshots alone.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.graph.events import (
    EdgeAdd,
    EdgeDrop,
    EdgeReweight,
    GraphEventBatch,
    NodeAdd,
    NodeRetire,
)
from repro.graph.attributes import NodeAttributes
from repro.graph.social_graph import SocialGraph
from tests.oracles import replay_events


@st.composite
def instance(draw):
    """Random attributed graph plus a random event batch against it."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
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
            st.sampled_from(possible), max_size=min(16, len(possible)), unique=True
        )
    )
    for source, target in chosen:
        graph.add_edge(source, target, draw(st.floats(min_value=0.1, max_value=1.0)))

    # New identifiers live in a disjoint namespace so retire-then-re-add and
    # add-new-node cases are generated without colliding with the int nodes.
    new_ids = [f"x{k}" for k in range(3)]
    candidates = nodes + new_ids
    probability = st.floats(min_value=0.0, max_value=1.0)
    events = []
    num_events = draw(st.integers(min_value=1, max_value=8))
    for _ in range(num_events):
        kind = draw(st.sampled_from(("add", "drop", "reweight", "node", "retire")))
        if kind == "add":
            source = draw(st.sampled_from(candidates))
            target = draw(st.sampled_from(candidates))
            if source == target:
                continue  # apply paths skip self-loops; nothing to generate
            events.append(EdgeAdd(source, target, draw(probability)))
        elif kind == "drop":
            source = draw(st.sampled_from(candidates))
            target = draw(st.sampled_from(candidates))
            events.append(EdgeDrop(source, target))
        elif kind == "reweight":
            source = draw(st.sampled_from(candidates))
            target = draw(st.sampled_from(candidates))
            events.append(EdgeReweight(source, target, draw(probability)))
        elif kind == "node":
            node = draw(st.sampled_from(candidates))
            if draw(st.booleans()):
                events.append(
                    NodeAdd(node, NodeAttributes(benefit=draw(probability) * 4))
                )
            else:
                events.append(NodeAdd(node))
        else:
            events.append(NodeRetire(draw(st.sampled_from(candidates))))
    if not events:
        events.append(EdgeAdd(nodes[0], nodes[1], draw(probability)))
    return graph, GraphEventBatch(events)


def _assert_csr_identical(evolved, fresh):
    assert list(evolved.node_ids) == list(fresh.node_ids)
    np.testing.assert_array_equal(evolved.indptr, fresh.indptr)
    np.testing.assert_array_equal(evolved.indices, fresh.indices)
    np.testing.assert_array_equal(evolved.probs, fresh.probs)
    np.testing.assert_array_equal(evolved.benefits, fresh.benefits)
    np.testing.assert_array_equal(evolved.seed_costs, fresh.seed_costs)
    np.testing.assert_array_equal(evolved.sc_costs, fresh.sc_costs)


@settings(max_examples=60, deadline=None)
@given(instance())
def test_delta_recompile_identical_to_full_rebuild(data_instance):
    graph, batch = data_instance
    replica = graph.copy()
    old_compiled = graph.compiled()
    old_positions = {
        (str(old_compiled.node_ids[s]), str(old_compiled.node_ids[old_compiled.indices[e]])): int(
            old_compiled.edge_pos[e]
        )
        for s in range(old_compiled.num_nodes)
        for e in range(int(old_compiled.indptr[s]), int(old_compiled.indptr[s + 1]))
    }
    old_probs = {
        (str(old_compiled.node_ids[s]), str(old_compiled.node_ids[old_compiled.indices[e]])): float(
            old_compiled.probs[e]
        )
        for s in range(old_compiled.num_nodes)
        for e in range(int(old_compiled.indptr[s]), int(old_compiled.indptr[s + 1]))
    }

    application = graph.apply_events(batch)
    evolved = graph.compiled()
    assert evolved is application.compiled

    replay_events(replica, batch)
    fresh = replica.compiled()
    _assert_csr_identical(evolved, fresh)

    # Draw positions: a permutation-free unique set within num_draws...
    positions = np.asarray(evolved.edge_pos)
    assert positions.shape[0] == evolved.num_edges
    assert len(set(positions.tolist())) == positions.shape[0]
    if positions.size:
        assert positions.min() >= 0
        assert positions.max() < evolved.num_draws
    assert evolved.num_draws >= old_compiled.num_draws

    # ...where every surviving same-probability edge keeps its old position
    # (same coin flip in every world across versions).
    for s in range(evolved.num_nodes):
        for e in range(int(evolved.indptr[s]), int(evolved.indptr[s + 1])):
            key = (
                str(evolved.node_ids[s]),
                str(evolved.node_ids[evolved.indices[e]]),
            )
            if key in old_positions and old_probs[key] == float(evolved.probs[e]):
                # Unless the edge was dropped and re-added by the batch, which
                # legitimately assigns a new position; those edges are listed
                # in the application's add records.
                if int(evolved.edge_pos[e]) >= old_compiled.num_draws:
                    added_positions = {pos for pos, _ in application.added}
                    assert int(evolved.edge_pos[e]) in added_positions
                else:
                    assert int(evolved.edge_pos[e]) == old_positions[key]

    # Remap: survivors keep their prefix order, retires map to -1.
    remap = application.remap
    assert remap.shape[0] == old_compiled.num_nodes
    for old_index, node in enumerate(old_compiled.node_ids):
        new_index = int(remap[old_index])
        if new_index >= 0:
            assert evolved.node_ids[new_index] == node or str(
                evolved.node_ids[new_index]
            ) == str(node)
        else:
            assert old_index in application.retired
    if not application.retired:
        np.testing.assert_array_equal(remap, np.arange(remap.size))


@settings(max_examples=25, deadline=None)
@given(instance(), instance())
def test_two_chained_batches_stay_identical(first_instance, second_instance):
    """Delta-of-a-delta: a second batch applies to an evolved snapshot."""
    graph, first_batch = first_instance
    _, second_batch = second_instance
    replica = graph.copy()
    graph.compiled()
    graph.apply_events(first_batch)
    graph.apply_events(second_batch)
    evolved = graph.compiled()

    replay_events(replica, first_batch)
    replay_events(replica, second_batch)
    _assert_csr_identical(evolved, replica.compiled())
    positions = np.asarray(evolved.edge_pos)
    assert len(set(positions.tolist())) == positions.shape[0]


def _assert_records_read_off_snapshots(old, new, application):
    """Each record of ``application`` is what its two snapshots imply.

    With ``R`` the remap: ``retired`` lists the old indices ``R`` sends to
    -1; ``dropped`` the old positions missing from ``new``, with their old
    probabilities; ``added`` the slots of ``new`` at or past the old width,
    in CSR order, numbered from that width on; ``reweighted`` the kept
    positions whose probability changed, in CSR order.  Every surviving row
    outside ``rebuilt`` equals its old row through ``R`` in targets,
    probabilities and draw positions: the rows ``draw_worlds`` copies.
    """
    remap = application.remap
    width = old.num_draws
    assert application.retired == tuple(np.flatnonzero(remap == -1).tolist())
    old_probs = dict(zip(old.edge_pos.tolist(), old.probs.tolist()))
    new_probs = dict(zip(new.edge_pos.tolist(), new.probs.tolist()))
    assert application.dropped == sorted(
        (position, p) for position, p in old_probs.items() if position not in new_probs
    )
    fresh = [(position, p) for position, p in new_probs.items() if position >= width]
    assert application.added == fresh
    assert [position for position, _ in fresh] == list(range(width, width + len(fresh)))
    assert application.num_new_draws == len(fresh)
    assert new.num_draws == width + len(fresh)
    assert application.reweighted == [
        (position, old_probs[position], p)
        for position, p in new_probs.items()
        if position < width and old_probs[position] != p
    ]
    rebuilt = set(application.rebuilt)
    for old_row in np.flatnonzero(remap >= 0).tolist():
        row = int(remap[old_row])
        if row in rebuilt:
            continue
        before = slice(int(old.indptr[old_row]), int(old.indptr[old_row + 1]))
        after = slice(int(new.indptr[row]), int(new.indptr[row + 1]))
        np.testing.assert_array_equal(new.indices[after], remap[old.indices[before]])
        np.testing.assert_array_equal(new.probs[after], old.probs[before])
        np.testing.assert_array_equal(new.edge_pos[after], old.edge_pos[before])


@settings(max_examples=60, deadline=None)
@given(st.lists(instance(), min_size=1, max_size=3))
def test_records_are_read_off_the_two_snapshots(chain):
    """Single and chained batches: the first instance's graph takes every
    instance's batch in turn."""
    graph = chain[0][0]
    for _, batch in chain:
        old = graph.compiled()
        application = graph.apply_events(batch)
        _assert_records_read_off_snapshots(old, application.compiled, application)


def test_str_twin_targets_tie_like_a_cold_compile():
    """Targets ``0`` and ``"0"`` at one probability tie on ``str``: the
    evolved row keeps the graph's edge order, as a cold compile does."""
    graph = SocialGraph()
    graph.add_edge(2, 0, 0.25)
    graph.add_edge(2, "0", 0.5)
    replica = graph.copy()
    batch = GraphEventBatch([EdgeReweight(2, "0", 0.25)])
    graph.compiled()
    graph.apply_events(batch)
    replay_events(replica, batch)
    _assert_csr_identical(graph.compiled(), replica.compiled())


def test_attribute_only_batch_aliases_topology():
    """A batch with no edge effect shares the old adjacency arrays outright."""
    graph = SocialGraph()
    for node in range(4):
        graph.add_node(node, benefit=float(node))
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(1, 2, 0.25)
    before = graph.compiled()
    application = graph.apply_events(
        GraphEventBatch([NodeAdd(1, NodeAttributes(benefit=9.0))])
    )
    after = graph.compiled()
    assert after is application.compiled
    assert after.indptr is before.indptr
    assert after.indices is before.indices
    assert after.probs is before.probs
    assert after.edge_pos is before.edge_pos
    assert application.touched_edges == 0
    assert not application.retired
    np.testing.assert_array_equal(application.remap, np.arange(4))
    assert float(after.benefits[after.index[1]]) == 9.0


def test_noop_batch_returns_the_same_snapshot():
    graph = SocialGraph()
    graph.add_node(0)
    graph.add_node(1)
    graph.add_edge(0, 1, 0.5)
    before = graph.compiled()
    application = graph.apply_events(GraphEventBatch([EdgeDrop(0, 5)]))
    assert application.compiled is before
    assert graph.compiled() is before

"""Reconciliation bit-identity: events + reconcile ≡ cold pass on the new graph.

After :meth:`MonteCarloEstimator.ingest_events` the delta snapshot must be,
piece for piece, what a cold instrumented pass of the same deployment on the
evolved graph produces — while the ``reconciled_worlds`` counter proves that
only the worlds whose live-edge draws touch a changed edge were re-simulated,
and ``snapshot_passes`` proves the clean worlds were never run at all.

The cold reference shares the evolved engine's compiled snapshot and layered
sampler (surviving edges keep their persistent draw positions, so a fresh
sampler with the same seed would *not* agree — position persistence is the
whole mechanism), and is otherwise a brand-new engine with no reconcile
history.
"""

import numpy as np
import pytest

from repro.diffusion.delta import DeltaCascadeEngine
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.exceptions import EstimationError
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

NUM_WORLDS = 30


def build_graph(num_nodes=14, num_edges=45, seed=5):
    rng = np.random.default_rng(seed)
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(
            node,
            benefit=float(rng.integers(1, 6)),
            seed_cost=1.0,
            sc_cost=1.0,
        )
    added = 0
    while added < num_edges:
        source, target = (int(v) for v in rng.integers(0, num_nodes, size=2))
        if source == target or graph.has_edge(source, target):
            continue
        graph.add_edge(source, target, float(rng.uniform(0.05, 0.5)))
        added += 1
    return graph


SEEDS = [0, 3]
ALLOC = {0: 2, 3: 1, 7: 1}

def small_batch(graph):
    # One low-probability reweight of a real edge: only worlds where this one
    # draw lands under max(p_old, p_new) are dirty — the <10%-of-edges case
    # the acceptance criteria pin.
    source, target, _ = min(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    return GraphEventBatch([EdgeReweight(source, target, 0.12)])

CHURN_BATCH = GraphEventBatch(
    [
        EdgeDrop(1, 2),
        EdgeReweight(2, 3, 0.4),
        EdgeAdd(4, 13, 0.3),
        NodeAdd("fresh", NodeAttributes(benefit=4.0, seed_cost=1.0, sc_cost=1.0)),
        EdgeAdd(5, "fresh", 0.45),
        NodeRetire(11),
    ]
)


def _warm_estimator(graph, **kwargs):
    kwargs.setdefault("use_kernel", False)
    kwargs.setdefault("shared_memory", False)
    return MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=17, incremental=True, **kwargs
    )


def _cold_delta(warm_estimator, seeds, allocation, use_kernel=False):
    """Fresh snapshot of ``seeds``/``allocation`` on the evolved graph.

    Shares the evolved compiled snapshot and sampler (persistent draw
    positions), nothing else — no splice or reconcile history.
    """
    engine = CompiledCascadeEngine(
        warm_estimator._engine.compiled,
        NUM_WORLDS,
        seed=0,
        use_kernel=use_kernel,
        shared_memory=False,
        sampler=warm_estimator._engine.sampler,
    )
    delta = DeltaCascadeEngine(engine)
    delta.snapshot(seeds, allocation)
    return engine, delta


def _assert_snapshot_state_identical(reconciled, fresh):
    np.testing.assert_array_equal(reconciled.base_counts, fresh.base_counts)
    assert reconciled.base_benefit == fresh.base_benefit
    assert reconciled._base_queues == fresh._base_queues
    assert reconciled._base_limited == fresh._base_limited
    assert reconciled._active_worlds == fresh._active_worlds
    assert reconciled._limited_worlds == fresh._limited_worlds
    assert reconciled._base_coupons == fresh._base_coupons
    assert reconciled._base_seed_indices == fresh._base_seed_indices


@pytest.mark.parametrize("kind", ["small", "churn"])
def test_reconcile_bit_identical_to_cold_snapshot(kind):
    graph = build_graph()
    batch = small_batch(graph) if kind == "small" else CHURN_BATCH
    estimator = _warm_estimator(graph)
    try:
        estimator.snapshot_base(SEEDS, ALLOC)
        outcome = estimator.ingest_events(batch)
        assert outcome.reconciled
        assert outcome.base_benefit is not None

        cold_engine, cold = _cold_delta(estimator, SEEDS, ALLOC)
        try:
            _assert_snapshot_state_identical(estimator._delta, cold)
            assert outcome.base_benefit == cold.base_benefit
        finally:
            cold_engine.close()
    finally:
        estimator.close()


def test_only_dirty_worlds_resimulated_and_counted():
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        estimator.snapshot_base(SEEDS, ALLOC)
        passes_before = estimator.delta_snapshot_passes
        outcome = estimator.ingest_events(small_batch(graph))

        # The one reweighted low-probability edge dirties only the worlds
        # whose single persistent draw lands under max(p_old, p_new).
        assert 0 < outcome.dirty_worlds < NUM_WORLDS
        assert outcome.touched_edges == 1
        assert estimator.delta_reconciled_worlds == outcome.dirty_worlds
        assert estimator.delta_reconcile_passes == 1
        # Clean worlds were never re-simulated: no snapshot pass happened.
        assert estimator.delta_snapshot_passes == passes_before
    finally:
        estimator.close()


def test_attribute_only_batch_touches_no_world():
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        before = estimator.snapshot_base(SEEDS, ALLOC)
        counts_before = estimator._delta.base_counts.copy()
        outcome = estimator.ingest_events(
            GraphEventBatch([NodeAdd(2, NodeAttributes(benefit=50.0))])
        )
        assert outcome.touched_edges == 0
        assert outcome.dirty_worlds == 0
        assert outcome.reconciled
        # Same cascades, different valuation.
        np.testing.assert_array_equal(estimator._delta.base_counts, counts_before)
        expected = float(
            counts_before @ estimator._engine.compiled.benefits
        ) / NUM_WORLDS
        assert outcome.base_benefit == expected
        assert (outcome.base_benefit > before) == (counts_before[2] > 0)
    finally:
        estimator.close()


def test_kernel_and_oracle_agree_after_reconcile():
    graph_a = build_graph()
    graph_b = build_graph()
    oracle = _warm_estimator(graph_a, use_kernel=False)
    kernel = _warm_estimator(graph_b, use_kernel=None)
    try:
        assert oracle.snapshot_base(SEEDS, ALLOC) == kernel.snapshot_base(
            SEEDS, ALLOC
        )
        out_a = oracle.ingest_events(CHURN_BATCH)
        out_b = kernel.ingest_events(CHURN_BATCH)
        assert out_a.dirty_worlds == out_b.dirty_worlds
        assert out_a.base_benefit == out_b.base_benefit
        _assert_snapshot_state_identical(oracle._delta, kernel._delta)
    finally:
        oracle.close()
        kernel.close()


def test_reconcile_with_workers_matches_serial():
    serial_graph = build_graph()
    pooled_graph = build_graph()
    serial = _warm_estimator(serial_graph)
    pooled = MonteCarloEstimator(
        pooled_graph,
        num_samples=NUM_WORLDS,
        seed=17,
        incremental=True,
        use_kernel=False,
        workers=2,
        shard_size=8,
    )
    try:
        assert serial.snapshot_base(SEEDS, ALLOC) == pooled.snapshot_base(
            SEEDS, ALLOC
        )
        out_serial = serial.ingest_events(CHURN_BATCH)
        out_pooled = pooled.ingest_events(CHURN_BATCH)
        assert out_serial.base_benefit == out_pooled.base_benefit
        _assert_snapshot_state_identical(serial._delta, pooled._delta)
        # The evolved estimator keeps answering warm queries identically.
        follow_up = {**ALLOC, 5: ALLOC.get(5, 0) + 1}
        assert serial.expected_benefit(set(SEEDS), follow_up) == (
            pooled.expected_benefit(set(SEEDS), follow_up)
        )
    finally:
        serial.close()
        pooled.close()


def test_newly_resolving_seed_falls_back_to_fresh_snapshot():
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        # "ghost" does not exist yet: the snapshot silently skips it (same
        # contract as indices_of), so when the batch brings it into being the
        # deployment resolves differently and the remap splice is invalid.
        estimator.snapshot_base([0, "ghost"], {0: 2})
        passes_before = estimator.delta_snapshot_passes
        outcome = estimator.ingest_events(
            GraphEventBatch(
                [
                    NodeAdd("ghost", NodeAttributes(benefit=2.0, seed_cost=1.0)),
                    EdgeAdd("ghost", 4, 0.5),
                ]
            )
        )
        assert not outcome.reconciled
        assert estimator.delta_snapshot_passes == passes_before + 1
        assert estimator.delta_reconcile_passes == 0

        cold_engine, cold = _cold_delta(estimator, [0, "ghost"], {0: 2})
        try:
            _assert_snapshot_state_identical(estimator._delta, cold)
            assert outcome.base_benefit == cold.base_benefit
        finally:
            cold_engine.close()
    finally:
        estimator.close()


def _assert_refused_batch_changes_nothing(retired):
    """A refused batch leaves the graph and the resident snapshot as they were."""
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        before = estimator.snapshot_base(SEEDS, ALLOC)
        shape = (graph.num_nodes, graph.num_edges, graph.topology_version)
        batch = GraphEventBatch([EdgeDrop(1, 2), NodeRetire(retired)])
        with pytest.raises(EstimationError):
            estimator.ingest_events(batch)
        assert (graph.num_nodes, graph.num_edges, graph.topology_version) == shape
        estimator.clear_cache()
        assert estimator.expected_benefit(SEEDS, ALLOC) == before
        assert estimator.snapshot_base(SEEDS, ALLOC) == before
        cold = _warm_estimator(build_graph())
        try:
            assert cold.expected_benefit(SEEDS, ALLOC) == before
        finally:
            cold.close()
    finally:
        estimator.close()


def test_retiring_a_base_seed_is_rejected():
    _assert_refused_batch_changes_nothing(SEEDS[0])


def test_retiring_a_base_coupon_holder_is_rejected():
    assert 7 not in SEEDS and ALLOC[7] > 0
    _assert_refused_batch_changes_nothing(7)


def test_events_without_snapshot_still_evolve_the_engine():
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        outcome = estimator.ingest_events(CHURN_BATCH)
        assert not outcome.reconciled
        assert outcome.base_benefit is None
        # Later evaluation runs on the evolved graph and matches a cold
        # snapshot of the same deployment.
        benefit = estimator.snapshot_base(SEEDS, ALLOC)
        cold_engine, cold = _cold_delta(estimator, SEEDS, ALLOC)
        try:
            assert benefit == cold.base_benefit
        finally:
            cold_engine.close()
    finally:
        estimator.close()


def test_chained_reconciles_stay_identical():
    """Two event batches in sequence: reconcile-of-a-reconcile."""
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        estimator.snapshot_base(SEEDS, ALLOC)
        estimator.ingest_events(small_batch(graph))
        outcome = estimator.ingest_events(CHURN_BATCH)
        assert estimator.delta_reconcile_passes == 2

        cold_engine, cold = _cold_delta(estimator, SEEDS, ALLOC)
        try:
            _assert_snapshot_state_identical(estimator._delta, cold)
            assert outcome.base_benefit == cold.base_benefit
        finally:
            cold_engine.close()
    finally:
        estimator.close()


def test_clean_shards_chain_shared_blocks_across_versions():
    """A rank-stable edge batch republishes clean worlds' blocks verbatim.

    Block chaining needs: a shared-memory store, no reweights (rank-stable
    rows), no node churn (same offsets geometry), and at least one shard
    with no dirty world.  The dropped edge here has the lowest probability
    in the graph, so most worlds never drew it live.
    """
    graph = build_graph()
    source, target, _ = min(graph.edges(), key=lambda e: e[2])
    estimator = MonteCarloEstimator(
        graph,
        num_samples=NUM_WORLDS,
        seed=17,
        incremental=True,
        use_kernel=False,
        shard_size=5,
        shared_memory=True,
    )
    try:
        estimator.snapshot_base(SEEDS, ALLOC)
        outcome = estimator.ingest_events(
            GraphEventBatch([EdgeDrop(source, target)])
        )
        assert outcome.chained_blocks > 0
        assert outcome.dirty_worlds < NUM_WORLDS

        cold_engine, cold = _cold_delta(estimator, SEEDS, ALLOC)
        try:
            _assert_snapshot_state_identical(estimator._delta, cold)
        finally:
            cold_engine.close()
    finally:
        estimator.close()


def test_whatif_splices_stay_exact_after_reconcile():
    """The reconciled snapshot keeps supporting delta coupon splices."""
    graph = build_graph()
    estimator = _warm_estimator(graph)
    try:
        estimator.snapshot_base(SEEDS, ALLOC)
        estimator.ingest_events(CHURN_BATCH)
        richer = {**ALLOC, 5: ALLOC.get(5, 0) + 1}
        outcome = estimator.delta_extra_coupon(
            set(SEEDS), ALLOC, 5, set(SEEDS), richer
        )
        cold = estimator.expected_benefit(set(SEEDS), richer)
        assert outcome.benefit == cold
    finally:
        estimator.close()

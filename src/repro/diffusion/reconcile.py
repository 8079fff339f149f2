"""Snapshot reconciliation across graph-event applications.

When a :class:`~repro.graph.events.GraphEventBatch` evolves the graph under a
live :class:`~repro.diffusion.delta.DeltaCascadeEngine` snapshot, almost all
of the snapshot is still exactly right: a world whose live-edge draws never
touch a changed edge runs the *identical* cascade on the new graph.  This
module proves that per world and re-simulates only the rest.

The dirty-world rule
--------------------
Draw positions are persistent (see :mod:`repro.graph.events`): a surviving
edge keeps its position, so the layered sampler gives it the same coin flip
in every world across graph versions.  World ``w`` can only change if one of
the batch's changed edges actually participates in its live adjacency, in
either graph version:

* **dropped** edge at position ``p`` with old probability ``q`` — the world
  is affected iff ``draw[p] < q`` (the edge was live and is now gone);
* **added** edge at position ``p`` with probability ``q`` — affected iff
  ``draw[p] < q`` (the edge is live in the new graph; it did not exist in
  the old);
* **reweighted** edge with probabilities ``q_old → q_new`` — affected iff
  ``draw[p] < max(q_old, q_new)``.  Liveness flips only inside the interval
  between the two, but an edge live in *both* versions can still change its
  rank inside its source row (hand-off order), which alters the cascade —
  so any world where the edge is live in either version is conservatively
  dirty.

In a clean world every changed edge is dead in both versions, so the live
target sequence of every node is unchanged (surviving live edges keep their
probabilities and hence their relative ranked order), the cascade replays
move for move, and the recorded queue / limited list / counts are carried
over by bookkeeping alone.  That is why the post-reconcile snapshot is
**bit-identical** to a cold instrumented pass on the evolved graph — the
parity the reconciliation test suite pins across the interpreted oracle,
the native kernel and multiprocess workers.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional

import numpy as np

from repro.diffusion.delta import _sorted_remove
from repro.exceptions import EstimationError
from repro.graph.events import EventApplication

__all__ = [
    "ReconcileOutcome",
    "dirty_world_mask",
    "reconcile_snapshot",
    "refuse_retired_base",
]


class ReconcileOutcome:
    """What one estimator-level reconcile did — the server's receipt.

    Attributes
    ----------
    num_worlds / dirty_worlds:
        Total worlds versus worlds whose draws touch a changed edge; only
        the latter were re-simulated.
    touched_edges:
        Edges the batch changed (added + dropped + reweighted).
    reconciled:
        ``True`` when a live snapshot was advanced in place; ``False`` when
        there was no snapshot to reconcile (nothing solved yet) or the
        deployment did not survive the remap and a fresh snapshot pass ran.
    chained_blocks:
        Shared-memory world blocks republished verbatim under the new graph
        fingerprint (clean shards of a rank-stable batch).
    base_benefit:
        The base deployment's expected benefit on the evolved graph, when a
        snapshot exists (``None`` otherwise).
    """

    __slots__ = (
        "num_worlds",
        "dirty_worlds",
        "touched_edges",
        "reconciled",
        "chained_blocks",
        "base_benefit",
    )

    def __init__(
        self,
        *,
        num_worlds: int,
        dirty_worlds: int,
        touched_edges: int,
        reconciled: bool,
        chained_blocks: int,
        base_benefit: Optional[float],
    ) -> None:
        self.num_worlds = int(num_worlds)
        self.dirty_worlds = int(dirty_worlds)
        self.touched_edges = int(touched_edges)
        self.reconciled = bool(reconciled)
        self.chained_blocks = int(chained_blocks)
        self.base_benefit = base_benefit

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ReconcileOutcome(dirty={self.dirty_worlds}/{self.num_worlds}, "
            f"touched_edges={self.touched_edges}, "
            f"reconciled={self.reconciled}, chained={self.chained_blocks})"
        )


def dirty_world_mask(
    sampler, application: EventApplication, num_worlds: int
) -> np.ndarray:
    """Per-world booleans: does any changed edge touch the world's live set?

    ``sampler`` must be the **evolved** (rekeyed) sampler — added edges live
    at positions past the old stream width, which only its new layer covers.
    Probes exactly the changed positions via
    :meth:`~repro.diffusion.engine.WorldSampler.draws_at`; a batch touching
    few edges costs a few draws per world, not a block re-draw.
    """
    positions: List[int] = []
    thresholds: List[float] = []
    for position, probability in application.added:
        positions.append(position)
        thresholds.append(probability)
    for position, old_probability in application.dropped:
        positions.append(position)
        thresholds.append(old_probability)
    for position, old_probability, new_probability in application.reweighted:
        positions.append(position)
        thresholds.append(max(old_probability, new_probability))
    if not positions:
        return np.zeros(int(num_worlds), dtype=bool)
    draws = sampler.draws_at(np.asarray(positions, dtype=np.int64), num_worlds)
    return (draws < np.asarray(thresholds, dtype=np.float64)).any(axis=1)


def refuse_retired_base(delta, retired) -> None:
    """Raise :class:`EstimationError` if ``retired`` removes part of the base.

    ``retired`` holds node indices in ``delta``'s snapshot index space.  A
    retired base seed or coupon holder has no well-defined reconciliation:
    the deployment itself referenced the removed node.  The estimator runs
    this before it applies a batch, so a refused batch changes nothing.
    """
    retired_set = set(retired)
    for seed_index in delta._base_seed_indices:
        if seed_index in retired_set:
            raise EstimationError(
                f"cannot reconcile: base seed at old index {seed_index} "
                f"was retired by the event batch"
            )
    for old_index in retired_set:
        if delta._base_coupons[old_index] > 0:
            raise EstimationError(
                f"cannot reconcile: retired node index {old_index} "
                f"holds base coupons"
            )


def reconcile_snapshot(
    delta, application: EventApplication, dirty_mask: np.ndarray
) -> Optional[float]:
    """Advance ``delta``'s snapshot across ``application`` in place.

    The heavy lifting behind :meth:`DeltaCascadeEngine.reconcile` — see that
    method for the contract.  ``delta.engine`` must already run on the
    evolved graph.  Returns the new base benefit, or ``None`` when the
    deployment does not survive the remap (caller re-snapshots).
    """
    engine = delta.engine
    compiled = engine.compiled
    num_nodes = compiled.num_nodes
    remap = application.remap
    old_num_nodes = application.old_num_nodes

    refuse_retired_base(delta, application.retired)

    # The deployment re-resolved on the evolved graph must be exactly the
    # old resolution pushed through the remap.  A previously-unknown seed id
    # that now resolves (or a retired-then-re-added one) would have to be
    # inserted into every clean world's queue — a different operation; the
    # caller falls back to a fresh snapshot pass for those.
    new_seed_indices = compiled.indices_of(delta._base_seeds)
    remapped_seeds = [int(remap[i]) for i in delta._base_seed_indices]
    if new_seed_indices != remapped_seeds:
        return None

    dirty = np.flatnonzero(np.asarray(dirty_mask, dtype=bool)).tolist()

    # (1) Un-record the dirty worlds in old index space: subtract their
    # queues from the counts and remove them from the per-node world lists.
    counts = delta._base_counts.copy()
    removed_flat: List[int] = []
    for world_index in dirty:
        queue = delta._base_queues[world_index]
        removed_flat.extend(queue)
        for node_index in queue:
            _sorted_remove(delta._active_worlds, node_index, world_index)
        for node_index in delta._base_limited[world_index]:
            _sorted_remove(delta._limited_worlds, node_index, world_index)
    if removed_flat:
        counts -= np.bincount(
            np.asarray(removed_flat, dtype=np.int64), minlength=old_num_nodes
        )

    # (2) Move the clean-world state into the new index space.  A retired
    # node can only ever be active (or limited) in dirty worlds — activation
    # needs a live in-edge, and a live dropped edge marks the world dirty —
    # so after step (1) nothing clean references a retired index.
    identity = application.identity_remap and num_nodes >= old_num_nodes
    if identity and num_nodes == old_num_nodes:
        new_counts = counts
    elif identity:
        new_counts = np.zeros(num_nodes, dtype=np.int64)
        new_counts[:old_num_nodes] = counts
    else:
        if counts[list(application.retired)].any():
            raise EstimationError(
                "snapshot splice inconsistency: a retired node is still "
                "counted in a clean world"
            )
        new_counts = np.zeros(num_nodes, dtype=np.int64)
        survivors = np.flatnonzero(remap >= 0)
        new_counts[remap[survivors]] = counts[survivors]
        translate = remap.tolist()
        for worlds_by_node in (delta._active_worlds, delta._limited_worlds):
            if any(translate[node_index] < 0 for node_index in worlds_by_node):
                raise EstimationError(
                    "snapshot splice inconsistency: a retired node still "
                    "indexes a clean world"
                )
        delta._active_worlds = {
            translate[node_index]: worlds
            for node_index, worlds in delta._active_worlds.items()
        }
        delta._limited_worlds = {
            translate[node_index]: worlds
            for node_index, worlds in delta._limited_worlds.items()
        }
        dirty_set = set(dirty)
        for world_index in range(engine.num_worlds):
            if world_index in dirty_set:
                continue
            delta._base_queues[world_index] = [
                translate[node_index]
                for node_index in delta._base_queues[world_index]
            ]
            delta._base_limited[world_index] = [
                translate[node_index]
                for node_index in delta._base_limited[world_index]
            ]

    # Rebuild the dense coupon vector from the identifier-keyed allocation —
    # exactly what a cold snapshot would do on the evolved graph (including
    # holders that only now resolve to a node: they are never active in a
    # clean world, so only the dirty re-simulations below can see them).
    new_coupons = [0] * num_nodes
    index = compiled.index
    for node, count in delta._base_alloc.items():
        position = index.get(node)
        if position is not None:
            new_coupons[position] = count
    delta._base_seed_indices = new_seed_indices
    delta._base_coupons = new_coupons

    # (3) Re-simulate the dirty worlds on the evolved engine and splice the
    # results in, exactly like the coupon/seed splices do.
    added_flat: List[int] = []
    if new_seed_indices and dirty:
        instrumented = engine.cascade_worlds_instrumented(
            dirty, new_seed_indices, new_coupons
        )
        for world_index, (queue, limited) in zip(dirty, instrumented):
            added_flat.extend(queue)
            for node_index in queue:
                insort(
                    delta._active_worlds.setdefault(node_index, []), world_index
                )
            for node_index in limited:
                insort(
                    delta._limited_worlds.setdefault(node_index, []), world_index
                )
            delta._base_queues[world_index] = queue
            delta._base_limited[world_index] = limited
    elif dirty:
        for world_index in dirty:
            delta._base_queues[world_index] = []
            delta._base_limited[world_index] = []
    if added_flat:
        new_counts += np.bincount(
            np.asarray(added_flat, dtype=np.int64), minlength=num_nodes
        )

    delta._base_counts = new_counts
    delta.base_benefit = (
        float(new_counts @ compiled.benefits) / engine.num_worlds
        if new_seed_indices
        else 0.0
    )
    delta.reconcile_passes += 1
    delta.reconciled_worlds += len(dirty)
    return delta.base_benefit

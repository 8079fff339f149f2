"""Incremental delta-evaluation of single-investment deployment changes.

The greedy phases of S3CA only ever ask the estimator about deployments that
differ from a known *base* by exactly one investment: one extra coupon on some
node, or one new seed.  :class:`DeltaCascadeEngine` exploits that structure:
it snapshots the base deployment's per-world cascades once (an instrumented
full pass over the shared live-edge worlds) and then answers delta queries by
re-simulating **only** the worlds in which the change can possibly alter the
outcome, splicing the per-world differences into the base activation counts.

Which worlds can change is an exact property of the deterministic
SC-constrained cascade:

* **extra coupon on ``v``** — the coupon vector is only read when a node is
  dequeued, so if ``v`` never activates in a world the cascade is unchanged;
  if ``v`` activates but its hand-out walk was not coupon-limited (it
  reached the end of its live edge list, or stopped with coupons to spare)
  an extra coupon is never spent and the walk is again unchanged.  Only the
  worlds in which ``v``'s walk was *coupon-limited* need re-simulation.
* **new seed ``v``** — in worlds where ``v`` was already inactive, no base
  node ever reached ``v`` with a spare coupon (otherwise ``v`` would have
  activated), so pre-visiting ``v`` changes nothing about the base portion;
  if additionally ``v`` holds no coupons or has no live out-edges, the
  outcome is exactly the base activation set plus ``v``.  Every other world
  (``v`` active in the base — activation *order* shifts — or ``v`` able to
  spread) is re-simulated.

Bit-identical parity
--------------------
All bookkeeping is integer activation counts, so splicing is exact: the
resulting count vector equals the one a fresh
:meth:`~repro.diffusion.engine.CompiledCascadeEngine.run` would produce, and
the expected benefit comes from the engine's one benefit expression,
:meth:`~repro.diffusion.engine.CompiledCascadeEngine.benefit_of` — the delta
path is bit-for-bit identical to the full pass, not merely close.
:class:`DeltaOutcome` additionally carries the sparse count delta so a
caller can cheaply *re-derive* the benefit against a newer snapshot (see
:meth:`DeltaCascadeEngine.refresh_benefit`), plus the re-simulated world
indices and the coupon-limited nodes observed inside them — the ingredients
of the exact cache-invalidation rule used by the CELF lazy queue in
:mod:`repro.core.investment`.

One owner of the snapshot
-------------------------
:class:`DeltaCascadeEngine` is the only code that reads or writes its
snapshot state.  The base deployment is recorded in one place
(``_record_base``).  A snapshot and a graph-event reconcile record every
world — its activation queue, its coupon-limited list and its entries in
both node→world indexes — in one ascending pass (``_install``); a coupon
splice or a seed splice replaces single worlds through one primitive
(``_replace_world``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.diffusion.engine import CompiledCascadeEngine
from repro.exceptions import EstimationError
from repro.graph.events import EventApplication

NodeId = Hashable


class DeltaOutcome:
    """Result of one delta evaluation.

    Attributes
    ----------
    benefit:
        Expected benefit of the new deployment — bit-identical to a full
        engine pass when ``exact`` is ``True``.
    delta_index / delta_values:
        Sparse difference between the new and the base activation-count
        vectors (``None`` when the evaluation fell back to a full pass).
    dirty_worlds:
        World indices that were re-simulated (``None`` on fallback); these
        are the only worlds whose base outcome the accepted investment can
        change.
    touched:
        Node identifiers that were coupon-limited inside any re-simulated
        world: raising *their* coupon count is the only single-node increment
        that could alter those re-simulations.
    exact:
        ``False`` when the query did not match the snapshot (different seed
        order, multi-node change, ...) and a full pass was used instead; the
        benefit is still exact, but no delta bookkeeping is available.
    world_queues / world_limited:
        Per-dirty-world instrumentation of the re-simulations: the new
        activation queue and the new coupon-limited list of every
        re-simulated world (``None`` on fallback).  When the evaluated
        investment is *accepted*, :meth:`DeltaCascadeEngine.splice_base`
        grafts these directly into the snapshot instead of re-running a full
        instrumented pass.
    clean_limited:
        Only on :meth:`DeltaCascadeEngine.eval_new_seed` outcomes evaluated
        with ``collect_clean_limited=True``: the *clean* (not re-simulated)
        worlds in which the new seed holds live out-edges while carrying no
        coupons — exactly the worlds where a fresh instrumented pass would
        flag it coupon-limited at its dequeue.
        :meth:`DeltaCascadeEngine.splice_base_new_seed` needs this limited-bit
        bookkeeping to graft an accepted zero-coupon pivot without the full
        pass.  ``None`` when the evaluation did not collect it.
    """

    __slots__ = (
        "benefit",
        "delta_index",
        "delta_values",
        "dirty_worlds",
        "touched",
        "exact",
        "world_queues",
        "world_limited",
        "clean_limited",
    )

    def __init__(
        self,
        benefit: float,
        delta_index: Optional[np.ndarray],
        delta_values: Optional[np.ndarray],
        dirty_worlds: Optional[Tuple[int, ...]],
        touched: FrozenSet[NodeId],
        exact: bool,
        world_queues: Optional[Dict[int, List[int]]] = None,
        world_limited: Optional[Dict[int, List[int]]] = None,
        clean_limited: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.benefit = benefit
        self.delta_index = delta_index
        self.delta_values = delta_values
        self.dirty_worlds = dirty_worlds
        self.touched = touched
        self.exact = exact
        self.world_queues = world_queues
        self.world_limited = world_limited
        self.clean_limited = clean_limited


class DeltaCascadeEngine:
    """Snapshot-based incremental evaluator over a compiled cascade engine."""

    def __init__(self, engine: CompiledCascadeEngine) -> None:
        self.engine = engine
        self._base_seeds: List[NodeId] = []
        self._base_seed_indices: List[int] = []
        self._base_alloc: Dict[NodeId, int] = {}
        self._base_coupons: List[int] = [0] * engine.compiled.num_nodes
        self._base_queues: List[List[int]] = []
        self._base_limited: List[List[int]] = []
        self._base_counts: Optional[np.ndarray] = None
        self.base_benefit: float = 0.0
        self._active_worlds: Dict[int, List[int]] = {}
        self._limited_worlds: Dict[int, List[int]] = {}
        #: Instrumented full passes run by :meth:`snapshot` vs accepted moves
        #: grafted by :meth:`splice_base` (coupon accepts) and
        #: :meth:`splice_base_new_seed` (pivot accepts) — the benchmark's
        #: evidence that every per-greedy-step re-snapshot pass is gone.
        self.snapshot_passes = 0
        self.spliced_advances = 0
        self.spliced_seed_advances = 0
        #: Graph-event reconciliations absorbed without a snapshot pass, and
        #: how many (dirty) worlds they re-simulated in total — the proof
        #: that graph churn does not cost cold resolves.
        self.reconcile_passes = 0
        self.reconciled_worlds = 0

    @property
    def has_snapshot(self) -> bool:
        """Whether :meth:`snapshot` has been called at least once."""
        return self._base_counts is not None

    @property
    def base_counts(self) -> Optional[np.ndarray]:
        """The base deployment's activation-count vector (read-only use)."""
        return self._base_counts

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------

    def snapshot(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Tuple[np.ndarray, float]:
        """Instrumented full pass establishing the base deployment.

        Returns ``(activation_counts, expected_benefit)`` exactly like
        :meth:`CompiledCascadeEngine.run` on the same inputs, while recording
        the per-world activation queues, each node's active worlds and each
        node's coupon-limited worlds for later delta queries.
        """
        engine = self.engine
        self._record_base(seeds, allocation)
        if self._base_seed_indices:
            worlds = engine.cascade_worlds_instrumented(
                range(engine.num_worlds), self._base_seed_indices, self._base_coupons
            )
        else:
            worlds = (([], []) for _ in range(engine.num_worlds))
        self._install(worlds)
        self.snapshot_passes += 1
        return self._base_counts, self.base_benefit

    # ------------------------------------------------------------------
    # delta queries
    # ------------------------------------------------------------------

    def coupon_dirty_worlds(self, node: NodeId) -> Tuple[int, ...]:
        """Worlds an extra coupon on ``node`` can change, under the snapshot."""
        self._require_snapshot()
        position = self.engine.compiled.index.get(node)
        if position is None:
            return ()
        return tuple(self._limited_worlds.get(position, ()))

    def eval_extra_coupon(
        self,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> DeltaOutcome:
        """Evaluate ``base`` with ``node``'s coupon count raised.

        ``new_seeds`` / ``new_allocation`` describe the *resulting*
        deployment; they are verified against the snapshot (same seed order,
        allocation differing only on ``node`` and only upward) and the
        evaluation falls back to a full engine pass when they do not match.
        """
        self._require_snapshot()
        engine = self.engine
        compiled = engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        if new_seed_indices != self._base_seed_indices:
            return self._fallback(new_seed_indices, new_allocation)
        new_alloc = _normalize(new_allocation)
        if not _single_increase(self._base_alloc, new_alloc, node):
            return self._fallback(new_seed_indices, new_allocation)

        position = compiled.index.get(node)
        if position is None:
            # Unknown coupon holders are ignored by the cascade entirely.
            return self._unchanged()

        dirty = self._limited_worlds.get(position, [])
        coupons = list(self._base_coupons)
        coupons[position] = new_alloc[node]
        return self._splice(dirty, self._base_seed_indices, coupons, clean_node=None)

    def eval_new_seed(
        self,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
        *,
        collect_clean_limited: bool = False,
    ) -> DeltaOutcome:
        """Evaluate ``base`` with ``node`` added to the seed set.

        ``new_allocation`` may additionally raise ``node``'s own coupon count
        (the pivot-queue construction seeds users together with one coupon);
        any other difference falls back to a full pass.

        ``collect_clean_limited`` additionally records, on the returned
        outcome, the clean worlds in which a zero-coupon ``node`` holds live
        out-edges (so a fresh instrumented pass would flag it coupon-limited
        there) — the extra bookkeeping :meth:`splice_base_new_seed` needs
        when the evaluated pivot is *accepted*.  The scan touches only the
        per-world live-edge offsets, never a cascade.
        """
        self._require_snapshot()
        engine = self.engine
        compiled = engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        position = compiled.index.get(node)
        if position is None:
            return self._fallback(new_seed_indices, new_allocation)
        if position in self._base_seed_indices:
            if new_seed_indices == self._base_seed_indices and _normalize(
                new_allocation
            ) == self._base_alloc:
                return self._unchanged()
            return self._fallback(new_seed_indices, new_allocation)
        stripped = [i for i in new_seed_indices if i != position]
        if stripped != self._base_seed_indices:
            return self._fallback(new_seed_indices, new_allocation)
        new_alloc = _normalize(new_allocation)
        if new_alloc != self._base_alloc and not _single_increase(
            self._base_alloc, new_alloc, node
        ):
            return self._fallback(new_seed_indices, new_allocation)

        seed_coupons = new_alloc.get(node, 0)
        active = self._active_worlds.get(position, [])
        # The worlds where ``node`` is inactive but holds live out-edges: a
        # coupon-carrying seed can spread there (re-simulate them, after the
        # active worlds, in ascending order), while a zero-coupon seed is
        # coupon-limited there at its dequeue.  One scan of the shard blocks
        # in order (bounded memory under sharding); the per-world live-edge
        # test is one vectorized column compare on the block's flat offsets.
        live_inactive: List[int] = []
        if (seed_coupons > 0 or collect_clean_limited) and (
            compiled.indptr[position + 1] > compiled.indptr[position]
        ):
            active_set = set(active)
            for start, count, block in engine.world_blocks():
                has_live = block.offsets[:count, position + 1] > (
                    block.offsets[:count, position]
                )
                for slot in np.flatnonzero(has_live).tolist():
                    if start + slot not in active_set:
                        live_inactive.append(start + slot)
        dirty = list(active)
        clean_limited: List[int] = []
        if seed_coupons > 0:
            dirty.extend(live_inactive)
        else:
            clean_limited = live_inactive

        coupons = list(self._base_coupons)
        coupons[position] = seed_coupons
        outcome = self._splice(
            dirty,
            new_seed_indices,
            coupons,
            clean_node=position,
            clean_count=engine.num_worlds - len(dirty),
        )
        if collect_clean_limited:
            outcome.clean_limited = tuple(clean_limited)
        return outcome

    def refresh_benefit(self, outcome: DeltaOutcome) -> float:
        """Re-derive an outcome's benefit against the *current* snapshot.

        Valid only while the outcome's per-world deltas still hold for the
        current base (the caller's invalidation rule guarantees this); the
        result is bit-identical to re-running the evaluation from scratch.
        """
        self._require_snapshot()
        if not outcome.exact:
            raise EstimationError("cannot refresh a fallback delta outcome")
        counts = self._base_counts.copy()
        if outcome.delta_index is not None and outcome.delta_index.size:
            counts[outcome.delta_index] += outcome.delta_values
        return self.engine.benefit_of(counts)

    # ------------------------------------------------------------------
    # surgical snapshot advancement
    # ------------------------------------------------------------------

    def splice_base(
        self,
        outcome: DeltaOutcome,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> Optional[float]:
        """Make an accepted extra-coupon move's deployment the new base.

        ``outcome`` must be the :class:`DeltaOutcome` of evaluating exactly
        ``(new_seeds, new_allocation)`` against the current base — the greedy
        loop hands back the evaluation it just accepted.  Instead of running
        a fresh instrumented pass over every world (O(num_samples) per greedy
        step), the outcome's already re-simulated worlds are grafted into the
        snapshot: each dirty world is replaced through ``_replace_world``
        (which keeps the per-node world indexes sorted, exactly as a fresh
        ascending world scan builds them), the count vector is advanced by
        the outcome's sparse delta and the benefit is re-derived with
        :meth:`CompiledCascadeEngine.benefit_of`.  The resulting snapshot
        state is **identical** — queues, indices, counts and benefit, bit for
        bit — to calling :meth:`snapshot` on the new deployment from scratch.

        A reused (CELF-refreshed) outcome is equally valid: the lazy queue's
        invalidation rule guarantees its per-world re-simulations still equal
        what a fresh evaluation would produce, and the dirty-set equality
        check below re-verifies that against the current snapshot.

        Returns the new base benefit, or ``None`` when the outcome cannot be
        spliced (fallback outcome, seed change, non-single-increment
        allocation, stale dirty set) — the caller then falls back to
        :meth:`snapshot`.
        """
        if not self.has_snapshot:
            return None
        if not outcome.exact or outcome.world_queues is None:
            return None
        compiled = self.engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        if new_seed_indices != self._base_seed_indices:
            return None
        new_alloc = _normalize(new_allocation)
        if not _single_increase(self._base_alloc, new_alloc, node):
            return None
        # The outcome's dirty set must be exactly what the *current* snapshot
        # says an extra coupon on ``node`` can change (nothing, for an unknown
        # holder: it never reaches the cascade) — refuses stale records the
        # lazy queue's invalidation rule would have rejected.
        position = compiled.index.get(node)
        if outcome.dirty_worlds != tuple(self._limited_worlds.get(position, ())):
            return None

        for world_index in outcome.dirty_worlds:
            self._replace_world(
                world_index,
                outcome.world_queues[world_index],
                outcome.world_limited[world_index],
            )
        self.spliced_advances += 1
        return self._advance(outcome, new_seeds, new_alloc)

    def splice_base_new_seed(
        self,
        outcome: DeltaOutcome,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> Optional[float]:
        """Make an accepted *pivot* (new-seed) move's deployment the new base.

        ``outcome`` must come from :meth:`eval_new_seed` with
        ``collect_clean_limited=True`` evaluated for exactly
        ``(new_seeds, new_allocation)`` against the current base.  The
        outcome's re-simulated (dirty) worlds are grafted exactly as in
        :meth:`splice_base`; the *clean* worlds — where the base cascade is
        provably untouched — are advanced by pure bookkeeping:

        * the new seed is inserted into each clean world's activation queue
          at its canonical position in the seed prefix (fresh snapshots seed
          the queue in canonical order);
        * where the outcome's ``clean_limited`` bookkeeping says a
          zero-coupon seed holds live out-edges, the seed is inserted into
          that world's coupon-limited list at its dequeue position — after
          the limited seeds that precede it, before everything else;
        * the per-node active/limited world indices and the count vector are
          updated to match.

        The resulting snapshot state is **identical** — queues, limited
        lists, indices, counts and benefit, bit for bit — to
        :meth:`snapshot` on the new deployment from scratch.  Returns the new
        base benefit, or ``None`` when the outcome cannot be spliced
        (fallback outcome, missing bookkeeping, mismatched deployment, stale
        dirty set) — the caller then falls back to :meth:`snapshot`.
        """
        if not self.has_snapshot:
            return None
        if (
            not outcome.exact
            or outcome.world_queues is None
            or outcome.dirty_worlds is None
            or outcome.clean_limited is None
        ):
            return None
        compiled = self.engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        position = compiled.index.get(node)
        if position is None or position in self._base_seed_indices:
            return None
        if position not in new_seed_indices:
            return None
        stripped = [i for i in new_seed_indices if i != position]
        if stripped != self._base_seed_indices:
            return None
        new_alloc = _normalize(new_allocation)
        if new_alloc != self._base_alloc and not _single_increase(
            self._base_alloc, new_alloc, node
        ):
            return None
        seed_coupons = new_alloc.get(node, 0)
        # The outcome must match the *current* snapshot: eval_new_seed builds
        # its dirty list as the node's active worlds (ascending) followed by
        # inactive live-edge worlds (coupon-carrying seeds only).
        active = tuple(self._active_worlds.get(position, ()))
        if tuple(outcome.dirty_worlds[: len(active)]) != active:
            return None
        extras = outcome.dirty_worlds[len(active):]
        if extras and seed_coupons <= 0:
            return None
        if outcome.clean_limited and seed_coupons > 0:
            return None
        active_set = set(active)
        if any(world in active_set for world in extras):
            return None

        for world_index in outcome.dirty_worlds:
            self._replace_world(
                world_index,
                outcome.world_queues[world_index],
                outcome.world_limited[world_index],
            )

        # Clean worlds: base cascade untouched, bookkeeping only.
        base_queues = self._base_queues
        base_limited = self._base_limited
        limited_worlds = self._limited_worlds
        queue_slot = new_seed_indices.index(position)
        prefix = set(new_seed_indices[:queue_slot])
        dirty_set = set(outcome.dirty_worlds)
        clean_limited_set = set(outcome.clean_limited)
        node_active = self._active_worlds.setdefault(position, [])
        for world_index in range(self.engine.num_worlds):
            if world_index in dirty_set:
                continue
            base_queues[world_index].insert(queue_slot, position)
            insort(node_active, world_index)
            if world_index in clean_limited_set:
                limited = base_limited[world_index]
                # Seeds are dequeued first, in canonical order, so the new
                # seed's limited entry lands after the limited seeds that
                # precede it in that order and before everything else.
                slot = 0
                while slot < len(limited) and limited[slot] in prefix:
                    slot += 1
                limited.insert(slot, position)
                insort(limited_worlds.setdefault(position, []), world_index)

        self.spliced_seed_advances += 1
        return self._advance(outcome, new_seeds, new_alloc)

    # ------------------------------------------------------------------
    # graph events
    # ------------------------------------------------------------------

    def refuse_retired_base(self, retired: Iterable[int]) -> None:
        """Raise :class:`EstimationError` if ``retired`` removes part of the base.

        ``retired`` holds node indices in the snapshot's index space.  A
        retired base seed or coupon holder has no well-defined
        reconciliation: the deployment itself referenced the removed node.
        The estimator runs this before it applies a batch, so a refused batch
        changes nothing.
        """
        retired_set = set(retired)
        for seed_index in self._base_seed_indices:
            if seed_index in retired_set:
                raise EstimationError(
                    f"cannot reconcile: base seed at old index {seed_index} "
                    f"was retired by the event batch"
                )
        for old_index in retired_set:
            if self._base_coupons[old_index] > 0:
                raise EstimationError(
                    f"cannot reconcile: retired node index {old_index} "
                    f"holds base coupons"
                )

    def reconcile(
        self, application: EventApplication, dirty_mask: np.ndarray
    ) -> Tuple[float, bool]:
        """Advance the snapshot across a graph-event application.

        The engine must already have been evolved
        (:meth:`CompiledCascadeEngine.apply_events`); ``dirty_mask`` flags
        the worlds whose live-edge draws touch a changed edge (see
        :mod:`repro.diffusion.reconcile` for why no other world can change).
        Only those are re-simulated; the clean worlds' recorded queues and
        limited lists are carried over (index-remapped when nodes were
        retired), and one ascending pass rebuilds both node→world indexes,
        the counts and the benefit, as :meth:`snapshot` does.  The resulting
        snapshot state is bit-identical to :meth:`snapshot` on the new graph
        from scratch.

        Returns ``(base_benefit, reconciled)``.  ``reconciled`` is ``False``
        when the deployment does not survive the remap cleanly (e.g. a
        previously-unknown seed id now resolves): the recorded deployment is
        then re-snapshotted with a full pass.  Raises
        :class:`EstimationError` when the batch retired a base seed or an
        active coupon holder, which has no well-defined reconciliation.
        """
        engine = self.engine
        compiled = engine.compiled
        remap = application.remap
        self.refuse_retired_base(application.retired)

        # The deployment re-resolved on the evolved graph must be exactly the
        # old resolution pushed through the remap.  A previously-unknown seed
        # id that now resolves (or a retired-then-re-added one) would have to
        # be inserted into every clean world's queue — a different operation;
        # a fresh snapshot pass covers those.
        remapped_seeds = [int(remap[i]) for i in self._base_seed_indices]
        if compiled.indices_of(self._base_seeds) != remapped_seeds:
            _, benefit = self.snapshot(self._base_seeds, self._base_alloc)
            return benefit, False

        dirty = np.flatnonzero(np.asarray(dirty_mask, dtype=bool)).tolist()
        old_queues, old_limited = self._base_queues, self._base_limited
        # Clean worlds keep their queues and limited lists, through the remap
        # when nodes were retired.  A retired node can only ever be active
        # (or limited) in dirty worlds: activation needs a live in-edge, and
        # a live dropped edge marks the world dirty.
        translate = remap.tolist() if application.retired else None

        def carried(world_index: int) -> Tuple[List[int], List[int]]:
            queue, limited = old_queues[world_index], old_limited[world_index]
            if translate is None:
                return queue, limited
            queue = [translate[node_index] for node_index in queue]
            if min(queue, default=0) < 0:
                raise EstimationError(
                    "snapshot splice inconsistency: a retired node is still "
                    "active in a clean world"
                )
            return queue, [translate[node_index] for node_index in limited]

        # Re-resolve the identifier-keyed deployment on the evolved graph —
        # exactly what a cold snapshot does (including coupon holders that
        # only now resolve: they are never active in a clean world, so only
        # the dirty re-simulations can see them).
        self._record_base(self._base_seeds, self._base_alloc)
        seeds = self._base_seed_indices
        resimulated = iter(
            engine.cascade_worlds_instrumented(dirty, seeds, self._base_coupons)
            if seeds
            else ()
        )
        fresh = set(dirty) if seeds else set()
        self._install(
            next(resimulated) if world_index in fresh else carried(world_index)
            for world_index in range(engine.num_worlds)
        )
        self.reconcile_passes += 1
        self.reconciled_worlds += len(dirty)
        return self.base_benefit, True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_snapshot(self) -> None:
        if self._base_counts is None:
            raise EstimationError("DeltaCascadeEngine has no snapshot yet")

    def _record_base(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> None:
        """Record the base deployment: the one place it is written.

        Keeps the identifier seeds, their compiled indices, the positive
        allocation and the dense coupon vector in step.  Seeds take the
        canonical order of :meth:`CompiledCascadeEngine.run`, so every delta
        query built from an equal seed set matches the snapshot; the
        identifiers are kept because graph-event reconciliation re-resolves
        them against the evolved graph.
        """
        compiled = self.engine.compiled
        self._base_seeds = sorted(seeds, key=str)
        self._base_seed_indices = compiled.indices_of(self._base_seeds)
        self._base_alloc = _normalize(allocation)
        coupons = [0] * compiled.num_nodes
        index = compiled.index
        for node, count in self._base_alloc.items():
            position = index.get(node)
            if position is not None:
                coupons[position] = count
        self._base_coupons = coupons

    def _install(self, worlds: Iterable[Tuple[List[int], List[int]]]) -> None:
        """Record every world's ``(queue, limited)``, in world order.

        Builds both node→world indexes, the counts and the benefit in one
        ascending pass: the state a snapshot and a reconcile leave.  The
        lists are kept, not copied.
        """
        queues: List[List[int]] = []
        limited_lists: List[List[int]] = []
        active_worlds: Dict[int, List[int]] = {}
        limited_worlds: Dict[int, List[int]] = {}
        flat: List[int] = []
        for world_index, (queue, limited) in enumerate(worlds):
            queues.append(queue)
            limited_lists.append(limited)
            flat.extend(queue)
            for node_index in queue:
                active_worlds.setdefault(node_index, []).append(world_index)
            for node_index in limited:
                limited_worlds.setdefault(node_index, []).append(world_index)
        engine = self.engine
        self._base_queues = queues
        self._base_limited = limited_lists
        self._active_worlds = active_worlds
        self._limited_worlds = limited_worlds
        self._base_counts = _bincount(flat, engine.compiled.num_nodes)
        self.base_benefit = (
            engine.benefit_of(self._base_counts) if self._base_seed_indices else 0.0
        )

    def _replace_world(
        self, world_index: int, queue: Sequence[int], limited: Sequence[int]
    ) -> None:
        """Replace one world's recorded queue and coupon-limited list.

        Both node→world indexes move by the old→new difference, so every
        index list stays sorted and emptied keys are dropped — exactly as a
        fresh ascending world scan builds them.
        """
        _reindex(self._active_worlds, world_index, self._base_queues[world_index], queue)
        _reindex(
            self._limited_worlds, world_index, self._base_limited[world_index], limited
        )
        self._base_queues[world_index] = list(queue)
        self._base_limited[world_index] = list(limited)

    def _advance(
        self,
        outcome: DeltaOutcome,
        seeds: Iterable[NodeId],
        allocation: Mapping[NodeId, int],
    ) -> float:
        """Finish a splice: apply the outcome's count delta, record the new base."""
        if outcome.delta_index.size:
            self._base_counts[outcome.delta_index] += outcome.delta_values
        self._record_base(seeds, allocation)
        self.base_benefit = self.engine.benefit_of(self._base_counts)
        return self.base_benefit

    def _unchanged(self) -> DeltaOutcome:
        empty = np.empty(0, dtype=np.int64)
        return DeltaOutcome(
            benefit=self.base_benefit,
            delta_index=empty,
            delta_values=empty,
            dirty_worlds=(),
            touched=frozenset(),
            exact=True,
            world_queues={},
            world_limited={},
        )

    def _splice(
        self,
        dirty: List[int],
        seed_indices: List[int],
        coupons: List[int],
        *,
        clean_node: Optional[int] = None,
        clean_count: int = 0,
    ) -> DeltaOutcome:
        """Re-simulate ``dirty`` worlds and splice them into the base counts."""
        engine = self.engine
        compiled = engine.compiled
        num_nodes = compiled.num_nodes

        removed: List[int] = []
        added: List[int] = []
        touched: set = set()
        world_queues: Dict[int, List[int]] = {}
        world_limited: Dict[int, List[int]] = {}
        instrumented = engine.cascade_worlds_instrumented(
            dirty, seed_indices, coupons
        )
        for world_index, (queue, limited) in zip(dirty, instrumented):
            removed.extend(self._base_queues[world_index])
            added.extend(queue)
            touched.update(limited)
            world_queues[world_index] = queue
            world_limited[world_index] = limited

        counts = self._base_counts.copy()
        if clean_node is not None and clean_count:
            counts[clean_node] += clean_count
        if removed:
            counts -= _bincount(removed, num_nodes)
        if added:
            counts += _bincount(added, num_nodes)
        benefit = engine.benefit_of(counts)

        delta = counts - self._base_counts
        delta_index = np.flatnonzero(delta)
        node_ids = compiled.node_ids
        return DeltaOutcome(
            benefit=benefit,
            delta_index=delta_index,
            delta_values=delta[delta_index],
            dirty_worlds=tuple(dirty),
            touched=frozenset(node_ids[i] for i in touched),
            exact=True,
            world_queues=world_queues,
            world_limited=world_limited,
        )

    def _fallback(
        self, seed_indices: List[int], new_allocation: Mapping[NodeId, int]
    ) -> DeltaOutcome:
        """Full engine pass for queries the snapshot cannot answer."""
        compiled = self.engine.compiled
        node_ids = compiled.node_ids
        seeds = [node_ids[i] for i in seed_indices]
        _, benefit = self.engine.run(seeds, new_allocation)
        return DeltaOutcome(
            benefit=benefit,
            delta_index=None,
            delta_values=None,
            dirty_worlds=None,
            touched=frozenset(),
            exact=False,
        )


def _bincount(flat: Sequence[int], length: int) -> np.ndarray:
    """Per-node activation counts of a flat list of node indices."""
    return np.bincount(np.asarray(flat, dtype=np.int64), minlength=length)


def _reindex(
    worlds_by_node: Dict[int, List[int]],
    world_index: int,
    old: Sequence[int],
    new: Sequence[int],
) -> None:
    """Move ``world_index`` from the sorted lists of ``old``'s nodes to ``new``'s."""
    if old == new:
        return
    old_nodes, new_nodes = set(old), set(new)
    for node_index in old_nodes - new_nodes:
        _sorted_remove(worlds_by_node, node_index, world_index)
    for node_index in new_nodes - old_nodes:
        insort(worlds_by_node.setdefault(node_index, []), world_index)


def _sorted_remove(
    mapping: Dict[int, List[int]], key: int, value: int
) -> None:
    """Remove ``value`` from the sorted list ``mapping[key]``; drop empty keys."""
    worlds = mapping[key]
    index = bisect_left(worlds, value)
    if index >= len(worlds) or worlds[index] != value:
        raise EstimationError(
            f"snapshot splice inconsistency: world {value} not indexed "
            f"under node {key}"
        )
    del worlds[index]
    if not worlds:
        del mapping[key]


def _normalize(allocation: Mapping[NodeId, int]) -> Dict[NodeId, int]:
    """Positive entries only — the cascade's view of an allocation."""
    return {node: int(count) for node, count in allocation.items() if int(count) > 0}


def _single_increase(
    base: Mapping[NodeId, int], new: Mapping[NodeId, int], node: NodeId
) -> bool:
    """Whether ``new`` equals ``base`` except for a raised count on ``node``."""
    if new.get(node, 0) <= base.get(node, 0):
        return False
    if len(new) - len(base) not in (0, 1):
        return False
    for key, value in new.items():
        if key != node and base.get(key, 0) != value:
            return False
    for key in base:
        if key != node and key not in new:
            return False
    return True

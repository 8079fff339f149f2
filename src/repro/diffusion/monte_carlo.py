"""Monte-Carlo expected-benefit estimation.

Every algorithm in the library — S3CA's greedy phases, the IM/PM baselines,
the exhaustive optimal solver — needs the expected benefit
``B(S, K(I)) = E[sum of b(v) over activated v]`` for a candidate deployment.
:class:`MonteCarloEstimator` estimates it by averaging the deterministic
cascade over a fixed set of live-edge worlds drawn once per estimator
instance.  Re-using the same worlds for every evaluation (common random
numbers) means the *difference* between two deployments — which is what greedy
decisions compare — has much lower variance than with independent sampling,
and it makes the whole pipeline deterministic for a given seed.

The graph is compiled once into CSR arrays
(:class:`~repro.graph.csr.CompiledGraph`) and all coin flips are drawn as flat
masks by the vectorized :class:`~repro.diffusion.engine.CompiledCascadeEngine`.
One pass yields both the expected benefit and the activation counts, so an
``expected_benefit`` call warms the ``activation_probabilities`` cache and vice
versa.  The engine draws the same worlds, and cascades them the same way, as
the dict-adjacency :func:`~repro.diffusion.live_edge.sample_worlds` /
:func:`~repro.diffusion.live_edge.cascade_in_world` pair, the reference
semantics the parity tests compare against.  The engine snapshots the graph
at construction; graph events reach it through
:meth:`MonteCarloEstimator.ingest_events` or
:meth:`MonteCarloEstimator.reconcile`.

Results are memoised on the (frozen) deployment, because the greedy loops of
S3CA re-evaluate the same base deployment against many candidate increments.
The memo key is order-insensitive, so the estimator must be too: seed
iterables are canonicalised (sorted by ``str``) before they reach the cascade,
whose queue order is seed-order dependent.  Without this, two deployments with
the same seed *set* but different set-iteration orders could produce different
estimates while sharing a cache entry — and the delta-evaluation engine could
never match a re-built deployment against its snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.delta import DeltaCascadeEngine, DeltaOutcome
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.estimator import BenefitEstimator, DeploymentKey
from repro.diffusion.reconcile import ReconcileOutcome, dirty_world_mask
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike

NodeId = Hashable

__all__ = ["BenefitEstimator", "MonteCarloEstimator"]

#: Maximum number of memoised deployments per cache; a cache is cleared
#: wholesale when it grows past this bound (the greedy loops have strong
#: temporal locality, so a simple policy is sufficient).
CACHE_SIZE = 50_000


class MonteCarloEstimator(BenefitEstimator):
    """Expected benefit by averaging over shared live-edge worlds.

    Parameters
    ----------
    graph:
        The social graph (with benefits attached).
    num_samples:
        Number of live-edge worlds.  More worlds = lower variance and more
        runtime; the experiments use a few hundred, unit tests a handful.
    seed:
        Seed controlling the world draws (and hence every estimate).
    incremental:
        When ``True`` (the default), a
        :class:`~repro.diffusion.delta.DeltaCascadeEngine` is attached so the
        greedy loops can evaluate single-investment changes against a
        snapshotted base deployment by re-simulating only the worlds the
        change can affect — with bit-identical results to a full pass.
    shard_size:
        Evaluate worlds in blocks of this size — build, evaluate, discard —
        bounding peak memory to O(shard_size) worlds instead of
        O(num_samples).  ``None`` (default) keeps every world resident.  Any
        value produces bit-identical estimates.
    workers:
        ``workers > 1`` evaluates shard blocks on a persistent process pool
        (see :mod:`repro.diffusion.parallel`) with a deterministic streaming
        reduction: estimates are bit-identical for every worker count.
        ``None``/``1`` evaluates in-process.  Call :meth:`close` (or use the
        estimator as a context manager) to release the pool.
    pool:
        Optional injected :class:`~repro.diffusion.parallel.SharedShardPool`
        shared with other estimators.  The estimator registers its worlds on
        the shared pool, inherits its worker count (``workers`` is then
        ignored) and **never closes an injected pool** — :meth:`close` only
        unregisters this estimator's sampler; shutting the pool down is its
        owner's decision.
    use_kernel:
        Run the cascade inner loop on the native compiled kernel
        (:mod:`repro.diffusion.kernels`).  ``None`` (default) uses the kernel
        when it loads and silently falls back to the interpreted
        loop otherwise; ``True`` warns on fallback; ``False`` forces the
        interpreted oracle path.  Estimates are bit-identical either way.
    shared_memory:
        Zero-copy transport of the compiled graph and the materialised world
        blocks through POSIX shared memory (:mod:`repro.utils.shm`).  ``None``
        (default) turns it on exactly when worlds execute out-of-process
        (``pool`` injected or ``workers > 1``) — that is when broadcast size
        matters; ``True`` forces it even in-process (so other same-seed
        estimators on the machine can attach this estimator's blocks),
        warning and falling back to by-value transport when the platform
        lacks shared memory; ``False`` forces the private-copy transport.
        Estimates are bit-identical for every setting.
    """

    def __init__(
        self,
        graph: SocialGraph,
        num_samples: int = 200,
        seed: SeedLike = None,
        *,
        incremental: bool = True,
        shard_size: Optional[int] = None,
        workers: Optional[int] = None,
        pool=None,
        use_kernel: Optional[bool] = None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        super().__init__(graph)
        if num_samples <= 0:
            raise EstimationError(f"num_samples must be > 0, got {num_samples}")
        self.num_samples = int(num_samples)
        engine = self._engine = CompiledCascadeEngine(
            graph.compiled(), self.num_samples, seed,
            shard_size=shard_size, workers=workers, pool=pool,
            use_kernel=use_kernel, shared_memory=shared_memory,
        )
        self._delta: Optional[DeltaCascadeEngine] = (
            DeltaCascadeEngine(engine) if incremental else None
        )
        self._delta_base_key: Optional[DeploymentKey] = None
        self.incremental = self._delta is not None
        self.shard_size = engine.shard_size
        self.workers = engine.workers
        self.pool = engine.pool
        #: Whether the native cascade kernel executes this estimator's worlds,
        #: which backend resolved, and what warming it cost (benchmark
        #: instrumentation).
        self.kernel_active = engine.kernel_active
        self.kernel_backend = engine.kernel_backend
        self.kernel_compile_seconds = engine.kernel_compile_seconds
        #: Whether the zero-copy shared-memory transport carries this
        #: estimator's graph and world blocks.
        self.shared_memory_active = engine.shared_memory
        #: In-flight evaluations a batch keeps pending before draining the
        #: oldest — wide enough to keep every worker busy, narrow enough to
        #: bound the parent's result buffering.  Results are bit-identical
        #: for any depth; only throughput changes.
        self.pipeline_depth = max(2, 2 * self.workers)
        self._benefit_cache: Dict[DeploymentKey, float] = {}
        self._probability_cache: Dict[DeploymentKey, Dict[NodeId, float]] = {}
        self.evaluations = 0

    # ------------------------------------------------------------------

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        seeds = _canonical_seeds(seeds)
        key = self._key(seeds, allocation)
        cached = self._benefit_cache.get(key)
        if cached is not None:
            return cached
        return self._evaluate(key, seeds, allocation)[1]

    def submit_many(
        self, deployments: Sequence[Tuple[Iterable[NodeId], Mapping[NodeId, int]]]
    ) -> List[float]:
        """Expected benefits of a batch of deployments, pipelined.

        The scheduler's batch primitive (every :class:`EvaluationPlan` this
        estimator hands out executes through here).  Returns exactly what
        calling :meth:`expected_benefit` per deployment would return — same
        numbers, same memoisation — but on a parallel compiled engine the
        uncached evaluations are *submitted* ahead of being drained (up to
        :attr:`pipeline_depth` in flight), so the parent's streaming
        reductions overlap the workers' cascades instead of alternating with
        them.
        """
        deployments = [
            (_canonical_seeds(seeds), allocation) for seeds, allocation in deployments
        ]
        results: List[Optional[float]] = [None] * len(deployments)
        in_flight: "OrderedDict[DeploymentKey, Tuple[object, List[int]]]" = (
            OrderedDict()
        )

        def drain_oldest() -> None:
            key, (run, indices) = next(iter(in_flight.items()))
            del in_flight[key]
            counts, benefit = run.result()
            self._remember(self._benefit_cache, key, benefit)
            self._remember(
                self._probability_cache, key, self._counts_to_probabilities(counts)
            )
            self.evaluations += 1
            for position in indices:
                results[position] = benefit

        for position, (seeds, allocation) in enumerate(deployments):
            key = self._key(seeds, allocation)
            cached = self._benefit_cache.get(key)
            if cached is not None:
                results[position] = cached
                continue
            entry = in_flight.get(key)
            if entry is not None:
                entry[1].append(position)
                continue
            in_flight[key] = (self._engine.submit(seeds, allocation), [position])
            if len(in_flight) >= self.pipeline_depth:
                drain_oldest()
        while in_flight:
            drain_oldest()
        return results

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        seeds = _canonical_seeds(seeds)
        key = self._key(seeds, allocation)
        cached = self._probability_cache.get(key)
        if cached is not None:
            return dict(cached)
        return dict(self._evaluate(key, seeds, allocation)[0])

    def expected_spreads(
        self, deployments: Sequence[Tuple[Iterable[NodeId], Mapping[NodeId, int]]]
    ) -> List[float]:
        """Expected activation counts of a batch of deployments, pipelined.

        One pipelined pass per uncached deployment warms both memo caches
        (:meth:`submit_many` stores benefit *and* activation probabilities
        from the same counts), after which the per-deployment
        :meth:`expected_spread` reads are cache hits — the returned values
        are bit-identical to looping :meth:`expected_spread` without the
        batch.
        """
        self.submit_many(deployments)
        return [
            self.expected_spread(seeds, allocation)
            for seeds, allocation in deployments
        ]

    def expected_activations_and_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Tuple[float, float]:
        """Return ``(expected #activated, expected benefit)`` in one pass."""
        probabilities = self.activation_probabilities(seeds, allocation)
        spread = sum(probabilities.values())
        benefit = sum(
            self.graph.benefit(node) * probability
            for node, probability in probabilities.items()
        )
        return spread, benefit

    def clear_cache(self) -> None:
        """Drop all memoised evaluations (worlds are kept)."""
        self._benefit_cache.clear()
        self._probability_cache.clear()

    def close(self) -> None:
        """Release the worker pool, if one was started (idempotent)."""
        self._engine.close()

    def __enter__(self) -> "MonteCarloEstimator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # incremental (delta) evaluation
    # ------------------------------------------------------------------

    @property
    def supports_incremental(self) -> bool:
        """Whether the delta-evaluation engine is available."""
        return self._delta is not None

    @property
    def delta_snapshot_passes(self) -> int:
        """Instrumented full passes the delta engine has run (0 without one)."""
        return self._delta.snapshot_passes if self._delta is not None else 0

    @property
    def delta_spliced_advances(self) -> int:
        """Accepted coupon moves spliced into the snapshot without a full pass."""
        return self._delta.spliced_advances if self._delta is not None else 0

    @property
    def delta_spliced_seed_advances(self) -> int:
        """Accepted pivot (seed) moves spliced into the snapshot without a full pass."""
        return self._delta.spliced_seed_advances if self._delta is not None else 0

    def snapshot_base(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        """Make ``(seeds, allocation)`` the delta-evaluation base deployment.

        A no-op when the deployment is already the snapshot.  The
        instrumented pass doubles as a full evaluation: both the expected
        benefit and the activation probabilities of the base are memoised, so
        the surrounding greedy loop pays one pass per iteration in total.
        Returns the base expected benefit.
        """
        delta = self._require_delta()
        seeds = _canonical_seeds(seeds)
        key = self._key(seeds, allocation)
        if key == self._delta_base_key and delta.has_snapshot:
            return delta.base_benefit
        counts, benefit = delta.snapshot(seeds, allocation)
        self._delta_base_key = key
        self._remember(self._benefit_cache, key, benefit)
        self._remember(
            self._probability_cache, key, self._counts_to_probabilities(counts)
        )
        self.evaluations += 1
        return benefit

    def advance_base(
        self,
        outcome: DeltaOutcome,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> float:
        """Advance the delta base to an accepted move's resulting deployment.

        ``outcome`` must be the accepted move's own :class:`DeltaOutcome`
        (evaluated for exactly ``(new_seeds, new_allocation)`` against the
        current base).  Its already re-simulated worlds are spliced into the
        snapshot surgically — no instrumented full pass — leaving the engine
        in a state identical to :meth:`snapshot_base` on the new deployment.
        Falls back to :meth:`snapshot_base` when the outcome cannot be
        spliced (fallback outcome, seed change, stale record).  Returns the
        new base benefit either way; the benefit and the base's activation
        probabilities are memoised exactly as a fresh snapshot would.
        """
        delta = self._require_delta()
        new_seeds = _canonical_seeds(new_seeds)
        key = self._key(new_seeds, new_allocation)
        if key == self._delta_base_key and delta.has_snapshot:
            return delta.base_benefit
        benefit = delta.splice_base(outcome, node, new_seeds, new_allocation)
        if benefit is None:
            return self.snapshot_base(new_seeds, new_allocation)
        self._delta_base_key = key
        self._remember(self._benefit_cache, key, benefit)
        self._remember(
            self._probability_cache,
            key,
            self._counts_to_probabilities(delta.base_counts),
        )
        return benefit

    def advance_base_new_seed(
        self,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> float:
        """Advance the delta base to an accepted *pivot*'s resulting deployment.

        The accepted seed-add is delta-evaluated against the current base
        (:meth:`DeltaCascadeEngine.eval_new_seed` with the clean-world
        limited-bit bookkeeping collected) and spliced into the snapshot —
        re-simulating only the worlds the new seed can change instead of the
        O(num_samples) instrumented pass a fresh :meth:`snapshot_base` would
        pay.  The spliced snapshot is bit-identical to a fresh one.  Falls
        back to :meth:`snapshot_base` when the splice is refused.  Returns
        the new base benefit either way, memoised exactly as a fresh
        snapshot would be.
        """
        delta = self._require_delta()
        new_seeds = _canonical_seeds(new_seeds)
        key = self._key(new_seeds, new_allocation)
        if key == self._delta_base_key and delta.has_snapshot:
            return delta.base_benefit
        if not delta.has_snapshot:
            return self.snapshot_base(new_seeds, new_allocation)
        outcome = delta.eval_new_seed(
            node, new_seeds, new_allocation, collect_clean_limited=True
        )
        if not outcome.exact:
            return self.snapshot_base(new_seeds, new_allocation)
        self.evaluations += 1
        benefit = delta.splice_base_new_seed(outcome, node, new_seeds, new_allocation)
        if benefit is None:
            return self.snapshot_base(new_seeds, new_allocation)
        self._delta_base_key = key
        self._remember(self._benefit_cache, key, benefit)
        self._remember(
            self._probability_cache,
            key,
            self._counts_to_probabilities(delta.base_counts),
        )
        return benefit

    def delta_extra_coupon(
        self,
        base_seeds: Iterable[NodeId],
        base_allocation: Mapping[NodeId, int],
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> DeltaOutcome:
        """Benefit of the base deployment with one more coupon on ``node``."""
        delta = self._require_delta()
        self.snapshot_base(base_seeds, base_allocation)
        new_seeds = _canonical_seeds(new_seeds)
        outcome = delta.eval_extra_coupon(node, new_seeds, new_allocation)
        self._remember(
            self._benefit_cache, self._key(new_seeds, new_allocation), outcome.benefit
        )
        self.evaluations += 1
        return outcome

    def delta_new_seed(
        self,
        base_seeds: Iterable[NodeId],
        base_allocation: Mapping[NodeId, int],
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> DeltaOutcome:
        """Benefit of the base deployment with ``node`` added as a seed."""
        delta = self._require_delta()
        self.snapshot_base(base_seeds, base_allocation)
        new_seeds = _canonical_seeds(new_seeds)
        outcome = delta.eval_new_seed(node, new_seeds, new_allocation)
        self._remember(
            self._benefit_cache, self._key(new_seeds, new_allocation), outcome.benefit
        )
        self.evaluations += 1
        return outcome

    def refresh_delta_benefit(
        self,
        outcome: DeltaOutcome,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> float:
        """Re-derive a still-valid outcome's benefit against the current base."""
        delta = self._require_delta()
        benefit = delta.refresh_benefit(outcome)
        self._remember(
            self._benefit_cache, self._key(new_seeds, new_allocation), benefit
        )
        return benefit

    def coupon_dirty_worlds(self, node: NodeId) -> Tuple[int, ...]:
        """Worlds an extra coupon on ``node`` can change, per current snapshot."""
        return self._require_delta().coupon_dirty_worlds(node)

    # ------------------------------------------------------------------
    # dynamic graphs: event ingestion + snapshot reconciliation
    # ------------------------------------------------------------------

    @property
    def delta_reconcile_passes(self) -> int:
        """Graph-event reconciliations absorbed without a snapshot pass."""
        return self._delta.reconcile_passes if self._delta is not None else 0

    @property
    def delta_reconciled_worlds(self) -> int:
        """Total dirty worlds re-simulated across all reconciliations."""
        return self._delta.reconciled_worlds if self._delta is not None else 0

    def ingest_events(self, batch) -> ReconcileOutcome:
        """Apply a :class:`~repro.graph.events.GraphEventBatch` end to end.

        Mutates the estimator's :class:`SocialGraph` (delta-recompiling its
        CSR cache) and then reconciles this estimator onto the evolved graph
        via :meth:`reconcile`.
        """
        application = self.graph.apply_events(batch)
        return self.reconcile(application)

    def reconcile(self, application) -> ReconcileOutcome:
        """Absorb an already-applied graph-event batch without a cold resolve.

        ``application`` is the :class:`~repro.graph.events.EventApplication`
        of a batch applied to this estimator's graph.  The compiled engine is
        evolved in place (delta CSR, rekeyed layered sampler, chained shared
        blocks for clean shards), the memo caches are dropped (they are keyed
        by deployment, not graph version), and a live delta snapshot is
        advanced by re-simulating **only** the worlds whose live-edge draws
        touch a changed edge — bit-identical to a cold instrumented pass on
        the evolved graph.  The base deployment's benefit and probabilities
        are re-memoised, so a subsequent :meth:`snapshot_base` on the same
        deployment stays a no-op.
        """
        engine = self._engine
        # Probe dirtiness on a preview of the evolved sampler: layer states
        # are derived deterministically from the frozen base state, so the
        # preview's draws are exactly the post-evolution engine's draws.
        preview = engine.sampler.rekey(
            application.compiled, application.num_new_draws
        )
        mask = dirty_world_mask(preview, application, self.num_samples)
        chained = engine.apply_events(application, dirty_mask=mask)
        self.clear_cache()

        delta = self._delta
        reconciled = False
        base_benefit: Optional[float] = None
        if delta is not None and delta.has_snapshot:
            benefit = delta.reconcile(application, mask)
            if benefit is None:
                # The deployment resolves differently on the new graph (e.g.
                # a previously-unknown seed id now exists): rebuild the
                # snapshot from the kept identifiers — still correct, just
                # not free; the pass shows up in delta_snapshot_passes.
                _, benefit = delta.snapshot(
                    list(delta._base_seeds), dict(delta._base_alloc)
                )
            else:
                reconciled = True
            base_benefit = benefit
            if self._delta_base_key is not None:
                self._remember(self._benefit_cache, self._delta_base_key, benefit)
                self._remember(
                    self._probability_cache,
                    self._delta_base_key,
                    self._counts_to_probabilities(delta.base_counts),
                )
        return ReconcileOutcome(
            num_worlds=self.num_samples,
            dirty_worlds=int(mask.sum()),
            touched_edges=application.touched_edges,
            reconciled=reconciled,
            chained_blocks=chained,
            base_benefit=base_benefit,
        )

    def _require_delta(self) -> DeltaCascadeEngine:
        if self._delta is None:
            raise EstimationError(
                "incremental evaluation requires incremental=True"
            )
        return self._delta

    # ------------------------------------------------------------------

    def _evaluate(
        self,
        key: DeploymentKey,
        seeds: Iterable[NodeId],
        allocation: Mapping[NodeId, int],
    ) -> Tuple[Dict[NodeId, float], float]:
        """One engine pass; memoise both the benefit and the probabilities."""
        counts, benefit = self._engine.run(seeds, allocation)
        probabilities = self._counts_to_probabilities(counts)
        self._remember(self._benefit_cache, key, benefit)
        self._remember(self._probability_cache, key, probabilities)
        self.evaluations += 1
        return probabilities, benefit

    def _counts_to_probabilities(self, counts: np.ndarray) -> Dict[NodeId, float]:
        """Activation-count vector -> per-node probability dict (nonzero only)."""
        node_ids = self._engine.compiled.node_ids
        num_samples = self.num_samples
        return {
            node_ids[int(node_index)]: int(counts[node_index]) / num_samples
            for node_index in np.flatnonzero(counts)
        }

    def _remember(self, cache: Dict, key: DeploymentKey, value) -> None:
        if len(cache) >= CACHE_SIZE:
            cache.clear()
        cache[key] = value


def _canonical_seeds(seeds: Iterable[NodeId]) -> list:
    """Deterministic seed order shared by every evaluation of the same set."""
    return sorted(seeds, key=str)

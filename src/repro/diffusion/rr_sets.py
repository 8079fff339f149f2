"""Reverse-reachable (RR) set estimation for plain-IC influence.

The IM literature the paper builds its baselines on (Tang et al.'s TIM/IMM
line, cited as the "reverse greedy" speed-up in Sec. V) estimates influence
spreads from *reverse-reachable sets*: pick a random target user, reveal the
in-edges that are live in one coin-flip world, and collect every user that can
reach the target through live edges.  The expected spread of a seed set ``S``
is then ``n * P(S hits a random RR set)``, and greedy seed selection becomes a
maximum-coverage problem over the sampled RR sets.

This module provides that machinery for the **plain IC model** (the model the
IM/PM baselines reason in).  It is used as the screening tier of the two-tier
estimator (:mod:`repro.diffusion.tiered`), as a faster backend for the IM
selector on larger graphs, and as an independent cross-check of the
Monte-Carlo estimator in tests.  Note that it does not apply to the
SC-constrained cascade: coupon limits break the reverse-reachability argument
because whether an edge can carry influence depends on how many *other*
neighbours redeemed first.

Backends
--------
Sampling runs over a reverse-adjacency CSR built once per sampler
(``backend="csr"``, the default), which preserves each node's
``in_neighbors`` iteration order.  Whenever a native kernel backend resolves
(:func:`repro.diffusion.kernels.load_kernel`), one call of its
``sample_rr_sets`` entry samples every set, drawing from the sampler's own
generator exactly what the dict-adjacency BFS draws: an ``integers(0, n)``
target per set, then one double per not-yet-visited in-neighbour.  On a host
with no native backend (``REPRO_NO_NATIVE_KERNEL`` set, or neither numba nor
a C compiler) a numpy loop samples instead: per BFS-popped node the in-edge
slice is masked against a visited stamp array and the survivors' coins are
drawn with one ``rng.random(k)`` call, which numpy fills with exactly the
``k`` doubles that ``k`` scalar calls would produce.  Both paths therefore
consume the RNG stream *identically* to the original dict-adjacency BFS —
the sets are bit-for-bit equal and the generator ends in the same state
(property-tested in ``tests/properties/test_rr_parity.py``).  The dict path
is kept as the parity oracle (``backend="dict"``).

Either way the sampled sets land in flat int arrays (``rr_flat`` /
``rr_offsets`` / ``root_index``) plus an inverted membership CSR, so coverage
queries, benefit bounds and screening scores are vectorized and the arrays
can ride the shared-memory machinery unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.kernels import load_kernel
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils.indexed_heap import IndexedMaxHeap
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable

SAMPLER_BACKENDS = ("csr", "dict")


class RRSetSampler:
    """Sampler and coverage-based spread estimator over RR sets.

    Parameters
    ----------
    graph:
        The social graph (only edge probabilities are used).
    num_sets:
        Number of RR sets to sample.  More sets = lower estimation variance.
    seed:
        RNG seed; the sampler is fully deterministic given it.
    backend:
        ``"csr"`` (default) samples over the flat reverse-adjacency arrays;
        ``"dict"`` keeps the original dict-adjacency BFS as the parity
        oracle.  Both produce bit-identical sets for the same seed.
    """

    def __init__(
        self,
        graph: SocialGraph,
        num_sets: int = 2000,
        seed: SeedLike = None,
        backend: str = "csr",
    ) -> None:
        if num_sets <= 0:
            raise EstimationError(f"num_sets must be > 0, got {num_sets}")
        if backend not in SAMPLER_BACKENDS:
            raise EstimationError(
                f"unknown RR sampler backend {backend!r}; pick one of {SAMPLER_BACKENDS}"
            )
        self.graph = graph
        self.num_sets = int(num_sets)
        self.backend = backend
        self._rng = spawn_rng(seed)
        self._nodes: List[NodeId] = list(graph.nodes())
        if not self._nodes:
            raise EstimationError("cannot sample RR sets of an empty graph")
        self.index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        #: Flat node-index storage of the sampled sets: set ``i`` is
        #: ``rr_flat[rr_offsets[i]:rr_offsets[i+1]]`` (in BFS visit order).
        self.rr_flat: np.ndarray
        self.rr_offsets: np.ndarray
        #: Node index of each set's random target.
        self.root_index: np.ndarray
        self._materialized: Optional[List[FrozenSet[NodeId]]] = None
        self._mem_offsets: Optional[np.ndarray] = None
        self._mem_sets: Optional[np.ndarray] = None
        if backend == "csr":
            self._build_reverse_csr()
            self._sample_all_csr()
        else:
            self._sample_all_dict()
        self.roots: List[NodeId] = [self._nodes[i] for i in self.root_index]

    @property
    def nodes(self) -> Sequence[NodeId]:
        """Node ids in index order (the inverse of :attr:`index_of`)."""
        return self._nodes

    @property
    def rr_sets(self) -> List[FrozenSet[NodeId]]:
        """The sampled sets as node-id frozensets (materialized lazily)."""
        if self._materialized is None:
            nodes = self._nodes
            flat = self.rr_flat
            offsets = self.rr_offsets
            self._materialized = [
                frozenset(nodes[j] for j in flat[offsets[i] : offsets[i + 1]])
                for i in range(self.num_sets)
            ]
        return self._materialized

    # ------------------------------------------------------------------
    # sampling backends

    def _build_reverse_csr(self) -> None:
        """Reverse adjacency in ``in_neighbors`` iteration order per node.

        The per-node ordering matters: the BFS draws one coin per unvisited
        in-neighbour in iteration order, so preserving it is what keeps the
        CSR backend bit-identical to the dict path.
        """
        index_of = self.index_of
        offsets = np.zeros(len(self._nodes) + 1, dtype=np.int64)
        source_chunks: List[np.ndarray] = []
        prob_chunks: List[np.ndarray] = []
        for index, node in enumerate(self._nodes):
            preds = self.graph.in_neighbors(node)
            offsets[index + 1] = offsets[index] + len(preds)
            if preds:
                source_chunks.append(
                    np.fromiter(
                        (index_of[source] for source in preds), np.int64, len(preds)
                    )
                )
                prob_chunks.append(
                    np.fromiter(preds.values(), np.float64, len(preds))
                )
        self._rin_offsets = offsets
        if source_chunks:
            self._rin_sources = np.concatenate(source_chunks)
            self._rin_probs = np.concatenate(prob_chunks)
        else:
            self._rin_sources = np.empty(0, dtype=np.int64)
            self._rin_probs = np.empty(0, dtype=np.float64)

    def _sample_all_csr(self) -> None:
        """Every set over the reverse CSR: one native call, or the numpy loop.

        The native entry writes into a flat buffer and stops before a set
        that might not fit; the buffer then doubles and sampling resumes
        where it stopped.
        """
        num_nodes = len(self._nodes)
        stamp = np.full(num_nodes, -1, dtype=np.int64)
        self.root_index = np.empty(self.num_sets, dtype=np.int64)
        self.rr_offsets = np.zeros(self.num_sets + 1, dtype=np.int64)
        kernel = load_kernel()
        if kernel is None:
            self.rr_flat = self._sample_all_numpy(stamp)
            return
        # Every set holds at least its root; a set that might not fit is
        # left unstarted, so a larger buffer resumes it.
        flat = np.empty(num_nodes + self.num_sets, dtype=np.int64)
        done = 0
        while True:
            done += kernel.sample_rr_sets(
                self._rin_offsets, self._rin_sources, self._rin_probs,
                self._rng, done, self.root_index, self.rr_offsets, flat, stamp,
            )
            if done == self.num_sets:
                break
            used = self.rr_offsets[done]
            grown = np.empty(max(2 * flat.shape[0], used + num_nodes), np.int64)
            grown[:used] = flat[:used]
            flat = grown
        self.rr_flat = flat[: self.rr_offsets[-1]].copy()

    def _sample_all_numpy(self, stamp: np.ndarray) -> np.ndarray:
        """The interpreted sampler, for hosts without a native kernel.

        Per BFS-popped node the in-edge slice is masked against ``stamp`` and
        the survivors' coins come from one ``rng.random(k)`` call.  Fills
        :attr:`root_index` and :attr:`rr_offsets` and returns the flat sets.
        """
        rng = self._rng
        num_nodes = len(self._nodes)
        offsets = self._rin_offsets
        sources = self._rin_sources
        probs = self._rin_probs
        queue = np.empty(num_nodes, dtype=np.int64)
        root_index = self.root_index
        rr_offsets = self.rr_offsets
        chunks: List[np.ndarray] = []
        for set_id in range(self.num_sets):
            target = int(rng.integers(0, num_nodes))
            root_index[set_id] = target
            stamp[target] = set_id
            queue[0] = target
            head, tail = 0, 1
            while head < tail:
                node = int(queue[head])
                head += 1
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo == hi:
                    continue
                in_sources = sources[lo:hi]
                unvisited = stamp[in_sources] != set_id
                candidates = in_sources[unvisited]
                if candidates.size == 0:
                    continue
                draws = rng.random(candidates.size)
                accepted = candidates[draws < probs[lo:hi][unvisited]]
                if accepted.size:
                    stamp[accepted] = set_id
                    queue[tail : tail + accepted.size] = accepted
                    tail += accepted.size
            chunks.append(queue[:tail].copy())
            rr_offsets[set_id + 1] = rr_offsets[set_id] + tail
        return np.concatenate(chunks)

    def _sample_all_dict(self) -> None:
        sampled = [self._sample_one_dict() for _ in range(self.num_sets)]
        index_of = self.index_of
        rr_offsets = np.zeros(self.num_sets + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        root_index = np.empty(self.num_sets, dtype=np.int64)
        for set_id, (root, members) in enumerate(sampled):
            root_index[set_id] = index_of[root]
            rr_offsets[set_id + 1] = rr_offsets[set_id] + len(members)
            chunks.append(
                np.fromiter(
                    (index_of[node] for node in members), np.int64, len(members)
                )
            )
        self.rr_flat = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        self.rr_offsets = rr_offsets
        self.root_index = root_index
        self._materialized = [frozenset(members) for _, members in sampled]

    def _sample_one_dict(self) -> Tuple[NodeId, Set[NodeId]]:
        """One RR set: reverse BFS from a random target over live in-edges."""
        target = self._nodes[int(self._rng.integers(0, len(self._nodes)))]
        visited: Set[NodeId] = {target}
        frontier = deque([target])
        while frontier:
            node = frontier.popleft()
            for source, probability in self.graph.in_neighbors(node).items():
                if source in visited:
                    continue
                if self._rng.random() < probability:
                    visited.add(source)
                    frontier.append(source)
        return target, visited

    # ------------------------------------------------------------------
    # membership CSR (node -> sampled sets containing it) and coverage

    def _ensure_membership(self) -> None:
        if self._mem_offsets is not None:
            return
        num_nodes = len(self._nodes)
        counts = np.bincount(self.rr_flat, minlength=num_nodes)
        order = np.argsort(self.rr_flat, kind="stable")
        set_ids = np.repeat(
            np.arange(self.num_sets, dtype=np.int64), np.diff(self.rr_offsets)
        )
        self._mem_sets = set_ids[order]
        self._mem_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._mem_offsets[1:])

    def member_sets(self, index: int) -> np.ndarray:
        """Ids of the sampled sets containing node *index* (ascending)."""
        self._ensure_membership()
        assert self._mem_offsets is not None and self._mem_sets is not None
        return self._mem_sets[self._mem_offsets[index] : self._mem_offsets[index + 1]]

    def _seed_indices(self, seeds: Iterable[NodeId]) -> List[int]:
        index_of = self.index_of
        return [index_of[seed] for seed in set(seeds) if seed in index_of]

    def hit_mask(self, seed_indices: Sequence[int]) -> np.ndarray:
        """Boolean mask over set ids: which sampled sets the seeds hit."""
        self._ensure_membership()
        assert self._mem_offsets is not None and self._mem_sets is not None
        hit = np.zeros(self.num_sets, dtype=bool)
        offsets, members = self._mem_offsets, self._mem_sets
        for index in seed_indices:
            hit[members[offsets[index] : offsets[index + 1]]] = True
        return hit

    def hit_root_counts(self, seed_indices: Sequence[int]) -> np.ndarray:
        """Per-root counts of hit sets: entry ``r`` = #{sets rooted at ``r`` hit}."""
        hit_ids = np.flatnonzero(self.hit_mask(seed_indices))
        return np.bincount(
            self.root_index[hit_ids], minlength=len(self._nodes)
        )

    def coverage(self, seeds: Iterable[NodeId]) -> int:
        """Number of sampled RR sets hit by ``seeds``."""
        seed_indices = self._seed_indices(seeds)
        if not seed_indices:
            return 0
        return int(self.hit_mask(seed_indices).sum())

    def expected_spread(self, seeds: Iterable[NodeId]) -> float:
        """Estimated expected number of activated users under plain IC."""
        return self.graph.num_nodes * self.coverage(seeds) / self.num_sets

    def greedy_seeds(self, k: int) -> List[NodeId]:
        """Greedy maximum coverage over the RR sets (the RR-set IM solver).

        Returns up to ``k`` seeds in selection order.  Uses the standard lazy
        evaluation: node gains only decrease as sets get covered, so a stale
        heap priority is always an upper bound.
        """
        if k <= 0:
            return []
        membership: Dict[NodeId, List[int]] = {}
        for index, rr in enumerate(self.rr_sets):
            for node in rr:
                membership.setdefault(node, []).append(index)

        heap: IndexedMaxHeap = IndexedMaxHeap()
        for node, sets in membership.items():
            heap.push(node, float(len(sets)))

        covered = [False] * self.num_sets
        stale: Dict[NodeId, bool] = {node: False for node in membership}
        selected: List[NodeId] = []
        while heap and len(selected) < k:
            node, gain = heap.pop()
            if stale[node]:
                fresh_gain = float(
                    sum(1 for index in membership[node] if not covered[index])
                )
                stale[node] = False
                heap.push(node, fresh_gain)
                continue
            if gain <= 0:
                break
            selected.append(node)
            for index in membership[node]:
                covered[index] = True
            for other in stale:
                stale[other] = True
        return selected


class RRBenefitEstimator(BenefitEstimator):
    """RR-set-backed :class:`BenefitEstimator` for the plain-IC regime.

    The RR-set argument applies to the **unlimited-coupon** relaxation of the
    SC-constrained cascade (plain IC): the coupon allocation passed to
    :meth:`expected_benefit` / :meth:`activation_probabilities` is ignored and
    every activated user is assumed able to refer all her friends.  That makes
    this estimator an *upper-bound* oracle — useful for the IM-U/PM-U
    baselines, for candidate pre-screening, as the screening tier of
    :class:`~repro.diffusion.tiered.TieredEstimator`, and for cross-checking
    the Monte-Carlo estimator — but NOT a drop-in replacement inside the
    coupon aware greedy phases; use the ``mc-compiled`` method there.

    A node's activation probability is estimated from the RR sets *rooted at
    that node*: ``P(v active | S) ~ fraction of RR(v) samples hit by S``.
    With ``num_sets`` samples spread uniformly over roots, each node gets
    about ``num_sets / n`` of them, so size ``num_sets`` accordingly (the
    factory defaults to a multiple of ``n``).
    """

    def __init__(
        self,
        graph: SocialGraph,
        num_sets: int = 2000,
        seed: SeedLike = None,
        backend: str = "csr",
    ) -> None:
        super().__init__(graph)
        self.sampler = RRSetSampler(
            graph, num_sets=num_sets, seed=seed, backend=backend
        )
        self._by_root: Dict[NodeId, List[int]] = {}
        for index, root in enumerate(self.sampler.roots):
            self._by_root.setdefault(root, []).append(index)
        self._root_counts = np.bincount(
            self.sampler.root_index, minlength=len(self.sampler.nodes)
        )
        self._benefits = np.fromiter(
            (graph.benefit(node) for node in self.sampler.nodes),
            np.float64,
            len(self.sampler.nodes),
        )
        self._singleton_vec: Optional[np.ndarray] = None

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        seed_set = {seed for seed in seeds if seed in self.graph}
        if not seed_set:
            return {}
        sampler = self.sampler
        hits = sampler.hit_root_counts(
            [sampler.index_of[seed] for seed in seed_set]
        )
        index_of = sampler.index_of
        probabilities: Dict[NodeId, float] = {}
        for root, indices in self._by_root.items():
            hit = int(hits[index_of[root]])
            if hit:
                probabilities[root] = hit / len(indices)
        for seed in seed_set:  # seeds are certainly active, sampled or not
            probabilities[seed] = 1.0
        return probabilities

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        probabilities = self.activation_probabilities(seeds, allocation)
        graph = self.graph
        return sum(
            graph.benefit(node) * probability
            for node, probability in probabilities.items()
        )

    # ------------------------------------------------------------------
    # vectorized screening scores (the two-tier estimator's fast path)

    def benefit_bound(self, seeds: Iterable[NodeId]) -> float:
        """Plain-IC benefit estimate of ``seeds``, fully vectorized.

        Numerically equal to :meth:`expected_benefit` up to float summation
        order; used as the screening score where bit-level agreement with the
        per-slot path is not required.
        """
        sampler = self.sampler
        seed_indices = [
            sampler.index_of[seed] for seed in set(seeds) if seed in sampler.index_of
        ]
        if not seed_indices:
            return 0.0
        hits = sampler.hit_root_counts(seed_indices)
        fractions = np.zeros(len(self._root_counts), dtype=np.float64)
        sampled = self._root_counts > 0
        fractions[sampled] = hits[sampled] / self._root_counts[sampled]
        fractions[seed_indices] = 1.0  # seeds are certainly active
        return float(np.dot(self._benefits, fractions))

    def benefit_bounds(
        self, deployments: Sequence[Tuple[Iterable[NodeId], Mapping[NodeId, int]]]
    ) -> List[float]:
        """Screening scores for a batch of ``(seeds, allocation)`` specs.

        Allocations are ignored (plain-IC relaxation): deployments differing
        only in coupon placement score identically, which is exactly what
        makes the tier's ``>=``-band screening structurally lossless on
        same-seed-set batches.  Singleton seed sets — the shape of the whole
        pivot-queue batch — read from the precomputed all-nodes bound vector
        (:meth:`singleton_bound`), so screening a thousand-slot batch costs
        one weighted ``bincount``, not a thousand coverage queries.
        """
        results: List[float] = []
        for seeds, _ in deployments:
            materialized = (
                seeds
                if isinstance(seeds, (list, tuple, set, frozenset))
                else list(seeds)
            )
            if len(materialized) == 1:
                results.append(self.singleton_bound(next(iter(materialized))))
            else:
                results.append(self.benefit_bound(materialized))
        return results

    def _ensure_singleton_bounds(self) -> None:
        """Every node's singleton bound in one vectorized pass.

        For a single seed ``v`` the per-root hit fraction is degenerate: a set
        is hit iff it contains ``v``, and every set rooted at ``v`` contains
        ``v`` (fraction 1, matching the seeds-are-active override).  So the
        bound collapses to ``sum over sets containing v of
        benefit(root)/count(root)`` — one ``bincount`` of ``rr_flat`` weighted
        by each set's root term — plus the own-benefit term for nodes no set
        is rooted at.
        """
        if self._singleton_vec is not None:
            return
        sampler = self.sampler
        counts = self._root_counts
        root_weight = np.where(
            counts[sampler.root_index] > 0,
            self._benefits[sampler.root_index]
            / np.maximum(counts[sampler.root_index], 1),
            0.0,
        )
        flat_weights = root_weight[
            np.repeat(
                np.arange(sampler.num_sets, dtype=np.int64),
                np.diff(sampler.rr_offsets),
            )
        ]
        raw = np.bincount(
            sampler.rr_flat, weights=flat_weights, minlength=len(self._benefits)
        )
        self._singleton_vec = raw + self._benefits * (counts == 0)

    def singleton_bound(self, node: NodeId) -> float:
        """The single-seed screening score of ``node``, from the bound vector.

        Numerically equal to ``benefit_bound([node])`` up to float summation
        order (both are used only for ordering and banded thresholds).
        """
        index = self.sampler.index_of.get(node)
        if index is None:
            return 0.0
        self._ensure_singleton_bounds()
        assert self._singleton_vec is not None
        return float(self._singleton_vec[index])


def estimate_spread_rr(
    graph: SocialGraph,
    seeds: Sequence[NodeId],
    num_sets: int = 2000,
    seed: SeedLike = None,
) -> float:
    """One-shot RR-set spread estimate (convenience wrapper)."""
    sampler = RRSetSampler(graph, num_sets=num_sets, seed=seed)
    return sampler.expected_spread(seeds)

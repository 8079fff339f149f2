"""Phase 1 of S3CA: Investment Deployment (ID).

The ID phase (Alg. 1, lines 1–24 of the paper) deploys the investment budget
greedily by *marginal redemption* using three strategies:

1. **initiate** — activate a new seed (the next *pivot source* popped from a
   priority queue built up-front),
2. **broaden** — give one more coupon to a node that already holds coupons,
3. **deepen** — give a first coupon to a node that the current spread can
   already reach, extending the frontier.

The phase records the deployment after *every* investment (the candidate set
``D`` of the pseudo-code) and returns the snapshot with the highest redemption
rate, so overshooting the sweet spot late in the budget never hurts the final
answer.

Faithfulness notes
------------------
* The pivot queue is built exactly as in lines 1–8: every affordable user is
  evaluated as a singleton seed, optionally upgraded with a single coupon when
  that improves its redemption rate, and enqueued by the resulting rate.
* Strategies 2 and 3 are both "allocate an SC to an influenced user"; we
  gather the candidate set from the estimator's activation probabilities,
  which covers both the interior (broaden) and the frontier (deepen) cases.
* ``candidate_limit`` bounds how many coupon candidates are scored per
  iteration (highest activation probability first).  The paper's pseudo-code
  scores all of them; the limit exists so the big benchmark graphs stay
  tractable, and ``None`` recovers the exact behaviour.

Incremental mode (the CELF lazy queue)
--------------------------------------
With ``incremental=True`` (the default; it takes effect whenever the
estimator supports delta evaluation) the coupon-candidate scoring runs on a
CELF-style lazy priority queue backed by the delta-evaluation engine:

* the base deployment is snapshotted once per iteration (one instrumented
  pass) and each *fresh* candidate evaluation re-simulates only the worlds
  its coupon can change;
* candidates whose previous evaluation is provably still valid are not
  re-simulated at all — their priority is re-derived from the stored count
  delta (bit-identical to a fresh evaluation);
* stale candidates are marked with an infinite priority so they are
  re-evaluated exactly when they surface at the top of the heap.

A previous evaluation of candidate ``u`` is invalidated only when the
accepted investment could have changed it: the accepted node *is* ``u``; a
world ``u``'s coupon can change was re-simulated by the accepted move; ``u``'s
set of such worlds itself changed; or the accepted node was coupon-limited
inside one of ``u``'s own re-simulations (so ``u``'s re-simulated outcome now
reads a different coupon count).  Accepting a *seed* (pivot) invalidates
everything — seeds reorder activation globally.  This rule is exact, so the
lazy loop selects, iteration for iteration, the same investment the eager
full-resimulation loop selects, bit for bit.

Candidates whose next coupon no longer fits the budget are retired
permanently: the deployment's total cost only grows during the phase while a
candidate's canonical marginal cost is fixed, so they can never fit again.

Batched evaluation and snapshot advancement
-------------------------------------------
No part of the phase submits benefit evaluations one at a time: the pivot
queue construction and the eager candidate pass run through
:class:`~repro.diffusion.estimator.EvaluationPlan` (pipelined on a parallel
estimator, bit-identical serially), and *both* kinds of accepted investment
advance the delta snapshot surgically — coupon accepts through
``splice_base`` and pivot accepts through the seed-accept splice
(``advance_base_seed``) — so a full run pays exactly one instrumented
snapshot pass, the initial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.deployment import Deployment
from repro.core.marginal import MarginalEvaluation, MarginalRedemption, _safe_ratio
from repro.diffusion.delta import DeltaOutcome
from repro.diffusion.estimator import BenefitEstimator
from repro.economics.scenario import Scenario
from repro.utils.indexed_heap import IndexedMaxHeap

NodeId = Hashable

_STALE = float("inf")


@dataclass
class PivotCandidate:
    """A user prepared for the pivot queue: seed with an optional first coupon."""

    node: NodeId
    coupons: int
    redemption_rate: float
    total_cost: float


@dataclass
class InvestmentResult:
    """Outcome of the ID phase.

    Attributes
    ----------
    deployment:
        The best deployment found (maximum redemption rate among snapshots).
    snapshots:
        Every intermediate deployment, in the order it was produced.
    explored_nodes:
        Users whose marginal redemption was evaluated at least once — the
        numerator of the *explored ratio* reported in Fig. 9.  The lazy queue
        counts every candidate whose (fresh or provably unchanged) marginal
        redemption it considered, so the metric is identical to eager runs.
    iterations:
        Number of greedy investments applied.
    """

    deployment: Deployment
    snapshots: List[Deployment] = field(default_factory=list)
    explored_nodes: Set[NodeId] = field(default_factory=set)
    iterations: int = 0

    @property
    def explored_count(self) -> int:
        """Number of distinct users explored."""
        return len(self.explored_nodes)


class _LazyCouponQueue:
    """CELF-style lazy queue state for the coupon-investment candidates."""

    def __init__(self) -> None:
        self.heap: IndexedMaxHeap = IndexedMaxHeap()
        self.records: Dict[NodeId, DeltaOutcome] = {}
        self.fresh: Dict[NodeId, int] = {}
        self.evaluations: Dict[NodeId, MarginalEvaluation] = {}
        self.refreshed: Dict[NodeId, float] = {}
        self.dead: Set[NodeId] = set()
        self.iteration = 0
        # (accepted node, worlds its move re-simulated) — None = invalidate all
        self.pending: Optional[Tuple[Optional[NodeId], Optional[Tuple[int, ...]]]] = None

    def note_coupon_accept(self, evaluation: MarginalEvaluation) -> None:
        """Record an accepted coupon investment for next-iteration invalidation."""
        outcome = evaluation.delta
        if outcome is not None and outcome.exact:
            self.pending = (evaluation.node, outcome.dirty_worlds)
        else:
            self.pending = (None, None)

    def note_seed_accept(self) -> None:
        """A pivot seed was accepted: every cached evaluation is suspect."""
        self.pending = (None, None)


class InvestmentDeployment:
    """Greedy budgeted deployment of seeds and coupons by marginal redemption.

    Parameters
    ----------
    scenario / estimator:
        The S3CRM instance and the shared expected-benefit estimator.
    candidate_limit / max_pivot_candidates:
        Work bounds, as before.
    incremental:
        Use the delta-evaluation engine plus the CELF lazy queue whenever
        the estimator supports them (on one without delta support the phase
        runs eager); ``False`` forces the eager path.  The selected
        deployment is bit-identical either way.
    """

    def __init__(
        self,
        scenario: Scenario,
        estimator: BenefitEstimator,
        *,
        candidate_limit: Optional[int] = None,
        max_pivot_candidates: Optional[int] = None,
        incremental: bool = True,
    ) -> None:
        self.scenario = scenario
        self.graph = scenario.graph
        self.estimator = estimator
        self.marginal = MarginalRedemption(estimator, incremental=incremental)
        self.incremental = self.marginal.incremental
        self.candidate_limit = candidate_limit
        self.max_pivot_candidates = max_pivot_candidates
        self._sc_cost_cache: Dict[Tuple[NodeId, int], float] = {}
        self.explored_nodes: Set[NodeId] = set()
        self._lazy = _LazyCouponQueue()

    # ------------------------------------------------------------------
    # pivot queue (Alg. 1 lines 1-8)
    # ------------------------------------------------------------------

    def build_pivot_queue(self) -> IndexedMaxHeap:
        """Rank every affordable user as a potential influence source.

        Each user is priced as a singleton seed; if additionally handing the
        user one coupon raises its stand-alone redemption rate (and still fits
        the budget), the queued entry carries that coupon.  The queue priority
        is the resulting redemption rate, matching the "sorted by redemption
        rate" priority queue ``Q`` of the pseudo-code.
        """
        budget = self.scenario.budget_limit
        queue: IndexedMaxHeap = IndexedMaxHeap()
        self._pivot_configs: Dict[NodeId, PivotCandidate] = {}

        eligible: List[Tuple[NodeId, float]] = []
        for node in self.graph.nodes():
            seed_cost = self.graph.seed_cost(node)
            if seed_cost <= 0 or seed_cost > budget:
                continue
            eligible.append((node, seed_cost))
        # Cheap pre-score, used only to bound how many users get the
        # expensive Monte-Carlo treatment: the node's stand-alone benefit per
        # seed cost.
        scored: List[Tuple[float, NodeId]] = [
            (self.graph.benefit(node) / seed_cost, node)
            for node, seed_cost in eligible
        ]
        scored.sort(key=lambda item: (-item[0], str(item[1])))
        if self.max_pivot_candidates is not None:
            scored = scored[: self.max_pivot_candidates]

        # Singleton evaluations from the empty base have nothing for the
        # delta engine to reuse (every world is fresh), so the pivot queue
        # always prices candidates through the plain estimator path — the
        # numbers are bit-identical either way.  The evaluations are
        # independent, so the whole queue construction is one
        # :class:`EvaluationPlan`: on a parallel backend it pipelines through
        # the shared worker pool instead of blocking per candidate.
        empty = Deployment(self.graph, sc_cost_cache=self._sc_cost_cache)
        plan = self.estimator.plan()
        entries: List[Tuple[NodeId, float, int, Optional[float], Optional[int]]] = []
        for _, node in scored:
            self.explored_nodes.add(node)
            seed_only = empty.with_seed(node)
            seed_cost = seed_only.total_cost()
            if seed_cost > budget:
                continue
            seed_slot = plan.add(seed_only.seeds, seed_only.allocation.as_dict())
            coupon_cost: Optional[float] = None
            coupon_slot: Optional[int] = None
            if self.graph.out_degree(node) > 0:
                with_coupon = empty.with_seed(node, coupons=1)
                cost = with_coupon.total_cost()
                if cost <= budget:
                    coupon_cost = cost
                    coupon_slot = plan.add(
                        with_coupon.seeds, with_coupon.allocation.as_dict()
                    )
            entries.append((node, seed_cost, seed_slot, coupon_cost, coupon_slot))

        plan.execute()
        for node, seed_cost, seed_slot, coupon_cost, coupon_slot in entries:
            benefit = plan.benefit(seed_slot)
            best_rate = benefit / seed_cost if seed_cost > 0 else 0.0
            best = PivotCandidate(node, 0, best_rate, seed_cost)
            if coupon_slot is not None:
                coupon_benefit = plan.benefit(coupon_slot)
                rate = coupon_benefit / coupon_cost if coupon_cost > 0 else 0.0
                if rate > best_rate:
                    best = PivotCandidate(node, 1, rate, coupon_cost)
            if best.redemption_rate > 0:
                self._pivot_configs[node] = best
                queue.push(node, best.redemption_rate)
        return queue

    # ------------------------------------------------------------------
    # deployment loop (Alg. 1 lines 9-24)
    # ------------------------------------------------------------------

    def run(self) -> InvestmentResult:
        """Run the full ID phase and return the best snapshot."""
        budget = self.scenario.budget_limit
        # The lazy-queue state (retired candidates, cached delta outcomes) is
        # only valid within one greedy run: budget retirement assumes the
        # deployment cost never shrinks, which resets here.
        self._lazy = _LazyCouponQueue()
        queue = self.build_pivot_queue()

        if not queue:
            empty = Deployment(self.graph, sc_cost_cache=self._sc_cost_cache)
            return InvestmentResult(deployment=empty, snapshots=[empty],
                                    explored_nodes=set(self.explored_nodes))

        first, _ = queue.pop()
        first_config = self._pivot_configs[first]
        current = Deployment(
            self.graph,
            seeds=[first],
            allocation={first: first_config.coupons} if first_config.coupons else {},
            sc_cost_cache=self._sc_cost_cache,
        )
        snapshots: List[Deployment] = [current.copy()]
        iterations = 0

        pivot = self._next_pivot(queue)
        best_eval: Optional[MarginalEvaluation] = None
        need_rescore = True

        while True:
            if current.total_cost() >= budget:
                break
            if need_rescore:
                # The coupon candidates only need re-scoring after an accepted
                # investment: discarding a non-fitting pivot leaves the
                # deployment untouched, so the previous best evaluation is
                # still exact and is reused as is (bit-identical, just
                # without re-deriving every candidate's ratio again).
                base_benefit = self.marginal.set_base(current)
                best_eval = self._best_coupon_investment(
                    current, base_benefit, budget
                )
                need_rescore = False
            pivot_rate = pivot.redemption_rate if pivot is not None else float("-inf")

            if best_eval is None and pivot is None:
                break

            take_pivot = False
            if pivot is not None:
                if best_eval is None or pivot_rate >= best_eval.ratio:
                    take_pivot = True

            if take_pivot:
                assert pivot is not None
                candidate = current.with_seed(
                    pivot.node, coupons=pivot.coupons
                )
                if candidate.total_cost() <= budget and pivot.node not in current.seeds:
                    accepted = pivot.node
                    current = candidate
                    snapshots.append(current.copy())
                    iterations += 1
                    pivot = self._next_pivot(queue)
                    need_rescore = True
                    self._lazy.note_seed_accept()
                    # Splice the accepted pivot into the delta snapshot (only
                    # the worlds the new seed can change are re-simulated), so
                    # the next iteration's set_base is a no-op instead of a
                    # fresh O(num_samples) instrumented pass.
                    self.marginal.advance_base_seed(current, accepted)
                    continue
                # pivot does not fit: discard it and retry with the next one
                pivot = self._next_pivot(queue)
                if pivot is None and best_eval is None:
                    break
                continue

            assert best_eval is not None
            if best_eval.ratio <= 0:
                break
            current = best_eval.resulting
            snapshots.append(current.copy())
            iterations += 1
            need_rescore = True
            self._lazy.note_coupon_accept(best_eval)
            # Splice the accepted move's re-simulated worlds into the delta
            # snapshot now, so the next iteration's set_base is a no-op
            # instead of an O(num_samples) instrumented pass.
            self.marginal.advance_base(best_eval)

        best = max(
            snapshots,
            key=lambda deployment: deployment.redemption_rate(self.estimator),
        )
        return InvestmentResult(
            deployment=best,
            snapshots=snapshots,
            explored_nodes=set(self.explored_nodes),
            iterations=iterations,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _next_pivot(self, queue: IndexedMaxHeap) -> Optional[PivotCandidate]:
        """Pop the next pivot source whose stand-alone cost still fits the budget."""
        while queue:
            node, _ = queue.pop()
            config = self._pivot_configs[node]
            return config
        return None

    def _coupon_candidates(self, deployment: Deployment) -> List[NodeId]:
        """Users eligible for one more coupon under the current deployment.

        These are the users with a positive probability of being active
        (estimated from the shared Monte-Carlo worlds) that can still hand out
        at least one more coupon.  They cover both the paper's "broaden"
        (already holding coupons) and "deepen" (frontier, zero coupons so far)
        strategies.
        """
        probabilities = self.estimator.activation_probabilities(
            deployment.seeds, deployment.allocation.as_dict()
        )
        candidates = [
            (probability, node)
            for node, probability in probabilities.items()
            if probability > 0.0
            and deployment.allocation.get(node) < self.graph.out_degree(node)
        ]
        candidates.sort(key=lambda item: (-item[0], str(item[1])))
        nodes = [node for _, node in candidates]
        if self.candidate_limit is not None:
            nodes = nodes[: self.candidate_limit]
        return nodes

    def _best_coupon_investment(
        self,
        deployment: Deployment,
        base_benefit: float,
        budget: float,
    ) -> Optional[MarginalEvaluation]:
        """Highest-MR coupon investment that still fits the budget."""
        if self.incremental:
            return self._best_coupon_investment_lazy(deployment, base_benefit, budget)
        # Eager path: the candidates are compared against each other with no
        # dependency between them, so the whole pass is one batched
        # evaluation plan (pipelined on a parallel backend) instead of a
        # blocking per-candidate loop — the selected investment is
        # bit-identical either way.
        candidates = self._coupon_candidates(deployment)
        self.explored_nodes.update(candidates)
        evaluations = self.marginal.of_extra_coupons(
            deployment, candidates, base_benefit=base_benefit
        )
        best: Optional[MarginalEvaluation] = None
        for evaluation in evaluations:
            if evaluation is None:
                continue
            if evaluation.resulting.total_cost() > budget:
                continue
            if best is None or evaluation.ratio > best.ratio:
                best = evaluation
        return best

    # ------------------------------------------------------------------
    # CELF lazy selection (incremental mode)
    # ------------------------------------------------------------------

    def _best_coupon_investment_lazy(
        self,
        deployment: Deployment,
        base_benefit: float,
        budget: float,
    ) -> Optional[MarginalEvaluation]:
        """Same selection as the eager loop, re-simulating only what changed."""
        lazy = self._lazy
        lazy.iteration += 1
        lazy.evaluations.clear()
        lazy.refreshed.clear()
        iteration = lazy.iteration
        heap = lazy.heap

        candidates = self._coupon_candidates(deployment)
        candidate_order = {node: rank for rank, node in enumerate(candidates)}
        # Every candidate's marginal redemption is known this iteration
        # (freshly simulated or provably unchanged), so the explored-ratio
        # metric counts them all — identical to the eager methodology the
        # paper's Fig. 9 metric is defined by.
        self.explored_nodes.update(candidates)

        # Candidates that left the influenced set keep nothing: if they come
        # back their cached evaluation would be against a long-gone base.
        for node in [n for n in heap if n not in candidate_order]:
            heap.remove(node)
            lazy.records.pop(node, None)
            lazy.fresh.pop(node, None)

        pending = lazy.pending
        lazy.pending = None
        for node in candidates:
            if node in lazy.dead:
                continue
            if node not in heap:
                heap.push(node, _STALE)
                lazy.records.pop(node, None)
                continue
            record = lazy.records.get(node)
            if record is None or not record.exact:
                heap.update(node, _STALE)
                continue
            if pending is not None and self._invalidated(node, record, pending):
                lazy.records.pop(node, None)
                heap.update(node, _STALE)
                continue
            # Still valid: re-derive the priority against the fresh snapshot
            # (a count-vector splice — no cascade is re-simulated).
            benefit_new = self.estimator.refresh_delta_benefit(
                record,
                deployment.seeds,
                _alloc_with_extra(deployment, node),
            )
            old_coupons = deployment.allocation.get(node)
            cost_gain = deployment.node_sc_cost(
                node, old_coupons + 1
            ) - deployment.node_sc_cost(node, old_coupons)
            ratio = _safe_ratio(benefit_new - base_benefit, cost_gain)
            heap.update(node, ratio)
            lazy.fresh[node] = iteration
            lazy.refreshed[node] = benefit_new

        while heap:
            node, _ = heap.peek()
            if lazy.fresh.get(node) != iteration:
                self._lazy_evaluate(deployment, node, base_benefit)
                continue
            top_ratio = heap.priority(node)
            ties = [n for n in heap if heap.priority(n) == top_ratio]
            # A genuinely infinite fresh ratio can collide with the stale
            # sentinel; force those entries fresh before resolving the tie.
            stale_ties = [n for n in ties if lazy.fresh.get(n) != iteration]
            if stale_ties:
                for stale in stale_ties:
                    self._lazy_evaluate(deployment, stale, base_benefit)
                continue
            ties.sort(key=lambda n: candidate_order[n])
            chosen: Optional[MarginalEvaluation] = None
            for tie in ties:
                evaluation = lazy.evaluations.get(tie)
                if evaluation is None:
                    evaluation = self.marginal.of_extra_coupon(
                        deployment,
                        tie,
                        base_benefit=base_benefit,
                        reuse=lazy.records.get(tie),
                        refreshed_benefit=lazy.refreshed.get(tie),
                    )
                if evaluation is None:
                    heap.remove(tie)
                    lazy.dead.add(tie)
                    lazy.records.pop(tie, None)
                    continue
                if evaluation.resulting.total_cost() > budget:
                    # The deployment only gets more expensive and this
                    # candidate's marginal cost is fixed — it can never fit.
                    heap.remove(tie)
                    lazy.dead.add(tie)
                    lazy.records.pop(tie, None)
                    continue
                chosen = evaluation
                break
            if chosen is not None:
                return chosen
            # every tied candidate was retired; reconsider the rest
        return None

    def _lazy_evaluate(
        self, deployment: Deployment, node: NodeId, base_benefit: float
    ) -> None:
        """Fresh delta evaluation of ``node``; retires it at one coupon per friend."""
        lazy = self._lazy
        evaluation = self.marginal.of_extra_coupon(
            deployment, node, base_benefit=base_benefit
        )
        if evaluation is None:
            lazy.heap.remove(node)
            lazy.dead.add(node)
            lazy.records.pop(node, None)
            return
        lazy.heap.update(node, evaluation.ratio)
        lazy.fresh[node] = lazy.iteration
        lazy.evaluations[node] = evaluation
        if evaluation.delta is not None:
            lazy.records[node] = evaluation.delta
        else:
            lazy.records.pop(node, None)

    def _invalidated(
        self,
        node: NodeId,
        record: DeltaOutcome,
        pending: Tuple[Optional[NodeId], Optional[Tuple[int, ...]]],
    ) -> bool:
        """Exact staleness rule for a cached coupon evaluation (see module doc)."""
        accepted, changed = pending
        if accepted is None or changed is None:
            return True
        if node == accepted:
            return True
        if accepted in record.touched:
            return True
        new_dirty = self.estimator.coupon_dirty_worlds(node)
        if new_dirty != record.dirty_worlds:
            return True
        if changed and new_dirty and not set(new_dirty).isdisjoint(changed):
            return True
        return False


def _alloc_with_extra(deployment: Deployment, node: NodeId) -> Dict[NodeId, int]:
    """The deployment's allocation dict with one more coupon on ``node``."""
    allocation = deployment.allocation.as_dict()
    allocation[node] = allocation.get(node, 0) + 1
    return allocation

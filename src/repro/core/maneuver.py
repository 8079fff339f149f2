"""Phase 3 of S3CA: Social-Coupon Maneuver (SCM).

After ID has spent the budget and GPI has enumerated the guaranteed paths,
SCM (Sec. IV-A.3, Alg. 1 lines 25–39, Alg. 3) looks for opportunities to
*move* coupons already deployed onto guaranteed paths that lead to high-benefit
users the current deployment cannot reach.

The decision machinery follows the paper:

* every guaranteed path is scored by its **amelioration index** (AI) — the
  expected benefit gained per unit of SC cost needed to realise it — and the
  paths are examined from the largest AI down;
* coupons are taken from donors scored by their **deterioration index** (DI)
  — the expected benefit lost per unit of SC cost retrieved — from the
  smallest DI up (the DIMD procedure of Alg. 3);
* a maneuver is only kept when the donor's DI stays below the path's marginal
  value (the paper's maneuver-gap test; here the path AI serves as the gap
  bound) **and** the overall redemption rate strictly improves, which is the
  acceptance condition on line 35 of Alg. 1;
* the resulting deployment must still respect the investment budget.

The exact bookkeeping of the paper's maneuver mapping ``K^j_i`` (which
descendant of the path receives each retrieved coupon) is under-specified in
the pseudo-code; we route retrieved coupons to the path nodes with unmet
allocation in traversal order, which realises the same paths with the same
total coupon counts.

Like the other two phases, SCM never submits benefit evaluations one at a
time: each donor-ranking round prices every candidate retrieval through one
:class:`~repro.diffusion.estimator.EvaluationPlan`, so on a parallel
estimator the DIMD procedure pipelines through the shared shard pool with
bit-identical rankings.

Two layers of incremental reuse keep repeated rounds cheap:

* a donor's deterioration index depends only on the deployment it is priced
  against — not on which path is being realised — so priced DIs live in a
  per-deployment table reused across donor-ranking rounds and paths; a round
  only evaluates donors whose DI the table does not hold yet (the
  "incremental donor heap": every evaluation it submits, the rebuild-per-round
  loop would have submitted too, so the rankings are bit-identical);
* the base deployment's activation probabilities are fetched once per
  distinct deployment and shared by the path ranking and the per-path
  eligibility test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.deployment import Deployment
from repro.core.guaranteed_paths import GPIResult, GuaranteedPath
from repro.diffusion.estimator import BenefitEstimator, DeploymentKey

NodeId = Hashable


@dataclass(frozen=True)
class ManeuverOperation:
    """One executed maneuver: coupons retrieved from a donor and re-routed.

    Attributes
    ----------
    donor:
        The user coupons were retrieved from.
    retrieved:
        Number of coupons retrieved.
    deterioration_index:
        Benefit lost per unit of SC cost retrieved (the DI that ranked this
        donor).
    routing:
        Mapping ``path node -> coupons received`` describing where the
        retrieved coupons went.
    """

    donor: NodeId
    retrieved: int
    deterioration_index: float
    routing: Tuple[Tuple[NodeId, int], ...]


@dataclass
class ManeuverResult:
    """Outcome of the SCM phase."""

    deployment: Deployment
    operations: List[ManeuverOperation] = field(default_factory=list)
    paths_created: List[GuaranteedPath] = field(default_factory=list)
    paths_examined: int = 0

    @property
    def improved(self) -> bool:
        """Whether at least one maneuver was applied."""
        return bool(self.operations)


class SCManeuver:
    """Executor of the SCM phase."""

    def __init__(self, estimator: BenefitEstimator, budget_limit: float) -> None:
        self.estimator = estimator
        self.budget_limit = budget_limit
        # deployment key -> (base benefit, donor -> priced deterioration
        # index); DIs are path-independent, so the table persists across
        # donor-ranking rounds and across paths.
        self._donor_tables: Dict[DeploymentKey, Tuple[float, Dict[NodeId, float]]] = {}
        self._likely_key: Optional[DeploymentKey] = None
        self._likely_active: Optional[set] = None

    # ------------------------------------------------------------------

    def run(self, deployment: Deployment, paths: GPIResult) -> ManeuverResult:
        """Examine every guaranteed path and apply the profitable maneuvers."""
        current = deployment.copy()
        result = ManeuverResult(deployment=current)
        ranked_paths = self._rank_paths(current, paths)

        for amelioration, path in ranked_paths:
            result.paths_examined += 1
            if not self._path_is_eligible(current, path):
                continue
            outcome = self._try_create_path(current, path, amelioration)
            if outcome is None:
                continue
            current, operations = outcome
            result.operations.extend(operations)
            result.paths_created.append(path)

        result.deployment = current
        return result

    # ------------------------------------------------------------------
    # path ranking and eligibility
    # ------------------------------------------------------------------

    def _likely_activated(self, deployment: Deployment) -> set:
        """Users the deployment likely activates, cached per deployment.

        The set is shared by the path ranking and every per-path eligibility
        test against the same deployment.
        """
        key = BenefitEstimator._key(
            deployment.seeds, deployment.allocation.as_dict()
        )
        if key != self._likely_key or self._likely_active is None:
            probabilities = self.estimator.activation_probabilities(
                deployment.seeds, deployment.allocation.as_dict()
            )
            self._likely_active = {
                node for node, prob in probabilities.items() if prob > 0.0
            }
            self._likely_key = key
        return self._likely_active

    def _rank_paths(
        self, deployment: Deployment, paths: GPIResult
    ) -> List[Tuple[float, GuaranteedPath]]:
        """Paths sorted by descending amelioration index."""
        likely_active = self._likely_activated(deployment)
        ranked: List[Tuple[float, GuaranteedPath]] = []
        for path in paths:
            ancestor = self._nearest_activated_ancestor_path(path, paths, likely_active)
            amelioration = path.amelioration_index(ancestor)
            if amelioration > 0:
                ranked.append((amelioration, path))
        ranked.sort(key=lambda item: (-item[0], str(item[1].terminal)))
        return ranked

    def _nearest_activated_ancestor_path(
        self,
        path: GuaranteedPath,
        paths: GPIResult,
        likely_active,
    ) -> Optional[GuaranteedPath]:
        """The guaranteed path ending at the terminal's nearest activated ancestor.

        Walking backwards through the path's visit order, the first user that
        the current deployment can already activate defines the baseline the
        AI is measured against; the seed (always active) maps to ``None``,
        meaning a zero-cost baseline.
        """
        for node in reversed(path.nodes[:-1]):
            if node == path.seed:
                return None
            if node in likely_active:
                return paths.paths_by_terminal.get((path.seed, node))
        return None

    def _path_is_eligible(self, deployment: Deployment, path: GuaranteedPath) -> bool:
        """Line 28 of Alg. 1: the path is worth considering only if

        * its guaranteed cost does not exceed the SC budget already invested
          (there might be enough coupons to move around), and
        * its terminal cannot already be activated by the current deployment
          (its parent holds no coupons and it is not itself likely active).
        """
        invested_sc = deployment.sc_cost()
        if path.guaranteed_cost > invested_sc:
            return False
        if path.parent is not None and deployment.allocation.get(path.parent) > 0:
            return False
        likely_active = self._likely_activated(deployment)
        if path.terminal in likely_active:
            return False
        return True

    # ------------------------------------------------------------------
    # maneuver construction
    # ------------------------------------------------------------------

    def _try_create_path(
        self,
        deployment: Deployment,
        path: GuaranteedPath,
        amelioration: float,
    ) -> Optional[Tuple[Deployment, List[ManeuverOperation]]]:
        """Attempt to realise ``path`` by moving coupons from low-DI donors.

        Returns the improved deployment and the executed operations, or
        ``None`` when no acceptable set of maneuvers exists.
        """
        needs = self._unmet_allocation(deployment, path)
        deficit = sum(needs.values())
        if deficit <= 0:
            return None

        base_rate = deployment.redemption_rate(self.estimator)
        working = deployment.copy()
        operations: List[ManeuverOperation] = []
        moved = 0

        while moved < deficit:
            donors = self._rank_donors(working, path)
            progressed = False
            for deterioration, donor, spare in donors:
                if deterioration >= amelioration:
                    # Maneuver-gap test: retrieving from this donor loses more
                    # per unit cost than the path is expected to gain.
                    break
                take = min(spare, deficit - moved)
                if take <= 0:
                    continue
                candidate, routing = self._apply_transfer(working, donor, take, needs)
                if candidate is None:
                    continue
                if candidate.total_cost() > self.budget_limit:
                    continue
                working = candidate
                moved += sum(count for _, count in routing)
                operations.append(
                    ManeuverOperation(
                        donor=donor,
                        retrieved=take,
                        deterioration_index=deterioration,
                        routing=tuple(routing),
                    )
                )
                progressed = True
                break
            if not progressed:
                return None

        new_rate = working.redemption_rate(self.estimator)
        if new_rate <= base_rate:
            return None
        return working, operations

    def _unmet_allocation(
        self, deployment: Deployment, path: GuaranteedPath
    ) -> Dict[NodeId, int]:
        """Coupons each path node still needs to realise the path's allocation."""
        needs: Dict[NodeId, int] = {}
        for node, required in path.allocation.items():
            held = deployment.allocation.get(node)
            if required > held:
                needs[node] = required - held
        return needs

    def _rank_donors(
        self, deployment: Deployment, path: GuaranteedPath
    ) -> List[Tuple[float, NodeId, int]]:
        """Donors with spare coupons, ranked by ascending deterioration index.

        A donor's spare coupons are those beyond what the path itself requires
        of it (``K_j > K̂_j`` in Alg. 3); the DI of retrieving one coupon is
        the benefit lost divided by the SC cost saved.  The candidate donors'
        reduced deployments are independent of each other, so the whole
        ranking is priced through one batched
        :class:`~repro.diffusion.estimator.EvaluationPlan` (pipelined on a
        parallel estimator) instead of one blocking evaluation per donor —
        the DIs, and therefore the executed maneuvers, are bit-identical to
        the per-donor loop.

        A DI does not depend on the path (only the spare filter does), so
        priced DIs persist in a per-deployment table: repeated rounds against
        the same deployment — across transfer attempts and across paths —
        only evaluate donors missing from the table.
        """
        key = BenefitEstimator._key(
            deployment.seeds, deployment.allocation.as_dict()
        )
        cached = self._donor_tables.get(key)
        table: Dict[NodeId, float] = cached[1] if cached is not None else {}
        base_cost = deployment.sc_cost()
        plan = self.estimator.plan()
        base_slot: Optional[int] = None
        if cached is None:
            # The base deployment rides in the same plan as the donors, so a
            # cold-cache round pipelines it with the candidate evaluations
            # instead of paying a blocking full pass first.
            base_slot = plan.add(deployment.seeds, deployment.allocation.as_dict())
        candidates: List[Tuple[NodeId, int]] = []
        entries: List[Tuple[NodeId, Deployment, int]] = []
        for node, held in deployment.allocation.items():
            required_by_path = path.allocation.get(node, 0)
            spare = held - required_by_path
            if spare <= 0:
                continue
            candidates.append((node, spare))
            if node in table:
                continue
            reduced = deployment.with_coupons_retrieved(node, 1)
            slot = plan.add(reduced.seeds, reduced.allocation.as_dict())
            entries.append((node, reduced, slot))
        if len(plan) > 0:
            plan.execute()
        base_benefit = (
            plan.benefit(base_slot) if base_slot is not None else cached[0]
        )
        for node, reduced, slot in entries:
            benefit_loss = base_benefit - plan.benefit(slot)
            cost_saved = base_cost - reduced.sc_cost()
            if cost_saved <= 0:
                deterioration = float("inf") if benefit_loss > 0 else 0.0
            else:
                deterioration = max(0.0, benefit_loss) / cost_saved
            table[node] = deterioration
        self._donor_tables[key] = (base_benefit, table)
        donors: List[Tuple[float, NodeId, int]] = [
            (table[node], node, spare) for node, spare in candidates
        ]
        donors.sort(key=lambda item: (item[0], str(item[1])))
        return donors

    def _apply_transfer(
        self,
        deployment: Deployment,
        donor: NodeId,
        amount: int,
        needs: Dict[NodeId, int],
    ) -> Tuple[Optional[Deployment], List[Tuple[NodeId, int]]]:
        """Retrieve ``amount`` coupons from ``donor`` and route them to the path.

        Coupons go to the path nodes with unmet allocation in path order;
        ``needs`` is updated in place with what was actually delivered.
        """
        working = deployment.copy()
        routing: List[Tuple[NodeId, int]] = []
        remaining = amount

        available_targets = [
            (node, deficit) for node, deficit in needs.items() if deficit > 0
        ]
        if not available_targets:
            return None, []

        working.allocation.decrement(donor, amount)
        for node, deficit in available_targets:
            if remaining <= 0:
                break
            if node == donor:
                continue
            give = min(deficit, remaining)
            capacity = working.graph.out_degree(node) - working.allocation.get(node)
            give = min(give, capacity)
            if give <= 0:
                continue
            working.allocation.increment(node, give, graph=working.graph)
            routing.append((node, give))
            needs[node] -= give
            remaining -= give

        if not routing:
            return None, []
        if remaining > 0:
            # Undelivered coupons stay with the donor rather than vanishing.
            working.allocation.increment(donor, remaining, graph=working.graph)
        return working, routing

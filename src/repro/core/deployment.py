"""Deployment = seed set + internal nodes + coupon allocation.

A :class:`Deployment` is the decision variable of S3CRM: the seed set ``S``,
the internal node set ``I`` (every node holding at least one coupon, plus the
seeds) and the SC allocation ``K(I)``.  It knows how to price itself — seed
cost, expected SC cost, total cost — and how to compute the objective value
(redemption rate) given an expected-benefit estimator.

Deployments are cheap to copy and support copy-on-write style "what if"
variants (``with_seed``, ``with_extra_coupon``), which is how the greedy
phases of S3CA explore candidate investments.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.core.allocation import SCAllocation, expected_sc_cost, node_expected_sc_cost
from repro.diffusion.estimator import BenefitEstimator
from repro.graph.social_graph import SocialGraph

NodeId = Hashable


class Deployment:
    """A complete S3CRM solution candidate.

    Parameters
    ----------
    graph:
        The social graph the deployment lives on.
    seeds:
        Users activated directly (the seed set ``S``).
    allocation:
        The coupon allocation ``K(I)``; accepted as a plain mapping or an
        :class:`~repro.core.allocation.SCAllocation`.
    sc_cost_cache:
        Optional shared cache for per-node expected SC costs; passing the same
        dictionary to every deployment derived during a greedy run avoids
        recomputing the Poisson-binomial DP thousands of times.
    """

    def __init__(
        self,
        graph: SocialGraph,
        seeds: Iterable[NodeId] = (),
        allocation: Optional[Mapping[NodeId, int]] = None,
        *,
        sc_cost_cache: Optional[Dict[Tuple[NodeId, int], float]] = None,
    ) -> None:
        self.graph = graph
        self.seeds: Set[NodeId] = set(seeds)
        if isinstance(allocation, SCAllocation):
            self.allocation = allocation.copy()
        else:
            self.allocation = SCAllocation(allocation or {})
        self._sc_cost_cache = sc_cost_cache if sc_cost_cache is not None else {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def internal_nodes(self) -> Set[NodeId]:
        """The internal node set ``I``: seeds plus every coupon holder."""
        return self.seeds | set(self.allocation.nodes())

    @property
    def num_seeds(self) -> int:
        """Number of seeds."""
        return len(self.seeds)

    @property
    def total_coupons(self) -> int:
        """Total number of allocated coupons."""
        return self.allocation.total_coupons

    def is_empty(self) -> bool:
        """True when the deployment selects nothing."""
        return not self.seeds and len(self.allocation) == 0

    # ------------------------------------------------------------------
    # costs and objective
    # ------------------------------------------------------------------

    def seed_cost(self) -> float:
        """Total seed cost ``Cseed(S)``."""
        return sum(self.graph.seed_cost(seed) for seed in self.seeds)

    def sc_cost(self) -> float:
        """Expected social-coupon cost ``Csc(K(I))``."""
        return self.sc_cost_of(self.allocation.as_dict())

    def sc_cost_of(self, allocation: Mapping[NodeId, int]) -> float:
        """Expected SC cost of any ``allocation`` on this graph, via the shared cache.

        Holders are priced in ``allocation``'s order through the same
        ``(node, k)`` table as :meth:`node_sc_cost`, so the result equals an
        uncached :func:`~repro.core.allocation.expected_sc_cost` bit for bit.
        GPI prices its tentative path allocations here.
        """
        return expected_sc_cost(self.graph, allocation, _cache=self._sc_cost_cache)

    def node_sc_cost(self, node: NodeId, coupons: int) -> float:
        """Expected SC cost of ``node`` holding ``coupons``, via the shared cache.

        This is the per-node term of :meth:`sc_cost`; the greedy phases use
        differences of these terms as *canonical* marginal costs, so the same
        investment prices identically no matter which base deployment it is
        evaluated against (a full-sum difference would drift by float ulps).
        """
        coupons = int(coupons)
        if coupons <= 0:
            return 0.0
        key = (node, coupons)
        cached = self._sc_cost_cache.get(key)
        if cached is None:
            cached = node_expected_sc_cost(self.graph, node, coupons)
            self._sc_cost_cache[key] = cached
        return cached

    def total_cost(self) -> float:
        """``Cseed(S) + Csc(K(I))`` — the quantity bounded by ``B_inv``."""
        return self.seed_cost() + self.sc_cost()

    def expected_benefit(self, estimator: BenefitEstimator) -> float:
        """Expected benefit ``B(S, K(I))`` under the given estimator."""
        return estimator.expected_benefit(self.seeds, self.allocation.as_dict())

    def redemption_rate(self, estimator: BenefitEstimator) -> float:
        """The S3CRM objective ``B / (Cseed + Csc)``.

        A deployment with zero total cost has an undefined rate; by convention
        it evaluates to ``0.0`` so that empty deployments never win greedy
        comparisons.
        """
        cost = self.total_cost()
        if cost <= 0.0:
            return 0.0
        return self.expected_benefit(estimator) / cost

    def fits_budget(self, budget_limit: float, *, tolerance: float = 1e-9) -> bool:
        """Whether the total cost respects ``B_inv`` up to numerical slack."""
        return self.total_cost() <= budget_limit * (1.0 + tolerance)

    # ------------------------------------------------------------------
    # derivation of variants
    # ------------------------------------------------------------------

    def copy(self) -> "Deployment":
        """Independent copy sharing the SC-cost cache."""
        return Deployment(
            self.graph,
            self.seeds,
            self.allocation,
            sc_cost_cache=self._sc_cost_cache,
        )

    def with_seed(self, node: NodeId, coupons: int = 0) -> "Deployment":
        """A copy with ``node`` added to the seed set (optionally with coupons)."""
        variant = self.copy()
        variant.seeds.add(node)
        if coupons > 0:
            variant.allocation.set(node, max(variant.allocation.get(node), coupons))
        return variant

    def with_extra_coupon(self, node: NodeId, by: int = 1) -> "Deployment":
        """A copy in which ``node`` holds ``by`` more coupons."""
        variant = self.copy()
        variant.allocation.increment(node, by, graph=self.graph)
        return variant

    def with_coupons_retrieved(self, node: NodeId, by: int = 1) -> "Deployment":
        """A copy in which ``by`` coupons are retrieved from ``node``."""
        variant = self.copy()
        variant.allocation.decrement(node, by)
        return variant

    # ------------------------------------------------------------------

    def summary(self, estimator: Optional[BenefitEstimator] = None) -> Dict[str, float]:
        """Dictionary of the headline numbers (used by the reporting module)."""
        report: Dict[str, float] = {
            "num_seeds": float(self.num_seeds),
            "total_coupons": float(self.total_coupons),
            "seed_cost": self.seed_cost(),
            "sc_cost": self.sc_cost(),
            "total_cost": self.total_cost(),
        }
        if estimator is not None:
            benefit = self.expected_benefit(estimator)
            report["expected_benefit"] = benefit
            report["redemption_rate"] = (
                benefit / report["total_cost"] if report["total_cost"] > 0 else 0.0
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Deployment(seeds={sorted(map(str, self.seeds))}, "
            f"coupons={self.allocation.as_dict()!r})"
        )

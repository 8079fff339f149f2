"""Social-coupon allocation ``K(I)`` and its expected cost ``Csc(K(I))``.

An allocation maps each internal node ``v_i`` to the number ``k_i`` of social
coupons it may hand to friends.  The expected SC cost follows the paper's
definition (Sec. III):

    ``Csc(K(I)) = sum over v_i in I, v_j in N(v_i) of E[k_i, c_sc(v_j)]``

where ``v_j`` is ``v_i``'s friend with the ``j``-th highest influence
probability and

* for ``j <= k_i``:  ``E = c_sc(v_j) * P(e(i, j))`` — a coupon is certainly
  reserved for ``v_j``, and it costs money only if ``v_j`` redeems it;
* for ``j > k_i``:   ``E = c_sc(v_j) * P(e(i, j)) * P(k̄_i)``, where
  ``P(k̄_i)`` is the probability that at most ``k_i − 1`` of the
  higher-ranked friends redeem, i.e. there is still a coupon left when the
  hand-out reaches ``v_j``.  ``P(k̄_i)`` is a Poisson-binomial tail computed by
  dynamic programming over the ranked probabilities.

Note that, exactly as in the paper, this cost model is a property of the
allocation alone — it does not discount by the probability that ``v_i``
itself gets activated.  It therefore upper-bounds the realised SC spending,
which keeps every deployment that satisfies ``Cseed + Csc <= Binv`` feasible
in expectation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import AllocationError
from repro.graph.social_graph import SocialGraph

NodeId = Hashable


class SCAllocation:
    """A mutable mapping ``node -> number of coupons`` with validation.

    Entries are always strictly positive; setting a node's count to zero
    removes it.  The allocation never exceeds a node's out-degree when a graph
    is supplied to the mutating helpers.
    """

    def __init__(self, counts: Optional[Mapping[NodeId, int]] = None) -> None:
        self._counts: Dict[NodeId, int] = {}
        if counts:
            for node, value in counts.items():
                self.set(node, int(value))

    # ------------------------------------------------------------------
    # mapping-like behaviour
    # ------------------------------------------------------------------

    def __contains__(self, node: NodeId) -> bool:
        return node in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SCAllocation):
            return self._counts == other._counts
        if isinstance(other, Mapping):
            return self._counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    def get(self, node: NodeId, default: int = 0) -> int:
        """Coupon count of ``node`` (0 if absent)."""
        return self._counts.get(node, default)

    def items(self) -> Iterator[Tuple[NodeId, int]]:
        """Iterate over ``(node, count)`` pairs."""
        return iter(self._counts.items())

    def nodes(self):
        """Nodes holding at least one coupon (the internal node set ``I``)."""
        return self._counts.keys()

    def as_dict(self) -> Dict[NodeId, int]:
        """Plain-dict copy of the allocation."""
        return dict(self._counts)

    @property
    def total_coupons(self) -> int:
        """Total number of coupons allocated."""
        return sum(self._counts.values())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def set(self, node: NodeId, count: int) -> None:
        """Set the coupon count of ``node`` (removing it if ``count`` is zero)."""
        if count < 0:
            raise AllocationError(f"coupon count for {node!r} must be >= 0, got {count}")
        if count == 0:
            self._counts.pop(node, None)
        else:
            self._counts[node] = int(count)

    def increment(self, node: NodeId, by: int = 1, graph: Optional[SocialGraph] = None) -> None:
        """Add ``by`` coupons to ``node``, optionally capping at its out-degree."""
        if by < 0:
            raise AllocationError(f"increment must be >= 0, got {by}")
        new_count = self.get(node) + by
        if graph is not None and new_count > graph.out_degree(node):
            raise AllocationError(
                f"allocation for {node!r} ({new_count}) would exceed its out-degree "
                f"({graph.out_degree(node)})"
            )
        self.set(node, new_count)

    def decrement(self, node: NodeId, by: int = 1) -> None:
        """Retrieve ``by`` coupons from ``node`` (used by the SC maneuver phase)."""
        if by < 0:
            raise AllocationError(f"decrement must be >= 0, got {by}")
        current = self.get(node)
        if by > current:
            raise AllocationError(
                f"cannot retrieve {by} coupons from {node!r}: it only holds {current}"
            )
        self.set(node, current - by)

    def copy(self) -> "SCAllocation":
        """Independent copy."""
        return SCAllocation(self._counts)

    def merged_with(self, other: Mapping[NodeId, int]) -> "SCAllocation":
        """Return a new allocation where each node holds the max of both counts."""
        merged = self.copy()
        for node, count in other.items():
            if count > merged.get(node):
                merged.set(node, count)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SCAllocation({self._counts!r})"


def expected_sc_cost(
    graph: SocialGraph,
    allocation: Mapping[NodeId, int],
    *,
    _cache: Optional[Dict[Tuple[NodeId, int], float]] = None,
) -> float:
    """Expected social-coupon cost ``Csc(K(I))`` of an allocation.

    Implements the per-node formula described in the module docstring.  An
    optional cache keyed by ``(node, k)`` may be supplied by callers that
    evaluate many allocations over the same graph (the greedy loops of S3CA).
    """
    total = 0.0
    for node, coupons in allocation.items():
        coupons = int(coupons)
        if coupons <= 0:
            continue
        if _cache is not None:
            key = (node, coupons)
            cached = _cache.get(key)
            if cached is None:
                cached = node_expected_sc_cost(graph, node, coupons)
                _cache[key] = cached
            total += cached
        else:
            total += node_expected_sc_cost(graph, node, coupons)
    return total


def node_expected_sc_cost(graph: SocialGraph, node: NodeId, coupons: int) -> float:
    """Expected SC cost contributed by a single coupon holder.

    ``coupons`` is clamped to the node's out-degree (handing out more coupons
    than one has friends cannot cost anything extra).
    """
    ranked = graph.ranked_out_neighbors(node)
    if not ranked or coupons <= 0:
        return 0.0
    coupons = min(int(coupons), len(ranked))

    total = 0.0
    # DP over the Poisson-binomial distribution of "number of redemptions among
    # the first j-1 ranked friends".  tail[m] = P(exactly m redemptions so far).
    distribution = [1.0]
    for rank, (neighbor, probability) in enumerate(ranked, start=1):
        sc_cost = graph.sc_cost(neighbor)
        if rank <= coupons:
            total += sc_cost * probability
        else:
            # probability that at most coupons-1 of the earlier friends redeemed,
            # i.e. a coupon is still available when the hand-out reaches `rank`.
            still_available = sum(distribution[: coupons])
            total += sc_cost * probability * still_available
        # update the distribution with this friend's redemption outcome
        next_distribution = [0.0] * (len(distribution) + 1)
        for count, mass in enumerate(distribution):
            next_distribution[count] += mass * (1.0 - probability)
            next_distribution[count + 1] += mass * probability
        distribution = next_distribution
    return total

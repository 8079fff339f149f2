"""Phase 2 of S3CA: Guaranteed Path Identification (GPI).

A *guaranteed path* ``g(s, v)`` (Sec. IV-A.2, Alg. 2) is the set of users
visited so far by a budget-bounded depth-first traversal from seed ``s`` when
``v`` is reached, together with an SC allocation in which every visited user
holds one coupon per visited child.  Along such a path every edge is
*independent* — a coupon is guaranteed to be available for each visited child
— so the path reaches ``v`` with the highest possible probability.  GPI
enumerates these paths; the SC-maneuver phase then decides which are worth
creating by moving already-deployed coupons onto them.

Traversal rules (matching Alg. 2):

* children are visited in **descending influence probability** order;
* when visiting ``v``, the tentative path is the set of all previously visited
  users plus ``v`` and the tentative allocation gives every visited user one
  coupon per visited child;
* if the guaranteed cost of that allocation exceeds the remaining budget
  (``B_inv − c_seed(s)``), ``v`` is not visited: its subtree and its unvisited
  (lower-probability) siblings are pruned and the traversal backtracks.

Pricing a visit
---------------
Every visit prices the whole tentative allocation, holder by holder, through
:meth:`Deployment.sc_cost_of` — the ``(node, k)`` SC-cost table the ID phase
filled during the same solve — so the O(degree²) Poisson-binomial recurrence
runs at most once per distinct ``(node, k)`` rather than once per holder per
visit.  The summation order is kept on purpose: holders are summed in the
tentative allocation's insertion order, and a path's benefit is one ``sum()``
over the visited users' benefits in visiting order (not a running ``+=``,
which differs in the last bits from Python 3.12's compensated float
``sum()``).  Every :class:`GuaranteedPath` float is therefore bit-identical
to pricing each visit from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from repro.core.deployment import Deployment
from repro.graph.social_graph import SocialGraph

NodeId = Hashable


@dataclass(frozen=True)
class GuaranteedPath:
    """One guaranteed path ``g(seed, terminal)``.

    Attributes
    ----------
    seed:
        The seed the traversal started from.
    terminal:
        The user ``v`` whose visit produced this path.
    nodes:
        Every user in the path (the visited set when ``terminal`` was reached).
    allocation:
        The path's SC allocation ``K̂``: each user's count of visited children.
    guaranteed_cost:
        Expected SC cost of ``allocation`` (``c_{s,v}`` in the paper).
    expected_benefit:
        Sum of benefits of the users in the path (``b_{s,v}``).
    parent:
        ``terminal``'s parent in the traversal tree (``None`` for the seed).
    depth:
        Hop distance of ``terminal`` from the seed along the traversal tree.
    """

    seed: NodeId
    terminal: NodeId
    nodes: Tuple[NodeId, ...]
    allocation: Dict[NodeId, int]
    guaranteed_cost: float
    expected_benefit: float
    parent: Optional[NodeId]
    depth: int

    @property
    def total_coupons(self) -> int:
        """Total coupons required to realise the path."""
        return sum(self.allocation.values())

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` lies on the path."""
        return node in self.nodes

    def amelioration_index(self, ancestor: Optional["GuaranteedPath"]) -> float:
        """AI of this path relative to the path ending at an activated ancestor.

        ``AI = (b_{s,v} − b_{s,a}) / (c_{s,v} − c_{s,a})`` where ``a`` is the
        terminal of ``ancestor``; with no ancestor the seed's own benefit and a
        zero cost are used (the seed is always activated).  A non-positive cost
        difference with a positive benefit difference yields ``inf``.
        """
        if ancestor is None:
            base_benefit = 0.0
            base_cost = 0.0
        else:
            base_benefit = ancestor.expected_benefit
            base_cost = ancestor.guaranteed_cost
        benefit_gain = self.expected_benefit - base_benefit
        cost_gain = self.guaranteed_cost - base_cost
        if cost_gain <= 0.0:
            return float("inf") if benefit_gain > 0.0 else 0.0
        return benefit_gain / cost_gain


@dataclass
class GPIResult:
    """All guaranteed paths found, grouped per seed."""

    paths: List[GuaranteedPath] = field(default_factory=list)
    paths_by_terminal: Dict[Tuple[NodeId, NodeId], GuaranteedPath] = field(
        default_factory=dict
    )

    def add(self, path: GuaranteedPath) -> None:
        """Record a path."""
        self.paths.append(path)
        self.paths_by_terminal[(path.seed, path.terminal)] = path

    def for_seed(self, seed: NodeId) -> List[GuaranteedPath]:
        """All paths rooted at ``seed``."""
        return [path for path in self.paths if path.seed == seed]

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def identify_guaranteed_paths(
    graph: SocialGraph,
    deployment: Deployment,
    budget_limit: float,
    *,
    max_paths_per_seed: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> GPIResult:
    """Run GPI (Alg. 2) for every seed of ``deployment``.

    Parameters
    ----------
    graph / deployment / budget_limit:
        The problem instance and the ID-phase result ``D*``.  ``deployment``
        must live on ``graph``: visits are priced through its SC-cost table
        (:meth:`Deployment.sc_cost_of`).
    max_paths_per_seed:
        Optional cap on the number of paths recorded per seed (the traversal
        stops early once reached); keeps the SCM phase tractable on large
        graphs.  ``None`` reproduces the unbounded pseudo-code.
    max_depth:
        Optional cap on traversal depth.
    """
    result = GPIResult()
    for seed in sorted(deployment.seeds, key=str):
        remaining = budget_limit - graph.seed_cost(seed)
        if remaining <= 0:
            continue
        _traverse_from_seed(
            graph,
            deployment.sc_cost_of,
            seed,
            remaining,
            result,
            max_paths=max_paths_per_seed,
            max_depth=max_depth,
        )
    return result


def _traverse_from_seed(
    graph: SocialGraph,
    sc_cost_of: Callable[[Mapping[NodeId, int]], float],
    seed: NodeId,
    remaining_budget: float,
    result: GPIResult,
    *,
    max_paths: Optional[int],
    max_depth: Optional[int],
) -> None:
    """Depth-first traversal from one seed, recording a path per visited node."""
    visited: Set[NodeId] = {seed}
    visited_order: List[NodeId] = [seed]
    visited_benefits: List[float] = [graph.benefit(seed)]
    children_count: Dict[NodeId, int] = {}
    recorded = 0

    def visit(node: NodeId, parent: NodeId, depth: int) -> bool:
        """Try to visit ``node``; returns False when the budget prunes it."""
        nonlocal recorded
        tentative = dict(children_count)
        tentative[parent] = tentative.get(parent, 0) + 1
        cost = sc_cost_of(tentative)
        if cost > remaining_budget:
            return False
        visited.add(node)
        visited_order.append(node)
        visited_benefits.append(graph.benefit(node))
        children_count[parent] = tentative[parent]
        benefit = sum(visited_benefits)
        path = GuaranteedPath(
            seed=seed,
            terminal=node,
            nodes=tuple(visited_order),
            allocation=tentative,
            guaranteed_cost=cost,
            expected_benefit=benefit,
            parent=parent,
            depth=depth,
        )
        result.add(path)
        recorded += 1
        return True

    def dfs(node: NodeId, depth: int) -> None:
        nonlocal recorded
        if max_depth is not None and depth >= max_depth:
            return
        for child, _probability in graph.ranked_out_neighbors(node):
            if max_paths is not None and recorded >= max_paths:
                return
            if child in visited:
                continue
            if not visit(child, node, depth + 1):
                # Budget exceeded: prune this child's subtree and all its
                # lower-probability siblings (Alg. 2 line 7-10).
                return
            dfs(child, depth + 1)

    dfs(seed, 0)

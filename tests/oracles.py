"""Reference implementations the fast paths are checked against.

:class:`DictOracle` is the dict-adjacency Monte-Carlo oracle.  It draws its
worlds once with :func:`~repro.diffusion.live_edge.sample_worlds` and answers
every query with one :func:`~repro.diffusion.live_edge.cascade_in_world` pass
over them, on seeds sorted by ``str`` (the estimator's canonical order) and
with no memo.  For the same graph, world count and seed it is the reference
semantics of :class:`~repro.diffusion.monte_carlo.MonteCarloEstimator`:
identical activation probabilities, and expected benefits equal up to
floating-point summation order (the oracle sums each world's benefits in set
order).

:func:`reference_guaranteed_paths` is GPI (Alg. 2) priced from scratch: every
visit re-runs the uncached SC-cost recurrence for every holder of the
tentative allocation and re-sums the visited users' benefits.  The library's
:func:`~repro.core.guaranteed_paths.identify_guaranteed_paths` must return
the same paths, float for float.

:class:`DictRRSampler` samples RR sets by the dict-adjacency reverse BFS, one
scalar draw at a time: one ``integers(0, n)`` target per set, then one double
per not-yet-visited in-neighbour in ``in_neighbors`` order.
:class:`~repro.diffusion.rr_sets.RRSetSampler` (its native entry and its
numpy loop) must sample the same sets and leave the generator in the same
state; :func:`dict_rr_estimator` builds an
:class:`~repro.diffusion.rr_sets.RRBenefitEstimator` on the oracle's sets.

:func:`stream_draws` reads a :class:`~repro.diffusion.engine.WorldSampler`'s
coin flips at given draw positions the slow way: every layer's stream from
its frozen state, world after world, with no skip-ahead.  The draws an event
batch's block redraw reports at its probe positions must equal it.

:func:`replay_events` replays a graph-event batch onto a
:class:`~repro.graph.social_graph.SocialGraph` under the tolerant event rules
and records nothing.  A cold compile of the graph it leaves is what the
snapshot :func:`repro.graph.events.apply_batch` evolves must equal.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
)
from unittest import mock

import numpy as np

from repro.core.allocation import expected_sc_cost
from repro.core.deployment import Deployment
from repro.core.guaranteed_paths import GPIResult, GuaranteedPath
from repro.diffusion import rr_sets
from repro.diffusion.engine import WorldSampler
from repro.diffusion.live_edge import cascade_in_world, sample_worlds
from repro.diffusion.rr_sets import RRBenefitEstimator, RRSetSampler
from repro.graph.events import EdgeAdd, EdgeDrop, EdgeReweight, NodeAdd
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike

NodeId = Hashable


class DictOracle:
    """Monte-Carlo estimates over dict-adjacency live-edge worlds."""

    def __init__(self, graph: SocialGraph, num_samples: int, seed: SeedLike) -> None:
        self.graph = graph
        self.num_samples = num_samples
        self.worlds = tuple(sample_worlds(graph, num_samples, seed))

    def _cascades(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Iterator[Set[NodeId]]:
        seeds = sorted(seeds, key=str)
        for world in self.worlds:
            yield cascade_in_world(self.graph, world, seeds, allocation)

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        counts: Dict[NodeId, int] = {}
        for activated in self._cascades(seeds, allocation):
            for node in activated:
                counts[node] = counts.get(node, 0) + 1
        return {node: count / self.num_samples for node, count in counts.items()}

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        total = 0.0
        for activated in self._cascades(seeds, allocation):
            total += sum(self.graph.benefit(node) for node in activated)
        return total / self.num_samples


def reference_guaranteed_paths(
    graph: SocialGraph,
    deployment: Deployment,
    budget_limit: float,
    *,
    max_paths_per_seed: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> GPIResult:
    """GPI with every visit priced from scratch (no SC-cost table)."""
    result = GPIResult()
    for seed in sorted(deployment.seeds, key=str):
        remaining = budget_limit - graph.seed_cost(seed)
        if remaining <= 0:
            continue
        _reference_traverse(
            graph, seed, remaining, result,
            max_paths=max_paths_per_seed, max_depth=max_depth,
        )
    return result


def _reference_traverse(
    graph: SocialGraph,
    seed: NodeId,
    remaining_budget: float,
    result: GPIResult,
    *,
    max_paths: Optional[int],
    max_depth: Optional[int],
) -> None:
    visited: Set[NodeId] = {seed}
    visited_order: List[NodeId] = [seed]
    children_count: Dict[NodeId, int] = {}
    recorded = 0

    def guaranteed_cost_with(candidate: NodeId, parent: NodeId) -> float:
        tentative = dict(children_count)
        tentative[parent] = tentative.get(parent, 0) + 1
        return expected_sc_cost(graph, tentative)

    def visit(node: NodeId, parent: NodeId, depth: int) -> bool:
        nonlocal recorded
        cost = guaranteed_cost_with(node, parent)
        if cost > remaining_budget:
            return False
        visited.add(node)
        visited_order.append(node)
        children_count[parent] = children_count.get(parent, 0) + 1
        benefit = sum(graph.benefit(v) for v in visited_order)
        path = GuaranteedPath(
            seed=seed,
            terminal=node,
            nodes=tuple(visited_order),
            allocation=dict(children_count),
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
                return
            dfs(child, depth + 1)

    dfs(seed, 0)


class DictRRSampler(RRSetSampler):
    """RR sets by reverse BFS over dict adjacency, in the library's flat layout."""

    def _sample_all(self) -> None:
        sampled = [self._sample_one() for _ in range(self.num_sets)]
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

    def _sample_one(self) -> Tuple[NodeId, Set[NodeId]]:
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


def stream_draws(
    sampler: WorldSampler, positions: np.ndarray, num_worlds: int
) -> np.ndarray:
    """``out[w, i]``: world ``w``'s draw at flat position ``positions[i]``.

    Layer ``k`` covers the ``width_k`` positions after the earlier layers';
    world ``w``'s draws there are the ``w``-th run of ``width_k`` doubles of
    the layer's own stream.
    """
    positions = np.asarray(positions, dtype=np.int64)
    out = np.empty((num_worlds, positions.size), dtype=np.float64)
    low = 0
    for state, width in sampler.layers:
        bit_generator = sampler.bit_generator_class()
        bit_generator.state = copy.deepcopy(state)
        generator = np.random.Generator(bit_generator)
        selected = np.flatnonzero((positions >= low) & (positions < low + width))
        for world in range(num_worlds):
            out[world, selected] = generator.random(width)[positions[selected] - low]
        low += width
    return out


def dict_rr_estimator(
    graph: SocialGraph, num_sets: int, seed: SeedLike
) -> RRBenefitEstimator:
    """An :class:`RRBenefitEstimator` whose sketch :class:`DictRRSampler` samples."""
    with mock.patch.object(rr_sets, "RRSetSampler", DictRRSampler):
        return RRBenefitEstimator(graph, num_sets=num_sets, seed=seed)


def replay_events(graph: SocialGraph, batch) -> None:
    """Replay ``batch`` onto ``graph``: skip a self-loop add, a drop or
    reweight of an absent edge and a retire of an absent node; upsert a node
    add."""
    for event in batch.events:
        if isinstance(event, EdgeAdd):
            if event.source != event.target:
                graph.add_edge(event.source, event.target, event.probability)
        elif isinstance(event, (EdgeDrop, EdgeReweight)):
            if not graph.has_edge(event.source, event.target):
                continue
            if isinstance(event, EdgeDrop):
                graph.remove_edge(event.source, event.target)
            else:
                graph.add_edge(event.source, event.target, event.probability)
        elif isinstance(event, NodeAdd):
            graph.add_node(event.node, event.attributes)
        elif event.node in graph:  # NodeRetire
            graph.remove_node(event.node)

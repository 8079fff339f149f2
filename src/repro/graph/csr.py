"""Compiled CSR graph backend.

:class:`CompiledGraph` is an immutable, integer-indexed snapshot of a
:class:`~repro.graph.social_graph.SocialGraph` built for the hot loops of the
Monte-Carlo benefit estimator.  Where ``SocialGraph`` stores adjacency as
``Dict[node, Dict[node, float]]`` — flexible, but every edge visit pays a hash
lookup — ``CompiledGraph`` stores it once as flat numpy arrays:

* a stable ``node -> int`` index (in ``graph.nodes()`` insertion order),
* CSR out-edge arrays ``indptr`` / ``indices`` / ``probs`` in which every
  node's out-edges appear **rank-ordered** (decreasing influence probability,
  ties broken by ``str(node)``) — exactly the coupon hand-off order of the
  SC-constrained cascade, so the cascade can walk ``indices[indptr[u]:
  indptr[u + 1]]`` without re-sorting,
* ``edge_pos``: for each rank-ordered edge, its position in the
  ``graph.edges()`` enumeration order.  Live-edge coin flips are drawn in
  enumeration order (matching :func:`repro.diffusion.live_edge.sample_worlds`
  draw for draw), then gathered through ``edge_pos`` into the ranked layout —
  this is what makes the compiled engine reproduce the dict-path worlds
  bit for bit under common random numbers, and
* dense per-node attribute vectors ``benefits`` / ``seed_costs`` /
  ``sc_costs``.

A compiled graph is a snapshot: mutating the source ``SocialGraph`` afterwards
does not update it.  Build it once per estimator (the estimators do this for
you) and rebuild after structural edits.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graph.social_graph import SocialGraph

NodeId = Hashable


class CompiledGraph:
    """Immutable CSR snapshot of a :class:`SocialGraph`.

    Attributes
    ----------
    node_ids:
        Node identifiers; position = compiled integer index.
    indptr / indices / probs:
        CSR out-adjacency.  The out-edges of node ``u`` occupy the slice
        ``indptr[u]:indptr[u + 1]`` and are sorted by decreasing probability
        (ties by ``str(target)``) — the coupon hand-off order.
    edge_pos:
        ``edge_pos[j]`` is the index of ranked edge ``j`` in the source
        graph's ``edges()`` enumeration order (the order coin flips are drawn
        in).
    benefits / seed_costs / sc_costs:
        Dense per-node attribute vectors aligned with ``node_ids``.
    """

    __slots__ = (
        "_node_ids",
        "_node_ids_loader",
        "_index",
        "indptr",
        "indices",
        "probs",
        "edge_pos",
        "benefits",
        "seed_costs",
        "sc_costs",
        "num_draws",
        "__weakref__",
    )

    def __init__(
        self,
        node_ids: Optional[List[NodeId]],
        indptr: np.ndarray,
        indices: np.ndarray,
        probs: np.ndarray,
        edge_pos: np.ndarray,
        benefits: np.ndarray,
        seed_costs: np.ndarray,
        sc_costs: np.ndarray,
        *,
        node_ids_loader=None,
        num_draws: Optional[int] = None,
    ) -> None:
        if node_ids is None and node_ids_loader is None:
            raise ValueError("either node_ids or node_ids_loader is required")
        self._node_ids = None if node_ids is None else list(node_ids)
        self._node_ids_loader = node_ids_loader
        self._index: Optional[Dict[NodeId, int]] = None
        self.indptr = indptr
        self.indices = indices
        self.probs = probs
        self.edge_pos = edge_pos
        self.benefits = benefits
        self.seed_costs = seed_costs
        self.sc_costs = sc_costs
        #: Width of one world's coin-flip stream.  Equals ``num_edges`` for a
        #: freshly compiled graph; grows past it on graphs evolved through
        #: event batches (:func:`repro.graph.events.apply_batch`),
        #: where dropped edges leave permanent holes in the draw-position
        #: space so that surviving edges keep their draw positions — and
        #: therefore their coin flips — across versions.
        self.num_draws = int(num_draws) if num_draws is not None else int(indices.shape[0])

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the arrays only; ``_index`` is derived and rebuilt lazily.

        Compiled graphs are shipped to worker processes by
        :mod:`repro.diffusion.parallel`, so the payload matters: the index
        dict roughly doubles it for no information.  (Zero-copy transport —
        :class:`repro.graph.shared.SharedCompiledGraph` — bypasses this
        entirely and ships a segment descriptor instead.)
        """
        return {
            "node_ids": self.node_ids,
            "indptr": self.indptr,
            "indices": self.indices,
            "probs": self.probs,
            "edge_pos": self.edge_pos,
            "benefits": self.benefits,
            "seed_costs": self.seed_costs,
            "sc_costs": self.sc_costs,
            "num_draws": self.num_draws,
        }

    def __setstate__(self, state: dict) -> None:
        # The index is derived data; workers that only run integer-indexed
        # cascades never ask for it, so it is built lazily on first access
        # instead of eagerly on every unpickle.
        self._node_ids = state["node_ids"]
        self._node_ids_loader = None
        self._index = None
        self.indptr = state["indptr"]
        self.indices = state["indices"]
        self.probs = state["probs"]
        self.edge_pos = state["edge_pos"]
        self.benefits = state["benefits"]
        self.seed_costs = state["seed_costs"]
        self.sc_costs = state["sc_costs"]
        # .get: pickles written before draw-position persistence existed.
        self.num_draws = int(state.get("num_draws", self.indices.shape[0]))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_social_graph(cls, graph: SocialGraph) -> "CompiledGraph":
        """Compile ``graph`` into CSR form (a one-time O(V + E log d) pass)."""
        node_ids = list(graph.nodes())
        index = {node: position for position, node in enumerate(node_ids)}
        num_nodes = len(node_ids)

        # Edges in enumeration (coin-flip draw) order.
        draw_sources: List[int] = []
        draw_targets: List[int] = []
        draw_probs: List[float] = []
        for source, target, probability in graph.edges():
            draw_sources.append(index[source])
            draw_targets.append(index[target])
            draw_probs.append(probability)
        num_edges = len(draw_probs)

        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indices = np.empty(num_edges, dtype=np.int64)
        probs = np.empty(num_edges, dtype=np.float64)
        edge_pos = np.empty(num_edges, dtype=np.int64)

        # Group draw-order edge positions by source, then rank each group the
        # way ranked_out_neighbors does: decreasing probability, ties by the
        # string form of the target identifier.
        by_source: List[List[int]] = [[] for _ in range(num_nodes)]
        for position, source in enumerate(draw_sources):
            by_source[source].append(position)

        cursor = 0
        for node_index in range(num_nodes):
            positions = by_source[node_index]
            positions.sort(
                key=lambda pos: (-draw_probs[pos], str(node_ids[draw_targets[pos]]))
            )
            indptr[node_index] = cursor
            for pos in positions:
                indices[cursor] = draw_targets[pos]
                probs[cursor] = draw_probs[pos]
                edge_pos[cursor] = pos
                cursor += 1
        indptr[num_nodes] = cursor

        benefits = np.empty(num_nodes, dtype=np.float64)
        seed_costs = np.empty(num_nodes, dtype=np.float64)
        sc_costs = np.empty(num_nodes, dtype=np.float64)
        for node_index, node in enumerate(node_ids):
            attrs = graph.attributes(node)
            benefits[node_index] = attrs.benefit
            seed_costs[node_index] = attrs.seed_cost
            sc_costs[node_index] = attrs.sc_cost

        return cls(
            node_ids=node_ids,
            indptr=indptr,
            indices=indices,
            probs=probs,
            edge_pos=edge_pos,
            benefits=benefits,
            seed_costs=seed_costs,
            sc_costs=sc_costs,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[NodeId]:
        """Node identifiers; position = compiled integer index.

        Materialised lazily when the graph was built from a loader (memmap
        cache, shared-memory attach) — pure integer-indexed consumers never
        pay for it.
        """
        ids = self._node_ids
        if ids is None:
            ids = self._node_ids = list(self._node_ids_loader())
        return ids

    @property
    def index(self) -> Dict[NodeId, int]:
        """The ``node -> compiled index`` mapping (treat as read-only)."""
        index = self._index
        if index is None:
            index = self._index = {
                node: position for position, node in enumerate(self.node_ids)
            }
        return index

    @property
    def num_nodes(self) -> int:
        """Number of users."""
        return int(self.indptr.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.indices.shape[0])

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: NodeId) -> bool:
        return node in self.index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.node_ids)

    def index_of(self, node: NodeId) -> int:
        """Compiled integer index of ``node``."""
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_of(self, node_index: int) -> NodeId:
        """Node identifier at compiled ``node_index``."""
        return self.node_ids[node_index]

    def out_degree(self, node: NodeId) -> int:
        """Number of out-neighbours of ``node``."""
        node_index = self.index_of(node)
        return int(self.indptr[node_index + 1] - self.indptr[node_index])

    def ranked_out_neighbors(self, node: NodeId) -> List[Tuple[NodeId, float]]:
        """Out-neighbours in hand-off order, as ``(node_id, probability)``.

        Matches :meth:`SocialGraph.ranked_out_neighbors` element for element.
        """
        node_index = self.index_of(node)
        start, end = int(self.indptr[node_index]), int(self.indptr[node_index + 1])
        return [
            (self.node_ids[int(target)], float(probability))
            for target, probability in zip(self.indices[start:end], self.probs[start:end])
        ]

    def indices_of(self, nodes: Iterable[NodeId]) -> List[int]:
        """Compiled indices of ``nodes``, skipping unknown ids, order-preserving."""
        seen: set = set()
        result: List[int] = []
        index = self.index
        for node in nodes:
            position = index.get(node)
            if position is not None and position not in seen:
                seen.add(position)
                result.append(position)
        return result

    def allocation_vector(self, allocation) -> np.ndarray:
        """Dense per-node coupon counts from a ``node -> int`` mapping.

        Unknown nodes and non-positive entries are ignored, mirroring the
        dict-path cascade's ``allocation.get(user, 0)`` semantics.
        """
        coupons = np.zeros(self.num_nodes, dtype=np.int64)
        index = self.index
        for node, count in allocation.items():
            position = index.get(node)
            if position is not None and int(count) > 0:
                coupons[position] = int(count)
        return coupons

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------

    def with_attributes(self, graph: SocialGraph) -> "CompiledGraph":
        """A new snapshot aliasing this one's topology with fresh attributes.

        The attribute-only recompile fast path: ``indptr``/``indices``/
        ``probs``/``edge_pos`` (and the node-id list) are shared zero-copy
        with ``self``; only the dense benefit/cost vectors are rebuilt from
        ``graph``, whose node set must be unchanged.
        """
        node_ids = self.node_ids
        num_nodes = len(node_ids)
        benefits = np.empty(num_nodes, dtype=np.float64)
        seed_costs = np.empty(num_nodes, dtype=np.float64)
        sc_costs = np.empty(num_nodes, dtype=np.float64)
        for node_index, node in enumerate(node_ids):
            attrs = graph.attributes(node)
            benefits[node_index] = attrs.benefit
            seed_costs[node_index] = attrs.seed_cost
            sc_costs[node_index] = attrs.sc_cost
        return CompiledGraph(
            node_ids=node_ids,
            indptr=self.indptr,
            indices=self.indices,
            probs=self.probs,
            edge_pos=self.edge_pos,
            benefits=benefits,
            seed_costs=seed_costs,
            sc_costs=sc_costs,
            num_draws=self.num_draws,
        )

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Edges as ``(source, target, probability)`` in ranked-CSR order."""
        for source_index in range(self.num_nodes):
            start = int(self.indptr[source_index])
            end = int(self.indptr[source_index + 1])
            for slot in range(start, end):
                yield (
                    self.node_ids[source_index],
                    self.node_ids[int(self.indices[slot])],
                    float(self.probs[slot]),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CompiledGraph(nodes={self.num_nodes}, edges={self.num_edges})"

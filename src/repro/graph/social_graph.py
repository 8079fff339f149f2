"""Weighted directed social graph.

:class:`SocialGraph` is the central substrate of the library.  It stores, for
every user, the economic attributes of :class:`~repro.graph.attributes.NodeAttributes`
and, for every directed edge ``(u, v)``, the influence probability
``P(e(u, v))`` with which ``u`` activates ``v``.

Two representation details matter for the algorithms built on top:

* out-neighbour lists are available **sorted by decreasing influence
  probability** (``ranked_out_neighbors``) because the SC-constrained cascade
  hands coupons to friends in exactly that order (Sec. III of the paper), and
* in-degrees are tracked incrementally because the standard experimental
  setting assigns ``P(e(u, v)) = 1 / in_degree(v)``.

The class is intentionally a plain adjacency-dict structure rather than a
wrapper around :mod:`networkx`: it is the *mutable construction* substrate.
For the Monte-Carlo hot loops it is compiled once into the immutable
integer-indexed CSR snapshot :class:`repro.graph.csr.CompiledGraph`, which
the vectorized cascade engine (:mod:`repro.diffusion.engine`) runs on.  A
conversion bridge to/from networkx is still provided for interoperability.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.attributes import NodeAttributes
from repro.utils.validation import require_probability

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


class SocialGraph:
    """A weighted directed graph with per-node economic attributes."""

    def __init__(self) -> None:
        self._attrs: Dict[NodeId, NodeAttributes] = {}
        self._succ: Dict[NodeId, Dict[NodeId, float]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, float]] = {}
        self._ranked_cache: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
        self._num_edges = 0
        # Two sub-counters so derived snapshots can invalidate selectively:
        # topology covers anything the CSR adjacency arrays depend on (node
        # set, edges, probabilities), attributes only the benefit/cost
        # vectors.  ``version`` (their sum) keeps the historic monotone
        # any-mutation counter for coarse consumers.
        self._topology_version = 0
        self._attribute_version = 0
        self._compiled_cache = None
        self._compiled_versions: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        node: NodeId,
        attributes: Optional[NodeAttributes] = None,
        *,
        benefit: Optional[float] = None,
        seed_cost: Optional[float] = None,
        sc_cost: Optional[float] = None,
    ) -> None:
        """Add ``node`` (or update its attributes if it already exists).

        Attributes may be given either as a :class:`NodeAttributes` instance
        or as individual keyword arguments; keyword arguments override the
        corresponding fields of ``attributes``.
        """
        is_new = node not in self._attrs
        base = attributes or self._attrs.get(node, NodeAttributes())
        if benefit is not None:
            base = base.with_benefit(benefit)
        if seed_cost is not None:
            base = base.with_seed_cost(seed_cost)
        if sc_cost is not None:
            base = base.with_sc_cost(sc_cost)
        self._attrs[node] = base
        self._succ.setdefault(node, {})
        self._pred.setdefault(node, {})
        if is_new:
            # A new node changes the compiled index space itself.
            self._topology_version += 1
        else:
            self._attribute_version += 1

    def add_edge(self, source: NodeId, target: NodeId, probability: float) -> None:
        """Add a directed edge ``source -> target`` with influence probability.

        Both endpoints are created with default attributes if they are not
        already present.  Re-adding an existing edge overwrites the
        probability.  Self-loops are rejected because a user cannot refer a
        coupon to themselves.
        """
        if source == target:
            raise GraphError(f"self-loop on node {source!r} is not allowed")
        require_probability(probability, "probability")
        if source not in self._attrs:
            self.add_node(source)
        if target not in self._attrs:
            self.add_node(target)
        if target not in self._succ[source]:
            self._num_edges += 1
        self._succ[source][target] = float(probability)
        self._pred[target][source] = float(probability)
        self._ranked_cache.pop(source, None)
        self._topology_version += 1

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove the edge ``source -> target``."""
        if source not in self._succ or target not in self._succ[source]:
            raise EdgeNotFoundError(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        self._num_edges -= 1
        self._ranked_cache.pop(source, None)
        self._topology_version += 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every edge incident to it."""
        self._require_node(node)
        for target in self._succ[node]:
            del self._pred[target][node]
            self._num_edges -= 1
        for source in self._pred[node]:
            del self._succ[source][node]
            self._num_edges -= 1
            self._ranked_cache.pop(source, None)
        del self._succ[node]
        del self._pred[node]
        del self._attrs[node]
        self._ranked_cache.pop(node, None)
        self._topology_version += 1

    def set_attributes(self, node: NodeId, attributes: NodeAttributes) -> None:
        """Replace the attributes of an existing node."""
        self._require_node(node)
        self._attrs[node] = attributes
        self._attribute_version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every structural/attribute edit).

        Used to invalidate derived snapshots such as the cached
        :class:`~repro.graph.csr.CompiledGraph` — see :meth:`compiled`.
        """
        return self._topology_version + self._attribute_version

    @property
    def topology_version(self) -> int:
        """Counter of CSR-structural edits (node set, edges, probabilities)."""
        return self._topology_version

    @property
    def attribute_version(self) -> int:
        """Counter of attribute-only edits (benefits / costs)."""
        return self._attribute_version

    def compiled(self):
        """The CSR snapshot of this graph, compiled once and cached.

        Every estimator built on the same (unmutated) graph shares one
        :class:`~repro.graph.csr.CompiledGraph`, so ``compare``-style
        experiment runs pay the compilation cost once instead of once per
        algorithm.  A topology edit (node/edge/probability change)
        invalidates the cache wholesale; an attribute-only edit takes the
        cheap path — the next call returns a fresh snapshot *aliasing* the
        cached adjacency arrays with rebuilt benefit/cost vectors, never
        recompiling the CSR.
        """
        cache = self._compiled_cache
        versions = (self._topology_version, self._attribute_version)
        if cache is not None and self._compiled_versions == versions:
            return cache
        if cache is not None and self._compiled_versions[0] == versions[0]:
            self._compiled_cache = cache.with_attributes(self)
        else:
            from repro.graph.csr import CompiledGraph

            self._compiled_cache = CompiledGraph.from_social_graph(self)
        self._compiled_versions = versions
        return self._compiled_cache

    def apply_events(self, batch):
        """Apply a :class:`repro.graph.events.GraphEventBatch` in place.

        The batch is applied to the adjacency dicts *and*, when a compiled
        snapshot is cached, to the CSR via the delta recompiler — the evolved
        snapshot is installed as the new cache, so the next :meth:`compiled`
        call is free.  Returns the :class:`repro.graph.events.EventApplication`
        describing the evolution (remap table, draw-position records).
        """
        from repro.graph.events import apply_event_batch

        return apply_event_batch(self, batch)

    def _install_compiled(self, compiled) -> None:
        """Adopt an externally evolved snapshot as the current cache."""
        self._compiled_cache = compiled
        self._compiled_versions = (self._topology_version, self._attribute_version)

    @property
    def num_nodes(self) -> int:
        """Number of users in the graph."""
        return len(self._attrs)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the graph."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._attrs

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._attrs)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers (insertion order)."""
        return iter(self._attrs)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Iterate over ``(source, target, probability)`` triples."""
        for source, targets in self._succ.items():
            for target, probability in targets.items():
                yield source, target, probability

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Return whether the directed edge exists."""
        return source in self._succ and target in self._succ[source]

    def probability(self, source: NodeId, target: NodeId) -> float:
        """Return the influence probability of an existing edge."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        return self._succ[source][target]

    def attributes(self, node: NodeId) -> NodeAttributes:
        """Return the :class:`NodeAttributes` of ``node``."""
        self._require_node(node)
        return self._attrs[node]

    def benefit(self, node: NodeId) -> float:
        """Benefit ``b(v)`` of ``node``."""
        return self.attributes(node).benefit

    def seed_cost(self, node: NodeId) -> float:
        """Seed cost ``c_seed(v)`` of ``node``."""
        return self.attributes(node).seed_cost

    def sc_cost(self, node: NodeId) -> float:
        """Social-coupon cost ``c_sc(v)`` of ``node``."""
        return self.attributes(node).sc_cost

    def out_neighbors(self, node: NodeId) -> Dict[NodeId, float]:
        """Mapping of out-neighbours to influence probabilities."""
        self._require_node(node)
        return dict(self._succ[node])

    def in_neighbors(self, node: NodeId) -> Dict[NodeId, float]:
        """Mapping of in-neighbours to influence probabilities."""
        self._require_node(node)
        return dict(self._pred[node])

    def out_degree(self, node: NodeId) -> int:
        """Number of out-neighbours (friends the user can refer)."""
        self._require_node(node)
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Number of in-neighbours."""
        self._require_node(node)
        return len(self._pred[node])

    def ranked_out_neighbors(self, node: NodeId) -> List[Tuple[NodeId, float]]:
        """Out-neighbours sorted by decreasing influence probability.

        Ties are broken by node identifier (string order) so the cascade order
        is deterministic.  The list is cached per node and invalidated when the
        node's outgoing edges change.
        """
        self._require_node(node)
        cached = self._ranked_cache.get(node)
        if cached is None:
            cached = sorted(
                self._succ[node].items(), key=lambda item: (-item[1], str(item[0]))
            )
            self._ranked_cache[node] = cached
        return cached

    def total_benefit(self) -> float:
        """Sum of ``b(v)`` over all users (used to set the λ ratio)."""
        return sum(attrs.benefit for attrs in self._attrs.values())

    def total_sc_cost(self) -> float:
        """Sum of ``c_sc(v)`` over all users."""
        return sum(attrs.sc_cost for attrs in self._attrs.values())

    def total_seed_cost(self) -> float:
        """Sum of ``c_seed(v)`` over all users (used to set the κ ratio)."""
        return sum(attrs.seed_cost for attrs in self._attrs.values())

    # ------------------------------------------------------------------
    # copies / conversions
    # ------------------------------------------------------------------

    def copy(self) -> "SocialGraph":
        """Return a deep-enough copy (attributes are immutable, so shared)."""
        clone = SocialGraph()
        clone._attrs = dict(self._attrs)
        clone._succ = {node: dict(targets) for node, targets in self._succ.items()}
        clone._pred = {node: dict(sources) for node, sources in self._pred.items()}
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "SocialGraph":
        """Return the induced subgraph on ``nodes``."""
        keep = set(nodes)
        missing = keep - set(self._attrs)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = SocialGraph()
        for node in keep:
            sub.add_node(node, self._attrs[node])
        for source in keep:
            for target, probability in self._succ[source].items():
                if target in keep:
                    sub.add_edge(source, target, probability)
        return sub

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (networkx must be installed)."""
        import networkx as nx

        digraph = nx.DiGraph()
        for node, attrs in self._attrs.items():
            digraph.add_node(node, **attrs.as_dict())
        for source, target, probability in self.edges():
            digraph.add_edge(source, target, probability=probability)
        return digraph

    @classmethod
    def from_networkx(cls, digraph) -> "SocialGraph":
        """Build from a :class:`networkx.DiGraph` produced by :meth:`to_networkx`."""
        graph = cls()
        for node, data in digraph.nodes(data=True):
            graph.add_node(node, NodeAttributes.from_dict(data))
        for source, target, data in digraph.edges(data=True):
            graph.add_edge(source, target, float(data.get("probability", 0.0)))
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId, float]],
        attributes: Optional[Mapping[NodeId, NodeAttributes]] = None,
    ) -> "SocialGraph":
        """Build a graph from ``(source, target, probability)`` triples."""
        graph = cls()
        for source, target, probability in edges:
            graph.add_edge(source, target, probability)
        if attributes:
            for node, attrs in attributes.items():
                graph.add_node(node, attrs)
        return graph

    def assign_reciprocal_in_degree_probabilities(self) -> None:
        """Set every edge probability to ``1 / in_degree(target)``.

        This is the standard weighted-cascade setting used throughout the
        paper's evaluation (Sec. VI-A, following the IM literature).
        """
        for target, sources in self._pred.items():
            if not sources:
                continue
            probability = 1.0 / len(sources)
            for source in list(sources):
                self._succ[source][target] = probability
                self._pred[target][source] = probability
                self._ranked_cache.pop(source, None)
        self._topology_version += 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_node(self, node: NodeId) -> None:
        if node not in self._attrs:
            raise NodeNotFoundError(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SocialGraph(nodes={self.num_nodes}, edges={self.num_edges})"

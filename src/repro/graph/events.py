"""Typed graph-mutation event batches and their one interpreter.

A live campaign's graph churns: edges appear and disappear, influence
probabilities drift, users join and leave.  Rebuilding the compiled CSR
snapshot — and worse, every per-world cascade snapshot built on it — from
scratch on each change is what froze the graph until now.  This module is
the ingestion path:

* :class:`GraphEventBatch` — an ordered, validated batch of typed events
  (edge add/drop/reweight, node add/retire) with **tolerant** semantics:
  self-loop adds, drops/reweights of absent edges and retires of absent
  nodes are skipped, node adds upsert.
* :func:`apply_batch` — the one interpreter of those semantics.  It replays
  the batch once through the :class:`~repro.graph.social_graph.SocialGraph`'s
  own mutators, recording as it goes what the CSR needs, then assembles the
  evolved :class:`~repro.graph.csr.CompiledGraph` *without recompiling from
  scratch*: only the changed CSR rows are rebuilt; runs of unchanged rows
  are copied in bulk array slices (and for attribute-only batches the whole
  topology is aliased zero-copy); the result also carries the old→new
  node-index remap table.
* **Persistent draw positions** — the key to cheap snapshot reconciliation.
  Every surviving edge keeps its draw position (the offset of its coin flip
  inside a world's RNG stream), dropped edges leave permanent holes, and new
  edges are assigned fresh positions past the old stream width
  (``CompiledGraph.num_draws``).  Combined with the layered
  :class:`~repro.diffusion.engine.WorldSampler`, an unchanged edge therefore
  sees the *identical* coin flip in every world across graph versions — so
  a world is only dirty if a changed edge's flip actually flips its live
  set, which is exactly what :mod:`repro.diffusion.reconcile` tests.

The :class:`EventApplication` that :func:`apply_batch` returns records
everything downstream layers need: the evolved snapshot, the remap table,
the retired old indices, and the per-edge draw-position records (added /
dropped / reweighted) that the dirty-world rule keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.attributes import NodeAttributes
from repro.graph.csr import CompiledGraph
from repro.graph.social_graph import SocialGraph
from repro.utils.validation import require_probability

NodeId = Hashable

__all__ = [
    "EdgeAdd",
    "EdgeDrop",
    "EdgeReweight",
    "NodeAdd",
    "NodeRetire",
    "GraphEvent",
    "GraphEventBatch",
    "EventApplication",
    "apply_batch",
]


@dataclass(frozen=True)
class EdgeAdd:
    """Add (or, if the edge exists, reweight) ``source -> target``.

    Self-loops are skipped — a user cannot refer a coupon to themselves.
    Missing endpoints are created with default attributes, exactly like
    :meth:`SocialGraph.add_edge`.
    """

    source: NodeId
    target: NodeId
    probability: float


@dataclass(frozen=True)
class EdgeDrop:
    """Remove ``source -> target``; skipped when the edge does not exist."""

    source: NodeId
    target: NodeId


@dataclass(frozen=True)
class EdgeReweight:
    """Change an existing edge's probability; skipped when absent.

    Unlike :class:`EdgeAdd` this never creates the edge — reweighting keeps
    the edge's draw position, so an unchanged-liveness world stays clean.
    """

    source: NodeId
    target: NodeId
    probability: float


@dataclass(frozen=True)
class NodeAdd:
    """Upsert a node.  ``attributes=None`` only ensures existence (an
    existing node keeps its attributes); a :class:`NodeAttributes` instance
    replaces them wholesale."""

    node: NodeId
    attributes: Optional[NodeAttributes] = None


@dataclass(frozen=True)
class NodeRetire:
    """Remove a node and every incident edge; skipped when absent."""

    node: NodeId


GraphEvent = Union[EdgeAdd, EdgeDrop, EdgeReweight, NodeAdd, NodeRetire]

_EVENT_TYPES = {
    "edge_add": EdgeAdd,
    "edge_drop": EdgeDrop,
    "edge_reweight": EdgeReweight,
    "node_add": NodeAdd,
    "node_retire": NodeRetire,
}
_EVENT_NAMES = {kind: name for name, kind in _EVENT_TYPES.items()}


class GraphEventBatch:
    """An ordered, validated batch of graph events.

    Events apply strictly in order (a drop-then-re-add is a re-keyed edge
    with a fresh draw position, not a no-op).  Every event is checked at
    construction: node ids must be hashable and probabilities in ``[0, 1]``.
    A bad event raises :class:`GraphError` naming its index and type, so a
    batch that was built never half-applies.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[GraphEvent]) -> None:
        events = tuple(events)
        for position, event in enumerate(events):
            try:
                if isinstance(event, (EdgeAdd, EdgeReweight)):
                    require_probability(event.probability, "probability")
                elif not isinstance(event, (EdgeDrop, NodeAdd, NodeRetire)):
                    raise TypeError("not a graph event")
                # Node ids key the graph's dicts, so an unhashable one would
                # fail in the middle of a replay; a frozen event hashes its
                # fields.
                hash(event)
            except (TypeError, ValueError) as error:
                name = _EVENT_NAMES.get(type(event), type(event).__name__)
                raise GraphError(f"graph event {position} ({name}): {error}") from None
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[GraphEvent]:
        return iter(self.events)

    @classmethod
    def from_payloads(cls, payloads: Sequence[Mapping]) -> "GraphEventBatch":
        """Build a batch from plain dicts (the server / CLI wire format).

        Each payload carries a ``type`` of ``edge_add`` / ``edge_drop`` /
        ``edge_reweight`` / ``node_add`` / ``node_retire`` plus that type's
        fields.  ``node_add`` accepts optional ``benefit`` / ``seed_cost`` /
        ``sc_cost``; when any is present the node's attributes are replaced
        (absent fields default to 0.0), when none are it is a bare upsert.
        A malformed entry raises :class:`GraphError` naming its index and
        type.
        """
        events: List[GraphEvent] = []
        for position, payload in enumerate(payloads):
            if not isinstance(payload, Mapping):
                raise GraphError(
                    f"graph event {position} must be an object, got "
                    f"{type(payload).__name__}"
                )
            kind = payload.get("type")
            if not isinstance(kind, str) or kind not in _EVENT_TYPES:
                raise GraphError(
                    f"graph event {position} has unknown type {kind!r}; "
                    f"expected one of {sorted(_EVENT_TYPES)}"
                )
            try:
                if kind == "edge_add":
                    events.append(
                        EdgeAdd(
                            payload["source"],
                            payload["target"],
                            float(payload["probability"]),
                        )
                    )
                elif kind == "edge_drop":
                    events.append(EdgeDrop(payload["source"], payload["target"]))
                elif kind == "edge_reweight":
                    events.append(
                        EdgeReweight(
                            payload["source"],
                            payload["target"],
                            float(payload["probability"]),
                        )
                    )
                elif kind == "node_add":
                    attrs = None
                    if any(
                        key in payload for key in ("benefit", "seed_cost", "sc_cost")
                    ):
                        attrs = NodeAttributes(
                            benefit=float(payload.get("benefit", 0.0)),
                            seed_cost=float(payload.get("seed_cost", 0.0)),
                            sc_cost=float(payload.get("sc_cost", 0.0)),
                        )
                    events.append(NodeAdd(payload["node"], attrs))
                else:
                    events.append(NodeRetire(payload["node"]))
            except KeyError as error:
                raise GraphError(
                    f"graph event {position} ({kind}) is missing field "
                    f"{error.args[0]!r}"
                ) from None
            except (TypeError, ValueError) as error:
                raise GraphError(f"graph event {position} ({kind}): {error}") from None
        return cls(events)


class EventApplication:
    """The record of one batch replayed onto a graph and its compiled snapshot.

    Attributes
    ----------
    compiled:
        The evolved :class:`CompiledGraph`.
    remap:
        int64 array with one entry per old node: old node index → new node
        index, ``-1`` for retired nodes.  Surviving nodes keep their
        relative order; new nodes are appended, so with no node retired
        every old index maps to itself.
    added / dropped / reweighted:
        Draw-position records of the edges the batch actually changed:
        ``(position, probability)`` for added edges (positions all at or
        past the old graph's ``num_draws``), ``(position,
        old_probability)`` for dropped edges, ``(position, old_probability,
        new_probability)`` for reweighted edges.  These — not node ids — are
        what the dirty-world rule of :mod:`repro.diffusion.reconcile` tests
        against the draws.
    retired:
        Old node indices removed by the batch, ascending.
    rebuilt:
        New node indices of the CSR rows the batch rebuilt, ascending.  Every
        other surviving row was copied wholesale: same slots, probabilities
        and draw positions, targets through ``remap``.
    num_new_draws:
        Fresh draw positions appended past the old stream width; the
        evolved sampler grows one RNG layer of exactly this width.
    """

    __slots__ = (
        "compiled",
        "remap",
        "added",
        "dropped",
        "reweighted",
        "retired",
        "rebuilt",
        "num_new_draws",
    )

    def __init__(
        self,
        compiled: CompiledGraph,
        remap: np.ndarray,
        *,
        added: List[Tuple[int, float]],
        dropped: List[Tuple[int, float]],
        reweighted: List[Tuple[int, float, float]],
        retired: Tuple[int, ...],
        rebuilt: Tuple[int, ...],
        num_new_draws: int,
    ) -> None:
        self.compiled = compiled
        self.remap = remap
        self.added = added
        self.dropped = dropped
        self.reweighted = reweighted
        self.retired = retired
        self.rebuilt = rebuilt
        self.num_new_draws = int(num_new_draws)

    @property
    def touched_edges(self) -> int:
        """How many edges the batch changed (added + dropped + reweighted)."""
        return len(self.added) + len(self.dropped) + len(self.reweighted)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"EventApplication(nodes={self.remap.size}->"
            f"{self.compiled.num_nodes}, added={len(self.added)}, "
            f"dropped={len(self.dropped)}, reweighted={len(self.reweighted)}, "
            f"retired={len(self.retired)})"
        )


def apply_batch(graph: SocialGraph, batch: GraphEventBatch) -> EventApplication:
    """Replay ``batch`` onto ``graph`` once and evolve its compiled snapshot.

    ``graph`` is compiled first (free when its snapshot is cached), then
    mutated in place, event by event, through its own mutators.  No mutator
    can raise on a batch :class:`GraphEventBatch` validated: a self-loop add,
    a drop or reweight of an absent edge and a retire of an absent node are
    skipped before any mutator sees them, so a batch never half-applies.

    As it goes the replay records what the CSR needs: the sources whose
    out-row changed, the draw position and old probability of every old
    edge it removes (a drop, or a retire of either endpoint), the old nodes
    it retires and the nodes a ``NodeAdd`` gave attributes.  A node retired
    and added back in the same batch is a new node: its old edges and draw
    positions are gone.

    The evolved snapshot is then assembled from the mutated graph.  Node
    order is the graph's insertion order: survivors keep theirs, new nodes
    append.  It equals a from-scratch compile of that graph in every array
    but ``edge_pos`` (draw positions persist across versions), but only the
    changed rows are read off the graph; unchanged rows are bulk slice
    copies, and a batch that changes no topology aliases every topology
    array zero-copy.
    """
    old = graph.compiled()
    old_index = old.index
    indptr, indices, probs, edge_pos = old.indptr, old.indices, old.probs, old.edge_pos
    changed: Set[NodeId] = set()
    removed: Dict[int, float] = {}
    retired: Set[int] = set()
    attributed: Set[NodeId] = set()
    rows: Dict[int, Dict[int, Tuple[int, float]]] = {}

    def old_of(node: NodeId) -> int:
        """``node``'s index in the old snapshot, ``-1`` if it is not an old node."""
        position = old_index.get(node, -1)
        return -1 if position in retired else position

    def old_row(source: int) -> Dict[int, Tuple[int, float]]:
        """Old CSR row ``source`` as ``target -> (draw position, probability)``."""
        row = rows.get(source)
        if row is None:
            lo, hi = int(indptr[source]), int(indptr[source + 1])
            row = rows[source] = dict(
                zip(
                    indices[lo:hi].tolist(),
                    zip(edge_pos[lo:hi].tolist(), probs[lo:hi].tolist()),
                )
            )
        return row

    def forget(source: NodeId, target: NodeId) -> None:
        """Record the old edge ``source -> target``, if there is one, as removed."""
        first = old_of(source)
        entry = old_row(first).get(old_of(target)) if first >= 0 else None
        if entry is not None:
            removed[entry[0]] = entry[1]

    for event in batch.events:
        if isinstance(event, NodeAdd):
            graph.add_node(event.node, event.attributes)
            if event.attributes is not None:
                attributed.add(event.node)
        elif isinstance(event, NodeRetire):
            node = event.node
            if node not in graph:
                continue
            sources = graph.in_neighbors(node)
            for source in sources:
                forget(source, node)
            for target in graph.out_neighbors(node):
                forget(node, target)
            if old_of(node) >= 0:
                retired.add(old_index[node])
            graph.remove_node(node)
            changed.update(sources)
            changed.discard(node)
            attributed.discard(node)
        elif isinstance(event, EdgeAdd):
            if event.source != event.target:
                graph.add_edge(event.source, event.target, event.probability)
                changed.add(event.source)
        elif graph.has_edge(event.source, event.target):  # EdgeDrop, EdgeReweight
            if isinstance(event, EdgeDrop):
                forget(event.source, event.target)
                graph.remove_edge(event.source, event.target)
            else:
                graph.add_edge(event.source, event.target, event.probability)
            changed.add(event.source)

    node_ids = list(graph.nodes())
    old_n, n = old.num_nodes, len(node_ids)
    keep = np.ones(old_n, dtype=bool)
    keep[list(retired)] = False
    survivors = np.flatnonzero(keep)
    remap = np.full(old_n, -1, dtype=np.int64)
    remap[survivors] = np.arange(survivors.size)

    reshaped = bool(changed or retired) or n > old_n
    if not reshaped and not attributed:
        return EventApplication(
            old, remap, added=[], dropped=[], reweighted=[], retired=(),
            rebuilt=(), num_new_draws=0,
        )
    new_index = {node: position for position, node in enumerate(node_ids)}
    added: List[Tuple[int, float]] = []
    reweighted: List[Tuple[int, float, float]] = []
    rebuilt: List[int] = []
    num_draws = old.num_draws
    topology = (indptr, indices, probs, edge_pos)
    if reshaped:
        rebuilt = sorted(new_index[node] for node in changed)
        degrees = np.zeros(n, dtype=np.int64)
        degrees[: survivors.size] = np.diff(indptr)[survivors]
        for position in rebuilt:
            degrees[position] = graph.out_degree(node_ids[position])
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=new_indptr[1:])
        num_edges = int(new_indptr[-1])
        new_indices = np.empty(num_edges, dtype=np.int64)
        new_probs = np.empty(num_edges, dtype=np.float64)
        new_edge_pos = np.empty(num_edges, dtype=np.int64)

        # Unchanged survivor rows: one bulk copy per run of consecutive old
        # rows, the runs cut at every retired or changed row.
        start = 0
        holes = retired.union(old_of(node) for node in changed)
        for stop in sorted(holes - {-1}) + [old_n]:
            if start < stop:
                lo, hi = int(indptr[start]), int(indptr[stop])
                at = int(new_indptr[remap[start]])
                new_indices[at : at + hi - lo] = remap[indices[lo:hi]]
                new_probs[at : at + hi - lo] = probs[lo:hi]
                new_edge_pos[at : at + hi - lo] = edge_pos[lo:hi]
            start = stop + 1

        # Changed rows, in hand-off order.  An old edge between survivors that
        # no event removed keeps its draw position; every other edge takes a
        # fresh one past the old width, in node order and then ranked order.
        for position in rebuilt:
            node = node_ids[position]
            source = old_of(node)
            row = old_row(source) if source >= 0 else {}
            ranked = graph.ranked_out_neighbors(node)
            draws = []
            for target, probability in ranked:
                entry = row.get(old_of(target))
                if entry is not None and entry[0] not in removed:
                    if entry[1] != probability:
                        reweighted.append((entry[0], entry[1], probability))
                    draws.append(entry[0])
                else:
                    added.append((num_draws, probability))
                    draws.append(num_draws)
                    num_draws += 1
            lo = int(new_indptr[position])
            new_indices[lo : lo + len(ranked)] = [new_index[t] for t, _ in ranked]
            new_probs[lo : lo + len(ranked)] = [p for _, p in ranked]
            new_edge_pos[lo : lo + len(ranked)] = draws
        topology = (new_indptr, new_indices, new_probs, new_edge_pos)

    # Attribute vectors: survivors are gathered from the old vectors; new
    # nodes and the nodes a NodeAdd gave attributes are read off the graph.
    vectors = [np.zeros(n, dtype=np.float64) for _ in range(3)]
    for vector, old_vector in zip(vectors, (old.benefits, old.seed_costs, old.sc_costs)):
        vector[: survivors.size] = old_vector[survivors]
    for position in [*range(survivors.size, n), *(new_index[node] for node in attributed)]:
        attrs = graph.attributes(node_ids[position])
        for vector, value in zip(vectors, (attrs.benefit, attrs.seed_cost, attrs.sc_cost)):
            vector[position] = value
    evolved = CompiledGraph(node_ids, *topology, *vectors, num_draws=num_draws)
    return EventApplication(
        evolved,
        remap,
        added=added,
        dropped=sorted(removed.items()),
        reweighted=reweighted,
        retired=tuple(sorted(retired)),
        rebuilt=tuple(rebuilt),
        num_new_draws=num_draws - old.num_draws,
    )

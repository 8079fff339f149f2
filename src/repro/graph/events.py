"""Typed graph-mutation event batches and the delta CSR recompiler.

A live campaign's graph churns: edges appear and disappear, influence
probabilities drift, users join and leave.  Rebuilding the compiled CSR
snapshot — and worse, every per-world cascade snapshot built on it — from
scratch on each change is what froze the graph until now.  This module is
the ingestion path:

* :class:`GraphEventBatch` — an ordered batch of typed events (edge
  add/drop/reweight, node add/retire) with **tolerant** semantics: self-loop
  adds, drops/reweights of absent edges and retires of absent nodes are
  skipped, node adds upsert.  The same semantics apply whether the batch is
  replayed onto a :class:`~repro.graph.social_graph.SocialGraph` (the
  reference path) or delta-applied to a compiled snapshot, which is what the
  parity test harness pins.
* :func:`compute_application` — applies a batch to a
  :class:`~repro.graph.csr.CompiledGraph` *without recompiling from
  scratch*: only the touched CSR rows are rebuilt; runs of untouched rows
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

The :class:`EventApplication` returned by the apply paths records everything
downstream layers need: the evolved snapshot, the remap table, the retired
old indices, and the per-edge draw-position records (added / dropped /
reweighted) that the dirty-world rule keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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
    "compute_application",
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


class GraphEventBatch:
    """An ordered, validated batch of graph events.

    Events apply strictly in order (a drop-then-re-add is a re-keyed edge
    with a fresh draw position, not a no-op).  Probabilities are validated
    at construction so a malformed batch never half-applies.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[GraphEvent]) -> None:
        events = tuple(events)
        for event in events:
            if isinstance(event, (EdgeAdd, EdgeReweight)):
                require_probability(event.probability, "probability")
            elif not isinstance(event, (EdgeDrop, NodeAdd, NodeRetire)):
                raise GraphError(f"unknown graph event {event!r}")
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
        """
        events: List[GraphEvent] = []
        for payload in payloads:
            kind = payload.get("type")
            if kind not in _EVENT_TYPES:
                raise GraphError(
                    f"unknown graph event type {kind!r}; expected one of "
                    f"{sorted(_EVENT_TYPES)}"
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
                    f"graph event {kind!r} is missing field {error.args[0]!r}"
                ) from None
        return cls(events)

    def apply_to_graph(self, graph: SocialGraph) -> None:
        """Replay the batch onto a :class:`SocialGraph` (reference path).

        Applies the exact tolerant semantics of the compiled delta path —
        this is what the event-parity property suite replays a mutated copy
        through to pin the two paths together.
        """
        for event in self.events:
            if isinstance(event, EdgeAdd):
                if event.source == event.target:
                    continue
                graph.add_edge(event.source, event.target, event.probability)
            elif isinstance(event, EdgeDrop):
                if graph.has_edge(event.source, event.target):
                    graph.remove_edge(event.source, event.target)
            elif isinstance(event, EdgeReweight):
                if graph.has_edge(event.source, event.target):
                    graph.add_edge(event.source, event.target, event.probability)
            elif isinstance(event, NodeAdd):
                graph.add_node(event.node, event.attributes)
            else:  # NodeRetire
                if event.node in graph:
                    graph.remove_node(event.node)


class EventApplication:
    """The record of one batch applied to one compiled snapshot.

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


def compute_application(
    compiled: CompiledGraph, batch: GraphEventBatch
) -> EventApplication:
    """Delta-apply ``batch`` to ``compiled``; neither input is mutated.

    The evolved snapshot is bit-identical (indptr/indices/probs and the
    attribute vectors; ``edge_pos`` intentionally differs) to compiling the
    equivalently mutated :class:`SocialGraph` from scratch, but only touched
    rows are rebuilt — untouched row runs are bulk slice copies, and a batch
    that changes no topology aliases every topology array zero-copy.
    """
    node_ids = compiled.node_ids
    index = compiled.index
    indptr = compiled.indptr
    indices = compiled.indices
    probs = compiled.probs
    edge_pos = compiled.edge_pos
    old_n = compiled.num_nodes
    old_num_draws = compiled.num_draws

    # Nodes are tracked as tokens: ("o", old_index) for originals, ("n", k)
    # for nodes created by the batch (including re-added retirees, which are
    # genuinely new nodes — their old edges and draw positions are gone).
    order: "Dict[Tuple[str, int], None]" = {("o", i): None for i in range(old_n)}
    current: Dict[NodeId, Tuple[str, int]] = {
        node: ("o", i) for i, node in enumerate(node_ids)
    }
    new_ids: List[NodeId] = []
    # Materialised (touched) out-rows: token -> {target_token: [current_prob,
    # draw_pos | None, original_prob]}.  A row enters this dict the moment an
    # event touches it (or a retire forces it) and is rebuilt in the output;
    # rows never materialised are copied from the old CSR wholesale.
    rows: Dict[Tuple[str, int], Dict[Tuple[str, int], List]] = {}
    attr_overrides: Dict[Tuple[str, int], NodeAttributes] = {}
    dropped: Dict[int, float] = {}
    retired_old: List[int] = []

    def id_of(token: Tuple[str, int]) -> NodeId:
        return node_ids[token[1]] if token[0] == "o" else new_ids[token[1]]

    def ensure(node: NodeId) -> Tuple[str, int]:
        token = current.get(node)
        if token is None:
            token = ("n", len(new_ids))
            new_ids.append(node)
            order[token] = None
            current[node] = token
        return token

    def materialize(token: Tuple[str, int]) -> Dict:
        row = rows.get(token)
        if row is None:
            row = {}
            if token[0] == "o":
                source = token[1]
                for slot in range(int(indptr[source]), int(indptr[source + 1])):
                    target = ("o", int(indices[slot]))
                    # Retired targets were already popped (with their drop
                    # recorded) when the retire materialised this row's
                    # in-edge sources — a target absent from `order` here can
                    # only be one whose drop is already on the books.
                    if target in order:
                        probability = float(probs[slot])
                        row[target] = [probability, int(edge_pos[slot]), probability]
            rows[token] = row
        return row

    def csr_has_edge(s_token: Tuple[str, int], t_token: Tuple[str, int]) -> bool:
        if s_token[0] != "o" or t_token[0] != "o":
            return False
        source = s_token[1]
        lo, hi = int(indptr[source]), int(indptr[source + 1])
        return bool(np.any(indices[lo:hi] == t_token[1]))

    def drop_record(record: List) -> None:
        if record[1] is not None:
            dropped[record[1]] = record[2]

    def retire(token: Tuple[str, int]) -> None:
        # Out-edges: every one still alive is dropped.
        out_row = materialize(token)
        for record in out_row.values():
            drop_record(record)
        del rows[token]
        # In-edges still living in un-materialised old CSR rows: force those
        # rows into `rows` while the token is still alive, so the edges (and
        # their draw positions) are seen before the pop below removes them.
        if token[0] == "o":
            for slot in np.flatnonzero(indices == token[1]):
                source = int(np.searchsorted(indptr, int(slot), side="right")) - 1
                s_token = ("o", source)
                if s_token in order and s_token not in rows:
                    materialize(s_token)
        # Pop the token as a target from every materialised row.
        for other in rows.values():
            record = other.pop(token, None)
            if record is not None:
                drop_record(record)
        del order[token]
        node = id_of(token)
        if current.get(node) is token:
            del current[node]
        attr_overrides.pop(token, None)
        if token[0] == "o":
            retired_old.append(token[1])

    for event in batch.events:
        if isinstance(event, EdgeAdd):
            if event.source == event.target:
                continue
            s_token = ensure(event.source)
            t_token = ensure(event.target)
            row = materialize(s_token)
            record = row.get(t_token)
            if record is not None:
                record[0] = float(event.probability)
            else:
                row[t_token] = [float(event.probability), None, None]
        elif isinstance(event, (EdgeDrop, EdgeReweight)):
            s_token = current.get(event.source)
            t_token = current.get(event.target)
            if s_token is None or t_token is None:
                continue
            if s_token in rows:
                row = rows[s_token]
                if t_token not in row:
                    continue
            elif csr_has_edge(s_token, t_token):
                row = materialize(s_token)
            else:
                continue
            if isinstance(event, EdgeDrop):
                drop_record(row.pop(t_token))
            else:
                row[t_token][0] = float(event.probability)
        elif isinstance(event, NodeAdd):
            token = ensure(event.node)
            if event.attributes is not None:
                attr_overrides[token] = event.attributes
        else:  # NodeRetire
            token = current.get(event.node)
            if token is not None:
                retire(token)

    tokens = list(order)
    n_new = len(tokens)
    new_index = {token: position for position, token in enumerate(tokens)}
    remap = np.full(old_n, -1, dtype=np.int64)
    for token, position in new_index.items():
        if token[0] == "o":
            remap[token[1]] = position
    identity = not retired_old

    # Attribute-only / no-op fast path: nothing structural moved, so the
    # whole topology is aliased zero-copy.
    if not rows and identity and not new_ids:
        if not attr_overrides:
            evolved = compiled
        else:
            benefits = compiled.benefits.copy()
            seed_costs = compiled.seed_costs.copy()
            sc_costs = compiled.sc_costs.copy()
            for token, attrs in attr_overrides.items():
                position = new_index[token]
                benefits[position] = attrs.benefit
                seed_costs[position] = attrs.seed_cost
                sc_costs[position] = attrs.sc_cost
            evolved = CompiledGraph(
                node_ids=node_ids,
                indptr=indptr,
                indices=indices,
                probs=probs,
                edge_pos=edge_pos,
                benefits=benefits,
                seed_costs=seed_costs,
                sc_costs=sc_costs,
                num_draws=old_num_draws,
            )
        return EventApplication(
            evolved,
            remap,
            added=[],
            dropped=[],
            reweighted=[],
            retired=(),
            rebuilt=(),
            num_new_draws=0,
        )

    # Assign fresh draw positions to new edges — deterministically: final
    # node order, within each touched row the ranked (hand-off) order — and
    # collect the changed-edge records.
    added: List[Tuple[int, float]] = []
    reweighted: List[Tuple[int, float, float]] = []
    row_sorted: Dict[Tuple[str, int], List] = {}
    next_position = old_num_draws
    for token in tokens:
        row = rows.get(token)
        if row is None:
            continue
        entries = sorted(
            row.items(), key=lambda item: (-item[1][0], str(id_of(item[0])))
        )
        row_sorted[token] = entries
        for _, record in entries:
            if record[1] is None:
                record[1] = next_position
                next_position += 1
                added.append((record[1], record[0]))
            elif record[0] != record[2]:
                reweighted.append((record[1], record[2], record[0]))
    num_new_draws = next_position - old_num_draws

    degrees = np.empty(n_new, dtype=np.int64)
    for position, token in enumerate(tokens):
        row = rows.get(token)
        if row is not None:
            degrees[position] = len(row)
        elif token[0] == "o":
            source = token[1]
            degrees[position] = int(indptr[source + 1] - indptr[source])
        else:
            degrees[position] = 0
    indptr_new = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr_new[1:])
    num_edges_new = int(indptr_new[-1])
    indices_new = np.empty(num_edges_new, dtype=np.int64)
    probs_new = np.empty(num_edges_new, dtype=np.float64)
    edge_pos_new = np.empty(num_edges_new, dtype=np.int64)

    position = 0
    while position < n_new:
        token = tokens[position]
        entries = row_sorted.get(token)
        if entries is not None:
            cursor = int(indptr_new[position])
            for t_token, record in entries:
                indices_new[cursor] = new_index[t_token]
                probs_new[cursor] = record[0]
                edge_pos_new[cursor] = record[1]
                cursor += 1
            position += 1
            continue
        if token[0] == "n":
            position += 1
            continue
        # A run of consecutive untouched original rows whose old indices are
        # also consecutive: one bulk slice copy per run.
        run_start = position
        first_old = token[1]
        while position < n_new:
            token = tokens[position]
            if (
                token[0] != "o"
                or token in rows
                or token[1] != first_old + (position - run_start)
            ):
                break
            position += 1
        old_lo = int(indptr[first_old])
        old_hi = int(indptr[first_old + (position - run_start)])
        new_lo = int(indptr_new[run_start])
        span = old_hi - old_lo
        if identity:
            indices_new[new_lo : new_lo + span] = indices[old_lo:old_hi]
        else:
            indices_new[new_lo : new_lo + span] = remap[indices[old_lo:old_hi]]
        probs_new[new_lo : new_lo + span] = probs[old_lo:old_hi]
        edge_pos_new[new_lo : new_lo + span] = edge_pos[old_lo:old_hi]

    # Attribute vectors: survivors (a prefix of the new order) are gathered
    # from the old vectors, new nodes default to zero attributes, explicit
    # NodeAdd attributes override either.
    survivors = np.array(
        [token[1] for token in tokens if token[0] == "o"], dtype=np.int64
    )
    benefits_new = np.zeros(n_new, dtype=np.float64)
    seed_costs_new = np.zeros(n_new, dtype=np.float64)
    sc_costs_new = np.zeros(n_new, dtype=np.float64)
    if survivors.size:
        benefits_new[: survivors.size] = compiled.benefits[survivors]
        seed_costs_new[: survivors.size] = compiled.seed_costs[survivors]
        sc_costs_new[: survivors.size] = compiled.sc_costs[survivors]
    for token, attrs in attr_overrides.items():
        slot = new_index[token]
        benefits_new[slot] = attrs.benefit
        seed_costs_new[slot] = attrs.seed_cost
        sc_costs_new[slot] = attrs.sc_cost

    evolved = CompiledGraph(
        node_ids=[id_of(token) for token in tokens],
        indptr=indptr_new,
        indices=indices_new,
        probs=probs_new,
        edge_pos=edge_pos_new,
        benefits=benefits_new,
        seed_costs=seed_costs_new,
        sc_costs=sc_costs_new,
        num_draws=old_num_draws + num_new_draws,
    )
    return EventApplication(
        evolved,
        remap,
        added=added,
        dropped=sorted(dropped.items()),
        reweighted=reweighted,
        retired=tuple(sorted(retired_old)),
        rebuilt=tuple(sorted(new_index[token] for token in rows)),
        num_new_draws=num_new_draws,
    )


"""Workload definitions and seeded input generation.

Every workload runs S3CA in the default configuration: native kernel on,
incremental (delta engine + CELF) on, serial estimator, 200 worlds.  A run
works on a fixed set of instances generated from the workload seed
(``instance_seed``), each in a fresh process (a *session*), so that every
run at one seed, on any commit, pools the same graphs.  The program only
ever receives the generated inputs: a scenario, or JSON request bodies.

Graphs are PPGG stand-ins (``ppgg_like_graph``, mean out-degree 6) with
power-law exponent 3.0, lighter-tailed than the paper's PPGG inputs (1.7 and
2.5).  At those exponents GPI's path enumeration from a hub seed re-runs an
O(degree^2) SC-cost recurrence for every parent at each of its 200 visits,
and one default solve took from 0.5 s to 17 s across seeds of one size.  No
run fits enough instances to average that out.

Why each workload exists, and what it stresses
----------------------------------------------
Shares are self-time shares of the named layers in a traced run
(``--trace 1``, seed 7, 2-vCPU x86 VM, ``cc`` kernel).  Sizes are small so
that one run pools thirty to forty instances: a solve's time varies by a
factor of three or more from graph to graph, and with twenty instances the
quartiles of ten runs' ``solve_s`` (ten seeds) lay up to 27% of their
median apart.

``tiered-tight``
    ``S3CA(...).solve()`` as ``repro solve`` runs it, with the ``tiered``
    estimator at its defaults, ``candidate_limit=25``, the paper's uncapped
    pivot queue and a tight budget (1 per 4 nodes) on 300 nodes: the regime
    the tiered estimator was built for, and the only workload that touches
    the sketch and the screen.  Building the RR sketch
    (``diffusion.rr_sets.build``, 7500 sets) is 61% of the session and most
    of ``setup_s``.  The solve is 10%: inside it the ID phase's per-world
    instrumented kernel calls and cost bookkeeping take about half, pricing
    the pivots through the screen (``diffusion.tiered.submit_many`` plus its
    confirmed full passes through ``MonteCarloEstimator.submit_many``,
    ``CompiledCascadeEngine.submit`` and ``CascadeKernel.cascade_block``;
    80% of the screened slots are confirmed) about a quarter, GPI 5%.  After
    the solve, 20 what-ifs and four event batches of 20 events (see the end
    of this section) take about 14% and 12% of the session.
    Bypasses the server.
``campaign-server``
    ``CampaignApi`` driven with JSON bodies over an in-process
    ``CampaignService`` (``job_workers=1``, serial estimator), one client in
    a closed loop because a planner waits for each answer.  A session writes
    a 400-node graph as a SNAP edge list, registers it with a tight budget
    (1 per 4 nodes), runs one cold solve, then two rounds of one default
    ``SolveRequest`` solve, 15 what-ifs and two event batches of 20 events.
    70% of the what-ifs add two or three coupons to a deployment node
    (delta-splice path: snapshot, then dirty-world re-simulation per coupon);
    the rest drop a seed or shift the budget (warm-pass path).  Event batches
    mix edge add/drop/reweight with node add/retire; retirements are drawn
    uniformly over current nodes, so now and then one retires a seed or a
    coupon holder of the resident snapshot and the service refuses the batch
    (the ROADMAP's non-atomic batch), which counts as a failed op.  The only
    workload with resident state, per-request latency and writes (delta CSR
    recompile plus reconcile) beside reads.  The largest share is not the
    server layer (13%) but the per-world instrumented kernel calls (47%, most
    of them behind the what-ifs' snapshots), then GPI (15%, all of it inside
    solves) and world sampling (12%).  In the last traced session what-ifs
    took 38% of the time, solves 28%, event batches 24% and registering the
    graph 10%.  Two solves of one graph vary together far more than solves
    of two graphs, so a session runs two rounds and a run many sessions.
    Bypasses the sketch and the screen.

SCM (``core.maneuver``) runs once per solve on both workloads and moves
nothing (``core.maneuver.run.operations`` is 0, self time under 1 ms per
solve): at these tight budgets no workload here measures it.

Both workloads report every end-to-end metric, because every run of the
benchmark prints all of them, whatever its workload.  So ``tiered-tight``,
after its solve, replays the server's own request script at the library
boundary: the same what-if mix (``whatif_query``), answered the way
``CampaignService.whatif`` answers it (``answer_whatif`` in ``session.py``),
and the same event batches (``GraphModel.draw_events``), each ingested and
followed by a re-statement of the deployment's benefit, as
``CampaignService.apply_events`` does.  A retirement that hits a seed or a
coupon holder of the estimator's snapshot is refused here too, and counts as
a failed op.

Left out, and why
-----------------
``id-loose`` (a loose budget, 2 per node, where the ID phase's CELF coupon
loop runs long) and ``full-budget`` (``spend_full_budget=True``, where SCM
works): with a loose budget GPI enumerates its 200 paths per seed instead of
being pruned by the budget, and dominated the solve (2 to 7 s per solve at
1000 nodes; 36 s to 250 s with ``spend_full_budget``). Across seeds the run
medians then spread by 20% or more, on top of the run-to-run speed swings of
a shared 2-vCPU VM.  Their layers still run here: the CELF loop, the
marginal-cost bookkeeping and GPI in every solve, just with less work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

#: Monte-Carlo worlds of every workload (the ROADMAP's reference setting).
NUM_SAMPLES = 200
#: Power-law exponent and mean out-degree of every PPGG stand-in.
PPGG_EXPONENT = 3.0
PPGG_DEGREE = 6.0


@dataclass(frozen=True)
class Size:
    """The knobs that set how much work one session does."""

    nodes: int = 0
    budget: float = 0.0
    rounds: int = 0
    whatifs: int = 0
    event_batches: int = 0
    events_per_batch: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "server"
    why: str
    size: Size
    smoke: Size
    #: Instances of one run, one session each: as many as one pass of 45 to
    #: 55 s on a 2-vCPU x86 VM fits, because the spread of a run's medians
    #: across seeds shrinks with it (the smoke size solves three).
    instances: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tiered-tight",
            kind="batch",
            why="tight budget, tiered estimator: the only workload on the RR "
            "sketch and the screen; building the sketch is most of setup",
            size=Size(nodes=300, budget=75.0, whatifs=20, event_batches=4,
                      events_per_batch=20),
            smoke=Size(nodes=200, budget=50.0, whatifs=6, event_batches=1,
                       events_per_batch=4),
            instances=32,
        ),
        Workload(
            name="campaign-server",
            kind="server",
            why="CampaignApi session: resident state, warm solves, what-ifs and "
            "event batches from one closed-loop client",
            size=Size(nodes=400, budget=100.0, rounds=2, whatifs=15,
                      event_batches=2, events_per_batch=20),
            smoke=Size(nodes=100, budget=50.0, rounds=2, whatifs=10,
                       event_batches=1, events_per_batch=6),
            instances=38,
        ),
    )
}


def instance_seed(seed: int, index: int) -> int:
    """The seed of one instance (graph, economics, worlds, script) of a run."""
    return seed * 1000 + index


# ----------------------------------------------------------------------
# request and event scripts
# ----------------------------------------------------------------------


class GraphModel:
    """The client's view of the graph: enough to draw valid events.

    The client tracks nodes and out-edges itself (it generated the graph, or
    regenerated it from the same recipe), so event scripts never depend on
    the program's answers.
    """

    def __init__(self, nodes: Sequence, edges: Sequence[Tuple[object, object]]):
        self.nodes: List = list(nodes)
        self._position = {node: index for index, node in enumerate(self.nodes)}
        self.out: Dict[object, Set] = {node: set() for node in self.nodes}
        for source, target in edges:
            self.out[source].add(target)
        self._next_id = 0

    def _remove_node(self, node) -> None:
        index = self._position.pop(node)
        last = self.nodes.pop()
        if last is not node and index < len(self.nodes):
            self.nodes[index] = last
            self._position[last] = index
        del self.out[node]
        for targets in self.out.values():
            targets.discard(node)

    def _add_node(self, node) -> None:
        self._position[node] = len(self.nodes)
        self.nodes.append(node)
        self.out[node] = set()

    def _new_node_id(self, prefix: str) -> str:
        self._next_id += 1
        return f"{prefix}{self._next_id}"

    def draw_events(self, rng: random.Random, count: int, prefix: str) -> List[dict]:
        """A batch of ``count`` events, applied to the model as drawn.

        Mix: edge add 35%, drop 25%, reweight 30%, node add 9%, node retire
        1%.  Retirements are uniform over current nodes, about one per
        session.  No node is retired after it appears in the batch, so the
        batch is valid whichever order a reader applies checks in.
        """
        events: List[dict] = []
        named: Set = set()
        while len(events) < count:
            roll = rng.random()
            if roll < 0.01:
                node = self.nodes[rng.randrange(len(self.nodes))]
                if node in named:
                    continue
                self._remove_node(node)
                events.append({"type": "node_retire", "node": node})
                continue
            if roll < 0.10:
                node = self._new_node_id(prefix)
                self._add_node(node)
                named.add(node)
                events.append({"type": "node_add", "node": node})
                continue
            source = self.nodes[rng.randrange(len(self.nodes))]
            targets = sorted(self.out[source], key=str)
            if roll < 0.45 or not targets:
                target = self.nodes[rng.randrange(len(self.nodes))]
                if target == source or target in self.out[source]:
                    continue
                self.out[source].add(target)
                events.append(
                    {"type": "edge_add", "source": source, "target": target,
                     "probability": round(rng.uniform(0.02, 0.3), 4)}
                )
            elif roll < 0.70:
                target = targets[rng.randrange(len(targets))]
                self.out[source].discard(target)
                events.append({"type": "edge_drop", "source": source, "target": target})
            else:
                target = targets[rng.randrange(len(targets))]
                events.append(
                    {"type": "edge_reweight", "source": source, "target": target,
                     "probability": round(rng.uniform(0.02, 0.3), 4)}
                )
            named.update((source, target))
        return events


def whatif_query(
    rng: random.Random, seeds: Sequence, holders: Sequence, budget: float
) -> dict:
    """One server what-if against a solved deployment (string ids).

    70% add two or three coupons to a seed or coupon holder of the deployment
    (the delta-splice path: one coupon at a time, each spliced into the
    snapshot, so the next query snapshots its base afresh); 15% drop a seed
    (a warm pass); 15% shift the budget by up to 20% either way (answered
    from the memoised base).
    """
    roll = rng.random()
    anchors = sorted(set(seeds) | set(holders), key=str)
    if roll < 0.70 and anchors:
        node = anchors[rng.randrange(len(anchors))]
        return {"extra_coupons": {str(node): rng.randint(2, 3)}}
    if roll < 0.85 and seeds:
        return {"drop_seeds": [str(seeds[rng.randrange(len(seeds))])]}
    return {"budget_delta": round(budget * rng.uniform(-0.2, 0.2), 3) or 1.0}


def apply_whatif(
    query: dict, seeds: Set, allocation: Dict, resolve
) -> Tuple[Set, Dict[object, int]]:
    """The deployment a what-if describes, in graph id space."""
    new_seeds = set(seeds) - {resolve(raw) for raw in query.get("drop_seeds", ())}
    new_allocation = dict(allocation)
    for raw, count in query.get("extra_coupons", {}).items():
        node = resolve(raw)
        new_allocation[node] = new_allocation.get(node, 0) + int(count)
    return new_seeds, new_allocation


def fingerprint(seeds, allocation) -> str:
    """A short digest of a deployment, comparable across commits."""
    material = repr(
        (
            sorted(str(node) for node in seeds),
            sorted((str(node), int(count)) for node, count in allocation.items()),
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def script_rng(seed: int, stream: str) -> random.Random:
    """A seeded RNG for one script stream of one instance."""
    return random.Random(f"{seed}:{stream}")


def node_resolver(graph_nodes) -> Callable:
    """Map wire (string) ids back to graph ids, as the server does."""

    def resolve(raw):
        if raw in graph_nodes:
            return raw
        try:
            as_int = int(raw)
        except (TypeError, ValueError):
            return raw
        return as_int if as_int in graph_nodes else raw

    return resolve

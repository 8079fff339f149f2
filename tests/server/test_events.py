"""Tests for the graph-events endpoint of the campaign service.

Pins the dynamic-graph contract end to end through the server:

* **mutation fidelity** — a what-if answered after ``apply_events`` is
  bit-identical to a cold evaluation of the same deployment on the mutated
  scenario;
* **no cold resolve** — the resident estimator reconciles in place: the
  ``graph_compiles`` / ``estimator_builds`` counters stay at 1 and only the
  dirty worlds re-simulate (``reconciled_worlds < num_worlds``);
* **safety** — events are refused with 409 while a solve is in flight, and
  malformed batches land in the 422 taxonomy, as does a batch that retires
  a seed of the resident snapshot, which leaves every resident state as it
  was.
"""

import pytest

pytest.importorskip("pydantic", reason="server tests need the 'server' extra")

from pydantic import ValidationError

from repro.experiments.config import ServerConfig
from repro.server.app import CampaignApi
from repro.server.errors import InvalidRequest, SolveInFlight, UnknownScenario
from repro.server.schemas import (
    GraphEventModel,
    GraphEventsRequest,
    RegisterScenarioRequest,
    SolveRequest,
    WhatIfRequest,
)
from repro.server.service import CampaignService

TINY = dict(dataset="facebook", scale=0.08)
TINY_CONFIG = ServerConfig(num_samples=15, seed=3, job_workers=2)
TINY_SOLVE = SolveRequest(candidate_limit=3, pivot_limit=6)


@pytest.fixture
def service():
    svc = CampaignService(TINY_CONFIG)
    yield svc
    svc.close()


def _solved(service, scenario_id, request=TINY_SOLVE):
    job = service.enqueue_solve(scenario_id, request)
    done = service.jobs.wait(job.job_id, timeout=120)
    assert done.status == "done", done.error
    return done.result


def _registered(service):
    info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
    return info["scenario_id"]


def _events_request(graph):
    """A batch touching a handful of the scenario's edges."""
    edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    (s0, t0, _), (s1, t1, p1) = edges[0], edges[1]
    return GraphEventsRequest(
        events=[
            {"type": "edge_drop", "source": str(s0), "target": str(t0)},
            {
                "type": "edge_reweight",
                "source": str(s1),
                "target": str(t1),
                "probability": min(1.0, p1 + 0.1),
            },
            {"type": "node_add", "node": "joiner", "benefit": 3.0},
            {
                "type": "edge_add",
                "source": str(next(iter(graph.nodes()))),
                "target": "joiner",
                "probability": 0.4,
            },
        ]
    )


class TestEventsReconcile:
    def test_events_then_whatif_matches_cold_mutated_scenario(self, service):
        sid = _registered(service)
        result = _solved(service, sid)
        entry = service.registry.get(sid)
        graph = entry.scenario.graph

        answer = service.apply_events(sid, _events_request(graph))
        assert answer["events"] == 4
        assert answer["events_applied"] == 1
        reconcile = answer["reconcile"]
        assert reconcile["reconciled_worlds"] < reconcile["num_worlds"]
        assert reconcile["reconcile_passes"] >= 1
        # No cold resolve happened: the one-time builds did not re-run.
        assert answer["resident"]["graph_compiles"] == 1
        assert answer["resident"]["estimator_builds"] == 1

        # A what-if on the mutated scenario equals a cold evaluation of the
        # same modified deployment on the mutated graph, bit for bit.
        target = result["seeds"][0]
        whatif = service.whatif(sid, WhatIfRequest(extra_coupons={target: 2}))
        node = target if target in graph else int(target)
        seeds = {
            (raw if raw in graph else int(raw)) for raw in result["seeds"]
        }
        allocation = {
            (raw if raw in graph else int(raw)): count
            for raw, count in result["allocation"].items()
        }
        allocation[node] = allocation.get(node, 0) + 2
        # The cold reference shares the evolved draw-position universe (the
        # resident engine's compiled snapshot + sampler) but carries no
        # reconcile or splice history whatsoever — a from-scratch
        # instrumented pass on the mutated scenario.
        cold_benefit = _evolved_cold_benefit(entry.estimator, seeds, allocation)
        assert whatif["modified"]["expected_benefit"] == cold_benefit

    def test_solved_benefit_is_restated_on_the_new_graph(self, service):
        sid = _registered(service)
        result = _solved(service, sid)
        entry = service.registry.get(sid)
        answer = service.apply_events(sid, _events_request(entry.scenario.graph))
        assert answer["solve_benefit"] is not None
        assert entry.last_solve.expected_benefit == answer["solve_benefit"]
        # The what-if base now quotes the evolved graph's benefit.
        grown = service.whatif(sid, WhatIfRequest(budget_delta=100.0))
        assert grown["base"]["expected_benefit"] == answer["solve_benefit"]
        assert result["scenario_id"] == sid

    def test_events_before_any_solve_evolve_the_graph_only(self, service):
        sid = _registered(service)
        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        dropped = min(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
        answer = service.apply_events(sid, _events_request(graph))
        assert "reconcile" not in answer
        assert answer["resident"]["estimator_reused"] is False
        assert answer["graph"]["nodes"] == graph.num_nodes
        assert "joiner" in graph
        assert not graph.has_edge(dropped[0], dropped[1])
        # The first solve then compiles the evolved graph, once.
        solved = _solved(service, sid)
        assert solved["resident"]["graph_compiles"] == 1

    def test_counters_survive_repeated_batches(self, service):
        sid = _registered(service)
        _solved(service, sid)
        entry = service.registry.get(sid)
        for expected in (1, 2):
            answer = service.apply_events(
                sid, _events_request(entry.scenario.graph)
            )
            assert answer["events_applied"] == expected
            assert answer["resident"]["estimator_builds"] == 1
        assert entry.events_applied == 2

    def test_whatif_mixing_int_and_str_node_ids(self, service):
        """A node added by events keeps its wire id ("n1") next to the
        dataset's int ids; a what-if allocating to both is answered (it used
        to crash sorting the memo key) and matches a cold evaluation."""
        api = CampaignApi(service)
        sid = _registered(service)
        result = _solved(service, sid)
        seed = result["seeds"][0]
        status, _ = api.apply_events(sid, {"events": [
            {"type": "node_add", "node": "n1"},
            {"type": "edge_add", "source": "n1", "target": seed, "probability": 0.5},
        ]})
        assert status == 200
        status, whatif = api.whatif(sid, {"extra_coupons": {"n1": 1, seed: 1}})
        assert status == 200
        assert whatif["answered_by"] == "delta-splice"

        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        seeds = {int(raw) for raw in result["seeds"]}
        allocation = {int(raw): count for raw, count in result["allocation"].items()}
        allocation[int(seed)] = allocation.get(int(seed), 0) + 1
        allocation["n1"] = 1
        assert "n1" in graph and int(seed) in graph
        assert whatif["modified"]["expected_benefit"] == _evolved_cold_benefit(
            entry.estimator, seeds, allocation
        )

    def test_full_budget_solve_is_restated_after_events(self, service):
        """A full-budget solve ends on a spliced pivot; the batch after it
        must re-state that deployment, not the snapshot's earlier seed set."""
        info, _ = service.register_scenario(
            RegisterScenarioRequest(
                dataset="facebook", scale=0.3, budget=120.0, seed=5,
                num_samples=100,
            )
        )
        sid = info["scenario_id"]
        result = _solved(service, sid, SolveRequest(spend_full_budget=True))
        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        source, target, _ = min(
            graph.edges(), key=lambda e: (str(e[0]), str(e[1]))
        )
        answer = service.apply_events(
            sid,
            GraphEventsRequest(
                events=[
                    {
                        "type": "edge_reweight",
                        "source": str(source),
                        "target": str(target),
                        "probability": 0.12,
                    }
                ]
            ),
        )
        seeds = {int(raw) for raw in result["seeds"]}
        allocation = {
            int(raw): count for raw, count in result["allocation"].items()
        }
        assert (len(seeds), sum(allocation.values())) == (5, 10)
        assert answer["solve_benefit"] == _evolved_cold_benefit(
            entry.estimator, seeds, allocation
        )


def _evolved_cold_benefit(resident_estimator, seeds, allocation):
    """Cold evaluation on the evolved compiled graph + evolved sampler."""
    from repro.diffusion.engine import CompiledCascadeEngine
    from repro.diffusion.delta import DeltaCascadeEngine

    engine = CompiledCascadeEngine(
        resident_estimator._engine.compiled,
        resident_estimator.num_samples,
        seed=0,
        use_kernel=False,
        shared_memory=False,
        sampler=resident_estimator._engine.sampler,
    )
    try:
        delta = DeltaCascadeEngine(engine)
        _, benefit = delta.snapshot(sorted(seeds, key=str), allocation)
        return benefit
    finally:
        engine.close()


class TestEventsSafety:
    def test_events_during_in_flight_solve_are_409(self, service):
        sid = _registered(service)
        _solved(service, sid)
        entry = service.registry.get(sid)
        entry.solves_in_flight += 1  # simulate a queued/running solve
        try:
            with pytest.raises(SolveInFlight) as excinfo:
                service.apply_events(
                    sid, _events_request(entry.scenario.graph)
                )
            assert excinfo.value.status == 409
        finally:
            entry.solves_in_flight -= 1
        # Once the solve drains, the same batch is accepted.
        answer = service.apply_events(sid, _events_request(entry.scenario.graph))
        assert answer["events_applied"] == 1

    def test_in_flight_counter_tracks_solves(self, service):
        sid = _registered(service)
        entry = service.registry.get(sid)
        assert entry.solves_in_flight == 0
        _solved(service, sid)
        assert entry.solves_in_flight == 0  # decremented on completion

    def test_unknown_scenario_is_404(self, service):
        request = GraphEventsRequest(
            events=[{"type": "edge_drop", "source": "0", "target": "1"}]
        )
        with pytest.raises(UnknownScenario):
            service.apply_events("s-missing", request)

    def test_unknown_nodes_in_destructive_events_are_422(self, service):
        sid = _registered(service)
        entry = service.registry.get(sid)
        for events in (
            [{"type": "edge_drop", "source": "999999", "target": "0"}],
            [
                {
                    "type": "edge_reweight",
                    "source": "0",
                    "target": "999999",
                    "probability": 0.5,
                }
            ],
            [{"type": "node_retire", "node": "999999"}],
        ):
            with pytest.raises(InvalidRequest) as excinfo:
                service.apply_events(sid, GraphEventsRequest(events=events))
            assert excinfo.value.status == 422
        assert entry.events_applied == 0

    def test_retiring_a_resident_seed_is_422_and_changes_nothing(self, service):
        sid = _registered(service)
        result = _solved(service, sid)
        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        shape = (graph.num_nodes, graph.num_edges, graph.topology_version)
        benefit = entry.last_solve.expected_benefit
        seed = sorted(result["seeds"])[0]
        request = _events_request(graph)
        request = GraphEventsRequest(
            events=[*request.events, {"type": "node_retire", "node": seed}]
        )
        with pytest.raises(InvalidRequest) as excinfo:
            service.apply_events(sid, request)
        assert excinfo.value.status == 422
        assert entry.events_applied == 0
        assert (graph.num_nodes, graph.num_edges, graph.topology_version) == shape
        assert entry.last_solve.expected_benefit == benefit
        # The resident state still answers: a budget what-if is a 200.
        status, body = CampaignApi(service).whatif(sid, {"budget_delta": 1.0})
        assert status == 200, body
        assert body["modified"]["expected_benefit"] == benefit

    def test_malformed_node_add_is_422_and_changes_nothing(self, service):
        """A bad attribute fails the whole batch before the graph changes,
        even after a valid event earlier in the same batch."""
        api = CampaignApi(service)
        sid = _registered(service)
        _solved(service, sid)
        entry = service.registry.get(sid)
        graph = entry.scenario.graph

        def shape():
            return (entry.events_applied, graph.num_nodes, graph.num_edges,
                    graph.topology_version)

        before = shape()
        for field, value in (
            ("benefit", -1.0), ("seed_cost", float("inf")), ("sc_cost", float("nan"))
        ):
            body = {"events": [
                {"type": "edge_add", "source": "0", "target": "joiner",
                 "probability": 0.4},
                {"type": "node_add", "node": "joiner", field: value},
            ]}
            with pytest.raises(InvalidRequest) as excinfo:
                api.apply_events(sid, body)
            assert excinfo.value.status == 422
            assert "graph event 1 (node_add)" in str(excinfo.value)
            assert shape() == before


class TestEventsValidation:
    def test_event_type_taxonomy(self):
        with pytest.raises(ValidationError):
            GraphEventModel(type="edge_warp", source="0", target="1")
        with pytest.raises(ValidationError):
            GraphEventModel(type="edge_add", source="0", target="1")  # no prob
        with pytest.raises(ValidationError):
            GraphEventModel(
                type="edge_add", source="0", target="1", probability=1.5
            )
        with pytest.raises(ValidationError):
            GraphEventModel(
                type="edge_add", source="7", target="7", probability=0.5
            )
        with pytest.raises(ValidationError):
            GraphEventModel(type="edge_drop", source="0")  # no target
        with pytest.raises(ValidationError):
            GraphEventModel(
                type="edge_drop", source="0", target="1", probability=0.5
            )
        with pytest.raises(ValidationError):
            GraphEventModel(type="node_add")  # no node
        with pytest.raises(ValidationError):
            GraphEventModel(type="node_retire", node="3", benefit=1.0)
        with pytest.raises(ValidationError):
            GraphEventModel(type="node_add", node="3", source="0")

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValidationError):
            GraphEventsRequest(events=[])

    def test_wellformed_events_validate(self):
        request = GraphEventsRequest(
            events=[
                {"type": "edge_add", "source": "a", "target": "b",
                 "probability": 0.5},
                {"type": "edge_drop", "source": "a", "target": "b"},
                {"type": "edge_reweight", "source": "a", "target": "b",
                 "probability": 1.0},
                {"type": "node_add", "node": "c", "benefit": 2.0,
                 "seed_cost": 1.0, "sc_cost": 0.5},
                {"type": "node_retire", "node": "c"},
            ]
        )
        assert len(request.events) == 5

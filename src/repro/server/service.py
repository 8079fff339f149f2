"""The campaign service: S3CA as resident, request-driven state.

:class:`CampaignService` is the transport-free core of the campaign server —
the FastAPI/Flask adapters in :mod:`repro.server.app` are thin JSON shims
over it, and the service tests drive it directly.  It owns

* a :class:`~repro.server.state.ScenarioRegistry` of resident scenarios
  (compiled graph + RNG-frozen estimator + warmed kernel each),
* one :class:`~repro.diffusion.parallel.SharedShardPool` when configured
  with ``workers > 1`` — every resident estimator registers on it, so
  concurrent solves multiplex one set of worker processes, and
* a bounded :class:`~repro.server.jobs.JobManager` running solves
  asynchronously.

What-if queries never re-run S3CA: additive coupon queries go through the
:class:`~repro.diffusion.delta.DeltaCascadeEngine` snapshot/splice path
(only the worlds the change can affect are re-simulated), and seed-drop /
budget queries are answered by one warm pass over the resident worlds.
Either way the answer is bit-identical to evaluating the modified deployment
on a freshly built estimator with the same seed — the property the endpoint
tests pin.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.deployment import Deployment
from repro.core.s3ca import S3CA, S3CAResult
from repro.diffusion.parallel import SharedShardPool
from repro.diffusion.tiered import TieredEstimator
from repro.exceptions import EstimationError, ReproError
from repro.experiments.config import ServerConfig
from repro.graph.events import GraphEventBatch
from repro.graph.social_graph import SocialGraph
from repro.server.errors import InvalidRequest, NoCompletedSolve, SolveInFlight
from repro.server.jobs import Job, JobManager
from repro.server.schemas import (
    GraphEventsRequest,
    RegisterScenarioRequest,
    SolveRequest,
    WhatIfRequest,
)
from repro.server.state import ResidentScenario, ScenarioRegistry

logger = logging.getLogger(__name__)

NodeId = Hashable


class CampaignService:
    """Resident-state S3CA solver behind register/solve/poll/what-if calls."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.registry = ScenarioRegistry()
        self.jobs = JobManager(self.config.job_workers, self.config.max_queued_jobs)
        #: One pool for the whole server; estimators register on it and never
        #: close it — the service owns its lifetime.
        self.pool: Optional[SharedShardPool] = None
        workers = self.config.estimator.workers or 1
        if workers > 1:
            self.pool = SharedShardPool(workers)
        self.started_at = time.time()
        self._closed = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_scenario(self, request: RegisterScenarioRequest) -> Tuple[dict, bool]:
        """Register (or dedupe) a scenario; returns ``(info, reused)``."""
        entry, reused = self.registry.register(request, self.config)
        info = entry.info()
        info["reused"] = reused
        return info, reused

    def scenario_info(self, scenario_id: str) -> dict:
        return self.registry.get(scenario_id).info()

    def list_scenarios(self) -> List[dict]:
        return [entry.info() for entry in self.registry.entries()]

    # ------------------------------------------------------------------
    # solve jobs
    # ------------------------------------------------------------------

    def enqueue_solve(self, scenario_id: str, request: SolveRequest) -> Job:
        """Queue an asynchronous S3CA solve; returns the job handle."""
        entry = self.registry.get(scenario_id)
        # Count the solve as in flight from the moment it is queued: graph
        # events arriving before the worker picks it up must 409 too, or the
        # solve would answer for a graph the client no longer has.
        with entry.lock:
            entry.solves_in_flight += 1
        try:
            job = self.jobs.submit(
                "solve", scenario_id, lambda: self._run_solve(entry, request)
            )
        except BaseException:
            with entry.lock:
                entry.solves_in_flight -= 1
            raise
        return job

    def job_info(self, job_id: str) -> dict:
        return self.jobs.get(job_id).as_dict()

    def _run_solve(self, entry: ResidentScenario, request: SolveRequest) -> dict:
        try:
            return self._run_solve_locked(entry, request)
        finally:
            with entry.lock:
                entry.solves_in_flight -= 1

    def _run_solve_locked(
        self, entry: ResidentScenario, request: SolveRequest
    ) -> dict:
        with entry.lock:
            estimator, built = entry.ensure_estimator(self.config, self.pool)
            kernel_compile_seconds = estimator.kernel_compile_seconds if built else 0.0
            solve_estimator = estimator
            sketch_built = False
            if request.tiered:
                # Per-solve throwaway wrapper around the two resident tiers:
                # the MC estimator and the RR sketch both stay warm; only the
                # screening knobs (and counters) are per-request.
                sketch, sketch_built = entry.ensure_sketch()
                spec = self.config.estimator
                solve_estimator = TieredEstimator(
                    estimator,
                    sketch,
                    tier_epsilon=_first_set(request.tier_epsilon, spec.tier_epsilon),
                    tier_top_k=_first_set(request.tier_topk, spec.tier_top_k),
                )
            began = time.perf_counter()
            algorithm = S3CA(
                entry.scenario,
                estimator=solve_estimator,
                candidate_limit=request.candidate_limit,
                max_pivot_candidates=request.pivot_limit,
                spend_full_budget=request.spend_full_budget,
                incremental=request.incremental,
            )
            result = algorithm.solve()
            solve_seconds = time.perf_counter() - began
            entry.solves_completed += 1
            entry.last_solve = result
            payload = self._solve_payload(entry, result, request)
            payload["timings"] = {
                # Both are 0.0 on every solve after the first: the resident
                # estimator already holds the compiled graph and the warmed
                # kernel, which is the warm-start contract the tests assert.
                "graph_compile_seconds": entry.graph_compile_seconds if built else 0.0,
                "estimator_build_seconds": (
                    entry.estimator_build_seconds if built else 0.0
                ),
                "kernel_compile_seconds": kernel_compile_seconds,
                "sketch_build_seconds": (
                    entry.sketch_build_seconds if sketch_built else 0.0
                ),
                "solve_seconds": solve_seconds,
                "phase_seconds": dict(result.phase_seconds),
            }
            payload["resident"] = {
                "estimator_reused": not built,
                "sketch_reused": request.tiered and not sketch_built,
                "graph_compiles": entry.graph_compiles,
                "estimator_builds": entry.estimator_builds,
                "kernel_warmups": entry.kernel_warmups,
                "sketch_builds": entry.sketch_builds,
                "kernel_backend": estimator.kernel_backend,
                "shared_memory_active": estimator.shared_memory_active,
                "pool_workers": self.pool.workers if self.pool is not None else 1,
                "solves_completed": entry.solves_completed,
            }
            return payload

    @staticmethod
    def _solve_payload(
        entry: ResidentScenario, result: S3CAResult, request: SolveRequest
    ) -> dict:
        payload = {
            "scenario_id": entry.scenario_id,
            "algorithm": "S3CA",
            "options": request.model_dump(),
            "seeds": sorted((str(node) for node in result.seeds)),
            "allocation": {
                str(node): int(count) for node, count in sorted(
                    result.allocation.items(), key=lambda item: str(item[0])
                )
            },
            "expected_benefit": float(result.expected_benefit),
            "total_cost": float(result.total_cost),
            "seed_cost": float(result.seed_cost),
            "sc_cost": float(result.sc_cost),
            "redemption_rate": float(result.redemption_rate),
            "explored_nodes": int(result.explored_nodes),
            "num_paths": int(result.num_paths),
            "num_maneuvers": int(result.num_maneuvers),
        }
        if request.tiered:
            payload["tier_stats"] = {
                key: int(value) for key, value in result.tier_stats.items()
            }
        return payload

    # ------------------------------------------------------------------
    # what-if queries
    # ------------------------------------------------------------------

    def whatif(self, scenario_id: str, request: WhatIfRequest) -> dict:
        """Answer a what-if against the last solve, from resident state.

        Additive coupon queries are answered through the delta engine's
        snapshot/splice path; seed drops (and mixed queries) by one warm
        pass over the resident worlds.  Both are bit-identical to evaluating
        the modified deployment on a cold estimator with the same seed.
        """
        entry = self.registry.get(scenario_id)
        with entry.lock:
            base = entry.last_solve
            if base is None or entry.estimator is None:
                raise NoCompletedSolve(scenario_id)
            began = time.perf_counter()
            graph = entry.scenario.graph
            base_seeds: Set[NodeId] = set(base.deployment.seeds)
            base_alloc: Dict[NodeId, int] = dict(base.deployment.allocation.as_dict())

            drop = {_resolve_node(graph, raw) for raw in request.drop_seeds}
            missing = drop - base_seeds
            if missing:
                raise InvalidRequest(
                    f"drop_seeds not in the solved seed set: "
                    f"{sorted(map(str, missing))}"
                )
            extra = {
                _resolve_node(graph, raw): int(count)
                for raw, count in request.extra_coupons.items()
            }

            new_seeds = base_seeds - drop
            new_alloc = dict(base_alloc)
            for node, count in extra.items():
                new_alloc[node] = new_alloc.get(node, 0) + count

            # Refuse before evaluating: a delta evaluation re-snapshots the
            # resident estimator, and a failed request leaves it untouched.
            budget = entry.scenario.budget_limit + request.budget_delta
            if budget <= 0:
                raise InvalidRequest(
                    f"budget_delta {request.budget_delta:g} drives the budget "
                    f"non-positive ({budget:g})"
                )
            estimator = entry.estimator
            if extra and not drop and estimator.supports_incremental:
                answered_by = "delta-splice"
                benefit = self._delta_chain_benefit(
                    estimator, base_seeds, base_alloc, extra
                )
            else:
                # Seed drops have no delta form (the snapshot only grows);
                # one pass over the already-resident worlds answers them —
                # warm state, not a cold resolve.
                answered_by = "warm-pass"
                benefit = estimator.expected_benefit(new_seeds, new_alloc)

            modified = Deployment(graph, new_seeds, new_alloc)
            entry.whatifs_answered += 1
            payload = {
                "scenario_id": entry.scenario_id,
                "answered_by": answered_by,
                "query": request.model_dump(),
                "base": self._deployment_summary(
                    base.deployment,
                    float(base.expected_benefit),
                    entry.scenario.budget_limit,
                ),
                "modified": self._deployment_summary(modified, float(benefit), budget),
                "seconds": time.perf_counter() - began,
            }
            return payload

    @staticmethod
    def _delta_chain_benefit(
        estimator,
        base_seeds: Set[NodeId],
        base_alloc: Dict[NodeId, int],
        extra: Dict[NodeId, int],
    ) -> float:
        """Benefit of base + extra coupons via iterated snapshot/splice.

        Each coupon unit is delta-evaluated against the current snapshot
        (only its dirty worlds re-simulate) and the accepted outcome is
        spliced in, exactly the ID phase's advance discipline — so the final
        benefit is bit-identical to a fresh evaluation of the full
        deployment, without one full pass per unit.
        """
        units: List[NodeId] = []
        for node, count in sorted(extra.items(), key=lambda item: str(item[0])):
            units.extend([node] * count)
        benefit = estimator.snapshot_base(base_seeds, base_alloc)
        current = dict(base_alloc)
        for position, node in enumerate(units):
            nxt = dict(current)
            nxt[node] = nxt.get(node, 0) + 1
            outcome = estimator.delta_extra_coupon(
                base_seeds, current, node, base_seeds, nxt
            )
            benefit = outcome.benefit
            if position < len(units) - 1:
                benefit = estimator.advance_base(outcome, node, base_seeds, nxt)
            current = nxt
        return float(benefit)

    @staticmethod
    def _deployment_summary(
        deployment: Deployment, benefit: float, budget: float
    ) -> dict:
        cost = deployment.total_cost()
        return {
            "seeds": sorted(str(node) for node in deployment.seeds),
            "total_coupons": int(deployment.total_coupons),
            "expected_benefit": benefit,
            "total_cost": float(cost),
            "redemption_rate": benefit / cost if cost > 0 else 0.0,
            "budget": float(budget),
            "feasible": deployment.fits_budget(budget),
        }

    # ------------------------------------------------------------------
    # graph events
    # ------------------------------------------------------------------

    def apply_events(self, scenario_id: str, request: GraphEventsRequest) -> dict:
        """Apply a graph-event batch and reconcile resident state in place.

        The scenario's graph evolves (delta CSR recompile — untouched rows
        stay aliased), the resident estimator rekeys its sampler and
        re-simulates **only** the worlds whose live-edge draws touch a
        changed edge, and the last solve's expected benefit is re-stated on
        the evolved graph — all without a cold rebuild, which is what the
        unchanged ``graph_compiles`` / ``estimator_builds`` counters in the
        response prove.  Refused with 409 while a solve is queued or running,
        and with 422, state untouched, when the batch retires a seed or a
        coupon holder of the resident snapshot.
        """
        entry = self.registry.get(scenario_id)
        with entry.lock:
            if entry.solves_in_flight > 0:
                raise SolveInFlight(scenario_id)
            began = time.perf_counter()
            graph = entry.scenario.graph
            batch = self._event_batch(graph, request)
            estimator = entry.estimator
            outcome = None
            if estimator is not None:
                try:
                    outcome = estimator.ingest_events(batch)
                except EstimationError as error:
                    # A batch retiring a seed or coupon holder of the
                    # resident snapshot is refused before the graph changes.
                    raise InvalidRequest(str(error)) from error
            else:
                # Nothing resident yet: evolve the graph alone; the first
                # solve compiles the evolved graph as usual.
                graph.apply_events(batch)
            # The RR screening sketch has no reconcile path (its reverse
            # traversals were sampled against the old topology): drop it and
            # let the next tiered solve resample.
            entry.drop_sketch()
            entry.events_applied += 1

            base = entry.last_solve
            solve_benefit = None
            if base is not None and estimator is not None:
                # Re-state the solved deployment on the evolved graph.  When
                # the reconciled snapshot base is that deployment this is a
                # memo-cache hit; otherwise it is one pass over the resident
                # worlds — warm either way, never a cold resolve.
                solve_benefit = float(
                    estimator.expected_benefit(
                        set(base.deployment.seeds),
                        dict(base.deployment.allocation.as_dict()),
                    )
                )
                base.expected_benefit = solve_benefit
                if base.total_cost > 0:
                    base.redemption_rate = solve_benefit / base.total_cost

            payload = {
                "scenario_id": entry.scenario_id,
                "events": len(batch.events),
                "events_applied": entry.events_applied,
                "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
                "solve_benefit": solve_benefit,
                "seconds": time.perf_counter() - began,
            }
            if outcome is not None:
                payload["reconcile"] = {
                    "num_worlds": outcome.num_worlds,
                    "dirty_worlds": outcome.dirty_worlds,
                    "touched_edges": outcome.touched_edges,
                    "reconciled": outcome.reconciled,
                    "chained_blocks": outcome.chained_blocks,
                    "base_benefit": outcome.base_benefit,
                    "reconcile_passes": estimator.delta_reconcile_passes,
                    "reconciled_worlds": estimator.delta_reconciled_worlds,
                    "snapshot_passes": estimator.delta_snapshot_passes,
                }
            payload["resident"] = {
                "estimator_reused": estimator is not None,
                "graph_compiles": entry.graph_compiles,
                "estimator_builds": entry.estimator_builds,
                "kernel_warmups": entry.kernel_warmups,
            }
            return payload

    @staticmethod
    def _event_batch(
        graph: SocialGraph, request: GraphEventsRequest
    ) -> GraphEventBatch:
        """Resolve wire node ids and build the typed event batch.

        ``edge_add`` endpoints and ``node_add`` subjects may name nodes that
        do not exist yet (they come into being with the batch, keeping their
        wire spelling as id); every other reference must resolve to a known
        node — 422 otherwise, matching the what-if endpoint's taxonomy.
        """
        fresh: Dict[str, str] = {}

        def existing(raw: str) -> NodeId:
            if raw in fresh:
                return fresh[raw]
            return _resolve_node(graph, raw)

        def or_new(raw: str) -> NodeId:
            if raw in fresh:
                return fresh[raw]
            try:
                return _resolve_node(graph, raw)
            except InvalidRequest:
                fresh[raw] = raw
                return raw

        payloads: List[dict] = []
        for event in request.events:
            payload: dict = {"type": event.type}
            if event.type == "edge_add":
                payload["source"] = or_new(event.source)
                payload["target"] = or_new(event.target)
                payload["probability"] = event.probability
            elif event.type == "edge_drop":
                payload["source"] = existing(event.source)
                payload["target"] = existing(event.target)
            elif event.type == "edge_reweight":
                payload["source"] = existing(event.source)
                payload["target"] = existing(event.target)
                payload["probability"] = event.probability
            elif event.type == "node_add":
                payload["node"] = or_new(event.node)
                for name in ("benefit", "seed_cost", "sc_cost"):
                    value = getattr(event, name)
                    if value is not None:
                        payload[name] = value
            else:  # node_retire
                payload["node"] = existing(event.node)
            payloads.append(payload)
        try:
            return GraphEventBatch.from_payloads(payloads)
        except ReproError as error:
            raise InvalidRequest(str(error)) from error

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "scenarios": len(self.registry),
            "jobs": len(self.jobs.jobs()),
            "pool_workers": self.pool.workers if self.pool is not None else 1,
            "job_workers": self.config.job_workers,
            "max_queued_jobs": self.config.max_queued_jobs,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the server state down: jobs, estimators, then the pool."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.jobs.close()
        self.registry.close()
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _first_set(requested, default):
    """A request's knob when it names one, else the configured default."""
    return default if requested is None else requested


def _resolve_node(graph: SocialGraph, raw: str) -> NodeId:
    """Map a JSON (string) node id back into the graph's id space."""
    if raw in graph:
        return raw
    try:
        as_int = int(raw)
    except (TypeError, ValueError):
        as_int = None
    if as_int is not None and as_int in graph:
        return as_int
    raise InvalidRequest(f"unknown node {raw!r}")

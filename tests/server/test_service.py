"""Tests for the transport-free campaign service core.

These drive :class:`~repro.server.service.CampaignService` directly (no HTTP
framework needed) and pin the two properties the server exists for:

* **warm starts** — the second solve of a registered scenario reuses the
  resident estimator: no graph compile, no estimator build, no kernel
  warm-up, and bit-identical results;
* **what-if fidelity** — a what-if answered from resident state (delta
  snapshot/splice or warm pass) is bit-identical to evaluating the modified
  deployment on a freshly built estimator with the same seed.
"""

import threading
import time

import pytest

pytest.importorskip("pydantic", reason="server tests need the 'server' extra")

from repro.diffusion.factory import make_estimator
from repro.experiments.config import ServerConfig
from repro.server.errors import (
    InvalidRequest,
    JobQueueFull,
    NoCompletedSolve,
    UnknownJob,
    UnknownScenario,
)
from repro.server.jobs import JobManager
from repro.server.schemas import (
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


class TestRegistration:
    def test_register_and_info(self, service):
        info, reused = service.register_scenario(RegisterScenarioRequest(**TINY))
        assert not reused
        assert info["scenario_id"].startswith("s-")
        assert info["nodes"] > 0 and info["edges"] > 0
        assert service.scenario_info(info["scenario_id"])["label"]
        assert len(service.list_scenarios()) == 1

    def test_same_inputs_deduplicate(self, service):
        info1, reused1 = service.register_scenario(RegisterScenarioRequest(**TINY))
        info2, reused2 = service.register_scenario(RegisterScenarioRequest(**TINY))
        assert not reused1 and reused2
        assert info1["scenario_id"] == info2["scenario_id"]
        assert len(service.list_scenarios()) == 1

    def test_different_inputs_do_not(self, service):
        info1, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        info2, reused = service.register_scenario(
            RegisterScenarioRequest(dataset="facebook", scale=0.08, seed=99)
        )
        assert not reused
        assert info1["scenario_id"] != info2["scenario_id"]

    def test_unknown_scenario_raises(self, service):
        with pytest.raises(UnknownScenario):
            service.scenario_info("s-missing")

    def test_validation_requires_one_source(self):
        with pytest.raises(ValueError):
            RegisterScenarioRequest()
        with pytest.raises(ValueError):
            RegisterScenarioRequest(dataset="facebook", snap_path="/tmp/x.txt")

    def test_snap_registration_through_the_csr_cache(self, service, tmp_path):
        edges = tmp_path / "toy.txt"
        edges.write_text(
            "# toy graph\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n4 0\n4 1\n"
        )
        request = RegisterScenarioRequest(snap_path=str(edges), budget=30.0)
        info, reused = service.register_scenario(request)
        assert not reused
        assert info["nodes"] == 5
        # Same file bytes → same fingerprint → dedupe.
        _, reused2 = service.register_scenario(request)
        assert reused2

    def test_snap_registration_missing_file(self, service):
        with pytest.raises(InvalidRequest):
            service.register_scenario(
                RegisterScenarioRequest(snap_path="/nonexistent/edges.txt")
            )


class TestWarmStarts:
    def test_second_solve_skips_compile_and_warmup(self, service):
        info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        sid = info["scenario_id"]

        first = _solved(service, sid)
        assert first["resident"]["estimator_reused"] is False
        assert first["timings"]["graph_compile_seconds"] >= 0.0
        assert first["resident"]["graph_compiles"] == 1
        assert first["resident"]["estimator_builds"] == 1

        second = _solved(service, sid)
        assert second["resident"]["estimator_reused"] is True
        # The one-time costs are not re-paid: the timings record zero and
        # the counters do not move.
        assert second["timings"]["graph_compile_seconds"] == 0.0
        assert second["timings"]["estimator_build_seconds"] == 0.0
        assert second["timings"]["kernel_compile_seconds"] == 0.0
        assert second["resident"]["graph_compiles"] == 1
        assert second["resident"]["estimator_builds"] == 1
        assert second["resident"]["kernel_warmups"] <= 1

        # Warm and cold solves are the same solve.
        assert first["expected_benefit"] == second["expected_benefit"]
        assert first["seeds"] == second["seeds"]
        assert first["allocation"] == second["allocation"]

    def test_solve_results_carry_phase_timings(self, service):
        info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        result = _solved(service, info["scenario_id"])
        assert "investment_deployment" in result["timings"]["phase_seconds"]
        assert result["timings"]["solve_seconds"] > 0.0


class TestWhatIf:
    def _base(self, service):
        info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        sid = info["scenario_id"]
        result = _solved(service, sid)
        return sid, result

    def _fresh_benefit(self, service, sid, seeds, allocation):
        """Evaluate a deployment on a brand-new estimator with the same RNG."""
        entry = service.registry.get(sid)
        estimator = make_estimator(
            entry.scenario,
            "mc-compiled",
            num_samples=entry.num_samples,
            seed=entry.seed,
        )
        try:
            return estimator.expected_benefit(seeds, allocation)
        finally:
            estimator.close()

    @staticmethod
    def _ids(entry, raw_seeds):
        graph = entry.scenario.graph
        return {node if node in graph else int(node) for node in raw_seeds}

    def test_whatif_before_any_solve_is_rejected(self, service):
        info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        with pytest.raises(NoCompletedSolve):
            service.whatif(info["scenario_id"], WhatIfRequest(budget_delta=10.0))

    def test_extra_coupons_answered_by_delta_splice(self, service):
        sid, result = self._base(service)
        target = result["seeds"][0]
        answer = service.whatif(sid, WhatIfRequest(extra_coupons={target: 2}))
        assert answer["answered_by"] == "delta-splice"

        entry = service.registry.get(sid)
        seeds = self._ids(entry, result["seeds"])
        allocation = {
            (node if node in entry.scenario.graph else int(node)): count
            for node, count in result["allocation"].items()
        }
        node = target if target in entry.scenario.graph else int(target)
        allocation[node] = allocation.get(node, 0) + 2
        cold = self._fresh_benefit(service, sid, seeds, allocation)
        # Bit-identical, not approximately equal: the delta snapshot/splice
        # path must agree with a cold evaluation to the last ulp.
        assert answer["modified"]["expected_benefit"] == cold

    def test_extra_coupons_on_a_non_seed_node(self, service):
        sid, result = self._base(service)
        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        seeds = self._ids(entry, result["seeds"])
        outsider = next(node for node in graph.nodes() if node not in seeds)
        answer = service.whatif(
            sid, WhatIfRequest(extra_coupons={str(outsider): 1})
        )
        allocation = {
            (node if node in graph else int(node)): count
            for node, count in result["allocation"].items()
        }
        allocation[outsider] = allocation.get(outsider, 0) + 1
        cold = self._fresh_benefit(service, sid, seeds, allocation)
        assert answer["modified"]["expected_benefit"] == cold

    def test_drop_seed_answered_from_warm_state(self, service):
        sid, result = self._base(service)
        victim = result["seeds"][0]
        answer = service.whatif(sid, WhatIfRequest(drop_seeds=[victim]))
        assert answer["answered_by"] == "warm-pass"

        entry = service.registry.get(sid)
        graph = entry.scenario.graph
        seeds = self._ids(entry, result["seeds"])
        node = victim if victim in graph else int(victim)
        allocation = {
            (key if key in graph else int(key)): count
            for key, count in result["allocation"].items()
        }
        cold = self._fresh_benefit(service, sid, seeds - {node}, allocation)
        assert answer["modified"]["expected_benefit"] == cold

    def test_budget_delta_reports_feasibility(self, service):
        sid, result = self._base(service)
        budget = service.registry.get(sid).scenario.budget_limit
        # Shrink the budget to half the deployment's cost (still positive).
        shrunk = service.whatif(
            sid, WhatIfRequest(budget_delta=result["total_cost"] / 2 - budget)
        )
        grown = service.whatif(sid, WhatIfRequest(budget_delta=100.0))
        assert shrunk["modified"]["feasible"] is False
        assert grown["modified"]["feasible"] is True
        # No deployment change: the benefit is the base benefit, bit-for-bit.
        assert (
            grown["modified"]["expected_benefit"]
            == result["expected_benefit"]
        )

    def test_refused_budget_leaves_resident_state_untouched(self, service):
        sid, result = self._base(service)
        estimator = service.registry.get(sid).estimator
        passes = estimator.delta_snapshot_passes
        budget = service.registry.get(sid).scenario.budget_limit
        with pytest.raises(InvalidRequest) as refused:
            service.whatif(
                sid,
                WhatIfRequest(
                    extra_coupons={result["seeds"][0]: 2},
                    budget_delta=-budget,
                ),
            )
        assert refused.value.status == 422
        assert estimator.delta_snapshot_passes == passes

    def test_whatif_does_not_corrupt_later_solves(self, service):
        """Delta splices advance the snapshot; solves must not notice."""
        sid, first = self._base(service)
        service.whatif(sid, WhatIfRequest(extra_coupons={first["seeds"][0]: 2}))
        second = _solved(service, sid)
        assert second["expected_benefit"] == first["expected_benefit"]
        assert second["allocation"] == first["allocation"]

    def test_unknown_nodes_and_bad_drops_are_rejected(self, service):
        sid, result = self._base(service)
        with pytest.raises(InvalidRequest):
            service.whatif(sid, WhatIfRequest(extra_coupons={"999999": 1}))
        entry = service.registry.get(sid)
        non_seed = next(
            node
            for node in entry.scenario.graph.nodes()
            if str(node) not in result["seeds"]
        )
        with pytest.raises(InvalidRequest):
            service.whatif(sid, WhatIfRequest(drop_seeds=[str(non_seed)]))

    def test_empty_whatif_is_rejected_at_validation(self):
        with pytest.raises(ValueError):
            WhatIfRequest()
        with pytest.raises(ValueError):
            WhatIfRequest(extra_coupons={"1": 0})


class TestJobManager:
    def test_queue_bound_rejects_excess(self):
        manager = JobManager(workers=1, max_queued=2)
        try:
            release = threading.Event()
            manager.submit("solve", "s-1", release.wait)  # occupies the worker
            time.sleep(0.05)
            manager.submit("solve", "s-1", lambda: {})
            manager.submit("solve", "s-1", lambda: {})
            with pytest.raises(JobQueueFull):
                manager.submit("solve", "s-1", lambda: {})
            release.set()
        finally:
            manager.close()

    def test_failed_jobs_record_the_error(self):
        def boom():
            raise RuntimeError("estimator exploded")

        with JobManager(workers=1, max_queued=4) as manager:
            job = manager.submit("solve", "s-1", boom)
            done = manager.wait(job.job_id, timeout=10)
            assert done.status == "failed"
            assert "RuntimeError" in done.error
            assert "estimator exploded" in done.error
            assert done.as_dict()["run_seconds"] is not None

    def test_unknown_job_raises(self):
        with JobManager(workers=1, max_queued=4) as manager:
            with pytest.raises(UnknownJob):
                manager.get("solve-999999")

    def test_close_cancels_queued_jobs(self):
        manager = JobManager(workers=1, max_queued=8)
        release = threading.Event()
        manager.submit("solve", "s-1", release.wait)
        time.sleep(0.05)
        queued = manager.submit("solve", "s-1", lambda: {})
        release.set()
        manager.close()
        assert queued.status in ("cancelled", "done")
        with pytest.raises(JobQueueFull):
            manager.submit("solve", "s-1", lambda: {})


class TestLifecycle:
    def test_health_and_close(self):
        service = CampaignService(TINY_CONFIG)
        health = service.health()
        assert health["status"] == "ok"
        assert health["scenarios"] == 0
        service.close()
        assert service.closed
        service.close()  # idempotent

    def test_close_releases_resident_estimators(self):
        service = CampaignService(TINY_CONFIG)
        info, _ = service.register_scenario(RegisterScenarioRequest(**TINY))
        _solved(service, info["scenario_id"])
        entry = service.registry.get(info["scenario_id"])
        assert entry.estimator is not None
        service.close()
        assert entry.estimator is None

"""One benchmark session in a fresh process: set up, run, check, report.

Usage (``run.py`` starts this; it is not meant to be typed)::

    python3 perfbench/session.py '<json spec>'

The spec names the workload, the instance seed, the size (full or smoke),
whether to trace, and where to write the spans.  The session prints one JSON
object on its last stdout line with the raw samples; ``run.py`` turns the
samples of all sessions into the run's metrics.

Timed regions never include input generation or the correctness checks.
``peak_rss_mb`` is read before the checks, which build their own estimators.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    NUM_SAMPLES,
    PPGG_DEGREE,
    PPGG_EXPONENT,
    WORKLOADS,
    GraphModel,
    Size,
    apply_whatif,
    fingerprint,
    node_resolver,
    script_rng,
    whatif_query,
)

#: Every how-many-th what-if answered before the first event batch is
#: re-checked against a freshly built estimator.
CHECK_EVERY = 10
#: Coupon candidates scored per ID iteration in batch solves.
CANDIDATE_LIMIT = 25
#: Seconds between ``job_info`` polls; the 20 ms default of
#: ``JobManager.wait`` would quantize solve latency.
POLL_SECONDS = 0.001


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def answer_whatif(estimator, seeds, allocation, query, resolve):
    """Answer a what-if on a solved deployment as ``CampaignService.whatif`` does.

    Coupon-only queries take the delta-splice path: snapshot the deployment,
    then delta-evaluate one coupon at a time, splicing each into the
    snapshot.  Seed drops and budget shifts take one pass over the resident
    worlds (a budget shift leaves the deployment as it is, so its pass is a
    memo hit).  Returns the modified seeds, allocation and benefit.
    """
    new_seeds, new_allocation = apply_whatif(query, seeds, allocation, resolve)
    extra = {resolve(raw): int(n) for raw, n in query.get("extra_coupons", {}).items()}
    if extra and not query.get("drop_seeds") and estimator.supports_incremental:
        units = [
            node
            for node, count in sorted(extra.items(), key=lambda item: str(item[0]))
            for _ in range(count)
        ]
        benefit = estimator.snapshot_base(seeds, allocation)
        current = dict(allocation)
        for position, node in enumerate(units):
            following = dict(current)
            following[node] = following.get(node, 0) + 1
            outcome = estimator.delta_extra_coupon(seeds, current, node, seeds, following)
            benefit = outcome.benefit
            if position < len(units) - 1:
                benefit = estimator.advance_base(outcome, node, seeds, following)
            current = following
    else:
        benefit = estimator.expected_benefit(new_seeds, new_allocation)
    return new_seeds, new_allocation, float(benefit)


class Session:
    """Samples, op counts and check failures of one session."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.size = Size(**spec["size"])
        self.seed = int(spec["seed"])
        self.tracer = Tracer() if spec["trace"] else None
        self.out = {
            "setup_s": None,
            "solve_s": [],
            "whatif_ms": [],
            "events_ms": [],
            "queued_s": [],
            "rates": [],
            "fingerprints": [],
            "ops": 0,
            "ops_failed": 0,
            "failures": [],
            "checks": 0,
            "checks_failed": [],
        }
        self._requests = 0

    # -- bookkeeping -------------------------------------------------------

    def op(self, ok: bool, cause: str = "") -> bool:
        self.out["ops"] += 1
        if not ok:
            self.out["ops_failed"] += 1
            self.out["failures"].append(cause)
        return ok

    def check(self, ok: bool, what: str) -> None:
        self.out["checks"] += 1
        if not ok:
            self.out["ops_failed"] += 1
            self.out["checks_failed"].append(what)

    def request(self, label: str) -> None:
        if self.tracer is not None:
            self._requests += 1
            self.tracer.request_id = f"{label}-{self._requests}"

    def imported(self) -> float:
        """Mark the package imported: install the tracer, return the time."""
        if self.tracer is not None:
            self.tracer.install()
        return time.perf_counter()

    def finish_trace(self) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        tracer.uninstall()
        self.out["layers"] = tracer.layer_table()
        self.out["counters"] = dict(tracer.counters)
        trace_path = self.spec.get("trace_path")
        if trace_path:
            tracer.write(trace_path)

    # -- tiered-tight ------------------------------------------------------

    def run_batch(self) -> None:
        from repro.core.s3ca import S3CA
        from repro.diffusion.factory import make_estimator
        from repro.experiments.scalability import synthetic_scenario
        from repro.graph.events import GraphEventBatch

        imported = self.imported()
        size, seed = self.size, self.seed

        def generate():
            return synthetic_scenario(
                size.nodes, budget=size.budget, seed=seed,
                power_law_exponent=PPGG_EXPONENT, avg_out_degree=PPGG_DEGREE,
            )

        scenario = generate()
        graph = scenario.graph
        model = GraphModel(graph.nodes(), [(s, t) for s, t, _ in graph.edges()])
        generated = time.perf_counter()

        scenario.compiled_graph()
        algorithm = S3CA(
            scenario,
            estimator_method="tiered",
            num_samples=NUM_SAMPLES,
            seed=seed,
            candidate_limit=CANDIDATE_LIMIT,
            max_pivot_candidates=None,
        )
        ready = time.perf_counter()
        self.out["setup_s"] = (imported - PROCESS_START) + (ready - generated)

        self.request("solve")
        began = time.perf_counter()
        result = algorithm.solve()
        self.out["solve_s"].append(time.perf_counter() - began)
        self.op(True)
        estimator = algorithm.estimator
        seeds = set(result.seeds)
        allocation = dict(result.allocation)
        self.out["rates"].append(result.redemption_rate)
        self.out["fingerprints"].append(fingerprint(seeds, allocation))
        screened = result.tier_stats.get("screened_candidates", 0)
        if screened:
            self.out["confirmed_ratio"] = (
                result.tier_stats["confirmed_candidates"] / screened
            )

        # The server's request script, answered at the library boundary.
        resolve = node_resolver(set(model.nodes))
        ordered_seeds = sorted(seeds, key=str)
        holders = sorted(allocation, key=str)
        rng = script_rng(seed, "whatif")
        samples = []
        for index in range(size.whatifs):
            query = whatif_query(rng, ordered_seeds, holders, scenario.budget_limit)
            self.request("whatif")
            began = time.perf_counter()
            modified = answer_whatif(estimator, seeds, allocation, query, resolve)
            self.out["whatif_ms"].append((time.perf_counter() - began) * 1e3)
            self.op(True)
            if index % CHECK_EVERY == 0:
                samples.append(modified)

        rng = script_rng(seed, "events")
        for _ in range(size.event_batches):
            batch = GraphEventBatch.from_payloads(
                model.draw_events(rng, size.events_per_batch, prefix="n")
            )
            self.request("events")
            began = time.perf_counter()
            try:
                estimator.ingest_events(batch)
                estimator.expected_benefit(seeds, allocation)
            except Exception as error:  # a refused batch is a failed op
                self.op(False, f"event batch: {type(error).__name__}: {error}")
                break
            self.out["events_ms"].append((time.perf_counter() - began) * 1e3)
            self.op(True)

        self.out["peak_rss_mb"] = peak_rss_mb()
        self.finish_trace()
        close = getattr(estimator, "close", None)
        if close is not None:
            close()

        # Checks, on a regenerated instance (the session's graph has evolved).
        fresh = generate()
        oracle = make_estimator(
            fresh, "mc-compiled", num_samples=NUM_SAMPLES, seed=seed,
            use_kernel=False, incremental=False,
        )
        self.check(
            oracle.expected_benefit(seeds, allocation) == result.expected_benefit,
            "solve: expected_benefit differs from the interpreted oracle",
        )
        self.check(
            result.total_cost <= fresh.budget_limit,
            f"solve: total_cost {result.total_cost!r} over budget {fresh.budget_limit!r}",
        )
        reference = make_estimator(fresh, "mc-compiled", num_samples=NUM_SAMPLES, seed=seed)
        for new_seeds, new_allocation, benefit in samples:
            self.check(
                reference.expected_benefit(new_seeds, new_allocation) == benefit,
                "what-if: benefit differs from a fresh estimator",
            )

    # -- campaign server ---------------------------------------------------

    def run_server(self) -> None:
        from repro.diffusion.factory import make_estimator
        from repro.exceptions import ServerError
        from repro.experiments.config import ServerConfig
        from repro.experiments.datasets import snap_scenario
        from repro.graph.generators import ppgg_like_graph
        from repro.server.app import CampaignApi
        from repro.server.service import CampaignService

        imported = self.imported()
        size, seed = self.size, self.seed
        # The client generates the graph and hands it over as a SNAP edge
        # list, the way a planner registers a real network.
        graph = ppgg_like_graph(
            num_nodes=size.nodes, avg_out_degree=PPGG_DEGREE,
            power_law_exponent=PPGG_EXPONENT, seed=seed,
        )
        edges = [(s, t) for s, t, _ in graph.edges()]
        del graph
        workdir = Path(self.spec["workdir"])
        workdir.mkdir(parents=True, exist_ok=True)
        snap_path = workdir / f"ppgg-{seed}.txt"
        snap_path.write_text("".join(f"{s}\t{t}\n" for s, t in edges))
        model = GraphModel(sorted({node for edge in edges for node in edge}), edges)
        generated = time.perf_counter()

        config = ServerConfig(
            job_workers=1, num_samples=NUM_SAMPLES, seed=seed,
            graph_cache_dir=str(workdir / "graph-cache"),
        )
        service = CampaignService(config)
        api = CampaignApi(service)
        stopped = False

        def call(label, handler, *args, counted=True):
            """One request; returns the body, or None after a failed op.

            Job polls count as ops only when they fail, so that the op count
            does not grow with solve latency.
            """
            self.request(label)
            try:
                status, body = handler(*args)
            except ServerError as error:
                status, body = getattr(error, "status", 500), {"detail": str(error)}
            except Exception as error:
                status, body = 500, {"detail": f"{type(error).__name__}: {error}"}
            ok = 200 <= status < 300
            if not ok or counted:
                self.op(ok, f"{label}: {status} {body.get('detail', '')}")
            return body if ok else None

        def solve(sid):
            """Enqueue a default solve and poll it; returns (seconds, job)."""
            began = time.perf_counter()
            job = call("solve", api.enqueue_solve, sid, {})
            if job is None:
                return None, None
            while True:
                info = call("poll", api.job_info, job["job_id"], counted=False)
                if info is None:
                    return None, None
                if info["status"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(POLL_SECONDS)
            seconds = time.perf_counter() - began
            if not self.op(info["status"] == "done", f"solve job: {info['error']}"):
                return None, None
            return seconds, info

        try:
            body = call(
                "register", api.register_scenario,
                {"snap_path": str(snap_path), "budget": size.budget, "seed": seed},
            )
            sid = body["scenario_id"] if body else None
            _, cold = solve(sid) if sid else (None, None)
            self.out["setup_s"] = (imported - PROCESS_START) + (
                time.perf_counter() - generated
            )
            stopped = cold is None
            budget = body["budget"] if body else 0.0
            resolve = node_resolver(set(model.out))
            whatif_rng = script_rng(seed, "whatif")
            event_rng = script_rng(seed, "events")
            samples = []
            solved = []
            for round_index in range(size.rounds):
                if stopped:
                    break
                seconds, job = solve(sid)
                if job is None:
                    break
                result = job["result"]
                self.out["solve_s"].append(seconds)
                self.out["queued_s"].append(job["queued_seconds"])
                self.out["rates"].append(result["redemption_rate"])
                seeds = {resolve(raw) for raw in result["seeds"]}
                allocation = {resolve(raw): n for raw, n in result["allocation"].items()}
                self.out["fingerprints"].append(fingerprint(seeds, allocation))
                solved.append((result["total_cost"], budget))
                ordered_seeds = sorted(seeds, key=str)
                holders = sorted(allocation, key=str)
                for index in range(size.whatifs):
                    query = whatif_query(whatif_rng, ordered_seeds, holders, budget)
                    began = time.perf_counter()
                    answer = call("whatif", api.whatif, sid, query)
                    elapsed = time.perf_counter() - began
                    if answer is None:
                        stopped = True
                        break
                    self.out["whatif_ms"].append(elapsed * 1e3)
                    if round_index == 0 and index % CHECK_EVERY == 0:
                        samples.append(
                            apply_whatif(query, seeds, allocation, resolve)
                            + (answer["modified"]["expected_benefit"],)
                        )
                for _ in range(size.event_batches):
                    if stopped:
                        break
                    events = model.draw_events(event_rng, size.events_per_batch, prefix="n")
                    wire = [
                        {key: (str(value) if key in ("node", "source", "target") else value)
                         for key, value in event.items()}
                        for event in events
                    ]
                    began = time.perf_counter()
                    answer = call("events", api.apply_events, sid, {"events": wire})
                    elapsed = time.perf_counter() - began
                    if answer is None:
                        # A refused batch may leave the scenario half-changed;
                        # later answers would only repeat the failure.
                        stopped = True
                        break
                    self.out["events_ms"].append(elapsed * 1e3)
            self.out["peak_rss_mb"] = peak_rss_mb()
        finally:
            service.close()
        self.finish_trace()

        fresh = snap_scenario(
            snap_path, budget=size.budget, seed=seed,
            cache_dir=str(workdir / "graph-cache"),
        )
        for total_cost, budget in solved:
            self.check(total_cost <= budget, f"solve: total_cost {total_cost!r} over {budget!r}")
        if samples:
            reference = make_estimator(
                fresh, "mc-compiled", num_samples=NUM_SAMPLES, seed=seed
            )
            for new_seeds, new_allocation, benefit in samples:
                self.check(
                    reference.expected_benefit(new_seeds, new_allocation) == benefit,
                    "what-if: benefit differs from a fresh estimator",
                )


def environment() -> dict:
    """The resolved kernel backend and versions; loads (and caches) the kernel."""
    import platform

    import numpy

    from repro.diffusion.kernels import kernel_backend

    return {
        "kernel_backend": kernel_backend() or "interpreted",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("warm"):
        print(json.dumps(environment()))
        return 0
    session = Session(spec)
    try:
        if session.workload.kind == "server":
            session.run_server()
        else:
            session.run_batch()
    except Exception:
        traceback.print_exc()
        return 1
    session.out["environment"] = environment()
    print(json.dumps(session.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

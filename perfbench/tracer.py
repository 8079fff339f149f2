"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public entry points of each ``repro`` layer from the
benchmark's side, without editing the package.  Every wrapped call records
one span: name, start, end, parent span (the innermost wrapped call open on
the same thread) and the request id the client set on that thread.  Spans
stay in memory and are written out once, when the session ends.

The per-layer table is derived from the spans afterwards: a span's self time
is its duration minus the durations of its direct child spans, so nested
layers are never counted twice.  Counters read from arguments and return
values at the same boundaries (worlds per kernel block, dirty worlds per
delta evaluation, slots per batch, ...) are accumulated next to the spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: (module under ``repro``, attribute path, span name).
#: The span name is ``<module>.<function or method name>``; the RR sketch's
#: constructor is named ``build`` because constructing it samples the sketch.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.social_graph", "SocialGraph.compiled", "compiled"),
    ("graph.social_graph", "SocialGraph.apply_events", "apply_events"),
    ("diffusion.engine", "WorldSampler.draw_block", "draw_block"),
    ("diffusion.engine", "CompiledCascadeEngine.submit", "submit"),
    ("diffusion.kernels", "CascadeKernel.cascade_block", "cascade_block"),
    (
        "diffusion.kernels",
        "CascadeKernel.cascade_world_instrumented",
        "cascade_world_instrumented",
    ),
    ("diffusion.kernels", "CascadeKernel.warm", "warm"),
    ("diffusion.delta", "DeltaCascadeEngine.snapshot", "snapshot"),
    ("diffusion.delta", "DeltaCascadeEngine.eval_extra_coupon", "eval_extra_coupon"),
    ("diffusion.delta", "DeltaCascadeEngine.eval_new_seed", "eval_new_seed"),
    ("diffusion.delta", "DeltaCascadeEngine.splice_base", "splice_base"),
    (
        "diffusion.delta",
        "DeltaCascadeEngine.splice_base_new_seed",
        "splice_base_new_seed",
    ),
    ("diffusion.delta", "DeltaCascadeEngine.refresh_benefit", "refresh_benefit"),
    ("diffusion.delta", "DeltaCascadeEngine.reconcile", "reconcile"),
    ("diffusion.estimator", "EvaluationPlan.execute", "execute"),
    ("diffusion.monte_carlo", "MonteCarloEstimator.submit_many", "submit_many"),
    ("diffusion.monte_carlo", "MonteCarloEstimator.expected_benefit", "expected_benefit"),
    (
        "diffusion.monte_carlo",
        "MonteCarloEstimator.activation_probabilities",
        "activation_probabilities",
    ),
    ("diffusion.factory", "make_estimator", "make_estimator"),
    ("diffusion.tiered", "TieredEstimator.submit_many", "submit_many"),
    ("diffusion.rr_sets", "RRBenefitEstimator.__init__", "build"),
    ("core.s3ca", "S3CA.solve", "solve"),
    ("core.investment", "InvestmentDeployment.build_pivot_queue", "build_pivot_queue"),
    ("core.investment", "InvestmentDeployment.run", "run"),
    ("core.marginal", "MarginalRedemption.of_extra_coupon", "of_extra_coupon"),
    ("core.deployment", "Deployment.total_cost", "total_cost"),
    ("core.maneuver", "SCManeuver.run", "run"),
    (
        "core.guaranteed_paths",
        "identify_guaranteed_paths",
        "identify_guaranteed_paths",
    ),
    ("server.app", "CampaignApi.register_scenario", "register_scenario"),
    ("server.app", "CampaignApi.enqueue_solve", "enqueue_solve"),
    ("server.app", "CampaignApi.job_info", "job_info"),
    ("server.app", "CampaignApi.whatif", "whatif"),
    ("server.app", "CampaignApi.apply_events", "apply_events"),
    ("server.state", "ResidentScenario.ensure_estimator", "ensure_estimator"),
    ("server.state", "ResidentScenario.ensure_sketch", "ensure_sketch"),
)

#: Modules that bind a wrapped module-level function by name at import time;
#: the wrapper is installed there too, or their calls would bypass it.
REBOUND_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "diffusion.factory.make_estimator": ("core.s3ca", "server.state"),
    "core.guaranteed_paths.identify_guaranteed_paths": ("core.s3ca",),
}

SPAN_NAMES: Tuple[str, ...] = tuple(
    f"{module}.{name}" for module, _, name in ENTRY_POINTS
)


def _offsets(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["offsets"]


#: Counters read at a span's boundary: span name -> (counter name, reader of
#: the call's ``(args, kwargs, result)``).  The per-session total is kept
#: under ``<span name>.<counter name>``.
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "diffusion.kernels.cascade_block": (
        "worlds", lambda args, kwargs, result: _offsets(args, kwargs).shape[0]
    ),
    "diffusion.delta.eval_extra_coupon": (
        "dirty_worlds", lambda args, kwargs, result: len(result.dirty_worlds or ())
    ),
    "diffusion.estimator.execute": ("slots", lambda args, kwargs, result: len(result)),
    "diffusion.monte_carlo.submit_many": (
        "slots", lambda args, kwargs, result: len(result)
    ),
    "core.guaranteed_paths.identify_guaranteed_paths": (
        "paths", lambda args, kwargs, result: len(result)
    ),
    "core.maneuver.run": (
        "operations", lambda args, kwargs, result: len(result.operations)
    ),
    "server.state.ensure_estimator": (
        "builds", lambda args, kwargs, result: int(bool(result[1]))
    ),
    "server.state.ensure_sketch": (
        "builds", lambda args, kwargs, result: int(bool(result[1]))
    ),
}

COUNTER_NAMES: Tuple[str, ...] = tuple(
    f"{span}.{counter}" for span, (counter, _) in COUNTERS.items()
)

#: Engine submits made directly under ``MonteCarloEstimator.submit_many``:
#: the slots that missed the memo.
MEMO_MISSES = "diffusion.monte_carlo.submit_many.engine_submits"


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        #: One record per finished span: [name, start, end, parent, request],
        #: where ``parent`` is the enclosing span's record (``None`` at a root).
        #: Records are appended when their span ends, so children precede
        #: their parents.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- request ids -----------------------------------------------------

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: Optional[str]) -> None:
        self._local.request_id = value

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        counter_name, read = COUNTERS.get(name, (None, None))
        counter_key = f"{name}.{counter_name}"
        spans = self.spans
        counters = self.counters
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, tracer.request_id]
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                spans.append(record)
            if read is not None:
                counters[counter_key] += read(args, kwargs, result)
            if (
                name == "diffusion.engine.submit"
                and parent is not None
                and parent[0] == "diffusion.monte_carlo.submit_many"
            ):
                counters[MEMO_MISSES] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`; :meth:`uninstall` undoes it."""
        for module_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(f"repro.{module_name}")
            span = f"{module_name}.{name}"
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, member, self.wrap(span, owner.__dict__[member]))
            else:
                wrapped = self.wrap(span, getattr(module, member))
                self._patch(module, member, wrapped)
                for importer in REBOUND_FUNCTIONS.get(f"{module_name}.{member}", ()):
                    self._patch(
                        importlib.import_module(f"repro.{importer}"), member, wrapped
                    )
        self._wrap_job_runner()

    def _patch(self, owner, member: str, value) -> None:
        self._patched.append((owner, member, getattr(owner, member)))
        setattr(owner, member, value)

    def _wrap_job_runner(self) -> None:
        """Carry the enqueuing request's id onto the job worker thread."""
        from repro.server.jobs import JobManager

        submit = JobManager.submit
        tracer = self

        @functools.wraps(submit)
        def submit_with_request_id(manager, kind, scenario_id, runner):
            request_id = tracer.request_id

            def run_as_request():
                tracer.request_id = request_id
                return runner()

            return submit(manager, kind, scenario_id, run_as_request)

        self._patch(JobManager, "submit", submit_with_request_id)

    def uninstall(self) -> None:
        while self._patched:
            owner, member, original = self._patched.pop()
            setattr(owner, member, original)

    # -- derived views -----------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Calls and self seconds per span name, derived from the spans."""
        child_seconds: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_seconds[id(parent)] += end - start
        table = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for record in self.spans:
            row = table[record[0]]
            row["calls"] += 1
            row["self_s"] += (record[2] - record[1]) - child_seconds[id(record)]
        return table

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed), in start order."""
        ordered = sorted(self.spans, key=lambda record: record[1])
        ids = {id(record): index for index, record in enumerate(ordered)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(ordered):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent is None else ids[id(parent)],
                            "request": request,
                        }
                    )
                    + "\n"
                )

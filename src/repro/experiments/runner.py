"""Experiment execution: run one algorithm on one scenario, with timing.

:class:`ExperimentRunner` holds a scenario and a shared Monte-Carlo estimator
(so every algorithm is scored against the same live-edge worlds) and runs a
set of :class:`~repro.experiments.config.AlgorithmSpec` entries, producing
:class:`RunRecord` rows the reporting layer can turn into the paper's tables
and series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.baselines.base import AlgorithmResult
from repro.baselines.coupon_wrappers import make_im_l, make_im_u, make_pm_l, make_pm_u
from repro.baselines.im_s import IMShortestPath
from repro.core.deployment import Deployment
from repro.core.s3ca import S3CA, S3CAResult
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import make_estimator
from repro.economics.scenario import Scenario
from repro.experiments.config import AlgorithmSpec, ExperimentConfig
from repro.experiments.metrics import explored_ratio, summarize_deployment
from repro.utils.timer import Timer

NodeId = Hashable


def shared_pool_for(config: ExperimentConfig):
    """A :class:`SharedShardPool` for ``config``, or ``None`` when pointless.

    A pool only helps the compiled Monte-Carlo backend — including the MC
    tier inside the tiered estimator — the other estimator methods ignore
    it, so spinning up worker processes for them would leak idle children
    for the duration of a sweep.  The caller owns the returned pool and must
    close it.
    """
    workers = config.estimator.workers or 1
    if workers > 1 and config.estimator_method in ("mc-compiled", "tiered"):
        from repro.diffusion.parallel import SharedShardPool

        return SharedShardPool(workers)
    return None


@dataclass
class RunRecord:
    """One algorithm's measured outcome on one scenario."""

    algorithm: str
    scenario: str
    metrics: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    deployment: Optional[Deployment] = None

    def get(self, key: str, default: float = 0.0) -> float:
        """Convenience accessor for a metric."""
        return self.metrics.get(key, default)


class ExperimentRunner:
    """Runs a list of algorithms on one scenario with a shared estimator.

    Every algorithm is priced by **one** estimator (same live-edge worlds, so
    comparisons are noise-free), and with ``config.estimator.workers > 1``
    that estimator runs on **one** persistent worker pool: either the injected
    ``pool`` (shared across runners — how the sweep harnesses amortise pool
    start-up over a whole parameter sweep) or a pool the runner creates and
    owns.  :meth:`close` releases the estimator and shuts down only a
    runner-owned pool — injected pools belong to their creator.  The runner
    is also a context manager.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[ExperimentConfig] = None,
        *,
        estimator: Optional[BenefitEstimator] = None,
        pool=None,
    ) -> None:
        self.scenario = scenario
        self.config = config or ExperimentConfig()
        self.pool = pool
        self._owns_pool = False
        if estimator is None:
            if pool is None:
                self.pool = pool = shared_pool_for(self.config)
                self._owns_pool = pool is not None
            estimator = make_estimator(
                scenario,
                self.config.estimator_method,
                num_samples=self.config.num_samples,
                seed=self.config.seed,
                spec=self.config.estimator,
                pool=pool,
            )
        self.estimator = estimator

    def close(self) -> None:
        """Release the estimator; shut down the pool only if this runner owns it."""
        close = getattr(self.estimator, "close", None)
        if close is not None:
            close()
        if self._owns_pool and self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def default_algorithms(self, include_im_s: bool = True) -> List[AlgorithmSpec]:
        """The paper's comparison set: IM-U, IM-L, PM-U, PM-L, IM-S and S3CA."""
        config = self.config
        specs = [
            AlgorithmSpec("IM-U", lambda sc, est, seed: make_im_u(sc, estimator=est)),
            AlgorithmSpec(
                "IM-L",
                lambda sc, est, seed: make_im_l(
                    sc, coupons_per_user=config.limited_coupons, estimator=est
                ),
            ),
            AlgorithmSpec("PM-U", lambda sc, est, seed: make_pm_u(sc, estimator=est)),
            AlgorithmSpec(
                "PM-L",
                lambda sc, est, seed: make_pm_l(
                    sc, coupons_per_user=config.limited_coupons, estimator=est
                ),
            ),
        ]
        if include_im_s:
            specs.append(
                AlgorithmSpec(
                    "IM-S", lambda sc, est, seed: IMShortestPath(sc, estimator=est)
                )
            )
        specs.append(
            AlgorithmSpec(
                "S3CA",
                lambda sc, est, seed: S3CA(
                    sc,
                    estimator=est,
                    candidate_limit=config.candidate_limit,
                    max_pivot_candidates=config.max_pivot_candidates,
                    incremental=config.estimator.incremental,
                ),
            )
        )
        return specs

    # ------------------------------------------------------------------

    def run_spec(self, spec: AlgorithmSpec) -> RunRecord:
        """Run one algorithm and measure it."""
        algorithm = spec.factory(self.scenario, self.estimator, self.config.seed)
        with Timer() as timer:
            raw = algorithm.run() if hasattr(algorithm, "run") else algorithm.solve()
        record = self._record_from_result(spec.name, raw, timer.elapsed)
        return record

    def run_all(
        self, specs: Optional[List[AlgorithmSpec]] = None
    ) -> List[RunRecord]:
        """Run every algorithm in ``specs`` (default: the paper's comparison set)."""
        specs = specs if specs is not None else self.default_algorithms()
        return [self.run_spec(spec) for spec in specs]

    # ------------------------------------------------------------------

    def _record_from_result(self, name: str, raw, seconds: float) -> RunRecord:
        if isinstance(raw, S3CAResult):
            deployment = raw.deployment
            extras = {
                "explored_nodes": float(raw.explored_nodes),
                "explored_ratio": explored_ratio(raw.explored_nodes, self.scenario.graph),
                "num_paths": float(raw.num_paths),
                "num_maneuvers": float(raw.num_maneuvers),
            }
            for key, value in raw.tier_stats.items():
                extras[f"tier_{key}"] = float(value)
        elif isinstance(raw, AlgorithmResult):
            deployment = raw.deployment
            extras = dict(raw.extras)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported result type: {type(raw)!r}")

        metrics = summarize_deployment(
            self.scenario.graph,
            deployment,
            self.estimator,
            rng=self.config.seed,
        )
        metrics.update(extras)
        metrics["seconds"] = seconds
        return RunRecord(
            algorithm=name,
            scenario=self.scenario.name,
            metrics=metrics,
            seconds=seconds,
            deployment=deployment,
        )

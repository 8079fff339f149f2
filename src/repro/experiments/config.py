"""Experiment configuration objects.

The benchmark scripts declare what to run through two small dataclasses:
:class:`AlgorithmSpec` (which algorithm, with which knobs) and
:class:`ExperimentConfig` (which dataset, budget, ratios, sample counts and
random seed).  Keeping them declarative makes the per-figure benchmark files
short and lets tests exercise the harness with tiny settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.diffusion.factory import (
    DEFAULT_ESTIMATOR_METHOD,
    ESTIMATOR_METHODS,
    EstimatorSpec,
)
from repro.exceptions import ExperimentError
from repro.utils.env import env_flag, env_int, env_str


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of one algorithm to compare.

    ``factory`` receives ``(scenario, estimator, seed)`` and returns an object
    with a ``run()`` method producing either an
    :class:`~repro.baselines.base.AlgorithmResult` or an
    :class:`~repro.core.s3ca.S3CAResult`.
    """

    name: str
    factory: Callable
    options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of one experimental condition."""

    dataset: str = "facebook"
    scale: float = 1.0
    budget: Optional[float] = None
    lam: float = 1.0
    kappa: float = 10.0
    num_samples: int = 100
    repetitions: int = 3
    seed: int = 2019
    candidate_limit: Optional[int] = 25
    max_pivot_candidates: Optional[int] = 150
    limited_coupons: int = 32
    estimator_method: str = DEFAULT_ESTIMATOR_METHOD
    #: How the estimator executes.  ``estimator.incremental`` also selects
    #: S3CA's delta + CELF ID phase (False forces the eager reference path,
    #: same deployment), and with ``estimator.workers > 1`` the runner and
    #: the sweep harnesses share **one** pool of that width across every
    #: algorithm, estimator and swept condition (see
    #: :class:`repro.diffusion.parallel.SharedShardPool`).
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)

    def __post_init__(self) -> None:
        if self.estimator_method not in ESTIMATOR_METHODS:
            raise ExperimentError(
                f"estimator_method must be one of {ESTIMATOR_METHODS}, "
                f"got {self.estimator_method!r}"
            )
        if self.scale <= 0:
            raise ExperimentError(f"scale must be > 0, got {self.scale}")
        if self.num_samples <= 0:
            raise ExperimentError(f"num_samples must be > 0, got {self.num_samples}")
        if self.repetitions <= 0:
            raise ExperimentError(f"repetitions must be > 0, got {self.repetitions}")
        if self.lam <= 0 or self.kappa <= 0:
            raise ExperimentError("lam and kappa must be > 0")

    def replace(self, **changes) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the campaign server (:mod:`repro.server`).

    The server keeps compiled graphs, RNG-frozen samplers, warmed kernels and
    one shared worker pool resident across requests; these knobs size that
    resident state.  Every field has an environment override
    (``REPRO_SERVER_*``, parsed through :mod:`repro.utils.env` so boolean
    spellings like ``0``/``false`` behave as off) and a CLI flag on
    ``repro serve``.
    """

    #: Bind address / port of the HTTP server.
    host: str = "127.0.0.1"
    port: int = 8000
    #: Solve-job worker threads draining the bounded job queue.
    job_workers: int = 2
    #: Bound of the job queue; submissions past it are rejected (HTTP 503)
    #: instead of accumulating unbounded resident work.
    max_queued_jobs: int = 64
    #: Default Monte-Carlo worlds / RNG seed of scenarios that do not specify
    #: their own at registration time.
    num_samples: int = 200
    seed: int = 2019
    #: How every resident estimator executes.  ``estimator.workers`` sizes
    #: the resident :class:`~repro.diffusion.parallel.SharedShardPool` every
    #: estimator registers on (``None``/``1`` evaluates in-process); the tier
    #: fields are the screening band of tiered solves that name none.
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    #: Compiled-graph cache directory for SNAP registrations (``None`` =
    #: ``$REPRO_GRAPH_CACHE_DIR`` or ``~/.cache/repro-graphs``).
    graph_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 < self.port < 65536):
            raise ExperimentError(f"port must be in (0, 65536), got {self.port}")
        if self.job_workers <= 0:
            raise ExperimentError(f"job_workers must be > 0, got {self.job_workers}")
        if self.max_queued_jobs <= 0:
            raise ExperimentError(
                f"max_queued_jobs must be > 0, got {self.max_queued_jobs}"
            )
        if self.num_samples <= 0:
            raise ExperimentError(f"num_samples must be > 0, got {self.num_samples}")

    def replace(self, **changes) -> "ServerConfig":
        """Return a copy with some fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)

    @classmethod
    def from_env(cls, **overrides) -> "ServerConfig":
        """Build a config from ``REPRO_SERVER_*`` variables, then overrides.

        Explicit keyword overrides (the CLI flags) win over the environment;
        ``None`` overrides are ignored so flag defaults don't mask env values.
        Overrides of the estimator's knobs (``workers``) land in
        :attr:`estimator`.
        """
        spec = {
            "workers": env_int("REPRO_SERVER_WORKERS", default=None),
            "shard_size": env_int("REPRO_SERVER_SHARD_SIZE", default=None),
            "use_kernel": False if env_flag("REPRO_SERVER_NO_KERNEL") else None,
            "shared_memory": (
                False if env_flag("REPRO_SERVER_NO_SHARED_MEMORY") else None
            ),
        }
        values = {
            "host": env_str("REPRO_SERVER_HOST", default=cls.host),
            "port": env_int("REPRO_SERVER_PORT", default=cls.port),
            "job_workers": env_int("REPRO_SERVER_JOB_WORKERS", default=cls.job_workers),
            "max_queued_jobs": env_int(
                "REPRO_SERVER_MAX_QUEUE", default=cls.max_queued_jobs
            ),
            "num_samples": env_int("REPRO_SERVER_SAMPLES", default=cls.num_samples),
            "seed": env_int("REPRO_SERVER_SEED", default=cls.seed),
            "graph_cache_dir": env_str("REPRO_SERVER_GRAPH_CACHE_DIR", default=None),
        }
        for key, value in overrides.items():
            if value is not None:
                (spec if key in spec else values)[key] = value
        return cls(estimator=EstimatorSpec(**spec), **values)

"""Estimator factory: one construction point for every benefit estimator.

The algorithms (S3CA, the baselines, the experiment runner, the CLI) never
instantiate estimator classes directly; they ask :func:`make_estimator` for
one by method name.  This keeps estimator selection in one place and lets a
single ``--estimator`` flag reach every layer.

How an estimator executes — delta engine, sharding, workers, kernel,
shared memory, screening band — is one :class:`EstimatorSpec`, declared and
validated here and carried unchanged by every layer above.

>>> from repro.experiments.datasets import toy_scenario
>>> estimator = make_estimator(toy_scenario(), "mc-compiled", num_samples=50, seed=7)
>>> type(estimator).__name__
'MonteCarloEstimator'
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.exact import ExactEstimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.diffusion.tiered import (
    DEFAULT_TIER_EPSILON,
    DEFAULT_TIER_TOP_K,
    TieredEstimator,
)
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike

#: Method names accepted by :func:`make_estimator`.
ESTIMATOR_METHODS = ("mc-compiled", "exact", "rr", "tiered")

DEFAULT_ESTIMATOR_METHOD = "mc-compiled"


@dataclass(frozen=True)
class EstimatorSpec:
    """How an estimator executes: the knobs every layer passes on as one.

    Method, world count and seed stay outside the spec: they decide *what*
    is estimated.  The spec decides *how*.  Its first five fields apply to
    the Monte-Carlo estimator (``"mc-compiled"`` and the MC tier of
    ``"tiered"``) and give bit-identical estimates for every setting; the
    tier fields apply to ``"tiered"`` only.  The other methods ignore it.

    incremental:
        Attach the delta-evaluation engine (:mod:`repro.diffusion.delta`).
    shard_size / workers:
        Evaluate worlds in blocks of ``shard_size`` (``None`` keeps every
        world resident) on a process pool of ``workers`` (``None``/``1``
        stays in-process); see :mod:`repro.diffusion.parallel`.  A caller
        that owns a shared pool sizes it from ``workers``.
    use_kernel:
        Native cascade kernel dispatch (:mod:`repro.diffusion.kernels`):
        ``None`` auto-detects with silent interpreted fallback, ``True``
        warns on fallback, ``False`` forces the interpreted oracle.
    shared_memory:
        Zero-copy shared-memory transport of the compiled graph and world
        blocks (:mod:`repro.utils.shm`): ``None`` enables it exactly when
        worlds execute out of process, ``True`` forces it (warning and
        by-value fallback when unavailable), ``False`` forces private copies.
    tier_epsilon / tier_top_k:
        The top ``tier_top_k`` sketch scores of a batch plus everything
        within a relative ``tier_epsilon`` band below the k-th are
        MC-confirmed (:class:`~repro.diffusion.tiered.TieredEstimator`).
    """

    incremental: bool = True
    shard_size: Optional[int] = None
    workers: Optional[int] = None
    use_kernel: Optional[bool] = None
    shared_memory: Optional[bool] = None
    tier_epsilon: float = DEFAULT_TIER_EPSILON
    tier_top_k: int = DEFAULT_TIER_TOP_K

    def __post_init__(self) -> None:
        for name in ("shard_size", "workers"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise EstimationError(f"{name} must be > 0 or None, got {value}")
        if not 0.0 <= self.tier_epsilon <= 1.0:
            raise EstimationError(
                f"tier_epsilon must be in [0, 1], got {self.tier_epsilon}"
            )
        if self.tier_top_k <= 0:
            raise EstimationError(f"tier_top_k must be > 0, got {self.tier_top_k}")


def rr_sketch(
    graph: SocialGraph, seed: SeedLike, num_sets: Optional[int] = None
) -> RRBenefitEstimator:
    """The RR sketch of ``"rr"`` and ``"tiered"`` (and the server's screen).

    ``num_sets`` defaults to ``max(2000, 25 * num_nodes)`` so every node
    gets a usable number of rooted samples.
    """
    num_sets = num_sets or max(2000, 25 * graph.num_nodes)
    return RRBenefitEstimator(graph, num_sets=num_sets, seed=seed)


def make_estimator(
    scenario_or_graph: Union["SocialGraph", object],
    method: str = DEFAULT_ESTIMATOR_METHOD,
    *,
    num_samples: int = 200,
    seed: SeedLike = None,
    spec: Optional[EstimatorSpec] = None,
    pool=None,
    max_exact_edges: int = 20,
    num_rr_sets: Optional[int] = None,
    **fields,
) -> BenefitEstimator:
    """Build a :class:`BenefitEstimator` for a scenario (or bare graph).

    Parameters
    ----------
    scenario_or_graph:
        A :class:`~repro.economics.scenario.Scenario` or the
        :class:`SocialGraph` itself.
    method:
        ``"mc-compiled"`` — Monte-Carlo on the compiled CSR engine (default);
        ``"exact"`` — exhaustive world enumeration (tiny graphs only);
        ``"rr"`` — reverse-reachable sets (plain-IC / unlimited-coupon regime
        only; ignores the allocation);
        ``"tiered"`` — two-tier estimation: an RR-sketch screening pass over
        every ``submit_many`` batch with only the frontier dispatched to a
        resident compiled Monte-Carlo tier (see
        :class:`~repro.diffusion.tiered.TieredEstimator`).
    num_samples / seed:
        Monte-Carlo worlds; ``seed`` also drives the RR sampler.
    spec / fields:
        How the estimator executes (:class:`EstimatorSpec`, default
        ``EstimatorSpec()``).  Keyword ``fields`` replace single spec fields,
        so ``make_estimator(scenario, use_kernel=False)`` needs no spec.
    pool:
        Optional :class:`~repro.diffusion.parallel.SharedShardPool` shared
        across estimators (Monte-Carlo methods only).  The estimator
        registers its worlds on the injected pool instead of creating its
        own, and never closes it — the pool's owner does.  ``spec.workers``
        is ignored when a pool is given (the pool's width wins).
    max_exact_edges:
        Edge cap forwarded to :class:`ExactEstimator`.
    num_rr_sets:
        RR-set count of the sketch (see :func:`rr_sketch`).
    """
    spec = spec or EstimatorSpec()
    if fields:
        spec = replace(spec, **fields)
    graph = getattr(scenario_or_graph, "graph", scenario_or_graph)
    if not isinstance(graph, SocialGraph):
        raise EstimationError(
            f"expected a Scenario or SocialGraph, got {type(scenario_or_graph)!r}"
        )
    if method == "exact":
        return ExactEstimator(graph, max_edges=max_exact_edges)
    if method == "rr":
        return rr_sketch(graph, seed, num_rr_sets)
    if method not in ("mc-compiled", "tiered"):
        raise EstimationError(
            f"unknown estimator method {method!r}; expected one of {ESTIMATOR_METHODS}"
        )
    mc = MonteCarloEstimator(
        graph,
        num_samples=num_samples,
        seed=seed,
        incremental=spec.incremental,
        shard_size=spec.shard_size,
        workers=spec.workers,
        pool=pool,
        use_kernel=spec.use_kernel,
        shared_memory=spec.shared_memory,
    )
    if method == "mc-compiled":
        return mc
    return TieredEstimator(
        mc,
        rr_sketch(graph, seed, num_rr_sets),
        tier_epsilon=spec.tier_epsilon,
        tier_top_k=spec.tier_top_k,
    )

"""Two-tier benefit estimation: RR-sketch screening + MC-confirmed frontier.

:class:`TieredEstimator` wraps a resident
:class:`~repro.diffusion.monte_carlo.MonteCarloEstimator` and overrides the
scheduler's batch primitive, :meth:`~TieredEstimator.submit_many`: the whole
batch is first scored with the vectorized plain-IC RR-sketch bound
(:meth:`~repro.diffusion.rr_sets.RRBenefitEstimator.benefit_bounds`), and only
the *frontier* — the top-``tier_top_k`` scores plus everything within an
``tier_epsilon`` relative band below the k-th score — is dispatched to the
Monte-Carlo tier.  Because every call site (pivot queue, coupon pass, SCM
donor ranking, IM/PM baselines) already routes comparison evaluations through
:class:`~repro.diffusion.estimator.EvaluationPlan` / ``submit_many``, they all
get screening for free.

Why accepted moves stay MC-confirmed
------------------------------------
* Single-deployment calls (``expected_benefit``, ``activation_probabilities``,
  the delta-evaluation API) delegate straight to the Monte-Carlo tier — every
  value an algorithm *accepts* or reports comes from MC.
* Screened-out slots return their sketch score scaled by the *minimum*
  MC/sketch ratio observed on the frontier (clipped to ``[0, 1]``), so a
  screened-out slot can never outrank the frontier's MC values in a
  caller-side argmax: winners are always MC-confirmed slots.
* The sketch ignores coupon allocations (plain-IC relaxation), so batches
  whose slots share one seed set — the eager coupon pass, SCM donor ranking —
  score identically, land entirely inside the ``>=`` band, and are never
  pruned: screening only engages where seed sets differ.

The screen is not deployment-neutral, even with the default band: it ranks
raw sketch scores while every caller ranks by rate, so a cheap candidate
with a low score and the best rate can be screened out.  On a 96-graph
sweep (200 and 400 nodes, power-law exponent 1.7–3.0) 51 tiered deployments
differ from the untiered ones; ``tests/diffusion/test_tiered.py`` pins two
of them as a strict xfail and checks identity only on its 80-node graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.diffusion.estimator import BenefitEstimator, DeploymentSpec, NodeId
from repro.diffusion.rr_sets import RRBenefitEstimator

#: Default relative width of the epsilon band below the k-th sketch score.
DEFAULT_TIER_EPSILON = 0.5
#: Default number of top sketch scores always dispatched to the MC tier.
DEFAULT_TIER_TOP_K = 48


class TieredEstimator(BenefitEstimator):
    """Sketch-screened wrapper around a resident Monte-Carlo estimator.

    Parameters
    ----------
    mc:
        The confirmation tier.  Everything not explicitly overridden here —
        the incremental/delta API, kernel and shared-memory introspection,
        event ingestion, ``close`` — is forwarded to it via attribute
        delegation, so the wrapper is a drop-in anywhere the MC estimator is.
    sketch:
        The screening tier (an :class:`RRBenefitEstimator` over the same
        graph), exposed as :attr:`sketch`.
    tier_epsilon:
        Relative band width in ``[0, 1]``: slots scoring
        ``>= kth_score * (1 - epsilon)`` are dispatched.  ``0`` keeps only
        ties with the top-k; larger values are more conservative.
    tier_top_k:
        Minimum number of top-scoring slots always dispatched (``> 0``).
        Batches no larger than this are never screened.

    Callers pass range-checked knobs: :class:`~repro.diffusion.factory.EstimatorSpec`
    checks them, and the server's ``SolveRequest`` checks a request's.
    """

    def __init__(
        self,
        mc: BenefitEstimator,
        sketch: RRBenefitEstimator,
        *,
        tier_epsilon: float = DEFAULT_TIER_EPSILON,
        tier_top_k: int = DEFAULT_TIER_TOP_K,
    ) -> None:
        super().__init__(mc.graph)
        self.mc = mc
        self.sketch = sketch
        self.tier_epsilon = float(tier_epsilon)
        self.tier_top_k = int(tier_top_k)
        self.screened_candidates = 0
        self.confirmed_candidates = 0
        self.screened_out_candidates = 0
        self.screening_batches = 0

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: forward the MC tier's
        # surface (delta API, kernel/shared-memory introspection, counters).
        if name.startswith("_") or name == "mc":
            raise AttributeError(name)
        return getattr(self.mc, name)

    # ------------------------------------------------------------------
    # MC-confirmed single-deployment surface

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        return self.mc.expected_benefit(seeds, allocation)

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        return self.mc.activation_probabilities(seeds, allocation)

    def expected_spread(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        return self.mc.expected_spread(seeds, allocation)

    def expected_spreads(
        self, deployments: Sequence[DeploymentSpec]
    ) -> List[float]:
        # Spread metrics are reporting, not candidate comparison: unscreened.
        return self.mc.expected_spreads(deployments)

    # ------------------------------------------------------------------
    # the screening tier

    def submit_many(self, deployments: Sequence[DeploymentSpec]) -> List[float]:
        deployments = list(deployments)
        if len(deployments) <= self.tier_top_k:
            return self.mc.submit_many(deployments)
        scores = self.sketch.benefit_bounds(deployments)
        kth_score = sorted(scores, reverse=True)[self.tier_top_k - 1]
        threshold = kth_score * (1.0 - self.tier_epsilon)
        frontier = [i for i, score in enumerate(scores) if score >= threshold]
        self.screening_batches += 1
        self.screened_candidates += len(deployments)
        self.confirmed_candidates += len(frontier)
        self.screened_out_candidates += len(deployments) - len(frontier)
        if len(frontier) == len(deployments):
            return self.mc.submit_many(deployments)
        confirmed = self.mc.submit_many([deployments[i] for i in frontier])
        ratios = [
            value / scores[i]
            for i, value in zip(frontier, confirmed)
            if scores[i] > 0.0
        ]
        calibration = min(1.0, max(0.0, min(ratios))) if ratios else 0.0
        results: List[float] = [score * calibration for score in scores]
        for i, value in zip(frontier, confirmed):
            results[i] = value
        return results

    # ------------------------------------------------------------------
    # counters

    @property
    def tier_stats(self) -> Dict[str, int]:
        """Screening counters, for results/telemetry."""
        return {
            "screening_batches": self.screening_batches,
            "screened_candidates": self.screened_candidates,
            "confirmed_candidates": self.confirmed_candidates,
            "screened_out_candidates": self.screened_out_candidates,
        }

    def close(self) -> None:
        close = getattr(self.mc, "close", None)
        if close is not None:
            close()

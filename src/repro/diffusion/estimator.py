"""The unified expected-benefit estimator interface.

Every algorithm in the library — S3CA's greedy phases, the IM/PM/IM-S
baselines, the exhaustive optimal solver — prices candidate deployments
through one abstract contract: :class:`BenefitEstimator`.  Four
implementations exist, selectable through
:func:`repro.diffusion.factory.make_estimator`:

``mc-compiled``
    :class:`~repro.diffusion.monte_carlo.MonteCarloEstimator` running on the
    compiled CSR backend (:mod:`repro.graph.csr`) with the vectorized cascade
    engine (:mod:`repro.diffusion.engine`).  The default.
``mc``
    The same estimator on the original dict-adjacency cascade.  Bit-for-bit
    the same activation probabilities for a fixed seed; kept as the reference
    implementation and for graphs mutated after estimator construction.
``exact``
    :class:`~repro.diffusion.exact.ExactEstimator` — world enumeration,
    tractable only for tens of edges.
``rr``
    :class:`~repro.diffusion.rr_sets.RRBenefitEstimator` — reverse-reachable
    set sampling; fast, but only valid for the unlimited-coupon (plain IC)
    regime.

The ABC lives in its own module so that the core, baseline and experiment
layers can depend on the interface without importing any concrete backend.

The evaluation scheduler
------------------------
Every greedy phase and baseline faces the same shape of work: a set of
candidate deployments whose benefits are compared against each other, with no
data dependency between the evaluations.  :class:`EvaluationPlan` is the one
scheduling unit for that shape — callers *add* deployments to a plan and
*execute* it, and the estimator decides how the batch actually runs:

* the default :meth:`BenefitEstimator.submit_many` loops
  :meth:`BenefitEstimator.expected_benefit` — the serial fallback, trivially
  bit-identical to single calls;
* :class:`~repro.diffusion.monte_carlo.MonteCarloEstimator` overrides
  :meth:`~BenefitEstimator.submit_many` to pipeline the uncached evaluations
  through ``engine.submit`` and the shared shard pool
  (:mod:`repro.diffusion.parallel`), keeping up to ``pipeline_depth``
  evaluations in flight — with results bit-identical to the serial loop for
  every workers / shard-size setting and any depth.

No layer above the estimator submits comparison evaluations one at a time:
S3CA's three phases, the baselines and the experiment harness all build plans
(or call the batch methods directly) and let the scheduler place the work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.social_graph import SocialGraph

NodeId = Hashable
#: Memo key of a deployment: its seed set and its positive ``(node, count)``
#: pairs, both as frozensets — order-free, and no sort, so node ids of mixed
#: types (int dataset ids next to str ids added by graph events) never meet
#: in a comparison.
DeploymentKey = Tuple[FrozenSet, FrozenSet]
#: One plan entry / batch element: ``(seeds, allocation)``.
DeploymentSpec = Tuple[Iterable[NodeId], Mapping[NodeId, int]]


class EvaluationPlan:
    """An ordered batch of benefit evaluations scheduled as one unit.

    A plan is the currency between the decision layers (greedy phases,
    baselines) and the estimator's scheduler: callers :meth:`add` every
    deployment they intend to compare, :meth:`execute` once, and read the
    per-slot results back.  How the batch runs — serial loop, pipelined
    ``engine.submit`` over a shard pool — is entirely the estimator's
    decision; the results are bit-identical either way.

    Plans are single-shot: :meth:`execute` is idempotent (the batch runs at
    most once) and :meth:`add` refuses new entries afterwards.
    """

    __slots__ = ("estimator", "_deployments", "_benefits", "_want_probabilities", "_probabilities")

    def __init__(self, estimator: "BenefitEstimator") -> None:
        self.estimator = estimator
        self._deployments: List[DeploymentSpec] = []
        self._benefits: Optional[List[float]] = None
        self._want_probabilities: Set[int] = set()
        self._probabilities: Dict[int, Dict[NodeId, float]] = {}

    def __len__(self) -> int:
        return len(self._deployments)

    @property
    def executed(self) -> bool:
        """Whether the plan's batch has already run."""
        return self._benefits is not None

    def add(
        self,
        seeds: Iterable[NodeId],
        allocation: Mapping[NodeId, int],
        *,
        want_probabilities: bool = False,
    ) -> int:
        """Enqueue one deployment; returns its slot index in the results.

        ``want_probabilities`` marks the slot as also needing its per-user
        activation probabilities; :meth:`execute` fetches them right after the
        batch runs, while the estimator's caches are still warm from the same
        pipelined pass, and :meth:`probabilities` reads them back.
        """
        if self._benefits is not None:
            raise RuntimeError("EvaluationPlan already executed; build a new plan")
        self._deployments.append((seeds, allocation))
        slot = len(self._deployments) - 1
        if want_probabilities:
            self._want_probabilities.add(slot)
        return slot

    def execute(self) -> List[float]:
        """Run the batch through the estimator's scheduler (idempotent).

        Returns the expected benefits in slot order — exactly the values
        per-deployment :meth:`BenefitEstimator.expected_benefit` calls would
        produce.
        """
        if self._benefits is None:
            self._benefits = self.estimator.submit_many(self._deployments)
            for slot in sorted(self._want_probabilities):
                seeds, allocation = self._deployments[slot]
                self._probabilities[slot] = self.estimator.activation_probabilities(
                    seeds, allocation
                )
        return self._benefits

    def benefit(self, slot: int) -> float:
        """The executed plan's expected benefit for ``slot``."""
        if self._benefits is None:
            raise RuntimeError("EvaluationPlan not executed yet")
        return self._benefits[slot]

    def probabilities(self, slot: int) -> Dict[NodeId, float]:
        """Activation probabilities for a slot added with ``want_probabilities``."""
        if self._benefits is None:
            raise RuntimeError("EvaluationPlan not executed yet")
        if slot not in self._probabilities:
            raise KeyError(
                f"slot {slot} was not added with want_probabilities=True"
            )
        return self._probabilities[slot]


class BenefitEstimator(ABC):
    """Interface shared by every expected-benefit estimator."""

    def __init__(self, graph: SocialGraph) -> None:
        self.graph = graph

    @abstractmethod
    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        """Expected total benefit of activated users under the deployment."""

    @abstractmethod
    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        """Per-user probability of ending up activated."""

    def plan(self) -> EvaluationPlan:
        """A fresh :class:`EvaluationPlan` scheduled by this estimator."""
        return EvaluationPlan(self)

    def submit_many(
        self, deployments: Sequence[DeploymentSpec]
    ) -> List[float]:
        """Expected benefits of a batch of ``(seeds, allocation)`` deployments.

        This is the scheduler's batch primitive, the single entry point every
        :class:`EvaluationPlan` executes through.  The default simply loops
        :meth:`expected_benefit` — the serial fallback; estimators with a
        parallel backend override this to pipeline the batch through
        ``engine.submit`` and their worker pool, with bit-identical results,
        so callers may always use the batch form.
        """
        return [
            self.expected_benefit(seeds, allocation)
            for seeds, allocation in deployments
        ]

    def expected_benefits(
        self, deployments: Sequence[DeploymentSpec]
    ) -> List[float]:
        """Batch form of :meth:`expected_benefit` (alias of :meth:`submit_many`)."""
        return self.submit_many(deployments)

    def expected_spreads(
        self, deployments: Sequence[DeploymentSpec]
    ) -> List[float]:
        """Expected activation counts of a batch of deployments.

        Same contract as :meth:`submit_many` for the spread metric: the
        default loops :meth:`expected_spread`; batch-capable estimators
        override it to warm both result caches from one pipelined pass per
        deployment, returning exactly what the per-deployment calls would.
        """
        return [
            self.expected_spread(seeds, allocation)
            for seeds, allocation in deployments
        ]

    def expected_spread(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        """Expected number of activated users (benefit with all benefits = 1)."""
        return sum(self.activation_probabilities(seeds, allocation).values())

    def likely_activated(
        self,
        seeds: Iterable[NodeId],
        allocation: Mapping[NodeId, int],
        threshold: float = 0.0,
    ) -> Set[NodeId]:
        """Users whose activation probability exceeds ``threshold``."""
        probabilities = self.activation_probabilities(seeds, allocation)
        return {node for node, prob in probabilities.items() if prob > threshold}

    @staticmethod
    def _key(
        seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> DeploymentKey:
        return (
            frozenset(seeds),
            frozenset((node, int(k)) for node, k in allocation.items() if k > 0),
        )

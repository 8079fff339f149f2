"""Snapshot reconciliation across graph-event applications.

When a :class:`~repro.graph.events.GraphEventBatch` evolves the graph under a
live :class:`~repro.diffusion.delta.DeltaCascadeEngine` snapshot, almost all
of the snapshot is still exactly right: a world whose live-edge draws never
touch a changed edge runs the *identical* cascade on the new graph.  This
module states the rule that finds those worlds (:func:`dirty_probe`,
:func:`dirty_rows`), which
:meth:`CompiledCascadeEngine.apply_events
<repro.diffusion.engine.CompiledCascadeEngine.apply_events>` applies to the
draws it reads while it evolves or redraws its blocks;
:meth:`DeltaCascadeEngine.reconcile
<repro.diffusion.delta.DeltaCascadeEngine.reconcile>`, the snapshot's only
writer, re-simulates the rest.

The dirty-world rule
--------------------
Draw positions are persistent (see :mod:`repro.graph.events`): a surviving
edge keeps its position, so the layered sampler gives it the same coin flip
in every world across graph versions.  World ``w`` can only change if one of
the batch's changed edges actually participates in its live adjacency, in
either graph version:

* **dropped** edge at position ``p`` with old probability ``q`` — the world
  is affected iff ``draw[p] < q`` (the edge was live and is now gone);
* **added** edge at position ``p`` with probability ``q`` — affected iff
  ``draw[p] < q`` (the edge is live in the new graph; it did not exist in
  the old);
* **reweighted** edge with probabilities ``q_old → q_new`` — affected iff
  ``draw[p] < max(q_old, q_new)``.  Liveness flips only inside the interval
  between the two, but an edge live in *both* versions can still change its
  rank inside its source row (hand-off order), which alters the cascade —
  so any world where the edge is live in either version is conservatively
  dirty.

In a clean world every changed edge is dead in both versions, so the live
target sequence of every node is unchanged (surviving live edges keep their
probabilities and hence their relative ranked order), the cascade replays
move for move, and the recorded queue / limited list / counts are carried
over by bookkeeping alone.  That is why the post-reconcile snapshot is
**bit-identical** to a cold instrumented pass on the evolved graph — the
parity the reconciliation test suite pins across the interpreted oracle,
the native kernel and multiprocess workers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.events import EventApplication

__all__ = ["ReconcileOutcome", "dirty_probe", "dirty_rows"]


class ReconcileOutcome:
    """What one estimator-level reconcile did — the server's receipt.

    Attributes
    ----------
    num_worlds / dirty_worlds:
        Total worlds versus worlds whose draws touch a changed edge; only
        the latter were re-simulated.
    touched_edges:
        Edges the batch changed (added + dropped + reweighted).
    reconciled:
        ``True`` when a live snapshot was advanced in place; ``False`` when
        there was no snapshot to reconcile (nothing solved yet) or the
        deployment did not survive the remap and a fresh snapshot pass ran.
    base_benefit:
        The base deployment's expected benefit on the evolved graph, when a
        snapshot exists (``None`` otherwise).
    """

    __slots__ = (
        "num_worlds",
        "dirty_worlds",
        "touched_edges",
        "reconciled",
        "base_benefit",
    )

    def __init__(
        self,
        *,
        num_worlds: int,
        dirty_worlds: int,
        touched_edges: int,
        reconciled: bool,
        base_benefit: Optional[float],
    ) -> None:
        self.num_worlds = int(num_worlds)
        self.dirty_worlds = int(dirty_worlds)
        self.touched_edges = int(touched_edges)
        self.reconciled = bool(reconciled)
        self.base_benefit = base_benefit

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ReconcileOutcome(dirty={self.dirty_worlds}/{self.num_worlds}, "
            f"touched_edges={self.touched_edges}, "
            f"reconciled={self.reconciled})"
        )


def dirty_probe(application: EventApplication) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, thresholds)`` of the dirty-world rule for one batch.

    ``positions`` (int64) are the draw positions of the batch's changed
    edges; world ``w`` is dirty iff its draw at ``positions[i]`` lies below
    ``thresholds[i]`` for some ``i`` (see :func:`dirty_rows`).
    """
    positions: List[int] = []
    thresholds: List[float] = []
    for position, probability in application.added:
        positions.append(position)
        thresholds.append(probability)
    for position, old_probability in application.dropped:
        positions.append(position)
        thresholds.append(old_probability)
    for position, old_probability, new_probability in application.reweighted:
        positions.append(position)
        thresholds.append(max(old_probability, new_probability))
    return (
        np.asarray(positions, dtype=np.int64),
        np.asarray(thresholds, dtype=np.float64),
    )


def dirty_rows(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per-world booleans from each world's draws at the probed positions."""
    return (draws < thresholds).any(axis=1)

